"""A webmail-like AJAX application ("SimMail").

Section 4.3 of the thesis warns that a naive event crawler pointed at an
authenticated GMail/Yahoo! Mail "could mean deleting E-mails from the
user's Inbox".  SimMail exists to exercise exactly that hazard: it is a
folder-tabbed inbox whose folders load via AJAX **and whose messages
carry Delete buttons that really mutate server state**.

A correct crawler must (a) enumerate the folder events and (b) *refuse*
to fire the destructive ones — the crawler's
:data:`~repro.crawler.ajax.UPDATE_EVENT_PATTERNS` guard.  The server
counts every delete so tests can prove no message was harmed.

SimMail also serves the crawl-granularity hint file the thesis predicts
("we predict that in the future, AJAX Web Sites will provide a
robots.txt file with information on the possible granularity of search
on their pages", §4.3): ``/ajax-robots.json`` with a per-site
``max_states`` limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.net.http import Request, Response, not_found
from repro.net.server import SimulatedServer

#: Path of the granularity-hint file (the thesis' predicted robots.txt).
AJAX_ROBOTS_PATH = "/ajax-robots.json"

_FOLDERS = ("inbox", "archive", "spam")

_SUBJECTS = {
    "inbox": [
        ("alice", "lunch tomorrow at noon"),
        ("build-bot", "nightly build succeeded on all platforms"),
        ("carol", "quarterly report draft attached"),
    ],
    "archive": [
        ("dave", "old invoice from january"),
        ("eve", "conference travel reimbursement approved"),
    ],
    "spam": [
        ("prince", "urgent business proposal millions waiting"),
    ],
}


@dataclass
class MailboxState:
    """Mutable server-side mailbox (so deletes are observable)."""

    deleted: list[tuple[str, int]]

    def delete(self, folder: str, index: int) -> None:
        self.deleted.append((folder, index))


class SyntheticWebmail(SimulatedServer):
    """SimMail: AJAX folders + destructive delete buttons."""

    def __init__(self, base_url: str = "http://simmail.test", max_states_hint: int = 5):
        self.base_url = base_url
        self.max_states_hint = max_states_hint
        self.mailbox = MailboxState(deleted=[])

    @property
    def inbox_url(self) -> str:
        return f"{self.base_url}/mail"

    @property
    def delete_count(self) -> int:
        """How many messages crawlers have destroyed so far."""
        return len(self.mailbox.deleted)

    # -- server interface --------------------------------------------------------

    def handle(self, request: Request) -> Response:
        if request.path == "/mail":
            return Response(body=self._render_mail_page())
        if request.path == "/folder":
            return self._handle_folder(request)
        if request.path == "/delete":
            return self._handle_delete(request)
        if request.path == AJAX_ROBOTS_PATH:
            return Response(
                body=json.dumps({"max_states": self.max_states_hint}),
                content_type="application/json",
            )
        return not_found(request.url)

    def _handle_folder(self, request: Request) -> Response:
        folder = request.query.get("name", "")
        if folder not in _FOLDERS:
            return not_found(request.url)
        return Response(body=self._render_folder(folder))

    def _handle_delete(self, request: Request) -> Response:
        folder = request.query.get("folder", "inbox")
        index = int(request.query.get("i", "0"))
        self.mailbox.delete(folder, index)
        return Response(body=self._render_folder(folder))

    # -- rendering -----------------------------------------------------------------

    def _render_folder(self, folder: str) -> str:
        messages = _SUBJECTS[folder]
        alive = [
            (i, sender, subject)
            for i, (sender, subject) in enumerate(messages)
            if (folder, i) not in self.mailbox.deleted
        ]
        rows = "\n".join(
            f"<li>{sender}: {subject} "
            f'<a id="del-{folder}-{i}" onclick="deleteMessage(\'{folder}\', {i})">'
            "delete</a></li>"
            for i, sender, subject in alive
        )
        return f"<h2>{folder}</h2>\n<ul>\n{rows}\n</ul>"

    def _render_mail_page(self) -> str:
        tabs = "\n".join(
            f'<a id="tab-{folder}" onclick="openFolder(\'{folder}\')">{folder}</a>'
            for folder in _FOLDERS
        )
        return f"""<html>
<head><title>SimMail</title></head>
<body onload="openFolder('inbox')">
<h1>SimMail</h1>
<div id="tabs">{tabs}</div>
<div id="messages">loading...</div>
<script>
function fetchUrl(url) {{
    var req = new XMLHttpRequest();
    req.open("GET", url, true);
    req.send(null);
    return req.responseText;
}}
function openFolder(name) {{
    document.getElementById("messages").innerHTML = fetchUrl("/folder?name=" + name);
}}
function deleteMessage(folder, i) {{
    document.getElementById("messages").innerHTML =
        fetchUrl("/delete?folder=" + folder + "&i=" + i);
}}
</script>
</body>
</html>"""
