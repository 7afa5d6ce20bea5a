"""The synthetic YouTube-like AJAX application ("SimTube").

This is the experiment substrate: a deterministic
:class:`~repro.net.server.SimulatedServer` that mirrors the structure of
the 2008 YouTube watch page the thesis crawled (section 1.1):

* a watch page per video at ``/watch?v=<id>`` containing the title,
  description, related-video hyperlinks and the **first** page of
  comments inline (what a JavaScript-less browser sees);
* a comment pagination UI whose next/prev/jump links are JavaScript
  events, re-rendered inside the AJAX fragment for every comment page;
* one AJAX endpoint ``/comments?v=<id>&p=<n>`` returning the comment
  fragment for page ``n`` — fetched by a single script function
  ``getUrl``, the page's one **hot node** (Table 4.2/4.3).

Every byte of HTML is a pure function of ``(seed, video, page)``, so the
server is trivially stateless (assumption §4.3) and the corpus is
reproducible across processes — which the parallel crawler relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.http import Request, Response, not_found
from repro.net.server import SimulatedServer
from repro.sites.corpus import CommentCorpus
from repro.sites.distributions import CommentPageDistribution

#: How many comments one comment page carries (YouTube showed 10).
COMMENTS_PER_PAGE = 10

#: Jump links shown around the current page (YouTube showed a few).
JUMP_WINDOW = 2

#: Related-video links per watch page (the precrawler's link graph).
RELATED_LINKS = 4

PAGE_SCRIPT_TEMPLATE = """
var currentPage = 1;
var maxPage = {max_page};
function showLoading(div_id) {{
    var d = document.getElementById(div_id);
}}
function urchinTracker(path) {{
}}
function getUrl(url, async) {{
    var req = new XMLHttpRequest();
    req.open("GET", url, async);
    req.send(null);
    return req.responseText;
}}
function getUrlXMLResponseAndFillDiv(url, div_id) {{
    var response = getUrl(url, true);
    var div = document.getElementById(div_id);
    div.innerHTML = response;
}}
function showPage(p) {{
    if (p < 1) {{ p = 1; }}
    if (p > maxPage) {{ p = maxPage; }}
    currentPage = p;
    showLoading('recent_comments');
    getUrlXMLResponseAndFillDiv('/comments?v={video_id}&p=' + p, 'recent_comments');
    urchinTracker('/watch?v={video_id}&p=' + p);
}}
function nextPage() {{ showPage(currentPage + 1); }}
function prevPage() {{ showPage(currentPage - 1); }}
function jumpToPage(p) {{ showPage(p); }}
function init() {{ currentPage = 1; }}
function highlightComments() {{
    var div = document.getElementById('recent_comments');
    div.style.backgroundColor = '#ffffcc';
}}
"""

#: Script used when the site runs in JSON-API mode: the fragment markup
#: is built client-side from a JSON payload (post-2008 AJAX style).
PAGE_SCRIPT_JSON_TEMPLATE = """
var currentPage = 1;
var maxPage = {max_page};
function showLoading(div_id) {{
}}
function urchinTracker(path) {{
}}
function getUrl(url, async) {{
    var req = new XMLHttpRequest();
    req.open("GET", url, async);
    req.send(null);
    return req.responseText;
}}
function renderNav(page, max) {{
    if (max <= 1) {{ return ''; }}
    var parts = [];
    if (page > 1) {{
        parts.push('<a id="prev" onclick="prevPage()">previous</a>');
    }}
    var lo = page - {jump_window}; if (lo < 1) {{ lo = 1; }}
    var hi = page + {jump_window}; if (hi > max) {{ hi = max; }}
    for (var t = lo; t <= hi; t++) {{
        if (t == page) {{
            parts.push('<span>' + t + '</span>');
        }} else {{
            parts.push('<a id="page' + t + '" onclick="jumpToPage(' + t + ')">' + t + '</a>');
        }}
    }}
    if (page < max) {{
        parts.push('<a id="next" onclick="nextPage()">next</a>');
    }}
    return parts.join(' ');
}}
function renderComments(data) {{
    var items = data.comments.map(function (c) {{
        return '<li><b>' + c.author + '</b>: ' + c.text + '</li>';
    }});
    return '<ol class="comment-list" start="' + data.start + '">'
        + items.join('') + '</ol>'
        + '<div id="comment_nav">' + renderNav(data.page, data.max_page) + '</div>';
}}
function showPage(p) {{
    if (p < 1) {{ p = 1; }}
    if (p > maxPage) {{ p = maxPage; }}
    currentPage = p;
    showLoading('recent_comments');
    var data = JSON.parse(getUrl('/comments?v={video_id}&p=' + p, true));
    document.getElementById('recent_comments').innerHTML = renderComments(data);
    urchinTracker('/watch?v={video_id}&p=' + p);
}}
function nextPage() {{ showPage(currentPage + 1); }}
function prevPage() {{ showPage(currentPage - 1); }}
function jumpToPage(p) {{ showPage(p); }}
function init() {{ currentPage = 1; }}
"""


@dataclass(frozen=True)
class SiteConfig:
    """Shape of the generated site."""

    num_videos: int = 100
    seed: int = 7
    base_url: str = "http://simtube.test"
    #: When True, comment fragments carry a decorative ``onmouseover``
    #: that changes styling only (no DOM mutation) — one of the thesis'
    #: "very granular events" that waste crawl effort and that the
    #: incremental recrawler learns to skip.
    decorative_events: bool = False
    #: When True the comments endpoint returns JSON and the page script
    #: renders the HTML client-side (the post-2008 AJAX style).  The
    #: crawler needs no changes: states, events and hot nodes are
    #: identical in structure.
    json_api: bool = False


class SyntheticYouTube(SimulatedServer):
    """The SimTube server: watch pages plus an AJAX comments endpoint."""

    def __init__(self, config: SiteConfig | None = None) -> None:
        self.config = config or SiteConfig()
        self.corpus = CommentCorpus(seed=self.config.seed)
        self.distribution = CommentPageDistribution(seed=self.config.seed)

    # -- public helpers ----------------------------------------------------------

    def video_url(self, index: int) -> str:
        """Absolute URL of video ``index``'s watch page."""
        identity = self.corpus.video_identity(index)
        return f"{self.config.base_url}/watch?v={identity.video_id}"

    def all_video_urls(self) -> list[str]:
        return [self.video_url(i) for i in range(self.config.num_videos)]

    def comment_pages_of(self, index: int) -> int:
        """Ground truth: number of comment pages of video ``index``."""
        return self.distribution.pages_for(index)

    def related_indexes(self, index: int) -> list[int]:
        """Ground-truth hyperlink targets of video ``index``.

        Always includes ``index + 1`` so a breadth-first precrawl from
        video 0 discovers every video; the rest spread pseudo-randomly.
        """
        count = self.config.num_videos
        if count <= 1:
            return []
        related = [(index + 1) % count]
        for step in range(2, RELATED_LINKS + 1):
            candidate = (index * 31 + step * 17 + 7) % count
            if candidate != index and candidate not in related:
                related.append(candidate)
        return related

    def comment_text(self, index: int, page: int, slot: int) -> str:
        """Ground-truth comment body (used by tests and oracles)."""
        return self.corpus.comment(index, page, slot)

    # -- server interface -----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        if request.path == "/watch":
            return self._handle_watch(request)
        if request.path == "/comments":
            return self._handle_comments(request)
        return not_found(request.url)

    # -- watch page -------------------------------------------------------------------

    def _handle_watch(self, request: Request) -> Response:
        index = self._index_for(request.query.get("v", ""))
        if index is None:
            return not_found(request.url)
        return Response(body=self._render_watch(index))

    def _index_for(self, video_id: str) -> int | None:
        if not video_id.startswith("v"):
            return None
        try:
            index = int(video_id[1:])
        except ValueError:
            return None
        if 0 <= index < self.config.num_videos:
            return index
        return None

    def _render_watch(self, index: int) -> str:
        identity = self.corpus.video_identity(index)
        max_page = self.comment_pages_of(index)
        if self.config.json_api:
            script = PAGE_SCRIPT_JSON_TEMPLATE.format(
                max_page=max_page,
                video_id=identity.video_id,
                jump_window=JUMP_WINDOW,
            )
        else:
            script = PAGE_SCRIPT_TEMPLATE.format(
                max_page=max_page, video_id=identity.video_id
            )
        related = "\n".join(
            f'<li><a href="{self.video_url(target)}">'
            f"{self.corpus.video_identity(target).full_title}</a></li>"
            for target in self.related_indexes(index)
        )
        first_fragment = self._render_fragment(index, page=1)
        return f"""<html>
<head><title>{identity.full_title} - SimTube</title></head>
<body onload="init()">
<h1 id="video_title">{identity.full_title}</h1>
<div id="description">{self.corpus.description(index)}</div>
<div id="recent_comments">{first_fragment}</div>
<div id="related"><ul>
{related}
</ul></div>
<script type="text/javascript">{script}</script>
</body>
</html>"""

    # -- comments endpoint ---------------------------------------------------------------

    def _handle_comments(self, request: Request) -> Response:
        index = self._index_for(request.query.get("v", ""))
        if index is None:
            return not_found(request.url)
        try:
            page = int(request.query.get("p", "1"))
        except ValueError:
            return not_found(request.url)
        if not 1 <= page <= self.comment_pages_of(index):
            return not_found(request.url)
        if self.config.json_api:
            return Response(
                body=self._render_json_payload(index, page),
                content_type="application/json",
            )
        return Response(body=self._render_fragment(index, page))

    def _render_json_payload(self, index: int, page: int) -> str:
        """The JSON-API response for one comment page."""
        import json

        return json.dumps(
            {
                "page": page,
                "max_page": self.comment_pages_of(index),
                "start": (page - 1) * COMMENTS_PER_PAGE + 1,
                "comments": [
                    {
                        "author": self.corpus.comment_author(index, page, slot),
                        "text": self.corpus.comment(index, page, slot),
                    }
                    for slot in range(COMMENTS_PER_PAGE)
                ],
            }
        )

    def _render_fragment_json_style(self, index: int, page: int) -> str:
        """Python mirror of the client-side ``renderComments`` output, so
        the inline page-1 markup hashes identically to the JS-built one."""
        items = "".join(
            f"<li><b>{self.corpus.comment_author(index, page, slot)}</b>: "
            f"{self.corpus.comment(index, page, slot)}</li>"
            for slot in range(COMMENTS_PER_PAGE)
        )
        start = (page - 1) * COMMENTS_PER_PAGE + 1
        return (
            f'<ol class="comment-list" start="{start}">{items}</ol>'
            f'<div id="comment_nav">{self._render_nav(index, page)}</div>'
        )

    def _render_fragment(self, index: int, page: int) -> str:
        """The AJAX fragment: comments of ``page`` plus its pagination UI.

        Page 1's fragment is byte-identical to the markup inlined in the
        watch page, so reaching page 1 through an event produces the
        same state hash as the initial state (duplicate elimination).
        """
        if self.config.json_api:
            return self._render_fragment_json_style(index, page)
        comments = "\n".join(
            f'<li><b>{self.corpus.comment_author(index, page, slot)}</b>: '
            f"{self.corpus.comment(index, page, slot)}</li>"
            for slot in range(COMMENTS_PER_PAGE)
        )
        decorative = (
            ' onmouseover="highlightComments()"' if self.config.decorative_events else ""
        )
        return (
            f'<ol class="comment-list"{decorative} '
            f'start="{(page - 1) * COMMENTS_PER_PAGE + 1}">\n'
            f"{comments}\n</ol>\n"
            f'<div id="comment_nav">{self._render_nav(index, page)}</div>'
        )

    def _render_nav(self, index: int, page: int) -> str:
        max_page = self.comment_pages_of(index)
        if max_page <= 1:
            return ""
        parts: list[str] = []
        if page > 1:
            parts.append('<a id="prev" onclick="prevPage()">previous</a>')
        window = JUMP_WINDOW
        for target in range(max(1, page - window), min(max_page, page + window) + 1):
            if target == page:
                parts.append(f"<span>{target}</span>")
            else:
                parts.append(
                    f'<a id="page{target}" onclick="jumpToPage({target})">{target}</a>'
                )
        if page < max_page:
            parts.append('<a id="next" onclick="nextPage()">next</a>')
        return " ".join(parts)
