"""A loaded page: DOM plus a live JavaScript context.

The :class:`Page` is what the crawler operates on.  It can

* run the page's ``<script>`` elements and the body ``onload``,
* enumerate and dispatch user events (producing new DOM states),
* report whether the last dispatch changed the DOM,
* snapshot and restore its complete state (DOM **and** script
  variables), which implements the ``appModel.rollback(t)`` step of
  Algorithm 3.1.1: a snapshot copies the tree once (the first adopts
  the loaded tree), a rollback undoes the writes journaled since the
  last one,
* release a snapshot's tree (:meth:`Page.discard`) and everything it
  allocated (:meth:`Page.close`), so that reference counting, not the
  cycle collector, frees a crawled page.

All JavaScript execution charges virtual time proportional to the
number of interpreter steps; DOM re-parses charge parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.browser.bindings import DocumentHost, ElementHost, WindowHost
from repro.browser.events import (
    DEFAULT_EVENT_TYPES,
    EventBinding,
    enumerate_events,
    onload_handler,
    take,
)
from repro.clock import CostModel, SimClock
from repro.dom import (
    Document,
    DomHashes,
    Element,
    HashStats,
    Node,
    hash_tree,
    parse_fragment,
)
from repro.dom.hashing import cached_state
from repro.errors import BrowserError, JavascriptError
from repro.js import Interpreter
from repro.obs import NULL_RECORDER

#: Clock account for JavaScript execution.
JS_ACCOUNT = "javascript"
#: Clock account for HTML parsing / DOM (re)construction.
PARSE_ACCOUNT = "parsing"


@dataclass(eq=False)
class PageSnapshot:
    """Everything needed to restore a page to an earlier state; two
    snapshots are equal only if they are the same one."""

    #: ``len(serialize(master))``: what a restore charges as re-parsed.
    html_length: int
    globals_snapshot: dict[str, Any]
    hash: str
    #: The tree (with warm Merkle hash caches) taken by
    #: :meth:`Page.snapshot`: the loaded tree itself for a page's first
    #: snapshot, a copy of the live tree for every later one.
    #: :meth:`Page.restore` makes it the page's live tree itself; it is
    #: either live, with every write to it in the page's undo journal,
    #: or exactly as taken.
    master: Document
    #: ``id`` -> the first element of ``master`` carrying it (:meth:`Page.element_by_id`).
    ids: dict[str, Element]
    #: The default-type events of ``master`` (:meth:`Page.events`).
    bindings: list[EventBinding]


class Page:
    """One loaded AJAX page.  It owns its trees, snapshots and script
    globals, and :meth:`close` (or leaving a ``with`` block) frees them."""

    def __init__(
        self,
        url: str,
        document: Document,
        interpreter: Interpreter,
        clock: SimClock,
        cost_model: CostModel,
        javascript_enabled: bool = True,
        recorder=NULL_RECORDER,
    ) -> None:
        self.url = url
        self.document = document
        self.interpreter = interpreter
        self.clock = clock
        self.cost_model = cost_model
        self.javascript_enabled = javascript_enabled
        self.recorder = recorder
        #: Hashing work accounting for this page (all passes, all kinds).
        self.hash_stats = HashStats()
        self.document_host = DocumentHost(self)
        self.window_host = WindowHost(self)
        self._element_hosts: dict[Element, ElementHost] = {}
        #: ``innerHTML`` markup -> its parsed nodes, which :meth:`fragment`
        #: lends as they are.  A memo tree is either detached and exactly
        #: as parsed, or lent and journaled.  Lives and dies with the
        #: page, so it needs no bound.
        self._fragments: dict[str, list[Node]] = {}
        #: The markups whose memo nodes are out since the last restore.
        self._lent: set[str] = set()
        #: The snapshot whose master is the live tree (None until the
        #: first :meth:`snapshot`: nothing before it is ever rolled back
        #: to, so no write before it is journaled).
        self._live: Optional[PageSnapshot] = None
        #: Every snapshot not discarded, so that :meth:`close` releases its master.
        self._snapshots: list[PageSnapshot] = []
        #: ``Element._save()`` records of every write since ``_live``
        #: became the live tree, oldest first.
        self._journal: list[tuple] = []
        #: Children displaced by unjournaled writes, for :meth:`close`.
        self._displaced: list[Node] = []
        self._dirty = False
        #: JavaScript errors swallowed while loading page scripts.
        self.script_errors: list[JavascriptError] = []
        interpreter.define_global("document", self.document_host)
        interpreter.define_global("window", self.window_host)

    # -- host helpers ------------------------------------------------------------

    def wrap_element(self, element: Element) -> ElementHost:
        """The (cached) host wrapper for a DOM element."""
        host = self._element_hosts.get(element)
        if host is None:
            host = self._element_hosts[element] = ElementHost(element, self)
        return host

    def fragment(self, markup: str) -> list[Node]:
        """Detached nodes for ``markup``, to be attached through
        :meth:`write` and nowhere else.

        Once writes are journaled the nodes parsed for ``markup`` are
        lent themselves, digests and all, at most once between two
        restores: :meth:`restore` detaches them again and undoes what a
        script wrote inside.  Any other request is parsed afresh, never
        cloned from the memo, because a lent tree may have been written
        to since.
        """
        if self._live is None or markup in self._lent:
            return parse_fragment(markup)
        self._lent.add(markup)
        nodes = self._fragments.get(markup)
        if nodes is None:
            nodes = self._fragments[markup] = parse_fragment(markup)
        return nodes

    def write(
        self, element: Element, mutator: Callable[..., Any], *args: Any, parse_bytes: int = 0
    ) -> None:
        """Apply ``mutator(element, *args)``: the one way the DOM changes
        once the page is loaded (scripts through the bindings, the forms
        extension in :meth:`dispatch`).

        Journals what the call can overwrite *before* it runs, so that
        :meth:`restore` can undo it, flags the page dirty and charges
        the parse time of ``parse_bytes`` of markup.  ``element`` need
        not be attached: a handler may empty a parent and then write to
        a child it still holds.
        """
        if self._live is not None:
            for arg in args:
                # appendChild of an attached node also rewrites the
                # parent it leaves; saved first, so reinstated last.
                if isinstance(arg, Node) and arg.parent is not None:
                    self._journal.append(arg.parent._save())
            self._journal.append(element._save())
        else:
            self._displaced += element.children
        mutator(element, *args)
        self._dirty = True
        if parse_bytes:
            self.clock.advance(self.cost_model.html_parse_ms(parse_bytes), PARSE_ACCOUNT)

    # -- script execution ----------------------------------------------------------

    def run_scripts(self) -> None:
        """Execute all ``<script>`` elements in document order.

        Like a browser, a script block that fails (syntax or runtime
        error) is skipped without aborting the page: later blocks still
        run.  Failures are collected in :attr:`script_errors`.
        """
        if not self.javascript_enabled:
            return
        for script in self.document.root.get_elements_by_tag("script"):
            source = "".join(
                child.data for child in script.children if hasattr(child, "data")
            )
            if not source.strip():
                continue
            try:
                self._execute(self.interpreter.run_once, source)
            except JavascriptError as error:
                self.script_errors.append(error)

    def run_onload(self) -> None:
        """Invoke the body ``onload`` handler (Algorithm 3.1.1 line 3).

        A failing onload is recorded in :attr:`script_errors` rather than
        raised: the crawl proceeds with whatever DOM the page has.
        """
        if not self.javascript_enabled:
            return
        handler = onload_handler(self.document)
        if not handler:
            return
        try:
            self.execute_js(handler)
        except JavascriptError as error:
            self.script_errors.append(error)

    def execute_js(self, source: str) -> Any:
        """Run ``source`` in the page context, charging virtual time."""
        return self._execute(self.interpreter.run, source)

    def _execute(self, run: Callable[[str], Any], source: str) -> Any:
        if not self.javascript_enabled:
            raise BrowserError("JavaScript is disabled for this page")
        before = self.interpreter.steps
        with self.recorder.span("js_exec") as span:
            try:
                return run(source)
            finally:
                delta = self.interpreter.steps - before
                self.clock.advance(self.cost_model.js_execution_ms(delta), JS_ACCOUNT)
                span.annotate(steps=delta)

    # -- events ------------------------------------------------------------------------

    def events(self, event_types=DEFAULT_EVENT_TYPES) -> list[EventBinding]:
        """Invocable events in the current DOM: the live snapshot's while
        the journal is empty (the live tree is then exactly its master),
        else by walking the tree."""
        live = self._live
        if live is None or self._journal or event_types != DEFAULT_EVENT_TYPES:
            return enumerate_events(self.document, event_types)
        return list(live.bindings)

    def dispatch(self, binding: EventBinding) -> bool:
        """Fire one event; returns True when the DOM changed.

        Raises :class:`~repro.errors.BrowserError` when the binding's
        source element no longer exists in the current DOM.
        """
        element = binding.locator.resolve(self.document, self.element_by_id)
        if element is None:
            raise BrowserError(f"event source {binding.describe()} not found")
        if element.get_attribute(binding.event_type) != binding.handler:
            # The locator resolved, but to an element that no longer
            # carries this event (the DOM shifted under a path locator).
            raise BrowserError(f"event source {binding.describe()} is stale")
        if binding.input_value is not None:
            # Forms extension: type the value into the source element
            # before firing the handler (kept as an attribute so state
            # snapshots and hashes capture it).
            self.write(element, Element.set_attribute, "value", binding.input_value)
        self._dirty = False
        # Make `this` available to the handler the way browsers do.
        self.interpreter.define_global("this", self.wrap_element(element))
        try:
            self.execute_js(binding.handler)
        except JavascriptError:
            # A failing handler must not kill the crawl; the DOM may
            # still have partially changed.
            return self._dirty
        return self._dirty

    def element_by_id(self, element_id: str) -> Optional[Element]:
        """``document.get_element_by_id``: from the live snapshot's id table
        while the journal is empty (the live tree is then exactly its
        master), else (a write since the last restore, or no snapshot
        yet) by walking the tree."""
        live = self._live
        if live is None or self._journal:
            return self.document.get_element_by_id(element_id)
        return live.ids.get(element_id)

    @property
    def dom_changed(self) -> bool:
        """Whether a mutation happened since the last dispatch began."""
        return self._dirty

    # -- state identity & rollback ----------------------------------------------------------

    def content_hash(self) -> str:
        """Hash identifying the current DOM state (duplicate detection)."""
        return hash_tree(self.document, stats=self.hash_stats).state

    def hash_state(self) -> DomHashes:
        """One combined Merkle pass: state hash plus full region map.

        Re-hashes only subtrees dirtied since the last pass (or the
        last :meth:`restore`, which leaves every digest warm).
        """
        with self.recorder.span("hash_pass") as span:
            hashes = hash_tree(self.document, stats=self.hash_stats)
            span.annotate(
                nodes_hashed=hashes.nodes_hashed,
                nodes_skipped=hashes.nodes_skipped,
                incremental=hashes.incremental,
            )
        return hashes

    def snapshot(self) -> PageSnapshot:
        """Capture DOM and script globals for a later :meth:`restore`.
        The first snapshot adopts the loaded tree as its master (and
        journals writes from then on); every later one copies the tree.
        Either way one walk (:func:`~repro.browser.events.take`) also
        yields the master's length, id table and events."""
        # The master is taken with the caches a hash pass warmed: the
        # crawler's own pass, whose digest is still on the clean root,
        # or, when a write has dirtied the tree since, one run here.
        digest = cached_state(self.document) or self.content_hash()
        adopt = self._live is None
        taken = take(self.document.root, copy=not adopt)
        snapshot = PageSnapshot(
            html_length=taken.length,
            globals_snapshot=dict(self.interpreter.global_env.bindings),
            hash=digest,
            master=self.document if adopt else Document(taken.root, url=self.document.url),
            ids=taken.ids,
            bindings=taken.bindings,
        )
        if self._live is None:
            self._live = snapshot
        self._snapshots.append(snapshot)
        return snapshot

    def restore(self, snapshot: PageSnapshot) -> None:
        """Roll the page back to ``snapshot`` (DOM and script variables).

        The virtual clock is always charged the full re-parse cost (the
        simulated browser still parses); the *wall-clock* work is
        undoing the journaled writes, newest first, which leaves the
        live tree exactly as :meth:`snapshot` copied it, Merkle caches
        included.  Only then, when ``snapshot`` is a different one, does
        its master become the live tree: the tree left behind is
        pristine again, so no rollback ever copies a tree.  A discarded
        snapshot is refused.
        """
        if snapshot is not self._live and snapshot not in self._snapshots:
            raise BrowserError("cannot restore a discarded snapshot")
        while self._journal:
            Element._reinstate(self._journal.pop())
        # Drained: every lent fragment is detached and as parsed again.
        self._lent.clear()
        if snapshot is not self._live:
            self._live = snapshot
            self.document = snapshot.master
        self.clock.advance(
            self.cost_model.html_parse_ms(snapshot.html_length), PARSE_ACCOUNT
        )
        self.interpreter.global_env.bindings = dict(snapshot.globals_snapshot)
        self._element_hosts.clear()
        self._dirty = False

    @property
    def text(self) -> str:
        """Visible text of the current state (what gets indexed)."""
        return self.document.text_content

    # -- lifecycle ----------------------------------------------------------------------

    def discard(self, snapshot: PageSnapshot) -> None:
        """Release the master of ``snapshot``, which is then never
        restored, and refuse the live one.  Unlike :meth:`close` this
        drops each node's ``parent``, not its children: an element a
        script global still holds reads as it did."""
        if snapshot is self._live:
            raise BrowserError("cannot discard the live snapshot")
        try:
            self._snapshots.remove(snapshot)
        except ValueError:  # discarded already, or the page is closed
            return
        root = snapshot.master.root
        root._document = None
        nodes: list[Node] = [root]
        while nodes:
            node = nodes.pop()
            node.parent = None
            if type(node) is Element:
                nodes += node.children

    def close(self) -> None:
        """Release what the page allocated, so that reference counting
        frees it; idempotent, and the page is unusable afterwards.

        Empties every tree the page holds (the live one, each snapshot's
        master, the fragment memo, what a write displaced) and drops
        what refers back to the page (snapshots, host wrappers, script
        globals): no parent and child, document and root, or page and
        host then hold each other.
        """
        if self.document_host is None:
            return
        trees = [self.document] + [snapshot.master for snapshot in self._snapshots]
        nodes = [tree.root for tree in trees] + self._displaced
        for tree in trees:
            tree.root._document = None
        for memo in self._fragments.values():
            nodes += memo
        for saved in self._journal:  # what a write not yet undone displaced
            nodes += saved[1]
        _release(nodes)
        self._snapshots.clear()
        self._element_hosts.clear()
        self._live = self.document_host = self.window_host = None
        self.interpreter.global_env.bindings.clear()

    def __enter__(self) -> "Page":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _release(nodes: list[Node]) -> None:
    """Empty the ``children`` of every element in or under ``nodes`` (a
    list it consumes): no node then refers down a tree, so no parent and
    child hold each other."""
    while nodes:
        node = nodes.pop()
        if type(node) is Element:
            nodes += node.children
            node.children.clear()
