"""One walk takes a snapshot's tree (``repro.browser.events.take``).

Its serialized length, id table and events must be what serializing
the master, looking each id up by walking it and enumerating its events
element by element give, on every state of the 50-seed conformance
corpus and of a ``simtube:40`` crawl.
"""

import pytest

from repro.browser import DEFAULT_EVENT_TYPES, EventBinding, Page, enumerate_events, locate
from repro.browser.events import take
from repro.clock import CostModel
from repro.crawler import AjaxCrawler
from repro.dom import parse_document, serialize
from repro.sites import SiteConfig, SyntheticYouTube
from repro.testgen import spec_for_seed
from repro.testgen.conformance import crawl_generated


def element_by_element(document):
    """The enumeration the walk replaced: every element in pre-order,
    located by ``locate``, by its id only if no earlier element has it."""
    bindings, first_with = [], {}
    for element in (document.root, *document.root.iter_elements()):
        first = first_with.setdefault(element.attrs.get("id"), element) is element
        for event_type in DEFAULT_EVENT_TYPES:
            handler = element.get_attribute(event_type)
            if handler:
                locator = locate(element, document, by_id=first)
                bindings.append(EventBinding(locator, event_type, handler))
    return bindings


def check_taken(snapshot):
    master = snapshot.master
    assert snapshot.html_length == len(serialize(master))
    assert snapshot.bindings == enumerate_events(master) == element_by_element(master)
    ids = {
        element.attrs["id"]
        for element in (master.root, *master.root.iter_elements())
        if "id" in element.attrs
    }
    # Elements compare by identity: each id maps to the first one carrying it.
    assert snapshot.ids == {key: master.get_element_by_id(key) for key in ids}


@pytest.fixture
def checked(monkeypatch):
    """Check every snapshot as it is taken (its master is pristine then);
    yields the list of their hashes."""
    hashes = []
    snapshot = Page.snapshot

    def checked_snapshot(page):
        taken = snapshot(page)
        check_taken(taken)
        hashes.append(taken.hash)
        return taken

    monkeypatch.setattr(Page, "snapshot", checked_snapshot)
    return hashes


def test_every_state_of_the_conformance_corpus(checked):
    states = 0
    for seed in range(50):
        _, crawl = crawl_generated(spec_for_seed(seed))
        states += crawl.report.total_states
    assert len(checked) == states == len(set(checked)) > 400


def test_every_state_of_a_simtube_crawl(checked):
    site = SyntheticYouTube(SiteConfig(num_videos=40, seed=7))
    crawl = AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0)).crawl(
        site.all_video_urls()
    )
    assert len(checked) == crawl.report.total_states > 100


@pytest.mark.parametrize(
    "markup",
    [
        '<html><body><img src="a&b" alt=\'"q"\'><br></body></html>',
        "<html><head><script>if (a < b && c > d) go();</script></head>"
        '<body><p onclick="f(1 < 2)">x &amp; y &lt; z</p><input value="v"/></body></html>',
        '<html><body><div id="a" onclick="f()"><span id="a" onmouseover="g()">é</span>'
        '</div><div onclick="" ondblclick="h()"></div></body></html>',
    ],
)
def test_escapes_void_elements_raw_text_and_repeated_ids(markup):
    """The corners of serializing and locating, on trees no site serves:
    entities, quotes, void and raw-text elements, a repeated id and an
    empty handler; copied or not, the walk reads the same."""
    document = parse_document(markup)
    for copy in (False, True):
        taken = take(document.root, copy=copy)
        assert (taken.root is document.root) is not copy
        assert taken.length == len(serialize(document)) == len(serialize(taken.root))
        assert taken.bindings == element_by_element(document)
        root = taken.root
        ids = {e.attrs["id"] for e in (root, *root.iter_elements()) if "id" in e.attrs}
        assert taken.ids == {key: root.get_element_by_id(key) for key in ids}
