"""The differential harness: all parity checks, plus proof it can fail.

The smoke corpus (50 seeds, every check) is the acceptance gate pinned
in ``make check``; the mutation tests tamper with a spec after the site
is built so the harness demonstrably *detects* divergence rather than
vacuously passing.
"""

from dataclasses import replace

import pytest

from repro.testgen import (
    CHECK_NAMES,
    generate_site,
    run_conformance,
    run_corpus,
    spec_for_seed,
)
from repro.crawler import AjaxCrawler
from repro.net import StaticServer
from repro.testgen.conformance import (
    check_ground_truth,
    check_hotnode_parity,
    check_incremental_parity,
    check_parallel_parity,
    check_replay_reachability,
    check_search_consistency,
    replay_failures,
)

FAST_SEEDS = range(6)


@pytest.fixture(scope="module", params=list(FAST_SEEDS))
def spec(request):
    return spec_for_seed(request.param)


class TestIndividualChecks:
    def test_ground_truth(self, spec):
        assert check_ground_truth(spec).failures == []

    def test_hotnode_parity(self, spec):
        assert check_hotnode_parity(spec).failures == []

    def test_incremental_parity(self, spec):
        assert check_incremental_parity(spec).failures == []

    def test_parallel_parity(self, spec):
        assert check_parallel_parity(spec).failures == []

    def test_search_consistency(self, spec):
        assert check_search_consistency(spec).failures == []

    def test_replay_reachability(self, spec):
        assert check_replay_reachability(spec).failures == []


def test_ground_truth_on_pages_with_two_digit_state_indices():
    """Marker ``…s1`` is a prefix of ``…s10``: states must be identified
    by whole marker tokens, not substrings."""
    spec = generate_site(8, min_states=12, max_states=14)
    assert spec.pages[0].num_states >= 12
    assert check_ground_truth(spec).failures == []


class TestHarness:
    def test_report_shape(self):
        report = run_conformance(spec_for_seed(0))
        assert [r.name for r in report.results] == list(CHECK_NAMES)
        assert report.passed
        assert report.failures == []
        assert "PASS" in report.summary()

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown conformance check"):
            run_conformance(spec_for_seed(0), checks=("ground_truth", "vibes"))

    def test_spec_for_seed_varies_pages(self):
        assert len(spec_for_seed(0).pages) == 1
        assert len(spec_for_seed(1).pages) == 2
        assert len(spec_for_seed(2).pages) == 3
        assert len(spec_for_seed(2, num_pages=1).pages) == 1

    def test_check_subset(self):
        report = run_conformance(spec_for_seed(1), checks=("ground_truth",))
        assert [r.name for r in report.results] == ["ground_truth"]
        assert report.passed


class TestHarnessDetectsDivergence:
    """Tamper with the ground truth after generation: checks must fail."""

    def _with_phantom_state(self, spec):
        page = spec.pages[0]
        phantom = replace(
            page,
            num_states=page.num_states + 1,
            markers=page.markers + (f"mgXp{page.page_id}sphantom",),
            words=page.words + (("amber",),),
        )
        return replace(spec, pages=(phantom,) + spec.pages[1:])

    def test_ground_truth_catches_missing_state(self):
        tampered = self._with_phantom_state(spec_for_seed(0))
        result = check_ground_truth(tampered)
        assert not result.passed
        assert any("states" in failure for failure in result.failures)

    def test_search_catches_missing_marker(self):
        tampered = self._with_phantom_state(spec_for_seed(0))
        result = check_search_consistency(tampered)
        assert not result.passed
        assert any("phantom" in failure for failure in result.failures)

    def test_report_collects_failures(self):
        tampered = self._with_phantom_state(spec_for_seed(0))
        report = run_conformance(
            tampered, checks=("ground_truth", "search_consistency")
        )
        assert not report.passed
        assert all(f.startswith("[seed 0]") for f in report.failures)
        assert "FAIL" in report.summary()


@pytest.mark.slow
def test_smoke_corpus_50_seeds():
    """Acceptance gate: every check passes on 50 generated seeds."""
    reports = run_corpus(range(50))
    failures = [failure for report in reports for failure in report.failures]
    assert failures == []
    # The corpus actually exercises multi-page (parallel-relevant) shapes.
    assert {len(report.spec.pages) for report in reports} == {1, 2, 3}


PROBE_URL = "http://probe.test/"


def crawl_probe(*links):
    """Crawl one page holding ``<div id="d">``, a global ``seen = []`` and
    one ``<a ATTRS>`` per ``(attrs, handler)``; returns the models and
    their replay failures."""
    anchors = "".join(f'<a {attrs} onclick="{handler}">go</a>' for attrs, handler in links)
    html = (
        '<html><body><div id="d"></div><script>var seen = [];</script>'
        f"{anchors}</body></html>"
    )
    site = StaticServer({PROBE_URL: html})
    models = AjaxCrawler(site).crawl([PROBE_URL]).models
    return models, replay_failures(models, site)


def writes(text):
    return f"document.getElementById('d').innerHTML = {text}"


def test_a_later_duplicate_id_is_its_own_event_source():
    # Located by the id, the second link resolved to the first one: its
    # event was skipped as stale and shared the first's quarantine key.
    models, failures = crawl_probe(('id="x"', writes("'first'")), ('id="x"', writes("'second'")))
    assert [model.num_states for model in models] == [3]
    assert failures == []
    sources = {t.event.source for t in models[0].transitions()}
    assert len(sources) == 2 and "#x" in sources


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1a: a handler's in-place push onto a global array survives"
    " Page.restore, so the crawl records states (11 here) that event replay from a"
    " fresh load cannot reach (9 of them)",
)
def test_every_state_of_a_page_whose_handlers_share_an_array_replays():
    shared = "seen.push(1); " + writes("'seen ' + seen.length")
    models, failures = crawl_probe(("", shared), ("", shared))
    assert failures == []
