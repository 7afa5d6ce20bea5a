"""The crawls whose scripts and markup the substrate goldens record.

``tests/js/test_script_golden.py`` and ``tests/dom/test_markup_golden.py``
pin what the script engine and the HTML parser produce on every input
these crawls feed them: a ``simtube:40`` crawl (the hot-node site), the
same site in JSON mode at 8 videos (its script builds the markup with
``map``/``push``/``join``) and a small ``generate_site`` crawl (the
conformance corpus' generated pages).  Each golden file is rewritten by
running its test module as a script with ``--regen``.
"""

from __future__ import annotations

import hashlib

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler
from repro.sites import SiteConfig, SyntheticYouTube
from repro.testgen import generate_site
from repro.testgen.conformance import conformance_config
from repro.testgen.site import GeneratedSite


def run_crawls() -> None:
    """Crawl the three sites, each with a fresh crawler and clock."""
    for json_api, videos in ((False, 40), (True, 8)):
        site = SyntheticYouTube(SiteConfig(num_videos=videos, seed=7, json_api=json_api))
        AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0)).crawl(
            site.all_video_urls()
        )
    spec = generate_site(7, num_pages=3, max_states=12, extra_edges=8)
    AjaxCrawler(
        GeneratedSite(spec),
        conformance_config(spec),
        clock=SimClock(),
        cost_model=CostModel(network_jitter=0.0),
    ).crawl(spec.all_urls())


def digest(text: str) -> str:
    """A short stable key for an input or an over-long outcome."""
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]
