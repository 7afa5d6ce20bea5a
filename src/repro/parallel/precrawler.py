"""The Precrawling Phase (§6.2).

Before any AJAX crawling happens, the :class:`Precrawler` builds the
traditional, link-based site structure: starting from one URL it follows
hyperlinks breadth-first (JavaScript disabled — hyperlinks are static
content), up to a page budget.  The discovered outbound-link structure
is then used to compute PageRank, and the URL list feeds the
partitioner.

Outputs mirror the thesis' serialized structures: the link graph
(``HashMap<String, ArrayList<String>>``) and the PageRank values
(``HashMap<String, Double>``), here stored as JSON.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.browser import Browser
from repro.clock import CostModel, SimClock
from repro.errors import BrowserError
from repro.net.server import SimulatedServer
from repro.search.ranking import pagerank

#: File names used on disk (chapter 8 calls these PageRank.txt etc.).
LINK_GRAPH_FILE = "linkgraph.json"
PAGERANK_FILE = "pagerank.json"
URLS_FILE = "urls.json"


@dataclass
class PrecrawlResult:
    """Everything the precrawling phase produces."""

    #: URL -> outbound URLs (discovery-restricted).
    link_graph: dict[str, list[str]] = field(default_factory=dict)
    #: URL -> PageRank value.
    pageranks: dict[str, float] = field(default_factory=dict)
    #: URLs in breadth-first discovery order.
    urls: list[str] = field(default_factory=list)

    def save(self, root_dir: str | Path) -> None:
        root = Path(root_dir)
        root.mkdir(parents=True, exist_ok=True)
        (root / LINK_GRAPH_FILE).write_text(json.dumps(self.link_graph), encoding="utf-8")
        (root / PAGERANK_FILE).write_text(json.dumps(self.pageranks), encoding="utf-8")
        (root / URLS_FILE).write_text(json.dumps(self.urls), encoding="utf-8")

    @classmethod
    def load(cls, root_dir: str | Path) -> "PrecrawlResult":
        root = Path(root_dir)
        return cls(
            link_graph=json.loads((root / LINK_GRAPH_FILE).read_text(encoding="utf-8")),
            pageranks=json.loads((root / PAGERANK_FILE).read_text(encoding="utf-8")),
            urls=json.loads((root / URLS_FILE).read_text(encoding="utf-8")),
        )


class Precrawler:
    """Breadth-first hyperlink discovery + PageRank computation."""

    def __init__(
        self,
        server: SimulatedServer,
        max_pages: int = 1000,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.max_pages = max_pages
        self.browser = Browser(
            server, clock=clock, cost_model=cost_model, javascript_enabled=False
        )

    def run(self, start_url: str) -> PrecrawlResult:
        """Discover up to ``max_pages`` pages reachable from ``start_url``."""
        discovered: list[str] = []
        link_graph: dict[str, list[str]] = {}
        seen = {start_url}
        queue: deque[str] = deque([start_url])
        while queue and len(discovered) < self.max_pages:
            url = queue.popleft()
            try:
                page = self.browser.load(url)
            except BrowserError:
                continue  # dead link: skip, keep crawling
            discovered.append(url)
            with page:
                outbound = self._extract_links(page)
            link_graph[url] = outbound
            for target in outbound:
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        restricted = set(discovered)
        link_graph = {
            url: [target for target in targets if target in restricted]
            for url, targets in link_graph.items()
        }
        return PrecrawlResult(
            link_graph=link_graph,
            pageranks=pagerank(link_graph),
            urls=discovered,
        )

    @staticmethod
    def _extract_links(page) -> list[str]:
        from urllib.parse import urljoin

        links: list[str] = []
        for anchor in page.document.root.get_elements_by_tag("a"):
            href = anchor.get_attribute("href")
            if not href or href.startswith(("javascript:", "#", "mailto:")):
                continue
            resolved = urljoin(page.url, href)
            if resolved.startswith("http"):
                links.append(resolved)
        return links
