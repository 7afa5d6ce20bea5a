"""The browser: loads URLs into :class:`~repro.browser.page.Page` objects.

One :class:`Browser` bundles the simulated network gateway, the virtual
clock/cost model and the JavaScript policy (enabled or not, hot-node
policy attached or not).  A traditional crawler uses a browser with
``javascript_enabled=False``; the AJAX crawler uses a full one.
"""

from __future__ import annotations

from typing import Optional

from repro.browser.page import PARSE_ACCOUNT, Page
from repro.clock import CostModel, SimClock
from repro.dom import parse_document
from repro.errors import BrowserError
from repro.js import Interpreter
from repro.js.ast import FunctionDeclaration
from repro.js.interpreter import Code
from repro.net.faults import RetryPolicy
from repro.net.gateway import NetworkGateway
from repro.net.server import SimulatedServer
from repro.net.stats import NetworkStats
from repro.net.xhr import HotCallPolicy, make_xhr_constructor
from repro.obs import NULL_RECORDER


class Browser:
    """A headless browser over the simulated network."""

    def __init__(
        self,
        server: SimulatedServer,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[NetworkStats] = None,
        javascript_enabled: bool = True,
        hot_policy: Optional[HotCallPolicy] = None,
        retry_policy: Optional[RetryPolicy] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.clock = clock or SimClock()
        self.cost_model = cost_model or CostModel()
        self.stats = stats or NetworkStats()
        self.recorder = recorder
        self.recorder.bind_clock(self.clock)
        self.gateway = NetworkGateway(
            server,
            self.clock,
            self.cost_model,
            self.stats,
            retry_policy=retry_policy,
            recorder=recorder,
        )
        self.javascript_enabled = javascript_enabled
        self.hot_policy = hot_policy
        #: Handler source -> compiled program, shared by every page loaded
        #: here (parsed and compiled once per crawl); inline scripts never
        #: enter it.
        self.programs: dict[str, Code] = {}
        #: Top-level function declaration text -> AST, shared the same
        #: way: what inline scripts repeat page after page
        #: (``Interpreter.run_once``).
        self.declarations: dict[str, FunctionDeclaration] = {}

    def load(self, url: str, run_scripts: bool = True, run_onload: bool = True) -> Page:
        """Fetch ``url`` and build a page.

        ``run_scripts``/``run_onload`` control the AJAX-specific
        initialisation; both are ignored when JavaScript is disabled.
        """
        response = self.gateway.fetch_page(url)
        if not response.ok:
            raise BrowserError(f"failed to load {url}: HTTP {int(response.status)}")
        self.clock.advance(
            self.cost_model.html_parse_ms(response.body_bytes), PARSE_ACCOUNT
        )
        document = parse_document(response.body, url=url)
        interpreter = Interpreter()
        interpreter.programs = self.programs
        interpreter.declarations = self.declarations
        page = Page(
            url=url,
            document=document,
            interpreter=interpreter,
            clock=self.clock,
            cost_model=self.cost_model,
            javascript_enabled=self.javascript_enabled,
            recorder=self.recorder,
        )
        interpreter.define_global(
            "XMLHttpRequest",
            make_xhr_constructor(self.gateway, base_url=url, policy=self.hot_policy),
        )
        if self.javascript_enabled and run_scripts:
            page.run_scripts()
            if run_onload:
                page.run_onload()
        return page
