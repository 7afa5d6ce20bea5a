"""Form-filling AJAX crawling — chapter 10 future work.

"A second [avenue] is to address forms in AJAX applications.  Most AJAX
applications allow user input.  Combining AJAX Search and work on Deep
Web can provide insight on which content is relevant for crawling."

The :class:`FormFillingAjaxCrawler` applies the classic Deep-Web recipe
(Raghavan & Garcia-Molina style) to AJAX state crawling: every text
input that carries a form event (``onkeyup``/``onchange``/``oninput``)
is *typed into* with each value of a caller-provided dictionary, then
its handler fires — so a Google-Suggest-style application exposes one
state per probed value.  Transitions are annotated with the typed value,
which keeps result aggregation (event replay) working.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.browser import Page
from repro.browser.events import EventBinding
from repro.crawler.ajax import AjaxCrawler
from repro.crawler.config import CrawlerConfig, DEFAULT_CONFIG
from repro.clock import CostModel, SimClock
from repro.net.server import SimulatedServer

#: Event attributes treated as "form events" (fired after typing).
FORM_EVENT_TYPES = ("onkeyup", "onchange", "oninput")

#: Input types that accept typed text.
_TEXT_INPUT_TYPES = {"", "text", "search"}


class FormFillingAjaxCrawler(AjaxCrawler):
    """An AJAX crawler that probes text inputs with dictionary values."""

    def __init__(
        self,
        server: SimulatedServer,
        value_dictionary: Sequence[str],
        config: CrawlerConfig = DEFAULT_CONFIG,
        form_event_types: Sequence[str] = FORM_EVENT_TYPES,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(server, config, clock=clock, cost_model=cost_model)
        self.value_dictionary = tuple(value_dictionary)
        self.form_event_types = tuple(form_event_types)

    def _enumerate_events(self, page: Page) -> list[EventBinding]:
        bindings = list(super()._enumerate_events(page))
        for form_binding in page.events(self.form_event_types):
            element = form_binding.locator.resolve(page.document, page.element_by_id)
            if element is None or not self._is_text_input(element):
                continue
            for value in self.value_dictionary:
                bindings.append(dataclasses.replace(form_binding, input_value=value))
        return bindings

    @staticmethod
    def _is_text_input(element) -> bool:
        if element.tag == "textarea":
            return True
        if element.tag != "input":
            return False
        return (element.get_attribute("type") or "").lower() in _TEXT_INPUT_TYPES
