"""Result aggregation: reconstructing a result state (§5.4).

A search result is not a URL but a *state*.  To show it, the engine

1. extracts the event path from the initial state to the result state
   out of the page model,
2. loads the page and constructs the initial DOM,
3. replays every annotated event along the path,
4. hands the resulting live page (DOM + JavaScript variables) to the
   caller — "the browser can continue processing the page starting from
   the desired state".
"""

from __future__ import annotations

from repro.browser import Browser, Page
from repro.errors import CrawlerError, SearchError
from repro.model import ApplicationModel, Transition


class ResultAggregator:
    """Replays event paths to materialize result states."""

    def __init__(self, browser: Browser) -> None:
        self.browser = browser

    def reconstruct(self, model: ApplicationModel, state_id: str) -> Page:
        """Materialize ``state_id`` of ``model`` as a live page.

        Raises :class:`~repro.errors.SearchError` when the replay does
        not arrive at the recorded state (the site changed since the
        crawl — a violation of the snapshot-isolation assumption).  The
        caller owns the page it gets and closes it when done; a page
        that failed is closed here.
        """
        path = model.event_path_to(state_id)
        page = self.browser.load(model.url, run_scripts=True, run_onload=False)
        try:
            page.run_onload()
            for transition in path:
                try:
                    self._replay(page, transition)
                except CrawlerError as exc:
                    # A missing event binding is the same snapshot-isolation
                    # violation as a hash mismatch; keep the documented
                    # contract that reconstruction failures are SearchErrors.
                    raise SearchError(
                        f"replay of {model.url} failed en route to state "
                        f"{state_id}: {exc}"
                    ) from exc
            expected = model.get_state(state_id)
            if page.content_hash() != expected.content_hash:
                raise SearchError(
                    f"replay of {model.url} did not reach state {state_id} "
                    "(site changed since crawl?)"
                )
        except Exception:
            page.close()
            raise
        return page

    def _replay(self, page: Page, transition: Transition) -> None:
        import dataclasses

        event = transition.event
        event_types = (event.trigger,)
        for binding in page.events(event_types):
            if (
                binding.event_type == event.trigger
                and binding.handler == event.handler
                and binding.locator.describe() == event.source
            ):
                if event.input_value is not None:
                    binding = dataclasses.replace(binding, input_value=event.input_value)
                page.dispatch(binding)
                return
        raise CrawlerError(
            f"cannot replay transition {event.describe()}: event not present"
        )
