"""Shared fixtures for the serving-layer tests."""

import itertools

import pytest

from repro.model import ApplicationModel, EventAnnotation
from repro.search import SearchEngine
from repro.serve.telemetry import SAMPLE_EVERY, sample_request


class FakeClock:
    """A manually advanced seconds clock (cache TTL / bucket refill)."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def request_ids(count, sampled, prefix="r"):
    """The first ``count`` ids ``<prefix>-N`` the hash sample does (or
    does not) keep: trace retention is driven by the id, not a setting."""
    ids = (f"{prefix}-{n}" for n in itertools.count())
    chosen = (i for i in ids if sample_request(i, SAMPLE_EVERY) == sampled)
    return list(itertools.islice(chosen, count))


def pagination_model(url, page_texts):
    """A linear next/prev pagination model with given state texts."""
    model = ApplicationModel(url)
    states = []
    for offset, text in enumerate(page_texts):
        state, _ = model.add_state(f"{url}-h{offset}", text, depth=offset)
        states.append(state)
    for offset in range(len(states) - 1):
        model.add_transition(
            states[offset],
            states[offset + 1],
            EventAnnotation("#next", "onclick", "nextPage()"),
        )
    return model


@pytest.fixture
def models():
    return [
        pagination_model(
            "url1",
            [
                "morcheeba enjoy the ride official video",
                "the new morcheeba singer is amazing",
            ],
        ),
        pagination_model("url2", ["morcheeba live concert morcheeba fans"]),
    ]


@pytest.fixture
def engine(models):
    return SearchEngine.build(models, pageranks={"url1": 0.6, "url2": 0.4})


@pytest.fixture
def fake_clock():
    return FakeClock()
