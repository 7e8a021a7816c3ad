"""Batch querying: ``engine.ask_many``, a loop over one read view."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import TriniT
from repro.core.parser import parse_query
from repro.errors import ParseError
from repro.kg.paper_example import paper_engine

#: Caller threads running one batch at once in the thread-safety property.
CALLERS = 4


@pytest.fixture(scope="module")
def engine():
    return paper_engine()


QUERY_POOL = [
    "?x bornIn ?y",
    "?x type ?y",
    "AlbertEinstein affiliation ?x",
    "?x 'lectured at' ?y",
    "?p bornIn ?c ; ?c locatedIn Germany",
    "?x bornIn Atlantis",
]


def signature(answer_set):
    return [(a.binding, a.score) for a in answer_set]


class TestAskMany:
    def test_results_in_input_order(self, engine):
        queries = list(QUERY_POOL)
        batch = engine.ask_many(queries, k=5)
        assert len(batch) == len(queries)
        for query_text, result in zip(queries, batch):
            assert result.query == parse_query(query_text)
            assert signature(result) == signature(engine.ask(query_text, 5))

    def test_accepts_parsed_queries(self, engine):
        parsed = [parse_query(q) for q in QUERY_POOL[:3]]
        batch = engine.ask_many(parsed, k=3)
        assert [r.query for r in batch] == parsed

    def test_empty_batch(self, engine):
        assert engine.ask_many([]) == []

    def test_duplicate_queries(self, engine):
        batch = engine.ask_many(["?x type ?y"] * 4, k=3)
        first = signature(batch[0])
        assert all(signature(result) == first for result in batch)

    def test_every_query_parses_before_any_runs(self, engine, monkeypatch):
        acquired = []
        original = engine._state.acquire

        def acquire():
            acquired.append(True)
            return original()

        monkeypatch.setattr(engine._state, "acquire", acquire)
        with pytest.raises(ParseError):
            engine.ask_many(["?x bornIn ?y", "?x bornIn"], k=3)
        assert acquired == []  # no query took a read view

    def test_default_k_uses_config(self, engine):
        result = engine.ask_many(["?x type ?y"])[0]
        assert result.k == engine.config.processor.k


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.sampled_from(QUERY_POOL), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=8),
)
def test_ask_many_matches_sequential_ask(queries, k):
    """Thread-safety property: randomized batches, run by four caller
    threads at once over one shared engine, are each bit-identical to
    sequential evaluation, in input order."""
    engine = _shared_engine()
    start = threading.Barrier(CALLERS)

    def batch():
        start.wait(timeout=30)
        return engine.ask_many(queries, k=k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=CALLERS) as callers:
            concurrent = [
                future.result()
                for future in [callers.submit(batch) for _ in range(CALLERS)]
            ]
    finally:
        sys.setswitchinterval(interval)
    sequential = [signature(engine.ask(query, k)) for query in queries]
    for results in concurrent:
        assert [signature(c) for c in results] == sequential


_ENGINE_CACHE: list[TriniT] = []


def _shared_engine() -> TriniT:
    # hypothesis forbids function-scoped fixtures; share one engine so the
    # property genuinely exercises concurrent access to warm shared caches.
    if not _ENGINE_CACHE:
        _ENGINE_CACHE.append(paper_engine())
    return _ENGINE_CACHE[0]
