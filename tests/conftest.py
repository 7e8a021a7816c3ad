"""Shared fixtures.

Expensive artifacts (the tiny evaluation harness, the paper engine) are
session-scoped: they are deterministic and read-only for tests, so building
them once keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.core.terms import Literal, Resource, TextToken, Variable
from repro.core.triples import Provenance, Triple
from repro.eval.harness import EvalHarness
from repro.kg.paper_example import paper_engine, paper_rules, paper_store
from repro.storage.sharded import DEFAULT_SEGMENTS
from repro.storage.store import TripleStore

#: The one storage axis: segment count of the sharded-over-columnar layout —
#: a 1-segment store (the merge degenerates to one stream) and the default.
SEGMENT_COUNTS = (1, DEFAULT_SEGMENTS)


def pytest_generate_tests(metafunc):
    """Any test taking a ``segments`` argument runs once per segment count;
    build its store with ``TripleStore(backend=ShardedBackend(segments))``."""
    if "segments" in metafunc.fixturenames:
        metafunc.parametrize(
            "segments", SEGMENT_COUNTS, ids=[f"{n}seg" for n in SEGMENT_COUNTS]
        )


@pytest.fixture(scope="session")
def segment_counts() -> tuple[int, ...]:
    """The whole axis, for tests that compare segment counts to each other."""
    return SEGMENT_COUNTS


@pytest.fixture(scope="session")
def paper_store_fixture() -> TripleStore:
    return paper_store()


@pytest.fixture(scope="session")
def paper_engine_fixture():
    return paper_engine()


@pytest.fixture(scope="session")
def tiny_harness() -> EvalHarness:
    harness = EvalHarness("tiny")
    # Touch the expensive cached properties once.
    _ = harness.engine
    return harness


@pytest.fixture()
def small_store() -> TripleStore:
    """A hand-built store with KG facts, token triples and duplicates."""
    store = TripleStore("test")
    ae = Resource("AlbertEinstein")
    mc = Resource("MarieCurie")
    store.add(Triple(ae, Resource("bornIn"), Resource("Ulm")))
    store.add(Triple(mc, Resource("bornIn"), Resource("Warsaw")))
    store.add(Triple(Resource("Ulm"), Resource("locatedIn"), Resource("Germany")))
    store.add(Triple(Resource("Warsaw"), Resource("locatedIn"), Resource("Poland")))
    store.add(Triple(ae, Resource("affiliation"), Resource("IAS")))
    store.add(Triple(mc, Resource("affiliation"), Resource("Sorbonne")))
    store.add(Triple(ae, Resource("bornOn"), Literal("1879-03-14")))
    prov = Provenance("openie", "doc-1", "Einstein lectured at Princeton", "reverb")
    store.add(
        Triple(ae, TextToken("lectured at"), Resource("PrincetonUniversity")),
        prov,
        confidence=0.8,
        count=3,
    )
    store.add(
        Triple(mc, TextToken("lectured at"), Resource("Sorbonne")),
        Provenance("openie", "doc-2", "Curie lectured at the Sorbonne", "reverb"),
        confidence=0.9,
    )
    store.add(
        Triple(ae, TextToken("won a nobel for"), TextToken("the photoelectric effect")),
        Provenance("openie", "doc-3", "", "reverb"),
        confidence=0.7,
        count=2,
    )
    return store


@pytest.fixture()
def frozen_small_store(small_store) -> TripleStore:
    return small_store.freeze()


# Convenience term constructors used across test modules.
@pytest.fixture()
def x():
    return Variable("x")


@pytest.fixture()
def y():
    return Variable("y")


def _matcher_state(matcher):
    """A built :class:`TokenMatcher`'s whole index as plain values —
    ``by_norm`` with its insertion order, ``by_key`` with its list order."""
    matcher._ensure()
    return (
        [list(norms.items()) for norms in matcher._by_norm],
        [{key: list(terms) for key, terms in keys.items()} for keys in matcher._by_key],
        [{stem: set(keys) for stem, keys in stems.items()} for stems in matcher._by_stem],
        [set(ids) for ids in matcher._seen],
        matcher._covered,
    )


def _statistics_state(statistics):
    """A built :class:`StoreStatistics`' carried state as plain values."""
    statistics._ensure()
    return (
        [{term: set(pairs) for term, pairs in slot.items()} for slot in statistics._context],
        statistics._covered,
    )


@pytest.fixture(scope="session")
def matcher_state():
    return _matcher_state


@pytest.fixture(scope="session")
def statistics_state():
    return _statistics_state
