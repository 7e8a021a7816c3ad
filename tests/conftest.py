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
from repro.storage.store import TripleStore
from repro.util.heap import TieFrontier

from layouts import LAYOUTS, as_layout

#: A join settles inside an answer-ordered tied run only where that skips
#: ``TieFrontier.MIN_SKIP`` postings — more than the small worlds of the
#: property suites hold — so the suites run with the shipped threshold and
#: with it at 0, the engine without that bound.
SETTLE_SKIPS = (0, TieFrontier.MIN_SKIP)


def pytest_generate_tests(metafunc):
    """Any test taking a ``layout`` argument runs once per store layout
    production serves (:data:`layouts.LAYOUTS`); the ``relayout`` fixture
    (or, under hypothesis, :func:`layouts.as_layout`) puts a store in it.
    A ``settle_skip`` argument runs once per :data:`SETTLE_SKIPS`; patch
    ``TieFrontier.MIN_SKIP`` to it."""
    if "layout" in metafunc.fixturenames:
        metafunc.parametrize("layout", LAYOUTS)
    if "settle_skip" in metafunc.fixturenames:
        metafunc.parametrize(
            "settle_skip", SETTLE_SKIPS, ids=[f"skip{n}" for n in SETTLE_SKIPS]
        )


@pytest.fixture()
def relayout(layout, tmp_path_factory):
    """``store -> store`` in the test's layout: a frozen, delta-free store
    comes back as itself (``fresh``) or as base segment + two compacted
    generations + live delta over the same statements (``generational``)."""
    return lambda store: as_layout(store, layout, tmp_path_factory)


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


@pytest.fixture(scope="session")
def matcher_state():
    return _matcher_state
