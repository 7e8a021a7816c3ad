"""Unit tests for store statistics (args(p), context pairs, selectivity)."""

from itertools import permutations

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import StorageError
from repro.storage.statistics import OBJECT, PREDICATE, SUBJECT, StoreStatistics
from repro.storage.store import TripleStore


@pytest.fixture()
def stats(frozen_small_store):
    return StoreStatistics(frozen_small_store)


class TestConstruction:
    def test_requires_frozen(self, small_store):
        with pytest.raises(StorageError):
            StoreStatistics(small_store)


class TestPredicates:
    def test_predicates_listed(self, stats):
        predicates = stats.predicates()
        assert Resource("bornIn") in predicates
        assert TextToken("lectured at") in predicates

    def test_ordered_by_mass(self, stats):
        predicates = stats.predicates()
        masses = [stats.predicate_mass(p) for p in predicates]
        assert masses == sorted(masses, reverse=True)

    def test_args_shape(self, stats, frozen_small_store):
        args = stats.args(Resource("bornIn"))
        assert len(args) == 2
        decode = frozen_small_store.dictionary.decode
        subjects = {decode(s) for s, _o in args}
        assert subjects == {Resource("AlbertEinstein"), Resource("MarieCurie")}

    def test_args_inverted_flips(self, stats):
        args = stats.args(Resource("bornIn"))
        inverted = stats.args_inverted(Resource("bornIn"))
        assert {(o, s) for s, o in args} == set(inverted)

    def test_args_unknown_predicate_empty(self, stats):
        assert stats.args(Resource("unknownPred")) == frozenset()

    def test_fanout(self, stats):
        assert stats.predicate_fanout(Resource("bornIn")) == 2

    def test_mass_counts_observations(self, stats):
        # 'lectured at': 3 × 0.8 + 1 × 0.9
        assert stats.predicate_mass(TextToken("lectured at")) == pytest.approx(3.3)


class TestContextPairs:
    def test_subject_context(self, stats, frozen_small_store):
        pairs = stats.context_pairs(Resource("AlbertEinstein"), SUBJECT)
        # bornIn, affiliation, bornOn, 'lectured at', 'won a nobel for'
        assert len(pairs) == 5

    def test_object_context(self, stats):
        pairs = stats.context_pairs(Resource("Ulm"), OBJECT)
        assert len(pairs) == 1

    def test_unknown_term_empty(self, stats):
        assert stats.context_pairs(Resource("Nobody"), SUBJECT) == frozenset()

    def test_bad_slot_rejected(self, stats):
        with pytest.raises(StorageError):
            stats.context_pairs(Resource("Ulm"), 3)

    def test_terms_in_slot_filtered_by_kind(self, stats):
        tokens = stats.terms_in_slot(PREDICATE, kind="token")
        assert TextToken("lectured at") in tokens
        assert all(t.kind == "token" for t in tokens)


class TestSelectivity:
    def test_pattern_selectivity(self, stats, frozen_small_store):
        x, y = Variable("x"), Variable("y")
        pattern = TriplePattern(x, Resource("bornIn"), y)
        expected = 2 / len(frozen_small_store)
        assert stats.pattern_selectivity(pattern) == pytest.approx(expected)

    def test_type_instances(self):
        store = TripleStore()
        t = Resource("type")
        store.add(Triple(Resource("Ulm"), t, Resource("city")))
        store.add(Triple(Resource("Munich"), t, Resource("city")))
        store.add(Triple(Resource("Germany"), t, Resource("country")))
        store.freeze()
        stats = StoreStatistics(store)
        cities = stats.type_instances(Resource("city"), t)
        assert set(cities) == {Resource("Ulm"), Resource("Munich")}


def _live_store():
    store = TripleStore()
    store.add(Triple(Resource("AlbertEinstein"), Resource("bornIn"), Resource("Ulm")))
    store.add(Triple(Resource("MarieCurie"), Resource("bornIn"), Resource("Warsaw")))
    store.add(Triple(Resource("MarieCurie"), TextToken("lectured at"), Resource("Sorbonne")))
    return store.freeze()


def _built(store, **options):
    statistics = StoreStatistics(store, **options)
    statistics._ensure()
    return statistics


class TestExtension:
    """``previous=``: extending built statistics equals sweeping the store."""

    def test_extension_equals_a_sweep(self, statistics_state):
        store = _live_store()
        base = _built(store)
        store.add(Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen")))
        store.add(Triple(Resource("NielsBohr"), TextToken("lectured at"), Resource("Sorbonne")))
        grown = StoreStatistics(store, previous=base)
        assert grown.is_built
        fresh = StoreStatistics(store)
        assert statistics_state(grown) == statistics_state(fresh)
        assert grown.predicates() == fresh.predicates()
        assert grown.args(Resource("bornIn")) == fresh.args(Resource("bornIn"))
        assert len(grown.args(Resource("bornIn"))) == 3
        assert grown.terms_in_slot(SUBJECT) == fresh.terms_in_slot(SUBJECT)

    def test_predecessor_is_left_exactly_as_it_was(self, statistics_state):
        store = _live_store()
        base = _built(store)
        before = statistics_state(base)
        curie = store.dictionary.id_of(Resource("MarieCurie"))
        untouched = base._context[SUBJECT][curie]
        store.add(Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen")))
        grown = StoreStatistics(store, previous=base)
        assert statistics_state(base) == before
        assert len(base.args(Resource("bornIn"))) == 2
        # Copy-on-write: a set the batch did not land in is shared.
        assert grown._context[SUBJECT][curie] is untouched
        born_in = store.dictionary.id_of(Resource("bornIn"))
        assert grown._context[PREDICATE][born_in] is not base._context[PREDICATE][born_in]

    def test_nothing_new_shares_the_maps(self):
        store = _live_store()
        base = _built(store)
        store.add(Triple(Resource("MarieCurie"), Resource("bornIn"), Resource("Warsaw")))
        grown = StoreStatistics(store, previous=base)
        assert grown.is_built
        assert all(a is b for a, b in zip(grown._context, base._context))

    def test_mass_follows_evidence_for_a_delta_statement(self):
        """The one non-additive piece: a duplicate landing on a delta
        statement moves a weight that was already summed."""
        store = _live_store()
        bohr = Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen"))
        store.add(bohr, confidence=0.3)
        base = _built(store)
        assert base.predicate_mass(Resource("bornIn")) == 1.0 + 1.0 + 0.3
        store.add(bohr, confidence=0.7, count=2)
        grown = StoreStatistics(store, previous=base)
        fresh = StoreStatistics(store)
        assert grown.predicate_mass(Resource("bornIn")) == fresh.predicate_mass(
            Resource("bornIn")
        )
        assert grown.predicate_mass(Resource("bornIn")) == 1.0 + 1.0 + 3 * 0.7
        # ... and what an instance answered once, it keeps answering.
        assert base.predicate_mass(Resource("bornIn")) == 1.0 + 1.0 + 0.3

    def test_unbuilt_predecessor_yields_an_unbuilt_unchained_successor(self):
        store = _live_store()
        base = StoreStatistics(store)
        store.add(Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen")))
        successor = StoreStatistics(store, previous=base)
        assert not successor.is_built and not base.is_built
        assert all(value is not base for value in vars(successor).values())
        assert successor.predicate_fanout(Resource("bornIn")) == 3
        assert successor.is_built and not base.is_built


class TestArrivalOrder:
    """Predicate masses are a function of the statement set: every arrival
    order of one multiset gives equal masses and one predicate order."""

    ZETA, ALPHA = Resource("zeta"), Resource("alpha")
    #: zeta's confidences add to 0.6000000000000001 left to right and to
    #: 0.6 right to left; exactly summed they are 0.6 — alpha's mass, so
    #: the two predicates tie and alpha's sort key ranks it first.
    STATEMENTS = [
        (Triple(Resource("a"), ZETA, Resource("b")), 0.1),
        (Triple(Resource("c"), ZETA, Resource("d")), 0.2),
        (Triple(Resource("e"), ZETA, Resource("f")), 0.3),
        (Triple(Resource("g"), ALPHA, Resource("h")), 0.6),
    ]

    @staticmethod
    def _store(order, live: bool) -> TripleStore:
        """The statements in ``order``; with ``live``, all but the first
        arrive in the frozen store's delta."""
        store = TripleStore()
        for index, (triple, confidence) in enumerate(order):
            if live and index == 1:
                store.freeze()
            store.add(triple, confidence=confidence)
        return store if store.is_frozen else store.freeze()

    @pytest.mark.parametrize("live", [False, True])
    def test_masses_and_predicate_order_do_not_depend_on_arrival(self, live):
        seen = set()
        for order in permutations(self.STATEMENTS):
            store = self._store(order, live)
            stats = StoreStatistics(store)
            seen.add(
                (
                    stats.predicate_mass(self.ZETA),
                    stats.predicate_mass(self.ALPHA),
                    tuple(stats.predicates()),
                )
            )
        assert seen == {(0.6, 0.6, (self.ALPHA, self.ZETA))}
