"""Unit tests for store statistics (args(p), context pairs, masses)."""

from itertools import permutations

import pytest

from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.errors import StorageError
from repro.storage.compaction import compact_store
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.statistics import OBJECT, PREDICATE, SUBJECT, StoreStatistics
from repro.storage.store import TripleStore

from statistics_reference import SweptStatistics, assert_reads_equal


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

    def test_args_unknown_predicate_empty(self, stats):
        assert stats.args(Resource("unknownPred")) == frozenset()

    def test_fanout(self, stats):
        assert len(stats.args(Resource("bornIn"))) == 2

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


class TestTypeInstances:
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


#: Terms the sweep comparisons also ask for though no statement holds them.
ABSENT = [Resource("Nobody"), TextToken("never said")]


class TestAgainstTheSweep:
    """Every read equals the id-order sweep over the same store
    (:mod:`statistics_reference`): a fresh build, a live delta, several
    segments, a reopened snapshot, and after each ingest and compaction."""

    def test_fresh_build(self, frozen_small_store, paper_store_fixture):
        for store in (frozen_small_store, paper_store_fixture):
            assert_reads_equal(StoreStatistics(store), ABSENT)

    def test_generated_world(self, tiny_harness):
        assert_reads_equal(StoreStatistics(tiny_harness.engine.store), ABSENT)

    def test_every_layout(self, small_store, relayout):
        store = relayout(small_store.freeze())
        assert_reads_equal(StoreStatistics(store), ABSENT)
        store.close()

    def test_live_delta_after_each_ingest(self):
        store = _live_store()
        batches = [
            [(Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen")), 0.3)],
            # A new predicate, a term new to the subject slot, and a
            # duplicate of a frozen statement (its frozen weight stays).
            [
                (Triple(Resource("Ulm"), Resource("locatedIn"), Resource("Germany")), 1.0),
                (Triple(Resource("MarieCurie"), Resource("bornIn"), Resource("Warsaw")), 0.5),
            ],
            # A duplicate of a delta statement: its weight moves.
            [(Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen")), 0.9)],
        ]
        for batch in batches:
            for triple, confidence in batch:
                store.add(triple, confidence=confidence)
            assert store.has_delta
            assert_reads_equal(StoreStatistics(store), ABSENT)

    def test_after_each_compaction(self):
        store = _live_store()
        for number in range(3):
            store.add(Triple(Resource(f"P{number}"), Resource("bornIn"), Resource("Ulm")))
            store.add(Triple(Resource(f"P{number}"), TextToken("born in"), Resource("Ulm")))
            compacted = compact_store(store)
            assert not compacted.has_delta
            assert_reads_equal(StoreStatistics(compacted), ABSENT)
            store = compacted

    def test_reopened_snapshot(self, small_store, tmp_path):
        store = small_store.freeze()
        save_snapshot(store, tmp_path / "xkg.snapd")
        reopened = load_snapshot(tmp_path / "xkg.snapd")
        assert_reads_equal(StoreStatistics(reopened), ABSENT)
        reopened.add(Triple(Resource("NielsBohr"), TextToken("lectured at"), Resource("ETH")))
        assert_reads_equal(StoreStatistics(reopened), ABSENT)
        reopened.close()

    def test_pair_sets_are_not_kept(self, frozen_small_store):
        """No read is memoised: each one is a new set, and the segment's
        ``slot_values`` memo stays empty."""
        stats = StoreStatistics(frozen_small_store)
        first = stats.args(Resource("bornIn"))
        assert stats.args(Resource("bornIn")) is not first
        stats.predicates()
        stats.terms_in_slot(SUBJECT)
        stats.context_pairs(Resource("AlbertEinstein"), SUBJECT)
        assert frozen_small_store.backend._segment(0)._slot_values == {}


class TestExtension:
    """Statistics over a store that grew after an instance read it."""

    def test_mass_follows_evidence_for_a_delta_statement(self):
        """The one non-additive piece: a duplicate landing on a delta
        statement moves a weight that was already summed."""
        store = _live_store()
        bohr = Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen"))
        store.add(bohr, confidence=0.3)
        base = StoreStatistics(store)
        assert base.predicate_mass(Resource("bornIn")) == 1.0 + 1.0 + 0.3
        store.add(bohr, confidence=0.7, count=2)
        fresh = StoreStatistics(store)
        assert fresh.predicate_mass(Resource("bornIn")) == SweptStatistics(
            store
        ).predicate_mass(Resource("bornIn"))
        assert fresh.predicate_mass(Resource("bornIn")) == 1.0 + 1.0 + 3 * 0.7
        # ... and what an instance answered once, it keeps answering.
        assert base.predicate_mass(Resource("bornIn")) == 1.0 + 1.0 + 0.3


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
