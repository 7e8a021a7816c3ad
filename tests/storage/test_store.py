"""Unit tests for the triple store."""

import math

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Provenance, Triple, TriplePattern
from repro.errors import StorageError
from repro.storage.store import MAX_PROVENANCES, TripleStore

from layouts import generational_copy

AE = Resource("AlbertEinstein")
BORN = Resource("bornIn")
ULM = Resource("Ulm")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestLoadPhase:
    def test_add_assigns_ids(self):
        store = TripleStore()
        first = store.add(Triple(AE, BORN, ULM))
        second = store.add(Triple(ULM, Resource("locatedIn"), Resource("Germany")))
        assert first == 0
        assert second == 1
        assert len(store) == 2

    def test_duplicate_accumulates_count(self):
        store = TripleStore()
        store.add(Triple(AE, BORN, ULM))
        same_id = store.add(Triple(AE, BORN, ULM), count=2)
        assert same_id == 0
        assert len(store) == 1
        assert store.record(0).count == 3

    def test_duplicate_keeps_max_confidence(self):
        store = TripleStore()
        store.add(Triple(AE, BORN, ULM), confidence=0.5)
        store.add(Triple(AE, BORN, ULM), confidence=0.9)
        store.add(Triple(AE, BORN, ULM), confidence=0.4)
        assert store.record(0).confidence == 0.9

    def test_provenance_sample_bounded(self):
        store = TripleStore()
        for i in range(MAX_PROVENANCES + 5):
            store.add(
                Triple(AE, BORN, ULM),
                Provenance("openie", f"doc-{i}", "", "reverb"),
            )
        assert len(store.record(0).provenances) == MAX_PROVENANCES

    def test_rejects_bad_confidence(self):
        store = TripleStore()
        with pytest.raises(StorageError):
            store.add(Triple(AE, BORN, ULM), confidence=0.0)
        with pytest.raises(StorageError):
            store.add(Triple(AE, BORN, ULM), confidence=1.5)

    def test_rejects_bad_count(self):
        store = TripleStore()
        with pytest.raises(StorageError):
            store.add(Triple(AE, BORN, ULM), count=0)

    def test_add_after_freeze_lands_in_delta(self):
        store = TripleStore()
        store.add(Triple(AE, BORN, ULM))
        store.freeze()
        tid = store.add(Triple(ULM, BORN, AE))
        assert tid == 1
        assert store.delta_size == 1
        assert len(store) == 2
        assert store.record(tid).triple == Triple(ULM, BORN, AE)

    def test_double_freeze_rejected(self):
        store = TripleStore()
        store.freeze()
        with pytest.raises(StorageError):
            store.freeze()

    def test_contains(self):
        store = TripleStore()
        store.add(Triple(AE, BORN, ULM))
        assert Triple(AE, BORN, ULM) in store
        assert Triple(ULM, BORN, AE) not in store


class TestLookup:
    def test_lookup_before_freeze_rejected(self, small_store):
        with pytest.raises(StorageError):
            small_store.sorted_ids(TriplePattern(X, BORN, Y))

    def test_sorted_ids_by_signature(self, frozen_small_store):
        store = frozen_small_store
        ids = store.sorted_ids(TriplePattern(X, BORN, Y))
        assert len(ids) == 2
        ids = store.sorted_ids(TriplePattern(AE, BORN, Y))
        assert len(ids) == 1

    def test_unknown_constant_empty(self, frozen_small_store):
        ids = frozen_small_store.sorted_ids(
            TriplePattern(Resource("Nobody"), BORN, Y)
        )
        assert list(ids) == []

    def test_scan_returns_everything(self, frozen_small_store):
        ids = frozen_small_store.sorted_ids(TriplePattern(X, Variable("p"), Y))
        assert len(ids) == len(frozen_small_store)

    def test_sorted_by_weight_descending(self, frozen_small_store):
        store = frozen_small_store
        ids = store.sorted_ids(TriplePattern(X, Variable("p"), Y))
        weights = [store.weight(i) for i in ids]
        assert weights == sorted(weights, reverse=True)

    def test_matches_filters_repeated_variables(self):
        store = TripleStore()
        knows = Resource("knows")
        store.add(Triple(AE, knows, AE))
        store.add(Triple(AE, knows, ULM))
        store.freeze()
        self_loops = store.matches(TriplePattern(X, knows, X))
        assert len(self_loops) == 1
        assert self_loops[0].triple.o == AE

    def test_cardinality(self, frozen_small_store):
        assert frozen_small_store.cardinality(TriplePattern(X, BORN, Y)) == 2

    def test_observation_mass(self, frozen_small_store):
        store = frozen_small_store
        pattern = TriplePattern(X, TextToken("lectured at"), Y)
        # 3 observations at 0.8 plus 1 at 0.9
        assert store.observation_mass(pattern) == pytest.approx(3 * 0.8 + 0.9)

    def test_observation_mass_cached(self, frozen_small_store):
        pattern = TriplePattern(X, BORN, Y)
        first = frozen_small_store.observation_mass(pattern)
        second = frozen_small_store.observation_mass(pattern)
        assert first == second

    @pytest.mark.parametrize("world", ["small", "paper"])
    def test_observation_mass_is_the_merged_lists_sum(
        self, world, small_store, paper_store_fixture, tmp_path
    ):
        """Summed part by part over base segment + generations + live delta,
        every pattern's mass is the exact sum over its merged posting list,
        bit for bit — repeated variables and unknown constants included —
        also after more evidence for frozen and delta statements and new
        ones arrive."""
        source = small_store.freeze() if world == "small" else paper_store_fixture
        store = generational_copy(source, tmp_path / "xkg.snapd")
        assert store.has_delta and store.backend.segment_count() > 1
        slot_ids, decode = store.backend.slot_ids, store.dictionary.decode
        patterns = {
            TriplePattern(X, Y, Z),
            TriplePattern(X, BORN, X),
            TriplePattern(X, Resource("neverStored"), Y),
        }
        for tid in range(len(store)):
            terms = [decode(term_id) for term_id in slot_ids(tid)]
            for mask in range(1, 8):
                patterns.add(
                    TriplePattern(
                        *(
                            term if mask >> slot & 1 else (X, Y, Z)[slot]
                            for slot, term in enumerate(terms)
                        )
                    )
                )
        for more in (False, True):
            if more:
                records = list(store.records())
                for record in records[:2] + records[-2:]:
                    store.add(record.triple, confidence=0.35, count=2)
                store.add(Triple(AE, BORN, Resource("Bern")), confidence=0.6)
            weights = store.weights()
            for pattern in patterns:
                merged = math.fsum(weights[i] for i in store.sorted_ids(pattern))
                assert store.observation_mass(pattern) == merged, pattern
        store.close()

    def test_lookup_exact(self, frozen_small_store):
        record = frozen_small_store.lookup(Triple(AE, BORN, ULM))
        assert record is not None
        assert record.count == 1
        assert frozen_small_store.lookup(Triple(ULM, BORN, AE)) is None


class TestCounts:
    def test_token_vs_kg_split(self, frozen_small_store):
        store = frozen_small_store
        assert sum(r.triple.is_token_triple for r in store.records()) == 3
        kg = [r for r in store.records() if not r.triple.is_token_triple]
        assert len(kg) == len(store) - 3

    def test_total_observations(self, frozen_small_store):
        total = frozen_small_store.total_observations()
        assert total > len(frozen_small_store) - 3  # counts and confidences

    def test_record_bad_id(self, frozen_small_store):
        with pytest.raises(StorageError):
            frozen_small_store.record(10_000)


class TestAddAll:
    def test_add_all_returns_ids_in_order(self):
        store = TripleStore()
        locd = Resource("locatedIn")
        ids = store.add_all(
            [
                Triple(AE, BORN, ULM),
                Triple(ULM, locd, Resource("Germany")),
            ]
        )
        assert ids == [0, 1]

    def test_add_all_confidence_and_count_passthrough(self):
        store = TripleStore()
        prov = Provenance("openie", "doc-9", "bulk chunk", "reverb")
        store.add_all(
            [Triple(AE, TextToken("taught at"), ULM)],
            prov,
            confidence=0.7,
            count=3,
        )
        record = store.record(0)
        assert record.confidence == 0.7
        assert record.count == 3
        assert record.provenances == [prov]
        assert record.weight == pytest.approx(2.1)

    def test_add_all_duplicates_accumulate(self):
        store = TripleStore()
        store.add_all([Triple(AE, BORN, ULM), Triple(AE, BORN, ULM)], count=2)
        assert len(store) == 1
        assert store.record(0).count == 4

    def test_add_all_validates_like_add(self):
        store = TripleStore()
        with pytest.raises(StorageError):
            store.add_all([Triple(AE, BORN, ULM)], confidence=1.5)
        with pytest.raises(StorageError):
            store.add_all([Triple(AE, BORN, ULM)], count=0)


class TestIdValidation:
    def test_weight_rejects_bad_ids_when_frozen(self, frozen_small_store):
        with pytest.raises(StorageError):
            frozen_small_store.weight(-1)  # UNBOUND sentinel must not wrap
        with pytest.raises(StorageError):
            frozen_small_store.weight(10_000)

    def test_spo_ids_rejects_bad_ids(self, frozen_small_store):
        with pytest.raises(StorageError):
            frozen_small_store.spo_ids(-1)
        with pytest.raises(StorageError):
            frozen_small_store.spo_ids(10_000)
