"""Backend conformance: the one store layout at every segment count.

The StorageBackend protocol is the typed seam between the store and query
processing — anything the backend leaks (mutable postings, an order that
depends on how triples were partitioned) becomes a query-processing bug.
These tests drive ``ShardedBackend`` at 1 and the default segment count
(the shared ``segments`` axis of tests/conftest.py) through the same
scenarios and compare every observable against a brute-force oracle:
matching ids sorted by (weight desc, id asc).
"""

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import StorageError
from repro.storage.backend import StorageBackend, make_backend
from repro.storage.columnar import ColumnarBackend
from repro.storage.sharded import DEFAULT_SEGMENTS, ShardedBackend
from repro.storage.store import TripleStore

X, Y, P = Variable("x"), Variable("y"), Variable("p")


def _sample_store(segments: int) -> TripleStore:
    store = TripleStore("conformance", backend=ShardedBackend(segments))
    ae, mc = Resource("AlbertEinstein"), Resource("MarieCurie")
    born, aff = Resource("bornIn"), Resource("affiliation")
    store.add(Triple(ae, born, Resource("Ulm")))
    store.add(Triple(mc, born, Resource("Warsaw")), confidence=0.9, count=3)
    store.add(Triple(ae, aff, Resource("IAS")), count=2)
    store.add(Triple(mc, aff, Resource("Sorbonne")))
    store.add(Triple(ae, TextToken("lectured at"), Resource("IAS")), confidence=0.8)
    store.add(Triple(ae, Resource("knows"), ae))
    return store.freeze()


PATTERNS = [
    TriplePattern(X, Resource("bornIn"), Y),
    TriplePattern(Resource("AlbertEinstein"), P, Y),
    TriplePattern(X, P, Resource("IAS")),
    TriplePattern(X, TextToken("lectured at"), Y),
    TriplePattern(X, P, Y),
    TriplePattern(X, Resource("knows"), X),
    TriplePattern(Resource("Nobody"), P, Y),
]


def _oracle_ids(store: TripleStore, pattern: TriplePattern) -> list[int]:
    """Ids whose constant slots match, in (weight desc, id asc) order."""
    matching = [
        tid
        for tid, record in enumerate(store.records())
        if all(
            wanted.is_variable or wanted == have
            for wanted, have in zip(pattern.terms(), record.triple.terms())
        )
    ]
    return sorted(matching, key=lambda tid: (-store.record(tid).weight, tid))


def _small_backend(segments: int) -> ShardedBackend:
    """Three triples over a small id space; weights favour triple 1."""
    backend = ShardedBackend(segments)
    backend.insert(0, (10, 20, 30))
    backend.insert(1, (10, 20, 31))
    backend.insert(2, (11, 20, 30))
    backend.freeze([1.0, 5.0, 3.0])
    return backend


class TestMakeBackend:
    def test_default_and_name_build_the_sharded_layout(self):
        for spec in (None, "sharded"):
            backend = make_backend(spec)
            assert isinstance(backend, ShardedBackend)
            assert backend.num_segments == DEFAULT_SEGMENTS
        assert TripleStore().backend_name == "sharded"

    def test_fresh_instance_picks_segment_count(self):
        backend = ShardedBackend(7)
        assert make_backend(backend) is backend
        assert TripleStore(backend=ShardedBackend(2)).backend.num_segments == 2

    @pytest.mark.parametrize("name", ["dict", "columnar", "elasticsearch"])
    def test_other_names_rejected_naming_the_replacement(self, name):
        with pytest.raises(StorageError, match="sharded") as excinfo:
            TripleStore(backend=name)
        assert repr(name) in str(excinfo.value)

    def test_segment_class_is_not_a_store_backend(self):
        with pytest.raises(StorageError, match="ShardedBackend"):
            TripleStore(backend=ColumnarBackend())

    def test_protocol_conformance(self):
        assert isinstance(make_backend(None), StorageBackend)

    def test_used_backend_instance_rejected(self):
        backend = ShardedBackend()
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            make_backend(backend)


class TestPostingOrder:
    def test_sorted_ids_match_oracle(self, segments):
        store = _sample_store(segments)
        for pattern in PATTERNS:
            assert list(store.sorted_ids(pattern)) == _oracle_ids(
                store, pattern
            ), pattern.n3()

    def test_postings_by_subject(self, segments):
        backend = _small_backend(segments)
        assert list(backend.postings([True, False, False], (10,))) == [1, 0]

    def test_postings_by_predicate_sorted_by_weight(self, segments):
        backend = _small_backend(segments)
        assert list(backend.postings([False, True, False], (20,))) == [1, 2, 0]

    def test_postings_full_triple(self, segments):
        backend = _small_backend(segments)
        assert list(backend.postings([True, True, True], (10, 20, 30))) == [0]

    def test_missing_key_empty(self, segments):
        backend = _small_backend(segments)
        assert list(backend.postings([True, False, False], (99,))) == []

    def test_scan_sorted(self, segments):
        backend = _small_backend(segments)
        assert list(backend.postings([False, False, False], ())) == [1, 2, 0]

    def test_arity_mismatch_rejected(self, segments):
        backend = _small_backend(segments)
        with pytest.raises(StorageError):
            backend.postings([True, True, False], (10,))

    def test_tie_break_by_id(self, segments):
        backend = ShardedBackend(segments)
        backend.insert(0, (1, 1, 1))
        backend.insert(1, (1, 1, 2))
        backend.freeze([2.0, 2.0])
        assert list(backend.postings([True, False, False], (1,))) == [0, 1]

    def test_weights_slot_ids_and_counts_match_records(self, segments):
        store = _sample_store(segments)
        encode = store.dictionary.id_of
        for tid, record in enumerate(store.records()):
            assert store.spo_ids(tid) == tuple(
                encode(term) for term in record.triple.terms()
            )
            assert store.weight(tid) == record.weight
            assert store.backend.count(tid) == record.count

    def test_distinct_keys_in_first_occurrence_order(self, segments):
        store = _sample_store(segments)
        for bound in ([True, False, False], [False, True, False], [True, True, False]):
            expected = list(
                dict.fromkeys(
                    tuple(
                        slot
                        for slot, is_bound in zip(store.spo_ids(tid), bound)
                        if is_bound
                    )
                    for tid in range(len(store))
                )
            )
            assert store.backend.distinct_keys(bound) == expected, bound

    def test_postings_ids_matches_sorted_ids(self, segments):
        store = _sample_store(segments)
        born = store.dictionary.id_of(Resource("bornIn"))
        pattern_ids = list(store.sorted_ids(TriplePattern(X, Resource("bornIn"), Y)))
        assert list(store.postings_ids(None, born, None)) == pattern_ids

    def test_single_segment_store_equals_its_segment(self):
        """A 1-segment merge is element-identical to the segment's own
        frozen posting lists (local ids == global ids)."""
        store = _sample_store(1)
        segment = store.backend._segment(0)
        for bound, key in (
            ([False, False, False], ()),
            ([False, True, False], (store.dictionary.id_of(Resource("bornIn")),)),
        ):
            assert list(store.backend.postings(bound, key)) == list(
                segment.postings(bound, key)
            )

    def test_convert_resegments_and_preserves_everything(self, segment_counts):
        original = _sample_store(segment_counts[0])
        for target in segment_counts + (7,):
            converted = original.convert(ShardedBackend(target))
            assert converted.backend.num_segments == target
            assert converted.is_frozen
            assert len(converted) == len(original)
            for pattern in PATTERNS:
                assert list(converted.sorted_ids(pattern)) == list(
                    original.sorted_ids(pattern)
                )
            for tid in range(len(original)):
                assert converted.record(tid).triple == original.record(tid).triple
                assert converted.record(tid).count == original.record(tid).count
                assert converted.spo_ids(tid) == original.spo_ids(tid)


class TestImmutability:
    def test_segment_postings_are_readonly_views(self):
        segment = _sample_store(1).backend._segment(0)
        postings = segment.postings([False, False, False], ())
        assert isinstance(postings, memoryview)
        assert postings.readonly
        with pytest.raises(TypeError):
            postings[0] = 99

    def test_scan_postings_are_immutable(self, segments):
        store = _sample_store(segments)
        scan = store.sorted_ids(TriplePattern(X, P, Y))
        assert not hasattr(scan, "append")
        before = list(scan)
        assert list(store.sorted_ids(TriplePattern(X, P, Y))) == before

    def test_empty_lookup_shared_tuple_cannot_corrupt(self, segments):
        """The historical bug: the shared empty posting could be mutated."""
        store = _sample_store(segments)
        missing = TriplePattern(Resource("Nobody"), P, Y)
        empty = store.sorted_ids(missing)
        assert len(empty) == 0
        assert not hasattr(empty, "append")
        assert list(store.sorted_ids(missing)) == []


def _fresh(kind: str):
    """A fresh store backend, or a fresh instance of its segment class."""
    return ShardedBackend() if kind == "sharded" else ColumnarBackend()


@pytest.mark.parametrize("kind", ("sharded", "segment"))
class TestBuildPhaseGuards:
    def test_dense_ids_required(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.insert(2, (1, 2, 3))

    def test_rejects_insert_after_freeze(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        backend.freeze([1.0])
        with pytest.raises(StorageError):
            backend.insert(1, (4, 5, 6))

    def test_rejects_double_freeze(self, kind):
        backend = _fresh(kind)
        backend.freeze([])
        with pytest.raises(StorageError):
            backend.freeze([])

    def test_weight_arity_checked(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.freeze([1.0, 2.0])

    def test_count_arity_checked(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.freeze([1.0], [2, 3])

    def test_lookup_requires_freeze(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.postings([True, False, False], (1,))

    def test_memory_accounting(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        backend.freeze([1.0], [1])
        assert backend.memory_bytes() > 0


class TestCountConformance:
    """count() is part of the protocol: record values, typed errors."""

    def test_counts_from_store_freeze(self, segments):
        store = _sample_store(segments)
        for tid, record in enumerate(store.records()):
            assert store.backend.count(tid) == record.count

    def test_unknown_id_raises_storage_error(self, segments):
        store = _sample_store(segments)
        with pytest.raises(StorageError):
            store.backend.count(len(store))
        with pytest.raises(StorageError):
            store.backend.count(-1)

    def test_frozen_without_counts_raises_storage_error(self, segments):
        backend = ShardedBackend(segments)
        backend.insert(0, (1, 2, 3))
        backend.freeze([2.0])  # no counts column
        with pytest.raises(StorageError):
            backend.count(0)


class TestScanSignatureContract:
    def test_distinct_keys_scan_raises_storage_error(self, segments):
        store = _sample_store(segments)
        with pytest.raises(StorageError):
            store.backend.distinct_keys([False, False, False])

    def test_freeze_accepts_counts_column(self, segments):
        backend = ShardedBackend(segments)
        backend.insert(0, (1, 2, 3))
        backend.freeze([2.0], [2])
        assert list(backend.postings([True, False, False], (1,))) == [0]
        assert backend.count(0) == 2
