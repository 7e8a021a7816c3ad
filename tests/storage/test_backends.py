"""Backend conformance: the one store class, fresh and generational.

``ShardedBackend`` is the boundary between the store and query
processing — anything it leaks (mutable postings, an order that depends
on which segment holds a triple) becomes a query-processing bug.
These tests drive it as one fresh base segment and as
several segments merged (the shared ``layout`` axis of tests/conftest.py)
through the same scenarios and compare every observable against a
brute-force oracle: matching ids in the canonical order — weight desc, tie
key asc (the terms' sort keys), id asc.
"""

from array import array

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import StorageError
from repro.storage.columnar import ColumnarBackend
from repro.storage.persistence import load_store, save_store
from repro.storage.sharded import ShardedBackend
from repro.storage.snapshot import save_snapshot
from repro.storage.store import TripleStore

X, Y, P = Variable("x"), Variable("y"), Variable("p")


def _ids(term_id: int) -> int:
    """A tie key for backends built without a dictionary: the id itself."""
    return term_id


def _sample_store(relayout=None) -> TripleStore:
    store = TripleStore("conformance")
    ae, mc = Resource("AlbertEinstein"), Resource("MarieCurie")
    born, aff = Resource("bornIn"), Resource("affiliation")
    store.add(Triple(ae, born, Resource("Ulm")))
    store.add(Triple(mc, born, Resource("Warsaw")), confidence=0.9, count=3)
    store.add(Triple(ae, aff, Resource("IAS")), count=2)
    store.add(Triple(mc, aff, Resource("Sorbonne")))
    store.add(Triple(ae, TextToken("lectured at"), Resource("IAS")), confidence=0.8)
    store.add(Triple(ae, Resource("knows"), ae))
    store.freeze()
    return store if relayout is None else relayout(store)


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
    """Ids whose constant slots match, in (weight desc, tie key asc, id
    asc) order."""
    matching = [
        tid
        for tid, record in enumerate(store.records())
        if all(
            wanted.is_variable or wanted == have
            for wanted, have in zip(pattern.terms(), record.triple.terms())
        )
    ]
    return sorted(
        matching,
        key=lambda tid: (
            -store.record(tid).weight,
            store.record(tid).triple.sort_key(),
            tid,
        ),
    )


def _backend(layout: str, rows, weights) -> ShardedBackend:
    """A frozen backend over ``rows`` of term ids: one base segment
    (``fresh``), or one segment per row as compaction would append them
    (``generational``)."""
    if layout == "fresh":
        backend = ShardedBackend()
        for triple_id, row in enumerate(rows):
            backend.insert(triple_id, row)
        backend.freeze(weights, [1] * len(rows), sort_key=_ids)
        return backend
    segments = []
    for row, weight in zip(rows, weights):
        segment = ColumnarBackend()
        segment.insert(0, row)
        segment.freeze([weight], [1], sort_key=_ids)
        segments.append(segment)
    return ShardedBackend._restore(
        starts=range(len(rows)),
        weights=array("d", weights),
        counts=array("i", [1] * len(rows)),
        segment_loaders=[lambda segment=segment: segment for segment in segments],
        sort_key=_ids,
    )


def _small_backend(layout: str) -> ShardedBackend:
    """Three triples over a small id space; weights favour triple 1."""
    return _backend(
        layout, [(10, 20, 30), (10, 20, 31), (11, 20, 30)], [1.0, 5.0, 3.0]
    )


class TestOneStoreClass:
    def test_a_store_is_built_on_one_base_segment(self):
        store = TripleStore()
        assert isinstance(store.backend, ShardedBackend)
        assert store.backend.segment_count() == 1
        assert store.backend_name == "sharded"

    def test_store_takes_no_backend_argument(self):
        with pytest.raises(TypeError, match="backend"):
            TripleStore("XKG", backend="sharded")

    @pytest.mark.parametrize("saved", ["jsonl", "snapshot"])
    def test_load_store_accepts_only_the_one_layout_name(self, tmp_path, saved):
        path = tmp_path / "store"
        if saved == "jsonl":
            save_store(_sample_store(), path)
        else:
            save_snapshot(_sample_store(), path)
        for name in (None, "sharded"):
            loaded = load_store(path, backend=name)
            assert loaded.backend_name == "sharded"
            assert len(loaded) == 6
            loaded.close()
        with pytest.raises(StorageError, match="sharded") as excinfo:
            load_store(path, backend="hash")
        assert "'hash'" in str(excinfo.value)


class TestPostingOrder:
    def test_sorted_ids_match_oracle(self, relayout):
        store = _sample_store(relayout)
        for pattern in PATTERNS:
            assert list(store.sorted_ids(pattern)) == _oracle_ids(
                store, pattern
            ), pattern.n3()

    def test_postings_by_subject(self, layout):
        backend = _small_backend(layout)
        assert list(backend.postings([True, False, False], (10,))) == [1, 0]

    def test_postings_by_predicate_sorted_by_weight(self, layout):
        backend = _small_backend(layout)
        assert list(backend.postings([False, True, False], (20,))) == [1, 2, 0]

    def test_postings_full_triple(self, layout):
        backend = _small_backend(layout)
        assert list(backend.postings([True, True, True], (10, 20, 30))) == [0]

    def test_missing_key_empty(self, layout):
        backend = _small_backend(layout)
        assert list(backend.postings([True, False, False], (99,))) == []

    def test_scan_sorted(self, layout):
        backend = _small_backend(layout)
        assert list(backend.postings([False, False, False], ())) == [1, 2, 0]

    def test_arity_mismatch_rejected(self, layout):
        backend = _small_backend(layout)
        with pytest.raises(StorageError):
            backend.postings([True, True, False], (10,))

    def test_tie_break_by_id(self, layout):
        backend = _backend(layout, [(1, 1, 1), (1, 1, 2)], [2.0, 2.0])
        assert list(backend.postings([True, False, False], (1,))) == [0, 1]

    def test_weights_slot_ids_and_counts_match_records(self, relayout):
        store = _sample_store(relayout)
        encode = store.dictionary.id_of
        for tid, record in enumerate(store.records()):
            assert store.spo_ids(tid) == tuple(
                encode(term) for term in record.triple.terms()
            )
            assert store.weight(tid) == record.weight
            assert store.backend.count(tid) == record.count

    def test_distinct_keys_in_first_occurrence_order(self, relayout):
        store = _sample_store(relayout)
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

    def test_postings_ids_matches_sorted_ids(self, relayout):
        store = _sample_store(relayout)
        born = store.dictionary.id_of(Resource("bornIn"))
        pattern_ids = list(store.sorted_ids(TriplePattern(X, Resource("bornIn"), Y)))
        assert list(store.postings_ids(None, born, None)) == pattern_ids

    def test_fresh_store_equals_its_base_segment(self):
        """A fresh store's postings are its base segment's own frozen
        posting lists (local ids == global ids)."""
        store = _sample_store()
        segment = store.backend._segment(0)
        for bound, key in (
            ([False, False, False], ()),
            ([False, True, False], (store.dictionary.id_of(Resource("bornIn")),)),
        ):
            assert list(store.backend.postings(bound, key)) == list(
                segment.postings(bound, key)
            )

    def test_rebuild_is_one_segment_and_preserves_everything(self, relayout):
        original = _sample_store(relayout)
        rebuilt = original.rebuild()
        assert rebuilt.backend.segment_count() == 1
        assert rebuilt.is_frozen and not rebuilt.has_delta
        assert len(rebuilt) == len(original)
        for pattern in PATTERNS:
            assert list(rebuilt.sorted_ids(pattern)) == list(
                original.sorted_ids(pattern)
            )
        for tid in range(len(original)):
            assert rebuilt.record(tid).triple == original.record(tid).triple
            assert rebuilt.record(tid).count == original.record(tid).count
            assert rebuilt.spo_ids(tid) == original.spo_ids(tid)


class TestWeightColumn:
    """The backend owns the sort-weight column; the store reads it."""

    def test_store_reads_the_backend_column(self, relayout, layout):
        store = _sample_store(relayout)
        expected = [record.weight for record in store.records()]
        assert list(store.weights()) == expected
        assert [store.backend.weight(tid) for tid in range(len(store))] == expected
        if layout == "fresh":
            assert store.weights() is store.backend.frozen_weights

    def test_live_delta_extends_the_column(self):
        store = _sample_store()
        frozen = list(store.weights())
        tid = store.add(
            Triple(Resource("NielsBohr"), Resource("bornIn"), Resource("Copenhagen")),
            confidence=0.5,
            count=3,
        )
        weights = store.weights()
        assert len(weights) == len(store) == len(frozen) + 1
        assert list(weights) == frozen + [1.5]
        assert weights[tid] == store.weight(tid) == 1.5
        assert list(store.backend.frozen_weights) == frozen
        with pytest.raises(StorageError):
            store.weight(len(store))


class TestImmutability:
    def test_segment_postings_are_readonly_views(self):
        segment = _sample_store().backend._segment(0)
        postings = segment.postings([False, False, False], ())
        assert isinstance(postings, memoryview)
        assert postings.readonly
        with pytest.raises(TypeError):
            postings[0] = 99

    def test_scan_postings_are_immutable(self, relayout):
        store = _sample_store(relayout)
        scan = store.sorted_ids(TriplePattern(X, P, Y))
        assert not hasattr(scan, "append")
        before = list(scan)
        assert list(store.sorted_ids(TriplePattern(X, P, Y))) == before

    def test_empty_lookup_shared_tuple_cannot_corrupt(self, relayout):
        """The historical bug: the shared empty posting could be mutated."""
        store = _sample_store(relayout)
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
        backend.freeze([1.0], [1], sort_key=_ids)
        with pytest.raises(StorageError):
            backend.insert(1, (4, 5, 6))

    def test_rejects_double_freeze(self, kind):
        backend = _fresh(kind)
        backend.freeze([], [], sort_key=_ids)
        with pytest.raises(StorageError):
            backend.freeze([], [], sort_key=_ids)

    def test_weight_arity_checked(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.freeze([1.0, 2.0], [1, 1], sort_key=_ids)

    def test_counts_are_required(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(TypeError):
            backend.freeze([1.0], sort_key=_ids)

    def test_count_arity_checked(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.freeze([1.0], [2, 3], sort_key=_ids)

    def test_lookup_requires_freeze(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        with pytest.raises(StorageError):
            backend.postings([True, False, False], (1,))

    def test_memory_accounting(self, kind):
        backend = _fresh(kind)
        backend.insert(0, (1, 2, 3))
        backend.freeze([1.0], [1], sort_key=_ids)
        assert backend.memory_bytes() > 0


class TestCountConformance:
    """count(): record values, typed errors."""

    def test_counts_from_store_freeze(self, relayout):
        store = _sample_store(relayout)
        for tid, record in enumerate(store.records()):
            assert store.backend.count(tid) == record.count

    def test_unknown_id_raises_storage_error(self, relayout):
        store = _sample_store(relayout)
        with pytest.raises(StorageError):
            store.backend.count(len(store))
        with pytest.raises(StorageError):
            store.backend.count(-1)


class TestScanSignatureContract:
    def test_distinct_keys_scan_raises_storage_error(self, relayout):
        store = _sample_store(relayout)
        with pytest.raises(StorageError):
            store.backend.distinct_keys([False, False, False])

    def test_columnar_scan_rejects_a_key(self):
        segment = ColumnarBackend()
        segment.insert(0, (1, 2, 3))
        segment.freeze([2.0], [1], sort_key=_ids)
        with pytest.raises(StorageError, match="arity"):
            segment.postings([False, False, False], (1,))

    def test_sharded_scan_rejects_a_key(self, layout):
        backend = _small_backend(layout)
        with pytest.raises(StorageError, match="arity"):
            backend.postings([False, False, False], (10,))
        with pytest.raises(StorageError, match="arity"):
            backend.slot_values([False, False, False], (10,), 0)

    def test_freeze_accepts_counts_column(self):
        backend = ShardedBackend()
        backend.insert(0, (1, 2, 3))
        backend.freeze([2.0], [2], sort_key=_ids)
        assert list(backend.postings([True, False, False], (1,))) == [0]
        assert backend.count(0) == 2
