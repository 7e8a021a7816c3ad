"""The mutable delta segment: the live write path over a frozen store.

Two layers of contract.  The :class:`DeltaSegment` unit contract: dense id
assignment above the frozen base, immutable merge-ready posting snapshots
(a captured part never changes under concurrent growth), version-keyed
cache invalidation.  The store-level byte-identity contract: a frozen
store that absorbed live additions answers every posting lookup in
*exactly* the order a store freshly built from the union would — at
every segment count — because delta ids continue the frozen id space
densely and every merge is keyed by ``(-weight, id)``.
"""

import pytest

from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import StorageError
from repro.storage.delta import DeltaSegment
from repro.storage.index import SIGNATURES
from repro.storage.sharded import ShardedBackend
from repro.storage.store import TripleStore

ROWS = [
    ("E0", "bornIn", "E3", 0.9, 1),
    ("E1", "bornIn", "E3", 0.7, 2),
    ("E2", "livesIn", "E4", 0.8, 1),
    ("E3", "locatedIn", "E5", 1.0, 1),
    ("E0", "livesIn", "E4", 0.6, 3),
    ("E4", "locatedIn", "E5", 0.95, 1),
]

LIVE_ROWS = [
    ("E5", "bornIn", "E3", 0.85, 1),   # joins an existing posting list
    ("E1", "livesIn", "E6", 0.75, 2),
    ("E6", "type", "E7", 0.5, 1),      # brand-new predicate
    ("E5", "bornIn", "E3", 0.85, 1),   # duplicate of a delta statement
]


def _add(store, rows):
    for s, p, o, conf, count in rows:
        store.add(
            Triple(Resource(s), Resource(p), Resource(o)),
            confidence=conf,
            count=count,
        )


def _postings_by_key(store):
    """Every posting list of every signature, as id lists."""
    backend = store.backend
    out = {}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in backend.distinct_keys(bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out[("scan",)] = list(backend.postings([False, False, False], ()))
    return out


class TestDeltaSegmentUnit:
    def test_negative_base_rejected(self):
        with pytest.raises(StorageError):
            DeltaSegment(-1)

    def test_ids_must_be_dense_above_base(self):
        delta = DeltaSegment(10)
        delta.add(10, (1, 2, 3), 0.5, 1)
        with pytest.raises(StorageError, match="dense"):
            delta.add(12, (1, 2, 3), 0.5, 1)
        delta.add(11, (4, 5, 6), 0.9, 1)
        assert len(delta) == 2
        assert delta.slot_ids(11) == (4, 5, 6)

    def test_unknown_ids_rejected(self):
        delta = DeltaSegment(5)
        delta.add(5, (1, 2, 3), 0.5, 1)
        with pytest.raises(StorageError):
            delta.weight(4)
        with pytest.raises(StorageError):
            delta.update(6, 0.1, 1)

    def test_posting_part_sorted_by_weight_then_gid(self):
        delta = DeltaSegment(0)
        delta.add(0, (1, 7, 2), 0.5, 1)
        delta.add(1, (3, 7, 2), 0.9, 1)
        delta.add(2, (4, 7, 2), 0.9, 1)  # ties break by id, ascending
        part = delta.posting_part([False, True, False], (7,))
        gids = [part.globals_[local] for local in part.postings]
        assert gids == [1, 2, 0]
        assert part.weights[1] == 0.9

    def test_captured_part_immutable_under_growth(self):
        delta = DeltaSegment(0)
        delta.add(0, (1, 7, 2), 0.5, 1)
        part = delta.posting_part([False, True, False], (7,))
        before = list(part.postings)
        delta.add(1, (3, 7, 2), 0.9, 1)
        # The old snapshot is unchanged; a fresh lookup sees the addition.
        assert list(part.postings) == before
        fresh = delta.posting_part([False, True, False], (7,))
        assert len(fresh.postings) == 2

    def test_update_invalidates_cached_parts(self):
        delta = DeltaSegment(0)
        delta.add(0, (1, 7, 2), 0.5, 1)
        delta.add(1, (3, 7, 2), 0.9, 1)
        version = delta.version
        delta.update(0, 1.5, 3)  # re-weighed past the other triple
        assert delta.version == version + 1
        part = delta.posting_part([False, True, False], (7,))
        assert [part.globals_[local] for local in part.postings] == [0, 1]

    def test_no_match_returns_none(self):
        delta = DeltaSegment(0)
        assert delta.posting_part([True, False, False], (9,)) is None
        delta.add(0, (1, 7, 2), 0.5, 1)
        assert delta.posting_part([True, False, False], (9,)) is None

    def test_key_arity_checked(self):
        delta = DeltaSegment(0)
        delta.add(0, (1, 7, 2), 0.5, 1)
        with pytest.raises(StorageError, match="arity"):
            delta.posting_part([True, True, False], (1,))


class TestStoreByteIdentity:
    """(frozen + delta) lookups == a fresh build over the union, bit for bit."""

    def _live_and_fresh(self, segments):
        live = TripleStore("live", backend=ShardedBackend(segments))
        _add(live, ROWS)
        live.freeze()
        _add(live, LIVE_ROWS)

        fresh = TripleStore("fresh", backend=ShardedBackend(segments))
        _add(fresh, ROWS)
        _add(fresh, LIVE_ROWS)
        fresh.freeze()
        return live, fresh

    def test_posting_lists_identical(self, segments):
        live, fresh = self._live_and_fresh(segments)
        assert live.delta_size == 3  # the duplicate folded into its delta twin
        assert _postings_by_key(live) == _postings_by_key(fresh)

    def test_weights_and_records_identical(self, segments):
        live, fresh = self._live_and_fresh(segments)
        assert len(live) == len(fresh)
        for tid in range(len(fresh)):
            assert live.weight(tid) == fresh.weight(tid)
            assert live.record(tid).triple == fresh.record(tid).triple
            assert live.record(tid).count == fresh.record(tid).count
            assert live.record(tid).confidence == fresh.record(tid).confidence
        assert list(live.weights()) == list(fresh.weights())

    def test_lookup_and_cardinality_see_delta(self, segments):
        live, _ = self._live_and_fresh(segments)
        from repro.core.terms import Variable
        from repro.core.triples import TriplePattern

        record = live.lookup(
            Triple(Resource("E6"), Resource("type"), Resource("E7"))
        )
        assert record is not None
        pattern = TriplePattern(Variable("x"), Resource("bornIn"), Variable("y"))
        assert live.cardinality(pattern) == 3

    def test_duplicate_of_frozen_updates_record_not_order(self, segments):
        """Documented eventual consistency: frozen sort weights stay fixed."""
        live = TripleStore("live", backend=ShardedBackend(segments))
        _add(live, ROWS)
        live.freeze()
        frozen_weight = live.weight(0)
        tid = live.add(
            Triple(Resource("E0"), Resource("bornIn"), Resource("E3")),
            confidence=0.95,
            count=4,
        )
        assert tid == 0
        assert live.delta_size == 0
        assert live.record(0).count == 5
        assert live.record(0).confidence == 0.95
        # The frozen posting order is untouched until compaction folds it in.
        assert live.weight(0) == frozen_weight
