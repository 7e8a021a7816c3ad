"""The mutable delta segment: the live write path over a frozen store.

Two layers of contract.  The :class:`DeltaSegment` unit contract: dense id
assignment above the frozen base, immutable merge-ready posting snapshots
(a captured part never changes under concurrent growth), lookups read off
the per-signature index and agree with a linear scan of the rows.  The
store-level byte-identity contract: a frozen store that absorbed live
additions answers every posting lookup in *exactly* the order a store
freshly built from the union would — at every segment count — because
delta ids continue the frozen id space densely and every merge is keyed
by ``(-weight, tie key, id)``.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import StorageError
from repro.storage.delta import DeltaSegment
from repro.storage.index import SIGNATURES, signature_of
from repro.storage.store import TripleStore

from layouts import distinct_keys


def _ids(term_id: int) -> int:
    """A tie key for deltas built without a dictionary: the id itself."""
    return term_id


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
        for key in distinct_keys(backend, bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out[("scan",)] = list(backend.postings([False, False, False], ()))
    return out


class TestDeltaSegmentUnit:
    def test_negative_base_rejected(self):
        with pytest.raises(StorageError):
            DeltaSegment(-1, _ids)

    def test_ids_must_be_dense_above_base(self):
        delta = DeltaSegment(10, _ids)
        delta.add(10, (1, 2, 3), 0.5)
        with pytest.raises(StorageError, match="dense"):
            delta.add(12, (1, 2, 3), 0.5)
        delta.add(11, (4, 5, 6), 0.9)
        assert len(delta) == 2
        assert delta.slot_ids(11) == (4, 5, 6)

    def test_unknown_ids_rejected(self):
        delta = DeltaSegment(5, _ids)
        delta.add(5, (1, 2, 3), 0.5)
        with pytest.raises(StorageError):
            delta.weight(4)
        with pytest.raises(StorageError):
            delta.update(6, 0.1)

    def test_posting_part_sorted_by_weight_then_gid(self):
        delta = DeltaSegment(0, _ids)
        delta.add(0, (1, 7, 2), 0.5)
        delta.add(1, (3, 7, 2), 0.9)
        delta.add(2, (4, 7, 2), 0.9)  # ties break by id, ascending
        part = delta.posting_part([False, True, False], (7,))
        gids = [part.start + local for local in part.postings]
        assert gids == [1, 2, 0]
        assert part.weights[1] == 0.9

    def test_captured_part_immutable_under_growth(self):
        delta = DeltaSegment(0, _ids)
        delta.add(0, (1, 7, 2), 0.5)
        part = delta.posting_part([False, True, False], (7,))
        before = list(part.postings)
        delta.add(1, (3, 7, 2), 0.9)
        # The old snapshot is unchanged; a fresh lookup sees the addition.
        assert list(part.postings) == before
        fresh = delta.posting_part([False, True, False], (7,))
        assert len(fresh.postings) == 2

    def test_reweighed_row_moves_in_the_next_lookup(self):
        delta = DeltaSegment(0, _ids)
        delta.add(0, (1, 7, 2), 0.5)
        delta.add(1, (3, 7, 2), 0.9)
        version = delta.version
        delta.update(0, 1.5)  # re-weighed past the other triple
        assert delta.version == version + 1
        part = delta.posting_part([False, True, False], (7,))
        assert [part.start + local for local in part.postings] == [0, 1]

    def test_weight_below_follows_adds_and_updates(self):
        delta = DeltaSegment(0, _ids)
        assert delta.weight_below(1.0) is None
        delta.add(0, (1, 7, 2), 0.5)
        delta.add(1, (3, 7, 2), 0.9)
        delta.add(2, (4, 7, 2), 0.5)
        assert delta.weight_below(0.9) == 0.5
        assert delta.weight_below(0.5) is None
        delta.update(0, 0.7)  # one triple still weighs 0.5
        assert delta.weight_below(0.7) == 0.5
        delta.update(2, 0.95)  # none does any more
        assert delta.weight_below(0.7) is None
        assert delta.weight_below(1.0) == 0.95
        assert delta.weight_below(0.95) == 0.9

    def test_no_match_returns_none(self):
        delta = DeltaSegment(0, _ids)
        assert delta.posting_part([True, False, False], (9,)) is None
        delta.add(0, (1, 7, 2), 0.5)
        assert delta.posting_part([True, False, False], (9,)) is None

    def test_key_arity_checked(self):
        delta = DeltaSegment(0, _ids)
        delta.add(0, (1, 7, 2), 0.5)
        with pytest.raises(StorageError, match="arity"):
            delta.posting_part([True, True, False], (1,))

    def test_scan_rejects_a_key(self):
        delta = DeltaSegment(0, _ids)
        delta.add(0, (1, 7, 2), 0.5)
        with pytest.raises(StorageError, match="arity"):
            delta.posting_part([False, False, False], (1,))
        with pytest.raises(StorageError, match="arity"):
            delta.slot_values((), (1,), 0)


MASKS = list(product((False, True), repeat=3))
_TERMS = st.integers(0, 3)
_WEIGHTS = st.sampled_from([0.5, 0.9, 1.5])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.tuples(_TERMS, _TERMS, _TERMS), _WEIGHTS),
        st.tuples(st.just("update"), st.integers(0, 1000), _WEIGHTS),
        st.tuples(
            st.just("capture"),
            st.sampled_from(MASKS),
            st.tuples(_TERMS, _TERMS, _TERMS),
        ),
    ),
    max_size=40,
)


def _reversed(term_id: int) -> int:
    """A tie key that disagrees with id order."""
    return -term_id


def _scan(rows, weights, sig, key):
    """The linear scan the index replaced: matching locals in canonical
    ``(-weight, tie key, local)`` order."""
    matches = [
        local
        for local, spo in enumerate(rows)
        if all(spo[slot] == key[i] for i, slot in enumerate(sig))
    ]
    matches.sort(
        key=lambda local: (-weights[local], tuple(map(_reversed, rows[local])))
    )
    return matches


class TestIndexAgainstScan:
    """The per-signature index answers every lookup as a scan would."""

    BASE = 7

    @settings(max_examples=80, deadline=None)
    @given(_OPS)
    def test_lookups_match_the_scan(self, ops):
        delta = DeltaSegment(self.BASE, _reversed)
        rows: list[tuple[int, int, int]] = []
        weights: list[float] = []
        captured = []
        for op, arg, value in ops:
            if op == "add":
                delta.add(self.BASE + len(rows), arg, value)
                rows.append(arg)
                weights.append(value)
            elif op == "update" and rows:
                local = arg % len(rows)
                delta.update(self.BASE + local, value)
                weights[local] = value
            elif op == "capture":
                sig = signature_of(arg)
                key = tuple(value[slot] for slot in sig)
                part = delta.posting_part(arg, key)
                expected = _scan(rows, weights, sig, key)
                assert (part is None) == (not expected)
                if part is not None:
                    captured.append(
                        (
                            part,
                            expected,
                            [weights[local] for local in expected],
                            [rows[local] for local in expected],
                        )
                    )
        for mask in MASKS:
            sig = signature_of(mask)
            # Term 4 is never added: every key holding it is absent.
            for key in product(range(5), repeat=len(sig)):
                expected = _scan(rows, weights, sig, key)
                part = delta.posting_part(mask, key)
                if not expected:
                    assert part is None
                else:
                    assert list(part.postings) == expected
                    assert part.start == self.BASE
                    assert [part.weights[self.BASE + local] for local in expected] == [
                        weights[local] for local in expected
                    ]
                for slot in range(3):
                    if slot not in sig:
                        assert delta.slot_values(sig, key, slot) == {
                            rows[local][slot] for local in expected
                        }
        for part, postings, part_weights, part_rows in captured:
            assert list(part.postings) == postings
            assert [
                part.weights[self.BASE + local] for local in postings
            ] == part_weights
            assert [
                tuple(column[local] for column in part.columns) for local in postings
            ] == part_rows


class TestStoreByteIdentity:
    """(frozen + delta) lookups == a fresh build over the union, bit for bit."""

    def _live_and_fresh(self, relayout):
        """The live store, the fresh one, and how many statements the live
        ingest added to the delta."""
        live = TripleStore("live")
        _add(live, ROWS)
        live = relayout(live.freeze())
        before = live.delta_size
        _add(live, LIVE_ROWS)

        fresh = TripleStore("fresh")
        _add(fresh, ROWS)
        _add(fresh, LIVE_ROWS)
        fresh.freeze()
        return live, fresh, live.delta_size - before

    def test_posting_lists_identical(self, relayout):
        live, fresh, ingested = self._live_and_fresh(relayout)
        assert ingested == 3  # the duplicate folded into its delta twin
        assert _postings_by_key(live) == _postings_by_key(fresh)

    def test_weights_and_records_identical(self, relayout):
        live, fresh, _ingested = self._live_and_fresh(relayout)
        assert len(live) == len(fresh)
        for tid in range(len(fresh)):
            assert live.weight(tid) == fresh.weight(tid)
            assert live.record(tid).triple == fresh.record(tid).triple
            assert live.record(tid).count == fresh.record(tid).count
            assert live.record(tid).confidence == fresh.record(tid).confidence
        assert list(live.weights()) == list(fresh.weights())

    def test_lookup_and_cardinality_see_delta(self, relayout):
        live, _fresh, _ingested = self._live_and_fresh(relayout)
        from repro.core.terms import Variable
        from repro.core.triples import TriplePattern

        record = live.lookup(
            Triple(Resource("E6"), Resource("type"), Resource("E7"))
        )
        assert record is not None
        pattern = TriplePattern(Variable("x"), Resource("bornIn"), Variable("y"))
        assert live.cardinality(pattern) == 3

    def test_duplicate_of_frozen_updates_record_not_order(self, relayout):
        """Documented eventual consistency: frozen sort weights stay fixed."""
        live = TripleStore("live")
        _add(live, ROWS)
        live = relayout(live.freeze())
        delta_size = live.delta_size
        frozen_weight = live.weight(0)
        tid = live.add(
            Triple(Resource("E0"), Resource("bornIn"), Resource("E3")),
            confidence=0.95,
            count=4,
        )
        assert tid == 0
        assert live.delta_size == delta_size
        assert live.record(0).count == 5
        assert live.record(0).confidence == 0.95
        # The frozen posting order is untouched until compaction folds it in.
        assert live.weight(0) == frozen_weight
