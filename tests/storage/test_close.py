"""Backend and store close semantics: release resources, fail loudly after.

The mmap-leak fix: ``load_snapshot(map_file=True)`` used to create a mapping
nothing could ever unmap.  ``close()`` now travels engine → store → backend
→ buffer, releasing every retained memoryview and the map itself; any use
after close raises :class:`StorageError` on either store layout,
in-memory or mapped.
"""

import gc
import sys
import threading
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple, TriplePattern
from repro.core.terms import Variable
from repro.errors import StorageError
from repro.storage.columnar import ColumnarBackend
from repro.storage.compaction import compact_store
from repro.storage.index import SIGNATURES
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.store import TripleStore

from layouts import distinct_keys


def build_store():
    store = TripleStore()
    for i in range(6):
        store.add(Triple(Resource(f"E{i}"), Resource("p"), Resource(f"F{i % 2}")))
    return store.freeze()


class TestBackendClose:
    def test_close_flags_and_idempotence(self, relayout):
        store = relayout(build_store())
        assert not store.closed and not store.backend.closed
        store.close()
        store.close()
        assert store.closed and store.backend.closed

    def test_lookups_raise_after_close(self, relayout):
        store = relayout(build_store())
        inner = store.backend
        store.close()
        pattern = TriplePattern(Variable("x"), Resource("p"), Variable("y"))
        with pytest.raises(StorageError):
            store.sorted_ids(pattern)
        with pytest.raises(StorageError):
            store.postings_ids(None, 1, None)
        with pytest.raises(StorageError):
            store.weights()
        with pytest.raises(StorageError):
            store.weight(0)
        with pytest.raises(StorageError):
            inner.postings((False, True, False), (1,))
        with pytest.raises(StorageError):
            inner.slot_ids(0)
        with pytest.raises(StorageError):
            inner.weight(0)

    def test_records_stay_readable(self, relayout):
        # Materialised answers keep rendering after close: the distinct
        # records and dictionary are not backend-owned.
        store = relayout(build_store())
        record = store.record(0)
        store.close()
        assert store.record(0) is record
        assert store.triple(0).n3()


class TestSnapshotClose:
    @pytest.fixture()
    def snapshot(self, tmp_path, relayout):
        """A snapshot directory of :func:`build_store`'s statements: one
        segment, or (generational) base + three compacted generations."""
        store = relayout(build_store())
        root = store.backend.snapshot_root
        if root is None:
            root = tmp_path / "store.snapd"
            save_snapshot(store, root)
        else:
            compact_store(store).close()
            store.close()
        return Path(root)

    def test_mmap_released_on_close(self, snapshot):
        loaded = load_snapshot(snapshot)
        backend = loaded.backend
        backend.load_segments()
        mapped = [backend, *backend._segments]
        assert all(part._buffer is not None for part in mapped)
        loaded.close()
        assert all(part._buffer is None for part in mapped)
        with pytest.raises(StorageError):
            loaded.postings_ids(None, None, None)

    def test_last_close_leaves_no_exported_buffer(self, snapshot):
        """Every view a segment keeps over its mapping — columns,
        permutations, key tables — is released by its last holder, so the
        unmap happens at close, not whenever the views are collected."""
        loaded = load_snapshot(snapshot)
        backend = loaded.backend
        backend.load_segments()
        segments = list(backend._segments)
        for segment in segments:
            for sig in SIGNATURES:
                bound = [slot in sig for slot in range(3)]
                for key in distinct_keys(segment, bound):
                    assert len(segment.postings(bound, key))
                    for slot in sorted(set(range(3)) - set(sig)):
                        assert segment.slot_values(sig, key, slot)
        # Held past close, as a caller may hold what it was handed: only
        # an explicit release, not collection, lets the unmap through.
        tables = [
            view
            for segment in segments
            for table in segment._key_tables
            for view in table
        ]
        buffers = [backend._buffer, *(segment._buffer for segment in segments)]
        assert not any(buffer.closed for buffer in buffers)
        loaded.close()
        assert all(buffer.closed for buffer in buffers)
        for view in tables:
            with pytest.raises(ValueError, match="released"):
                view.tolist()

    def test_close_with_live_posting_slice_defers_unmap(self, snapshot):
        loaded = load_snapshot(snapshot)
        pattern = TriplePattern(Variable("x"), Resource("p"), Variable("y"))
        # What a merge in flight holds: posting slices over segment maps.
        key = (loaded.dictionary.id_of(Resource("p")),)
        live = max(
            (
                loaded.backend._segment(index).postings((False, True, False), key)
                for index in range(loaded.backend.segment_count())
            ),
            key=len,
        )
        before = list(live)
        assert before
        loaded.close()  # must not raise despite the exported slice
        assert list(live) == before  # the slice stays valid until GC'd
        with pytest.raises(StorageError):
            loaded.sorted_ids(pattern)

    def test_unmapped_load_closes_too(self, snapshot):
        loaded = load_snapshot(snapshot, map_file=False)
        loaded.close()
        with pytest.raises(StorageError):
            loaded.postings_ids(None, None, None)

    def test_queries_identical_before_close(self, snapshot):
        original = build_store()
        loaded = load_snapshot(snapshot)
        pattern = TriplePattern(Variable("x"), Resource("p"), Variable("y"))
        assert list(loaded.sorted_ids(pattern)) == list(
            original.sorted_ids(pattern)
        )
        loaded.close()


def _lookups(store) -> dict:
    """Every posting list of every signature, the scan, and the records."""
    backend = store.backend
    out = {("scan",): list(backend.postings([False] * 3, ()))}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in distinct_keys(backend, bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out["records"] = [
        (r.triple, r.count, r.confidence, r.provenances) for r in store.records()
    ]
    return out


def _wide_snapshot(root: Path) -> Path:
    store = TripleStore()
    for i in range(60):
        store.add(
            Triple(Resource(f"E{i % 11}"), Resource(f"p{i % 3}"), Resource(f"F{i % 7}")),
            confidence=0.05 + (i % 13) / 14,
        )
    save_snapshot(store.freeze(), root)
    store.close()
    return root


def _live_rows(tag: str) -> list[Triple]:
    return [
        Triple(Resource(f"{tag}{i}"), Resource(f"p{i % 3}"), Resource("F1"))
        for i in range(3)
    ]


class TestSharedSegments:
    """A compacted store shares the segments its parent had restored; the
    last store listing a segment unmaps it."""

    @pytest.fixture()
    def family(self, tmp_path):
        root = _wide_snapshot(tmp_path / "store.snapd")
        parent = load_snapshot(root)
        parent.backend.load_segments()
        for triple in _live_rows("N"):
            parent.add(triple)
        child = compact_store(parent)
        yield root, parent, child
        child.close()
        parent.close()

    def test_the_child_lists_the_parents_restored_segment(self, family):
        _root, parent, child = family
        shared = parent.backend._segment(0)
        assert child.backend._segment(0) is shared
        assert child.backend.loaded_segments() == [0]

    @pytest.mark.parametrize("first", ["parent", "child"])
    def test_either_closes_first_and_the_other_answers(self, family, first):
        root, parent, child = family
        stays = child if first == "parent" else parent
        expected = _lookups(stays)
        shared = parent.backend._segment(0)
        (parent if first == "parent" else child).close()
        assert not shared.closed and shared._buffer is not None
        assert _lookups(stays) == expected
        if stays is child:
            reopened = load_snapshot(root)
            assert _lookups(reopened) == expected
            reopened.close()
        stays.close()
        assert shared.closed and shared._buffer is None

    def test_a_closed_parents_segments_stay_lazy(self, tmp_path):
        root = _wide_snapshot(tmp_path / "store.snapd")
        parent = load_snapshot(root)
        parent.backend.load_segments()
        parent.add(_live_rows("N")[0])
        closed_first = parent.backend._segment(0)
        closed_first.close()  # as if the parent's last holder had gone
        child = compact_store(parent)
        assert child.backend.loaded_segments() == []
        assert child.backend._segment(0) is not closed_first
        assert len(child.sorted_ids(TriplePattern(Variable("x"), Resource("p1"), Variable("y"))))
        child.close()
        parent.close()

    def test_engine_close_with_a_stream_pinned_on_the_parent(
        self, tmp_path, monkeypatch
    ):
        """Every store closes once, every segment unmaps once, and the
        pinned stream fails loudly."""
        root = _wide_snapshot(tmp_path / "store.snapd")
        stores, segments = [], []
        close_store, close_segment = TripleStore.close, ColumnarBackend.close

        def record_store(store):
            if not store.closed:
                stores.append(store)
            close_store(store)

        def record_segment(segment):
            was_open = not segment.closed
            close_segment(segment)
            if was_open and segment.closed:
                segments.append(segment)

        monkeypatch.setattr(TripleStore, "close", record_store)
        monkeypatch.setattr(ColumnarBackend, "close", record_segment)
        engine = TriniT.open(root, config=EngineConfig(merge_batch=1))
        try:
            stream = engine.stream("?x ?p ?y")
            assert stream.next_k(2)
            parent = engine.store
            for fold, tag in enumerate("NM", start=1):
                engine.ingest(_live_rows(tag))
                assert engine.compact() == fold
                assert engine.ask("?x p1 ?y").answers
            child = engine.store
            assert child.backend._segment(0) is parent.backend._segment(0)
            assert child.backend.loaded_segments() == [0, 1, 2]
            assert not parent.closed  # the stream still reads it
            engine.close()
            # Parent, the generation between and the child, once each.
            assert len(stores) == len(set(map(id, stores))) == 3
            assert parent in stores and child in stores
            # Each segment is unmapped once, by the last store to close.
            assert len(segments) == len(set(map(id, segments))) == 3
            with pytest.raises(StorageError):
                stream.next_k(5)
        finally:
            engine.close()

    def test_holders_are_counted_under_contention(self, tmp_path):
        """Stores taking and dropping one segment from many threads while
        its first holder closes: every taken hold reads a live segment, and
        the segment unmaps once the last hold is dropped — a lost update
        of the count would break one or the other."""
        store = load_snapshot(_wide_snapshot(tmp_path / "store.snapd"))
        segment = store.backend._segment(0)
        key = (store.dictionary.id_of(Resource("p1")),)
        expected = list(segment.postings((False, True, False), key))
        start, reads, failures = threading.Barrier(9), [], []

        def churn():
            start.wait(timeout=30)
            for _ in range(3000):
                if not segment.share():
                    return
                try:
                    reads.append(
                        list(segment.postings((False, True, False), key)) == expected
                    )
                except StorageError as exc:
                    failures.append(exc)
                finally:
                    segment.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            start.wait(timeout=30)
            while len(reads) < 500 and any(t.is_alive() for t in threads):
                pass
            store.close()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and reads and all(reads)
        assert segment.closed and segment._buffer is None

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/maps"
    )
    def test_no_mapping_under_the_root_outlives_close(self, tmp_path):
        root = _wide_snapshot(tmp_path / "store.snapd").resolve()
        config = EngineConfig(executor_kind="serial", compaction_threshold=2)
        engine = TriniT.open(root, config=config)
        stream = engine.stream("?x ?p ?y")
        stream.next_k(3)
        for tag in "NMK":
            engine.ingest(_live_rows(tag))
            engine.ask("?x p1 ?y")
        assert engine.generation == 3
        backend = engine.store.backend
        # Held past close: only an explicit unmap, not collection, frees them.
        segments = [backend._segment(i) for i in range(backend.segment_count())]
        assert str(root) in Path("/proc/self/maps").read_text()
        engine.close()
        del stream
        gc.collect()
        assert all(segment.closed for segment in segments)
        assert str(root) not in Path("/proc/self/maps").read_text()

