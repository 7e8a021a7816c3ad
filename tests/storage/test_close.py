"""Backend and store close semantics: release resources, fail loudly after.

The mmap-leak fix: ``load_snapshot(map_file=True)`` used to create a mapping
nothing could ever unmap.  ``close()`` now travels engine → store → backend
→ buffer, releasing every retained memoryview and the map itself; any use
after close raises :class:`StorageError` on either store layout,
in-memory or mapped.
"""

from pathlib import Path

import pytest

from repro.core.terms import Resource
from repro.core.triples import Triple, TriplePattern
from repro.core.terms import Variable
from repro.errors import StorageError
from repro.storage.compaction import compact_store
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.store import TripleStore


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
        with pytest.raises(StorageError):
            inner.count(0)
        with pytest.raises(StorageError):
            inner.distinct_keys((False, True, False))

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
