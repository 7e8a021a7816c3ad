"""Columnar segment: the frozen unit of the sharded store layout.

Triples live in parallel columns — ``array('i')`` for the s/p/o term ids,
``array('d')`` for sort weights, ``array('i')`` for observation counts —
instead of a list of per-triple objects.  For each bound-slot signature the
freeze step materialises one *permutation array*: all triple ids reordered so
that ids sharing a key are contiguous and each key group is sorted by
(weight desc, triple id asc).  A posting list is then just an index range
``perm[start:stop]``, returned as a zero-copy read-only memoryview.

A :class:`ColumnarBackend` is never a store's backend on its own:
:class:`~repro.storage.sharded.ShardedBackend` owns N of them (ids here are
segment-*local*), merges their postings with the mutable delta, and
:mod:`repro.storage.snapshot` maps each one from its own container file.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

from repro.errors import StorageError
from repro.storage.backend import _CLOSED
from repro.storage.index import SIGNATURES, signature_of

#: Typecode for id columns.  'q' (64-bit) would also work; 'i' (>= 32-bit)
#: comfortably covers term and triple ids at in-memory scales.
ID_TYPECODE = "i"

_EMPTY: tuple[int, ...] = ()


class ColumnarBackend:
    """Dictionary-encoded triples as parallel arrays + range posting lists."""

    def __init__(self):
        self._s = array(ID_TYPECODE)
        self._p = array(ID_TYPECODE)
        self._o = array(ID_TYPECODE)
        self._weights = array("d")
        self._counts = array(ID_TYPECODE)
        # signature -> read-only memoryview over that signature's permutation
        self._perm_views: dict[tuple[int, ...], memoryview] = {}
        # signature -> key tuple -> (start, stop) into the permutation
        self._offsets: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, int]]] = {}
        self._scan_view: memoryview | None = None
        self._frozen = False
        self._closed = False
        # Set by _restore: keeps a snapshot's mmap (or bytes) buffer alive
        # for as long as the views over it exist.
        self._buffer = None

    @classmethod
    def _restore(
        cls,
        *,
        s,
        p,
        o,
        weights,
        counts,
        scan_view,
        perm_views,
        offsets,
        buffer=None,
    ) -> "ColumnarBackend":
        """Assemble an already-frozen backend from snapshot sections.

        Columns and permutation views may be read-only memoryviews straight
        over a mapped snapshot file (see :mod:`repro.storage.snapshot`) —
        nothing is copied and no freeze-time sorting happens: the on-disk
        permutations *are* the posting lists.
        """
        backend = cls.__new__(cls)
        backend._s = s
        backend._p = p
        backend._o = o
        backend._weights = weights
        backend._counts = counts
        backend._perm_views = perm_views
        backend._offsets = offsets
        backend._scan_view = scan_view
        backend._frozen = True
        backend._closed = False
        backend._buffer = buffer
        return backend

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release columns, permutation views and the snapshot buffer.

        For an mmap-restored backend this is the only way the mapping is
        ever unmapped: every retained memoryview over the mapped pages is
        released and the :class:`mmap.mmap` closed.  Posting-list slices
        handed out before close (cursors of a still-live stream) keep the
        pages alive until they are garbage-collected — in that case the
        explicit unmap is deferred to GC rather than failing the close.
        Further lookups raise :class:`StorageError`.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        views = [
            view
            for view in (
                self._s,
                self._p,
                self._o,
                self._weights,
                self._counts,
                self._scan_view,
                *self._perm_views.values(),
            )
            if isinstance(view, memoryview)
        ]
        self._s = self._p = self._o = _CLOSED
        self._weights = self._counts = _CLOSED
        self._scan_view = _CLOSED
        self._perm_views = _CLOSED
        self._offsets = _CLOSED
        for view in views:
            view.release()
        buffer, self._buffer = self._buffer, None
        if buffer is not None and hasattr(buffer, "close"):
            try:
                buffer.close()
            except BufferError:
                # Posting slices exported before close are still alive
                # somewhere; the mapping is freed when they are collected.
                pass

    def __len__(self) -> int:
        return len(self._s)

    # -- build phase ------------------------------------------------------------

    def insert(self, triple_id: int, slot_ids: tuple[int, int, int]) -> None:
        if self._frozen:
            raise StorageError("Cannot insert into a frozen backend")
        if triple_id != len(self._s):
            raise StorageError(
                f"Triple ids must be dense: expected {len(self._s)}, "
                f"got {triple_id}"
            )
        s, p, o = slot_ids
        self._s.append(s)
        self._p.append(p)
        self._o.append(o)

    def freeze(
        self, weights: Sequence[float], counts: Sequence[int] | None = None
    ) -> None:
        if self._frozen:
            raise StorageError("Backend already frozen")
        n = len(self._s)
        if len(weights) != n:
            raise StorageError(f"{n} triples but {len(weights)} weights")
        self._weights = array("d", weights)
        if counts is not None:
            if len(counts) != n:
                raise StorageError(f"{n} triples but {len(counts)} counts")
            self._counts = array(ID_TYPECODE, counts)
        w = self._weights
        columns = (self._s, self._p, self._o)

        def order(tid: int) -> tuple[float, int]:
            return (-w[tid], tid)

        scan = array(ID_TYPECODE, sorted(range(n), key=order))
        self._scan_view = memoryview(scan).toreadonly()

        for sig in SIGNATURES:
            sig_columns = [columns[slot] for slot in sig]
            groups: dict[tuple[int, ...], list[int]] = {}
            for tid in range(n):
                key = tuple(col[tid] for col in sig_columns)
                groups.setdefault(key, []).append(tid)
            perm = array(ID_TYPECODE)
            offsets: dict[tuple[int, ...], tuple[int, int]] = {}
            for key, tids in groups.items():
                tids.sort(key=order)
                start = len(perm)
                perm.extend(tids)
                offsets[key] = (start, len(perm))
            self._perm_views[sig] = memoryview(perm).toreadonly()
            self._offsets[sig] = offsets
        self._frozen = True

    # -- lookup ------------------------------------------------------------

    def postings(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> Sequence[int]:
        if self._closed:
            raise StorageError("Storage backend is closed")
        if not self._frozen:
            raise StorageError("Backend must be frozen before lookup")
        sig = signature_of(bound_slots)
        if sig and len(key) != len(sig):
            raise StorageError(
                f"Key arity {len(key)} does not match signature {sig}"
            )
        if not sig:
            return self._scan_view  # type: ignore[return-value]
        span = self._offsets[sig].get(key)
        if span is None:
            return _EMPTY
        start, stop = span
        return self._perm_views[sig][start:stop]

    def posting_block(
        self,
        bound_slots: Sequence[bool],
        key: tuple[int, ...],
        lo: int,
        hi: int,
    ) -> Sequence[int]:
        """Zero-copy block ``[lo, hi)`` of one posting list: a memoryview
        slice straight off the permutation array (for an mmap-restored
        segment, a window onto the mapped snapshot pages)."""
        return self.postings(bound_slots, key)[lo:hi]

    def slot_ids(self, triple_id: int) -> tuple[int, int, int]:
        return (self._s[triple_id], self._p[triple_id], self._o[triple_id])

    # -- introspection ------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the column + permutation arrays."""
        total = sum(
            col.nbytes if isinstance(col, memoryview) else sys.getsizeof(col)
            for col in (self._s, self._p, self._o, self._weights, self._counts)
        )
        for view in self._perm_views.values():
            total += view.nbytes
        if self._scan_view is not None:
            total += self._scan_view.nbytes
        return total

