"""Columnar segment: the frozen unit of the store layout.

Triples live in parallel columns — ``array('i')`` for the s/p/o term ids,
``array('d')`` for sort weights, ``array('i')`` for observation counts —
instead of a list of per-triple objects.  For each bound-slot signature the
freeze step materialises one *permutation array*: all triple ids reordered so
that ids sharing a key are contiguous and each key group is in the
**canonical posting order** — weight desc, then tie key asc, then triple id
asc, where a triple's tie key is the sort keys of its (s, p, o) terms
(:meth:`~repro.storage.dictionary.TermDictionary.sort_key`).  Inside one
key group the bound slots are equal, so the order ranks the free slots
lexically: a tied run arrives in the order its answers rank.  A posting
list is then just an index range ``perm[start:stop]``, returned as a
zero-copy read-only memoryview.

A :class:`ColumnarBackend` is never a store's backend on its own:
:class:`~repro.storage.sharded.ShardedBackend` owns them — a fresh build's
one base segment, whose local ids are the global ids, plus one segment per
compacted generation, whose ids are local to the global range it starts
at — and :mod:`repro.storage.snapshot` maps each one from its own
container file.  Both classes swap released columns for :data:`_CLOSED`
on close, so a use after close raises :class:`StorageError`.

A restored segment may be listed by several stores at once — a compacted
store keeps the segments its parent had already mapped
(:mod:`repro.storage.compaction`) — so a segment counts the stores that
hold it: :meth:`ColumnarBackend.share` adds one, :meth:`ColumnarBackend.close`
drops one, and the last close releases the columns and the mapping.
"""

from __future__ import annotations

import sys
import threading
from array import array
from typing import Callable, NoReturn, Sequence

from repro.errors import StorageError
from repro.storage.index import SIGNATURES, signature_of

#: Typecode for id columns.  'q' (64-bit) would also work; 'i' (>= 32-bit)
#: comfortably covers term and triple ids at in-memory scales.
ID_TYPECODE = "i"

_EMPTY: tuple[int, ...] = ()


class _ClosedData:
    """Placeholder swapped in for released columns and posting structures.

    Every access path through a closed backend lands on one of these, so
    use-after-close surfaces as :class:`StorageError` instead of a released
    memoryview's ``ValueError`` (mmap case) or silently-working stale data
    (in-memory case) — with zero per-access cost before close.
    """

    def _raise(self) -> NoReturn:
        raise StorageError("Storage backend is closed")

    def __getitem__(self, index: object) -> NoReturn:
        self._raise()

    def __len__(self) -> NoReturn:
        self._raise()

    def __iter__(self) -> NoReturn:
        self._raise()

    def get(self, *args: object) -> NoReturn:
        self._raise()

    def keys(self) -> NoReturn:
        self._raise()

    def values(self) -> NoReturn:
        self._raise()


_CLOSED = _ClosedData()


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
        # (signature, slot) -> key -> the distinct ids at slot (slot_values)
        self._slot_values: dict = {}
        self._frozen = False
        self._closed = False
        # Set by _restore: keeps a snapshot's mmap (or bytes) buffer alive
        # for as long as the views over it exist.
        self._buffer = None
        # Stores listing this segment; the last close releases it.
        self._holders = 1
        self._holders_lock = threading.Lock()

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
        backend._slot_values = {}
        backend._frozen = True
        backend._closed = False
        backend._buffer = buffer
        backend._holders = 1
        backend._holders_lock = threading.Lock()
        return backend

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    @property
    def closed(self) -> bool:
        return self._closed

    def share(self) -> bool:
        """Count one more store listing this segment; ``False`` (and no
        count) once the segment is closed."""
        with self._holders_lock:
            if self._closed:
                return False
            self._holders += 1
            return True

    def close(self) -> None:
        """Drop one holder; the last one releases columns, permutation
        views and the snapshot buffer.

        For an mmap-restored backend this is the only way the mapping is
        ever unmapped: every retained memoryview over the mapped pages is
        released and the :class:`mmap.mmap` closed.  Posting-list slices
        handed out before close (cursors of a still-live stream) keep the
        pages alive until they are garbage-collected — in that case the
        explicit unmap is deferred to GC rather than failing the close.
        Further lookups raise :class:`StorageError`.  A store closes each
        segment it lists once; closing a closed segment does nothing.
        """
        with self._holders_lock:
            if self._closed:
                return
            self._holders -= 1
            if self._holders:
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
        self._slot_values = _CLOSED
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
        self,
        weights: Sequence[float],
        counts: Sequence[int],
        *,
        sort_key: Callable[[int], object],
    ) -> None:
        """Sort every posting structure into the canonical order.

        ``weights`` and ``counts`` are the per-triple sort weight and
        observation count columns; ``sort_key`` maps a term id to its tie
        key (the store passes :meth:`TermDictionary.sort_key`).
        """
        if self._frozen:
            raise StorageError("Backend already frozen")
        n = len(self._s)
        if len(weights) != n:
            raise StorageError(f"{n} triples but {len(weights)} weights")
        if len(counts) != n:
            raise StorageError(f"{n} triples but {len(counts)} counts")
        self._weights = array("d", weights)
        self._counts = array(ID_TYPECODE, counts)
        w = self._weights
        columns = (self._s, self._p, self._o)
        ks, kp, ko = [list(map(sort_key, column)) for column in columns]
        # One stable sort fixes the canonical order (equal keys keep id
        # order); every signature's key groups are filled in it.
        scan = array(
            ID_TYPECODE,
            sorted(range(n), key=lambda tid: (-w[tid], ks[tid], kp[tid], ko[tid])),
        )
        self._scan_view = memoryview(scan).toreadonly()

        for sig in SIGNATURES:
            sig_columns = [columns[slot] for slot in sig]
            groups: dict[tuple[int, ...], list[int]] = {}
            for tid in scan:
                key = tuple(col[tid] for col in sig_columns)
                groups.setdefault(key, []).append(tid)
            perm = array(ID_TYPECODE)
            offsets: dict[tuple[int, ...], tuple[int, int]] = {}
            for key, tids in groups.items():
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
        if len(key) != len(sig):
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

    def slot_values(
        self, sig: tuple[int, ...], key: tuple[int, ...], slot: int
    ) -> Sequence[int]:
        """The distinct ids at ``slot`` (not in ``sig``) of the statements
        keyed ``key`` on signature ``sig``: the key table of the signature
        that adds ``slot``, grouped by ``sig`` once per segment."""
        groups = self._slot_values.get((sig, slot))
        if groups is None:
            wider = tuple(sorted((*sig, slot)))
            at = wider.index(slot)
            kept = [wider.index(bound) for bound in sig]
            groups = {}
            for wide_key in self._offsets[wider]:
                groups.setdefault(
                    tuple(wide_key[i] for i in kept), []
                ).append(wide_key[at])
            self._slot_values[(sig, slot)] = groups
        return groups.get(key, _EMPTY)

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

    def slot_columns(self, slots: Sequence[int]) -> tuple[Sequence[int], ...]:
        """The term-id columns of ``slots`` (0 = s, 1 = p, 2 = o), indexed
        by local triple id — what a merge reads tie keys from."""
        columns = (self._s, self._p, self._o)
        return tuple(columns[slot] for slot in slots)

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

