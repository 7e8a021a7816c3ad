"""Columnar segment: the frozen unit of the store layout.

Triples live in parallel ``array('i')`` columns of s/p/o term ids instead
of a list of per-triple objects.  A segment is posting structure only: the
sort weights it is frozen by belong to the store's one global column
(:meth:`~repro.storage.sharded.ShardedBackend.weights`) and the observation
counts to the store's records.  For each bound-slot signature the
freeze step materialises one *permutation array*: all triple ids reordered so
that ids sharing a key are contiguous, the key groups in **key order** (the
key's ids compared in the signature's lookup order, :data:`LOOKUP_ORDER`)
and each key group in the **canonical posting order** — weight desc, then
tie key asc, then triple id asc, where a triple's tie key is the sort keys
of its (s, p, o) terms
(:meth:`~repro.storage.dictionary.TermDictionary.sort_key`).  Inside one
key group the bound slots are equal, so the order ranks the free slots
lexically: a tied run arrives in the order its answers rank.  A posting
list is then just an index range ``perm[start:stop]``, returned as a
zero-copy read-only memoryview.

The ranges are found by bisection, not looked up in a decoded table.
Each slot has one **key table**: the slot's distinct ids ascending and,
beside them, where each id's group starts in the one-slot permutations
(a group stops where the next one starts).  Every permutation of a
signature leading with that slot is sorted by it first, so the table
gives the lead id's run in all of them; the key's further slots are
bisected inside that run, over the permutation read through the id
columns.  A key costs one bisection of a key table plus two (its run's
two ends) per further bound slot, and no per-key Python object exists,
in memory or in a mapped segment.

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
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from repro.errors import StorageError
from repro.storage.index import SIGNATURES, signature_of

#: Typecode for id columns.  'q' (64-bit) would also work; 'i' (>= 32-bit)
#: comfortably covers term and triple ids at in-memory scales.
ID_TYPECODE = "i"

_EMPTY: tuple[int, ...] = ()

#: Per signature, its ``(position in the key, slot)`` pairs in the order a
#: lookup narrows by them: subject, object, predicate.  A KG has far fewer
#: predicates than subjects or objects, so the lead id's run is short and
#: the bisections inside it are too.
LOOKUP_ORDER: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {
    sig: tuple(sorted(enumerate(sig), key=lambda item: (0, 2, 1).index(item[1])))
    for sig in SIGNATURES
}


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

    def values(self) -> NoReturn:
        self._raise()


_CLOSED = _ClosedData()


class ColumnarBackend:
    """Dictionary-encoded triples as parallel arrays + range posting lists."""

    def __init__(self):
        self._s = array(ID_TYPECODE)
        self._p = array(ID_TYPECODE)
        self._o = array(ID_TYPECODE)
        # signature -> read-only memoryview over that signature's permutation
        self._perm_views: dict[tuple[int, ...], memoryview] = {}
        # slot -> (its distinct ids ascending, where each id's group starts)
        self._key_tables: tuple[tuple[memoryview, memoryview], ...] = ()
        self._scan_view: memoryview | None = None
        # (signature, key, slot) -> the distinct ids at slot (slot_values)
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
        scan_view,
        perm_views,
        key_tables,
        buffer=None,
    ) -> "ColumnarBackend":
        """Assemble an already-frozen backend from snapshot sections.

        Columns, permutation views and key tables may be read-only
        memoryviews straight over a mapped snapshot file (see
        :mod:`repro.storage.snapshot`) — nothing is copied, decoded or
        sorted: the on-disk permutations *are* the posting lists and the
        on-disk key tables are bisected in place.
        """
        backend = cls.__new__(cls)
        backend._s = s
        backend._p = p
        backend._o = o
        backend._perm_views = perm_views
        backend._key_tables = key_tables
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
        views, key tables and the snapshot buffer.

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
                self._scan_view,
                *self._perm_views.values(),
                *(view for table in self._key_tables for view in table),
            )
            if isinstance(view, memoryview)
        ]
        self._s = self._p = self._o = _CLOSED
        self._scan_view = _CLOSED
        self._perm_views = _CLOSED
        self._key_tables = _CLOSED
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
        *,
        sort_key: Callable[[int], object],
    ) -> None:
        """Sort every posting structure into the canonical order.

        ``weights`` is the per-triple sort weight column, read to sort and
        not kept (its owner is the store's backend); ``sort_key`` maps a
        term id to its tie key (the store passes
        :meth:`TermDictionary.sort_key`).
        """
        if self._frozen:
            raise StorageError("Backend already frozen")
        n = len(self._s)
        if len(weights) != n:
            raise StorageError(f"{n} triples but {len(weights)} weights")
        columns = (self._s, self._p, self._o)
        ks, kp, ko = [list(map(sort_key, column)) for column in columns]
        # One stable sort fixes the canonical order (equal keys keep id
        # order); every signature's key groups keep it.
        scan = array(
            ID_TYPECODE,
            sorted(
                range(n),
                key=lambda tid: (-weights[tid], ks[tid], kp[tid], ko[tid]),
            ),
        )
        self._scan_view = memoryview(scan).toreadonly()
        # A signature's key order is its lead slot, then the order of the
        # slots after it — one stable sort by the lead slot of the tail's
        # permutation (the scan for a single slot): a radix sort that keeps
        # each key group in the scan's canonical order.
        perms: dict[tuple[int, ...], Sequence[int]] = {(): scan}
        for sig in SIGNATURES:
            lead, *tail = [slot for _at, slot in LOOKUP_ORDER[sig]]
            perm = perms[(lead, *tail)] = array(
                ID_TYPECODE, sorted(perms[tuple(tail)], key=columns[lead].__getitem__)
            )
            self._perm_views[sig] = memoryview(perm).toreadonly()
        tables = []
        for column in columns:
            sizes = Counter(column)
            keys = sorted(sizes)
            starts = array(
                ID_TYPECODE, accumulate(map(sizes.__getitem__, keys), initial=0)
            )
            starts.pop()  # the end of the last group: the segment's length
            tables.append(
                (
                    memoryview(array(ID_TYPECODE, keys)).toreadonly(),
                    memoryview(starts).toreadonly(),
                )
            )
        self._key_tables = tuple(tables)
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
        lo, hi = self._span(sig, key)
        if lo == hi:
            return _EMPTY
        return self._perm_views[sig][lo:hi]

    def _span(self, sig: tuple[int, ...], key: tuple[int, ...]) -> tuple[int, int]:
        """The range of ``key``'s group in ``sig``'s permutation; empty
        when no statement holds it.

        The lead slot's key table gives the lead id's run; each further
        slot (:data:`LOOKUP_ORDER`) narrows the run by bisecting the
        permutation through that slot's id column (the run is sorted by
        it)."""
        order = LOOKUP_ORDER[sig]
        first, lead = order[0]
        keys, starts = self._key_tables[lead]
        value = key[first]
        at = bisect_left(keys, value)
        if at == len(keys) or keys[at] != value:
            return 0, 0
        lo = starts[at]
        hi = starts[at + 1] if at + 1 < len(starts) else len(self._s)
        if len(order) > 1:
            perm = self._perm_views[sig]
            columns = (self._s, self._p, self._o)
            for at, slot in order[1:]:
                id_at = columns[slot].__getitem__
                lo = bisect_left(perm, key[at], lo, hi, key=id_at)
                hi = bisect_right(perm, key[at], lo, hi, key=id_at)
        return lo, hi

    def slot_values(
        self, sig: tuple[int, ...], key: tuple[int, ...], slot: int
    ) -> Iterable[int]:
        """The distinct ids at ``slot`` (not in ``sig``) of the statements
        keyed ``key`` on signature ``sig``: the slot's key table when
        nothing is bound, else read through the key group's postings once
        per segment and request — a group can be a whole predicate's."""
        if not sig:
            return self._key_tables[slot][0]
        request = (sig, key, slot)
        values = self._slot_values.get(request)
        if values is None:
            column = (self._s, self._p, self._o)[slot]
            values = self._slot_values[request] = frozenset(
                map(column.__getitem__, self._group(sig, key))
            )
        return values

    def slot_counts(
        self, sig: tuple[int, ...], keys: Iterable[tuple[int, ...]], slot: int
    ) -> Counter[int]:
        """How many statements keyed by one of ``keys`` (distinct) on the
        two-slot signature ``sig`` hold each id at ``slot``: each distinct
        lead id's run is read once, the other bound slot checked per
        statement, and, unlike :meth:`slot_values`, nothing is kept."""
        (first, lead), (second, other) = LOOKUP_ORDER[sig]
        wanted: dict[int, set[int]] = {}
        for key in keys:
            wanted.setdefault(key[first], set()).add(key[second])
        columns = (self._s, self._p, self._o)
        other_ids, slot_ids = columns[other], columns[slot]
        perm = self._perm_views[sig]
        lead_ids, starts = self._key_tables[lead]
        held: list[int] = []
        for value, others in wanted.items():
            at = bisect_left(lead_ids, value)
            if at == len(lead_ids) or lead_ids[at] != value:
                continue
            stop = starts[at + 1] if at + 1 < len(starts) else len(self._s)
            held += [
                slot_ids[local]
                for local in perm[starts[at] : stop]
                if other_ids[local] in others
            ]
        return Counter(held)

    def slot_pairs(
        self, sig: tuple[int, ...], key: tuple[int, ...], slots: Sequence[int]
    ) -> Iterator[tuple[int, int]]:
        """The ids at the two ``slots`` (not in ``sig``) of each statement
        keyed ``key`` on signature ``sig`` (nonempty), one pair per
        statement; read through the key group and, unlike
        :meth:`slot_values`, kept nowhere: a group can be a whole
        predicate's, one tuple a statement."""
        group = self._group(sig, key)
        first, second = self.slot_columns(slots)
        return zip(map(first.__getitem__, group), map(second.__getitem__, group))

    def _group(self, sig: tuple[int, ...], key: tuple[int, ...]) -> Sequence[int]:
        lo, hi = self._span(sig, key)
        return self._perm_views[sig][lo:hi]

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
        """Approximate resident bytes of the columns, permutations and
        key tables."""
        total = sum(
            col.nbytes if isinstance(col, memoryview) else sys.getsizeof(col)
            for col in (self._s, self._p, self._o)
        )
        for view in self._perm_views.values():
            total += view.nbytes
        for keys, starts in self._key_tables:
            total += keys.nbytes + starts.nbytes
        if self._scan_view is not None:
            total += self._scan_view.nbytes
        return total

