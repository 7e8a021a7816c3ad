"""The store layout: one base segment, the segments compaction appends, a merge.

The paper's system served its XKG from a sharded ElasticSearch index;
:class:`ShardedBackend`, the one class behind every
:class:`~repro.storage.store.TripleStore`, keeps that name (it is what
``TripleStore.backend_name`` and ``/healthz`` report) but does not shard.
A fresh build is **one** columnar
:class:`~repro.storage.columnar.ColumnarBackend` segment — the *base
segment*, whose local ids are the global triple ids.  Compaction
(:mod:`repro.storage.compaction`) appends one segment per generation after
it, each holding the contiguous global id range the folded delta owned.
So the whole id map is one start offset per segment: ``gid = start +
local``.  The backend owns the sort-weight column
(:meth:`ShardedBackend.weights`).

``postings()`` is the one lookup.  While only the base segment holds the
key — every lookup on a fresh store — it answers with that segment's own
zero-copy slice and builds nothing else.  When a later segment or the
mutable delta holds it too (a store under live ingestion), a
:class:`MergedPostings` merges the parts' heads lazily in the canonical
posting order — weight desc, tie key asc (the sort keys of the lookup's
free slots), global id asc — exactly the order each segment freezes with,
so the merged stream is element-identical to one segment holding
everything, while only the consumed prefix is ever materialised.  The
merge refills each part by pre-keyed **blocks** — a ``(-weight, tie
keys…)`` merge-key column and a global-id column, built by C-speed gathers
(:func:`repro.topk.kernels.prepare_head_block`) instead of per-head Python
loops.

How many postings a read takes is the reader's choice: the id-space
cursors pull a slice and a merge alike through one read frontier,
sized by :attr:`~repro.storage.store.TripleStore.merge_batch`
(``EngineConfig.merge_batch``).

Snapshot-restored backends (:mod:`repro.storage.snapshot`) keep their
segments: each segment's columns arrive as a lazy loader over its own
mapped file, materialised on first touch — or all at once via
:meth:`load_segments`.  A compacted store lists its parent's segments
first and starts from the ones the parent had already materialised
(:meth:`ShardedBackend.adopt_segments`); a segment held by several stores
is released by the last one to close.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import Callable, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.columnar import _CLOSED, ID_TYPECODE, ColumnarBackend
from repro.storage.index import signature_of

#: Lazily-imported kernel module (repro.topk.kernels imports nothing from
#: the storage layer, but importing it at module top level here would run
#: repro.topk's package init mid-way through the storage imports).
_kernels = None


def _kernel_module():
    global _kernels
    if _kernels is None:
        from repro.topk import kernels

        _kernels = kernels
    return _kernels


class _SegmentStream:
    """One part's contribution to a merge: postings plus its start.

    ``prepare_block`` translates the ``[lo, hi)`` local posting ids into a
    pre-keyed head block — parallel merge-key and global-id columns — in
    one pass of C-speed gathers; that block is the unit the merge refills
    by.  ``columns`` are the stream's term-id columns of the lookup's free
    slots (local-indexed), which the merge keys' tie part is read from.
    ``kw``/``kg`` hold the current block, ``index`` the consumed prefix of
    it, ``position`` the end of the posting range already taken.
    """

    __slots__ = ("postings", "start", "columns", "position", "kw", "kg",
                 "index", "weights", "is_delta")

    def __init__(
        self,
        postings: Sequence[int],
        start: int,
        columns: Sequence[Sequence[int]],
        weights=None,
    ):
        self.postings = postings
        self.start = start
        self.columns = columns
        self.position = 0
        # Current head block: merge keys and global ids, parallel.
        self.kw: Sequence[tuple] = ()
        self.kg: Sequence[int] = ()
        self.index = 0
        # Per-stream weight override: the mutable delta segment carries its
        # own immutable weight snapshot (frozen weights columns don't cover
        # delta ids).  None means "use the merge-level weights".
        self.weights = weights
        self.is_delta = weights is not None

    def prepare_block(self, weights, sort_key, lo: int, hi: int):
        if self.weights is not None:
            weights = self.weights
        return _kernel_module().prepare_head_block(
            self.postings, self.start, weights, lo, hi, self.columns, sort_key
        )


class MergedPostings:
    """Immutable posting sequence merged lazily from its parts.

    Length is known up front (each global id lives in exactly one segment,
    so the length is the sum of the part lengths); items are merged only as
    far as callers index, iterate, or :meth:`pull`.  Cursors that abandon a
    posting list after a few sorted accesses never pay for the rest.

    ``parts`` are ``(postings, start, columns)`` per segment.  The merge
    key of a head is ``(-weight, sort_key(id) for each free-slot column)``,
    heads are prepared in blocks no larger than the pull that needs them,
    and the heap compares ``(merge key, global id)`` — global ids are
    unique, so the emitted order is deterministic and independent of the
    pull sizes.

    ``delta`` adds the store's mutable delta segment as one more stream:
    a ``(postings, start, weights, columns)`` snapshot
    (:class:`~repro.storage.delta.DeltaPart` with its columns narrowed to
    the free slots) whose per-stream weight view covers the delta ids the
    merge-level weights column doesn't.  :attr:`delta_emitted` counts how
    many items came from it — the source of ``QueryStats.delta_hits``.
    """

    __slots__ = ("_items", "_streams", "_weights", "_sort_key", "_length",
                 "_heap", "_delta_emitted")

    def __init__(
        self,
        parts: list[tuple[Sequence[int], int, Sequence[Sequence[int]]]],
        weights,
        length: int,
        *,
        sort_key: Callable[[int], object],
        delta=None,
    ):
        self._items = array(ID_TYPECODE)
        self._streams = [_SegmentStream(*part) for part in parts]
        if delta is not None:
            postings, start, delta_weights, columns = delta
            self._streams.append(
                _SegmentStream(postings, start, columns, delta_weights)
            )
        self._delta_emitted = 0
        self._weights = weights
        self._sort_key = sort_key
        self._length = length
        # None until the first pull.
        self._heap: list[tuple[float, int, int]] | None = None

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    @property
    def materialized(self) -> int:
        """How many items have been pulled so far."""
        return len(self._items)

    @property
    def segments(self) -> int:
        """Number of streams (segments and delta) contributing."""
        return len(self._streams)

    @property
    def delta_emitted(self) -> int:
        """How many materialised items came from the mutable delta."""
        return self._delta_emitted

    # -- merge machinery ---------------------------------------------------

    def _push(self, heap, stream_id: int, limit: int) -> None:
        """Push the stream's next head, first swapping in its next head
        block — at most ``limit`` heads — when the current one is spent."""
        stream = self._streams[stream_id]
        if stream.index >= len(stream.kw):
            lo = stream.position
            if lo >= len(stream.postings):
                return
            hi = stream.position = min(lo + limit, len(stream.postings))
            stream.kw, stream.kg = stream.prepare_block(
                self._weights, self._sort_key, lo, hi
            )
            stream.index = 0
        index = stream.index
        stream.index = index + 1
        heapq.heappush(heap, (stream.kw[index], stream.kg[index], stream_id))

    def pull(self, n: int) -> int:
        """Materialise up to ``n`` further items; return how many were added.

        This is the batched sorted-access entry point: one call amortises
        the per-item Python overhead over ``n`` items instead of paying it
        at every ``[index]``.
        """
        if n <= 0:
            return 0
        heap = self._heap
        if heap is None:
            # Size the opening blocks to the request: a one-head probe
            # (rewriting enumeration peeking ids[0]) keys one head a part.
            heap = self._heap = []
            for stream_id in range(len(self._streams)):
                self._push(heap, stream_id, n)
        items = self._items
        streams = self._streams
        delta_emitted = 0
        before = len(items)
        target = min(self._length, before + n)
        while len(items) < target and heap:
            neg_weight, gid, stream_id = heap[0]
            items.append(gid)
            stream = streams[stream_id]
            if stream.is_delta:
                delta_emitted += 1
            index = stream.index
            if index < len(stream.kw):
                # Fast path: the stream's next head is already prepared.
                stream.index = index + 1
                heapq.heapreplace(
                    heap, (stream.kw[index], stream.kg[index], stream_id)
                )
            else:
                heapq.heappop(heap)
                # The winner's next head must re-enter the heap to keep the
                # merge resumable, but prepare no more than this pull still
                # needs (at least one) — light consumers stay light.
                self._push(heap, stream_id, max(1, target - len(items)))
        if delta_emitted:
            self._delta_emitted += delta_emitted
        return len(items) - before

    def _fill(self, needed: int) -> None:
        missing = needed - len(self._items)
        if missing > 0:
            self.pull(missing)

    # -- sequence surface --------------------------------------------------

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            self._fill(start + 1 if step < 0 else stop)
            return tuple(self._items[start:stop:step])
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"Posting index out of range: {index}")
        self._fill(index + 1)
        return self._items[index]

    def __iter__(self):
        self._fill(self._length)
        return iter(self._items)

    def __contains__(self, value: object) -> bool:
        return any(item == value for item in self)


class ShardedBackend:
    """The base segment plus the segments compaction appended after it:
    :meth:`insert` every triple, :meth:`freeze` once, then look up (until
    :meth:`close`); an attached delta's ids dispatch to it."""

    name = "sharded"

    def __init__(self):
        # The base segment; builds insert into it, freeze sorts it.
        self._segments: list[ColumnarBackend | None] = [ColumnarBackend()]
        self._segment_loaders: list[Callable[[], ColumnarBackend]] | None = None
        # First global id of each segment; segments tile [0, _size).
        self._starts = [0]
        self._size = 0
        self._weights = array("d")
        self._sort_key: Callable[[int], object] | None = None
        self._frozen = False
        self._closed = False
        self._buffer = None
        self._load_lock = threading.Lock()
        self._source_dir: str | None = None
        self._snapshot_root: str | None = None
        self._generation = 0
        self._delta = None

    @classmethod
    def _restore(
        cls,
        *,
        starts: Sequence[int],
        weights,
        segment_loaders: list[Callable[[], ColumnarBackend]],
        buffer=None,
        source_dir: str | None = None,
        snapshot_root: str | None = None,
        generation: int = 0,
        sort_key: Callable[[int], object],
    ) -> "ShardedBackend":
        """Assemble an already-frozen backend from snapshot sections.

        Segments arrive as zero-argument *loaders* over their mapped files
        and materialise lazily on first touch (or all at once via
        :meth:`load_segments`) — a cold open pays for the manifest only.
        ``starts`` are the segments' first global ids.  The mapped
        ``buffer`` is owned here and released on :meth:`close`.
        ``sort_key`` is the tie key the segments were frozen with; merges
        compare heads by it.
        """
        backend = cls()
        backend._segments = [None] * len(segment_loaders)
        backend._segment_loaders = list(segment_loaders)
        backend._starts = list(starts)
        backend._size = len(weights)
        backend._weights = weights
        backend._sort_key = sort_key
        backend._frozen = True
        backend._buffer = buffer
        backend._source_dir = source_dir
        backend._snapshot_root = snapshot_root if snapshot_root else source_dir
        backend._generation = generation
        return backend

    @property
    def source_dir(self) -> str | None:
        """Directory this backend was mapped from, when it came from a
        snapshot — where compaction finds the segment files to hardlink.
        ``None`` for in-memory stores."""
        return self._source_dir

    @property
    def snapshot_root(self) -> str | None:
        """Root of the generational snapshot this backend was loaded from
        (the directory holding ``CURRENT`` + ``generation-K`` dirs).  For
        flat single-generation layouts this equals :attr:`source_dir`;
        compaction writes the next generation here."""
        return self._snapshot_root

    @property
    def generation(self) -> int:
        """Snapshot generation number this backend serves (0 = flat/legacy)."""
        return self._generation

    @property
    def delta(self):
        """The attached mutable :class:`~repro.storage.delta.DeltaSegment`,
        or ``None`` while the store is purely frozen."""
        return self._delta

    def attach_delta(self, delta) -> None:
        """Hook the store's mutable delta into every lookup surface.

        From here on the delta contributes one more stream to every
        :meth:`postings` lookup and the id-space accessors dispatch global
        ids at or above the frozen size to it.
        """
        if not self._frozen:
            raise StorageError("Only a frozen backend can carry a delta")
        if self._closed:
            raise StorageError("Storage backend is closed")
        self._delta = delta

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every segment and drop the global columns.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._delta = None
        self._segment_loaders = None
        weights, self._weights = self._weights, _CLOSED
        with self._load_lock:
            segments, self._segments = self._segments, _CLOSED
        for segment in segments:
            if segment is not None:
                segment.close()
        if isinstance(weights, memoryview):
            weights.release()
        buffer, self._buffer = self._buffer, None
        if buffer is not None and hasattr(buffer, "close"):
            try:
                buffer.close()
            except BufferError:
                # Posting slices exported before close are still alive
                # somewhere; the mapping is freed when they are collected.
                pass

    def segment_count(self) -> int:
        """Physical segments one lookup fans out over (protocol surface)."""
        return len(self._starts)

    def __len__(self) -> int:
        n = self._size
        if self._delta is not None:
            n += len(self._delta)
        return n

    def segment_sizes(self) -> list[int]:
        """Triples per segment, in global id order."""
        ends = self._starts[1:] + [self._size]
        return [end - start for start, end in zip(self._starts, ends)]

    def loaded_segments(self) -> list[int]:
        """Indices of segments whose columns are materialised (lazy loads)."""
        if self._closed:
            raise StorageError("Storage backend is closed")
        with self._load_lock:
            return [
                i for i, seg in enumerate(self._segments) if seg is not None
            ]

    def _segment(self, index: int) -> ColumnarBackend:
        # xkg: allow[lock-discipline] double-checked locking: the unlocked first read only short-circuits after a segment is published; the locked re-read decides
        segment = self._segments[index]
        if segment is None:
            with self._load_lock:
                segment = self._segments[index]
                if segment is None:
                    segment = self._segment_loaders[index]()
                    self._segments[index] = segment
        return segment

    def adopt_segments(self, parent: "ShardedBackend") -> None:
        """Start from the segments ``parent`` has already materialised.

        ``parent``'s segments must be this backend's leading ones (a
        compaction appends after them).  Each one loaded there is shared
        — this backend becomes one more holder, so the mapping stays until
        both have closed — instead of being mapped and restored again; one
        ``parent`` has not loaded, or has closed meanwhile, stays lazy.
        """
        with parent._load_lock:
            held = parent._segments
            loaded = [] if held is _CLOSED else list(held)
        with self._load_lock:
            for index, segment in enumerate(loaded):
                if (
                    segment is not None
                    and self._segments[index] is None
                    and segment.share()
                ):
                    self._segments[index] = segment

    def load_segments(self) -> None:
        """Materialise every lazy segment."""
        if self._closed:
            raise StorageError("Storage backend is closed")
        for index in range(len(self._starts)):
            self._segment(index)

    def posting_block(
        self,
        segment_index: int,
        bound_slots: Sequence[bool],
        key: tuple[int, ...],
        lo: int,
        hi: int,
    ) -> Sequence[int]:
        """Zero-copy block ``[lo, hi)`` of one segment's frozen posting
        list — the segment-addressed face of :meth:`ColumnarBackend.
        posting_block` (local posting ids; add the segment's start for
        global ids)."""
        if self._closed:
            raise StorageError("Storage backend is closed")
        if not self._frozen:
            raise StorageError("Backend must be frozen before lookup")
        return self._segment(segment_index).posting_block(
            bound_slots, key, lo, hi
        )

    # -- build phase ------------------------------------------------------------

    def insert(self, triple_id: int, slot_ids: tuple[int, int, int]) -> None:
        self._segment(0).insert(triple_id, slot_ids)

    def freeze(
        self,
        weights: Sequence[float],
        *,
        sort_key: Callable[[int], object],
    ) -> None:
        """Freeze the base segment by ``weights``, which become the
        global sort-weight column: the base segment's local ids are the
        global ids."""
        if self._frozen:
            raise StorageError("Backend already frozen")
        weights = array("d", weights)
        self._segment(0).freeze(weights, sort_key=sort_key)
        self._weights = weights
        self._size = len(weights)
        self._sort_key = sort_key
        self._frozen = True

    # -- lookup ------------------------------------------------------------

    def _check_lookup(self, bound_slots, key) -> tuple[int, ...]:
        if self._closed:
            raise StorageError("Storage backend is closed")
        if not self._frozen:
            raise StorageError("Backend must be frozen before lookup")
        sig = signature_of(bound_slots)
        if len(key) != len(sig):
            raise StorageError(
                f"Key arity {len(key)} does not match signature {sig}"
            )
        return sig

    def postings(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> Sequence[int]:
        """The lookup's postings, best first: the base segment's own slice
        while no later segment and no delta holds ``key`` (its local ids
        are the global ids), else a :class:`MergedPostings` over the parts
        that do."""
        self._check_lookup(bound_slots, key)
        if len(self._starts) == 1 and self._delta is None:
            return self._segment(0).postings(bound_slots, key)
        segments = [self._segment(index) for index in range(len(self._starts))]
        lists = [segment.postings(bound_slots, key) for segment in segments]
        delta = (
            self._delta.posting_part(bound_slots, key)
            if self._delta is not None
            else None
        )
        if delta is None and not any(map(len, lists[1:])):
            return lists[0]
        free = [slot for slot in range(3) if not bound_slots[slot]]
        parts = [
            (postings, start, segment.slot_columns(free))
            for postings, start, segment in zip(lists, self._starts, segments)
            if len(postings)
        ]
        total = sum(map(len, lists))
        if delta is not None:
            total += len(delta.postings)
            delta = (*delta[:3], tuple(delta.columns[slot] for slot in free))
        return MergedPostings(
            parts, self._weights, total, sort_key=self._sort_key, delta=delta
        )

    def slot_values(
        self, bound_slots: Sequence[bool], key: tuple[int, ...], slot: int
    ) -> set[int]:
        """The distinct term ids at free ``slot`` of the statements a
        lookup of ``key`` matches, read off each segment's key group
        (:meth:`ColumnarBackend.slot_values`) and the delta's index — no
        posting list is merged."""
        sig = self._check_lookup(bound_slots, key)
        values: set[int] = set()
        for part in self._parts():
            values.update(part.slot_values(sig, key, slot))
        return values

    def slot_counts(
        self, bound_slots: Sequence[bool], keys: Sequence[tuple[int, ...]], slot: int
    ) -> Counter[int]:
        """How many statements a two-slot lookup of one of ``keys``
        (distinct) matches hold each id at free ``slot``: one read per part
        over all the keys, no posting list merged and nothing kept."""
        counts: Counter[int] = Counter()
        if keys:
            sig = self._check_lookup(bound_slots, keys[0])
            for part in self._parts():
                counts.update(part.slot_counts(sig, keys, slot))
        return counts

    def slot_pairs(
        self, bound_slots: Sequence[bool], key: tuple[int, ...], slots: Sequence[int]
    ) -> frozenset[tuple[int, int]]:
        """The distinct ``(id, id)`` pairs at the two free ``slots`` of the
        statements a lookup of ``key`` (nonempty) matches, read off each
        segment's key group and the delta's index: no posting list is
        merged, and no part keeps the pairs."""
        sig = self._check_lookup(bound_slots, key)
        return frozenset(
            chain.from_iterable(
                [part.slot_pairs(sig, key, slots) for part in self._parts()]
            )
        )

    def key_weights(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> Iterator[float]:
        """The sort weights of the statements a lookup of ``key``
        (nonempty) matches, part by part — in no rank order, so for an
        order-free reduction such as :func:`math.fsum`.  Frozen ones are
        read from the global column, as every other weight read does."""
        sig = self._check_lookup(bound_slots, key)
        weights = self._weights
        parts = [
            map(
                weights.__getitem__,
                map(start.__add__, self._segment(index).postings(bound_slots, key)),
            )
            for index, start in enumerate(self._starts)
        ]
        if self._delta is not None:
            parts.append(self._delta.key_weights(sig, key))
        return chain.from_iterable(parts)

    def _parts(self) -> list:
        """The segments in id order, then the delta if one is attached:
        what a read that merges nothing walks part by part."""
        parts: list = [self._segment(index) for index in range(len(self._starts))]
        if self._delta is not None:
            parts.append(self._delta)
        return parts

    def slot_ids(self, triple_id: int) -> tuple[int, int, int]:
        if self._delta is not None and triple_id >= self._size:
            return self._delta.slot_ids(triple_id)
        starts = self._starts
        index = bisect_right(starts, triple_id) - 1
        return self._segment(index).slot_ids(triple_id - starts[index])

    def weight(self, triple_id: int) -> float:
        if self._delta is not None and triple_id >= self._size:
            return self._delta.weight(triple_id)
        return self._weights[triple_id]

    @property
    def frozen_weights(self) -> Sequence[float]:
        """The sort-weight column of the frozen segments, by global id."""
        return self._weights

    def weights(self) -> Sequence[float]:
        """The sort-weight column by global id, extended by the delta's."""
        if self._delta is None:
            return self._weights
        return _CombinedWeights(self._weights, self._size, self._delta)

    # -- introspection ------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes across the loaded segments plus the
        global weight column."""
        with self._load_lock:
            loaded = [seg for seg in self._segments if seg is not None]
        total = sum(segment.memory_bytes() for segment in loaded)
        return total + memoryview(self._weights).nbytes


class _CombinedWeights:
    """Frozen weight column extended by the live delta's weights.

    Indexable by any current triple id: ids below the frozen size read the
    frozen column, ids above it dispatch to the delta.  Hot loops cache one
    instance per cursor open, so the dispatch branch is paid only on delta
    ids.
    """

    __slots__ = ("_frozen", "_base", "_delta")

    def __init__(self, frozen: Sequence[float], base: int, delta):
        self._frozen = frozen
        self._base = base
        self._delta = delta

    def __getitem__(self, triple_id: int) -> float:
        if triple_id < self._base:
            return self._frozen[triple_id]
        return self._delta.weight(triple_id)

    def __len__(self) -> int:
        return self._base + len(self._delta)

    def __iter__(self) -> Iterator[float]:
        return map(self.__getitem__, range(len(self)))
