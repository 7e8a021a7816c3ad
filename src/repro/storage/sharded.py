"""The store layout: hash-partitioned columnar segments behind one merge.

The paper's system served its XKG from a sharded ElasticSearch index; this
backend reproduces the shape behind the :class:`~repro.storage.backend.
StorageBackend` protocol.  Triples are hash-partitioned by their (s, p, o)
term ids across N inner :class:`~repro.storage.columnar.ColumnarBackend`
segments; each segment freezes its own permutation arrays over *local* ids,
and a thin global layer keeps the id translation (global → segment/local,
segment/local → global) plus the global weight and count columns.

``postings()`` answers with a **lazy k-way merge** of the segments'
score-sorted lists: segment heads are compared by (weight desc, global id
asc) — exactly the sort key each segment freezes with — so the merged stream
is element-identical to one segment holding everything, while only the
consumed prefix is ever materialised.  The merge runs in-line on
the consuming thread and pulls each segment's heads as pre-keyed
**blocks** — two parallel ``(-weight, global id)`` columns built by C-speed
gathers (:func:`repro.topk.kernels.prepare_head_block`) instead of
per-head tuple lists.  :meth:`configure_block_cache` attaches the
engine-owned :class:`~repro.topk.kernels.HotBlockCache`, so the front
blocks Zipfian traffic hammers are decoded once and served from memory
(delta blocks are never cached — the mutable segment changes under live
ingestion).  Batch sizing (:meth:`configure_prefetch`) is either fixed or
**adaptive** (``batch=None``): each merge starts small and doubles its
per-segment pull as the consumer keeps draining, so one-head rewriting
probes stay cheap while deep drains converge to amortised bulk pulls — the
controller state is per merge instance, i.e. per query.  With
``batch_size=1`` the merge degenerates to the item-at-a-time pull — the
byte-identical reference batched execution is property-tested against.
The id-space execution core runs over a partitioned store unchanged.

Snapshot-restored backends (:mod:`repro.storage.snapshot`) keep their
segmentation: each segment's columns arrive as a lazy loader over its own
mapped file, materialised on first touch — or all at once, in parallel,
via :meth:`load_segments`.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from concurrent.futures import Executor
from typing import Callable, Sequence

from repro.errors import StorageError
from repro.storage.backend import _CLOSED
from repro.storage.columnar import ID_TYPECODE, ColumnarBackend
from repro.storage.index import signature_of

_EMPTY: tuple[int, ...] = ()

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

#: Segment count of ``ShardedBackend()`` — what ``TripleStore()`` builds.
DEFAULT_SEGMENTS = 4

#: Heads pulled per segment per batch when no explicit prefetch
#: configuration was supplied (``EngineConfig.merge_batch`` overrides).
DEFAULT_MERGE_BATCH = 64

#: Adaptive merge batching (``batch=None``): per-merge slow start.  A fresh
#: merge prepares this many heads per segment, and every further full-depth
#: demand pull doubles the granularity up to the ceiling — so rewriting
#: probes that peek one head stay cheap while queries that actually drain a
#: posting list converge to large, amortised pulls.  The state lives on the
#: :class:`MergedPostings` instance, i.e. per lookup per query: concurrent
#: queries adapt independently and cannot clobber each other.
ADAPTIVE_INITIAL_BATCH = 8
ADAPTIVE_MAX_BATCH = 1024


class _SegmentStream:
    """One segment's contribution to a merge: postings plus the id map.

    ``prepare_block`` translates the ``[lo, hi)`` local posting ids into a
    pre-keyed head block — parallel ``(-weight, global id)`` columns — in
    one pass of C-speed gathers; that block is the unit the merge refills
    by and the unit the hot-block cache stores.  ``kw``/``kg`` hold the
    current block, ``index`` the consumed prefix of it, ``position`` the
    end of the posting range already taken.
    """

    __slots__ = ("postings", "globals_", "segment_index", "position", "kw",
                 "kg", "index", "weights", "is_delta")

    def __init__(
        self,
        postings: Sequence[int],
        globals_: Sequence[int],
        weights=None,
        is_delta: bool = False,
    ):
        self.postings = postings
        self.globals_ = globals_
        self.segment_index = 0
        self.position = 0
        # Current head block: -weight merge keys and global ids, parallel.
        self.kw: Sequence[float] = ()
        self.kg: Sequence[int] = ()
        self.index = 0
        # Per-stream weight override: the mutable delta segment carries its
        # own immutable weight snapshot (frozen weights columns don't cover
        # delta ids).  None means "use the merge-level weights".
        self.weights = weights
        self.is_delta = is_delta

    def prepare_block(self, weights, lo: int, hi: int):
        if self.weights is not None:
            weights = self.weights
        return _kernel_module().prepare_head_block(
            self.postings, self.globals_, weights, lo, hi
        )


class MergedPostings:
    """Immutable posting sequence materialised lazily from a segment merge.

    Length is known up front (each global id lives in exactly one segment,
    so the merged length is the sum of the part lengths); items are pulled
    from the k-way merge only as far as callers index, iterate, or
    :meth:`pull`.  Cursors that abandon a posting list after a few sorted
    accesses never pay for the full merge.

    Segment heads are prepared on the consuming thread in batches of
    ``batch`` pre-keyed entries; ``batch=None`` selects **adaptive** sizing
    (slow start per merge, see :data:`ADAPTIVE_INITIAL_BATCH`).  The
    emitted order is deterministic and independent of batch sizing: the
    heap compares ``(-weight, global id)`` and global ids are unique.

    ``delta`` adds the store's mutable delta segment as one more stream:
    a ``(postings, globals_, weights)`` snapshot (:class:`~repro.storage.
    delta.DeltaPart`) whose per-stream weight view covers the delta ids the
    merge-level weights column doesn't.  :attr:`delta_emitted` counts how
    many merged items came from it — the source of
    ``QueryStats.delta_hits``.
    """

    __slots__ = ("_items", "_streams", "_weights", "_length", "_heap",
                 "_batch", "_adaptive", "_has_delta", "_delta_emitted",
                 "_cache", "_cache_base", "_cache_hits")

    def __init__(
        self,
        parts: list[tuple[Sequence[int], Sequence[int]]],
        weights,
        length: int,
        *,
        batch: int | None = DEFAULT_MERGE_BATCH,
        segment_indices: Sequence[int] | None = None,
        delta=None,
        cache=None,
        cache_base: tuple | None = None,
    ):
        self._items = array(ID_TYPECODE)
        self._streams = [_SegmentStream(p, g) for p, g in parts]
        if segment_indices is not None:
            for stream, index in zip(self._streams, segment_indices):
                stream.segment_index = index
        if delta is not None:
            delta_postings, delta_globals, delta_weights = delta
            stream = _SegmentStream(
                delta_postings, delta_globals, delta_weights, is_delta=True
            )
            stream.segment_index = -1
            self._streams.append(stream)
        self._has_delta = delta is not None
        self._delta_emitted = 0
        self._weights = weights
        self._length = length
        self._heap: list[tuple[float, int, int]] | None = None
        self._adaptive = batch is None
        self._batch = ADAPTIVE_INITIAL_BATCH if batch is None else max(1, batch)
        # Hot-block cache: engine-owned, shared across merges; keyed by the
        # lookup address (cache_base) plus segment index and block range.
        self._cache = cache if cache_base is not None else None
        self._cache_base = cache_base
        self._cache_hits = 0

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    @property
    def materialized(self) -> int:
        """How many items have been pulled from the merge so far."""
        return len(self._items)

    @property
    def segments(self) -> int:
        """Number of segments contributing to this merge."""
        return len(self._streams)

    @property
    def batch_size(self) -> int:
        """Current heads-per-segment pull granularity (grows when adaptive)."""
        return self._batch

    @property
    def delta_emitted(self) -> int:
        """How many materialised items came from the mutable delta."""
        return self._delta_emitted

    @property
    def cache_hits(self) -> int:
        """How many head blocks this merge served from the hot-block cache
        (the source of ``QueryStats.block_cache_hits``)."""
        return self._cache_hits

    # -- merge machinery ---------------------------------------------------

    def _refill(self, stream: _SegmentStream, limit: int | None = None) -> None:
        """Swap in the next head block of a stream that still has postings.

        ``limit`` caps the block below the configured batch — used on heap
        initialisation so a consumer that reads one head (rewriting
        enumeration probing ``ids[0]``) doesn't pay for a full batch per
        segment.

        Frozen segment blocks go through the hot-block cache under their
        ``(lookup, segment, range)`` key; the mutable delta changes under
        live ingestion, so its blocks are always prepared afresh.
        """
        lo = stream.position
        hi = min(lo + (limit or self._batch), len(stream.postings))
        stream.position = hi
        cache = None if stream.is_delta else self._cache
        block = None
        if cache is not None:
            key = (self._cache_base, stream.segment_index, lo, hi)
            block = cache.get(key)
            if block is not None:
                self._cache_hits += 1
        if block is None:
            block = stream.prepare_block(self._weights, lo, hi)
            if cache is not None:
                cache.put(key, block)
        stream.kw, stream.kg = block
        stream.index = 0

    def _push(self, heap, stream_id: int, limit: int | None = None) -> None:
        """Push the stream's next head, refilling its block when drained."""
        stream = self._streams[stream_id]
        if stream.index >= len(stream.kw):
            if stream.position >= len(stream.postings):
                return
            self._refill(stream, limit)
        index = stream.index
        stream.index = index + 1
        heapq.heappush(heap, (stream.kw[index], stream.kg[index], stream_id))

    def pull(self, n: int) -> int:
        """Materialise up to ``n`` further items; return how many were added.

        This is the batched sorted-access entry point: one call amortises
        the heap walk over ``n`` items instead of paying the per-item
        Python overhead at every ``[index]``.
        """
        if n <= 0:
            return 0
        heap = self._heap
        if heap is None:
            heap = self._heap = []
            # Size the opening prepare to the request: a one-head probe
            # (rewriting enumeration peeking ids[0]) should not pay for a
            # full batch per segment.
            first = min(n, self._batch)
            for stream_id in range(len(self._streams)):
                self._push(heap, stream_id, first)
        elif self._adaptive and n >= self._batch:
            # The consumer drained the previous granularity and came back
            # for at least as much again — this lookup is a deep drain, so
            # double the per-segment pull (slow start, bounded).
            self._batch = min(self._batch * 2, ADAPTIVE_MAX_BATCH)
        items = self._items
        streams = self._streams
        has_delta = self._has_delta
        delta_emitted = 0
        before = len(items)
        target = min(self._length, before + n)
        while len(items) < target and heap:
            neg_weight, gid, stream_id = heap[0]
            items.append(gid)
            stream = streams[stream_id]
            if has_delta and stream.is_delta:
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
        position = 0
        while position < self._length:
            if position >= len(self._items):
                # Re-read the batch each round so adaptive growth applies.
                if not self.pull(self._batch):
                    return
            yield self._items[position]
            position += 1

    def __contains__(self, value: object) -> bool:
        return any(item == value for item in self)


class ShardedBackend:
    """Hash-partitioned composite of N columnar segments."""

    name = "sharded"

    def __init__(self, num_segments: int = DEFAULT_SEGMENTS):
        if num_segments < 1:
            raise StorageError(f"Need at least one segment, got {num_segments}")
        self._segments: list[ColumnarBackend | None] = [
            ColumnarBackend() for _ in range(num_segments)
        ]
        self._segment_loaders: list[Callable[[], ColumnarBackend]] | None = None
        # Global triple id -> owning segment / local id within it.
        self._seg_of = array(ID_TYPECODE)
        self._local_of = array(ID_TYPECODE)
        # Per segment: local id -> global id (ascending, since globals
        # arrive densely — which keeps local posting order equal to global
        # (weight desc, id asc) order within each segment).
        self._globals = [array(ID_TYPECODE) for _ in range(num_segments)]
        self._weights = array("d")
        self._counts = array(ID_TYPECODE)
        self._frozen = False
        self._closed = False
        self._buffer = None
        self._load_lock = threading.Lock()
        self._merge_batch: int | None = DEFAULT_MERGE_BATCH
        self._source_dir: str | None = None
        self._snapshot_root: str | None = None
        self._generation = 0
        self._delta = None
        self._block_cache = None

    @classmethod
    def _restore(
        cls,
        *,
        seg_of,
        local_of,
        weights,
        counts,
        globals_,
        segment_loaders: list[Callable[[], ColumnarBackend]],
        buffer=None,
        source_dir: str | None = None,
        snapshot_root: str | None = None,
        generation: int = 0,
    ) -> "ShardedBackend":
        """Assemble an already-frozen backend from snapshot sections.

        Segments arrive as zero-argument *loaders* over the mapped file and
        materialise lazily on first touch (or eagerly, in parallel, via
        :meth:`load_segments`) — a cold open pays for the global id maps
        only.  The mapped ``buffer`` is owned here and released on
        :meth:`close`.
        """
        backend = cls.__new__(cls)
        backend._segments = [None] * len(segment_loaders)
        backend._segment_loaders = list(segment_loaders)
        backend._seg_of = seg_of
        backend._local_of = local_of
        backend._weights = weights
        backend._counts = counts
        backend._globals = list(globals_)
        backend._frozen = True
        backend._closed = False
        backend._buffer = buffer
        backend._load_lock = threading.Lock()
        backend._merge_batch = DEFAULT_MERGE_BATCH
        backend._source_dir = source_dir
        backend._snapshot_root = snapshot_root if snapshot_root else source_dir
        backend._generation = generation
        backend._delta = None
        backend._block_cache = None
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
        :meth:`postings` merge and the id-space accessors dispatch global
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
        """Close every segment and drop the global id maps.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._delta = None
        self._segment_loaders = None
        views = [
            view
            for view in (self._seg_of, self._local_of, self._weights,
                         self._counts, *self._globals)
            if isinstance(view, memoryview)
        ]
        for segment in self._segments:
            if segment is not None:
                segment.close()
        self._segments = _CLOSED
        self._seg_of = _CLOSED
        self._local_of = _CLOSED
        self._weights = _CLOSED
        self._counts = _CLOSED
        self._globals = _CLOSED
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

    @property
    def num_segments(self) -> int:
        return len(self._globals)

    def segment_count(self) -> int:
        """Physical partitions one lookup fans out over (protocol surface)."""
        return len(self._globals)

    def __len__(self) -> int:
        n = len(self._seg_of)
        if self._delta is not None:
            n += len(self._delta)
        return n

    def segment_sizes(self) -> list[int]:
        """Triples per segment (introspection and partitioning tests)."""
        return [len(globals_) for globals_ in self._globals]

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

    def load_segments(self, executor: Executor | None = None) -> None:
        """Materialise every lazy segment — concurrently when given a pool."""
        if self._closed:
            raise StorageError("Storage backend is closed")
        with self._load_lock:
            count = len(self._segments)
        indices = range(count)
        if executor is None:
            for index in indices:
                self._segment(index)
        else:
            list(executor.map(self._segment, indices))

    def configure_prefetch(self, batch_size: int | None) -> None:
        """Set the pull granularity for merged postings.

        ``batch_size=1`` restores item-at-a-time pulls (the serial
        reference) and ``batch_size=None`` selects per-merge adaptive
        sizing.  The engine wires ``EngineConfig.merge_batch`` through
        here.

        The setting is an engine-lifetime default copied into each
        :class:`MergedPostings` at lookup time — nothing here mutates
        mid-query, so concurrent queries with different adaptive batch
        trajectories cannot clobber each other through the shared backend.
        """
        if batch_size is not None and batch_size < 1:
            raise StorageError(f"batch_size must be >= 1, got {batch_size}")
        self._merge_batch = batch_size

    def configure_block_cache(self, cache) -> None:
        """Attach (or detach, with ``None``) a hot-block cache.

        The cache is engine-owned (one :class:`~repro.topk.kernels.
        HotBlockCache` per engine, shared by every lookup) and invalidated
        by the engine when it publishes a new generation — this backend only
        consults it.  Cache keys carry the backend's persistent identity
        (snapshot root + generation; a process-local token for in-memory
        builds), the lookup's (bound-slot mask, key), the segment index and
        the block range — everything that determines a prepared block's
        content — so value-identical blocks are the only thing a hit can
        return and emitted merge order is unaffected.
        """
        self._block_cache = cache

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
        posting_block` (local posting ids; translate via the segment's
        global id map)."""
        if self._closed:
            raise StorageError("Storage backend is closed")
        if not self._frozen:
            raise StorageError("Backend must be frozen before lookup")
        return self._segment(segment_index).posting_block(
            bound_slots, key, lo, hi
        )

    # -- build phase ------------------------------------------------------------

    def _place(self, slot_ids: tuple[int, int, int]) -> int:
        """Deterministic hash partition over the (s, p, o) term ids."""
        s, p, o = slot_ids
        return ((s * 2654435761 + p * 40503 + o) & 0x7FFFFFFF) % len(
            self._globals
        )

    def insert(self, triple_id: int, slot_ids: tuple[int, int, int]) -> None:
        if self._frozen:
            raise StorageError("Cannot insert into a frozen backend")
        if triple_id != len(self._seg_of):
            raise StorageError(
                f"Triple ids must be dense: expected {len(self._seg_of)}, "
                f"got {triple_id}"
            )
        segment_index = self._place(slot_ids)
        globals_ = self._globals[segment_index]
        local_id = len(globals_)
        # xkg: allow[lock-discipline] builder phase: insert runs single-threaded before freeze() publishes the backend; lazy loads (the lock's domain) exist only on snapshot-loaded backends
        self._segments[segment_index].insert(local_id, slot_ids)
        globals_.append(triple_id)
        self._seg_of.append(segment_index)
        self._local_of.append(local_id)

    def freeze(
        self, weights: Sequence[float], counts: Sequence[int] | None = None
    ) -> None:
        if self._frozen:
            raise StorageError("Backend already frozen")
        n = len(self._seg_of)
        if len(weights) != n:
            raise StorageError(f"{n} triples but {len(weights)} weights")
        self._weights = array("d", weights)
        if counts is not None:
            if len(counts) != n:
                raise StorageError(f"{n} triples but {len(counts)} counts")
            self._counts = array(ID_TYPECODE, counts)
        # xkg: allow[lock-discipline] builder phase: freeze runs single-threaded before the backend is shared; lazy loads (the lock's domain) exist only on snapshot-loaded backends
        for segment_index, segment in enumerate(self._segments):
            globals_ = self._globals[segment_index]
            local_weights = [self._weights[g] for g in globals_]
            local_counts = (
                [self._counts[g] for g in globals_] if counts is not None else None
            )
            segment.freeze(local_weights, local_counts)
        self._frozen = True

    # -- lookup ------------------------------------------------------------

    def _check_lookup(self, bound_slots, key) -> tuple[int, ...]:
        if self._closed:
            raise StorageError("Storage backend is closed")
        if not self._frozen:
            raise StorageError("Backend must be frozen before lookup")
        sig = signature_of(bound_slots)
        if sig and len(key) != len(sig):
            raise StorageError(
                f"Key arity {len(key)} does not match signature {sig}"
            )
        return sig

    def postings(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> Sequence[int]:
        self._check_lookup(bound_slots, key)
        delta_part = (
            self._delta.posting_part(bound_slots, key)
            if self._delta is not None
            else None
        )
        parts: list[tuple[Sequence[int], Sequence[int]]] = []
        indices: list[int] = []
        total = 0
        for segment_index in range(len(self._globals)):
            postings = self._segment(segment_index).postings(bound_slots, key)
            if len(postings):
                parts.append((postings, self._globals[segment_index]))
                indices.append(segment_index)
                total += len(postings)
        if delta_part is not None:
            total += len(delta_part.postings)
        if not total:
            return _EMPTY
        cache = self._block_cache
        cache_base = None
        if cache is not None:
            root = self._snapshot_root or self._source_dir
            identity = root if root is not None else ("mem", id(self))
            cache_base = (
                identity, self._generation, tuple(bound_slots), tuple(key)
            )
        return MergedPostings(
            parts,
            self._weights,
            total,
            batch=self._merge_batch,
            segment_indices=indices,
            delta=delta_part,
            cache=cache,
            cache_base=cache_base,
        )

    def distinct_keys(self, bound_slots: Sequence[bool]) -> list[tuple[int, ...]]:
        if self._closed:
            raise StorageError("Storage backend is closed")
        if not self._frozen:
            raise StorageError("Backend must be frozen before lookup")
        sig = signature_of(bound_slots)
        if not sig:
            raise StorageError("The scan signature has no keys")
        # Walk global ids so keys come out in first-occurrence order
        # whatever the segment count.  Delta ids sit densely above the
        # frozen ids, so delta-only keys land last in delta insertion
        # order — the fresh-build order too.
        seen: dict[tuple[int, ...], None] = {}
        for triple_id in range(len(self)):
            spo = self.slot_ids(triple_id)
            seen[tuple(spo[slot] for slot in sig)] = None
        return list(seen)

    def slot_ids(self, triple_id: int) -> tuple[int, int, int]:
        if self._delta is not None and triple_id >= len(self._seg_of):
            return self._delta.slot_ids(triple_id)
        return self._segment(self._seg_of[triple_id]).slot_ids(
            self._local_of[triple_id]
        )

    def weight(self, triple_id: int) -> float:
        if self._delta is not None and triple_id >= len(self._weights):
            return self._delta.weight(triple_id)
        return self._weights[triple_id]

    def count(self, triple_id: int) -> int:
        if self._delta is not None and triple_id >= len(self._seg_of):
            return self._delta.count(triple_id)
        if not 0 <= triple_id < len(self._seg_of):
            raise StorageError(f"Unknown triple id: {triple_id}")
        if len(self._counts) != len(self._seg_of):
            raise StorageError("Backend was frozen without a counts column")
        return self._counts[triple_id]

    # -- introspection ------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes across all segments + the id maps."""
        import sys

        with self._load_lock:
            loaded = [seg for seg in self._segments if seg is not None]
        total = sum(segment.memory_bytes() for segment in loaded)
        total += sum(
            column.nbytes if isinstance(column, memoryview) else sys.getsizeof(column)
            for column in (self._seg_of, self._local_of, self._weights, self._counts)
        )
        total += sum(
            globals_.nbytes
            if isinstance(globals_, memoryview)
            else sys.getsizeof(globals_)
            for globals_ in self._globals
        )
        return total

