"""Zero-dependency batch kernels for the id-space hot path.

Every layer below the top-k driver is columnar, yet the innermost loops
used to burn Python-object time: one score call per posting, one merge-key
tuple per head, one ``IdMatch`` per sorted access.  The kernels here turn
those per-item loops into **block** operations over the stores' columns
and memoryview slices, so the interpreter dispatches once per block
instead of once per posting:

* :func:`score_block` — scored weights for a whole decoded block in one
  call, with float operations element-for-element identical to the scalar
  ``IdPostingCursor._score_weight`` (byte-identity with the per-item
  reference is load-bearing: the property suite pins it);
* :func:`prepare_head_block` — a posting range translated to pre-keyed
  merge heads as two parallel columns (``-weight`` merge keys + global
  ids, gathered by one ``itemgetter`` call per column), the unit the
  sharded k-way merge refills by instead of lists of per-head tuples;
* :func:`filter_consistent_block` / :func:`bind_block` — the block
  variants of :meth:`PatternPlan.consistent` / ``bind_into`` (repeated
  variable filtering over columns; the bindings of a whole tied head run
  in one call);
* :class:`HotBlockCache` — a small bounded LRU over prepared head blocks,
  keyed on ``(backend identity, segment, signature, block range)``, so
  Zipfian head queries stop re-decoding the same front blocks.  The engine
  owns one instance and clears it whenever it publishes a new generation.

This module deliberately imports nothing from the storage or topk layers
(both import *it*), and it sits inside the determinism rule's scope: no
wall clocks, no unseeded randomness, no ``id()``-keyed orderings.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter, neg
from typing import Callable, Sequence

#: A prepared head block: parallel (-weight, global id) columns.
HeadBlock = tuple[Sequence[float], Sequence[int]]


def score_block(
    weights: Sequence[float],
    lam: float,
    mass: float,
    cmass: float,
    multiplier: float,
) -> Sequence[float]:
    """Scored weights for one block, hoisting the branches out of the loop.

    Element-for-element this performs *exactly* the float operations of the
    scalar reference (``PatternScorer.score_weight``) in the same order —
    ``multiplier * ((1 - lam) * (w / mass) + lam * (w / cmass))`` with the
    documented zero-mass substitutions — so a block-scored cursor emits the
    same bits as the per-item fallback.  The win is dispatch: one call and
    one branch resolution per block instead of per posting.
    """
    if lam == 0.0:
        if mass > 0:
            return [multiplier * (w / mass) for w in weights]
        return [multiplier * 0.0 for _w in weights]
    one_minus = 1.0 - lam
    if mass > 0:
        if cmass > 0:
            return [
                multiplier * (one_minus * (w / mass) + lam * (w / cmass))
                for w in weights
            ]
        return [
            multiplier * (one_minus * (w / mass) + lam * 0.0) for w in weights
        ]
    if cmass > 0:
        return [
            multiplier * (one_minus * 0.0 + lam * (w / cmass)) for w in weights
        ]
    return [multiplier * (one_minus * 0.0 + lam * 0.0) for _w in weights]


def gather_weights(weights, tids: Sequence[int]) -> Sequence[float]:
    """The weight column values of one block of triple ids.

    ``map`` keeps the gather loop in C for array/memoryview columns; for a
    delta-extended store the column is a dispatching view and the same call
    works unchanged (its ``__getitem__`` routes delta ids).
    """
    return list(map(weights.__getitem__, tids))


def prepare_head_block(
    postings: Sequence[int],
    globals_: Sequence[int],
    weights,
    lo: int,
    hi: int,
) -> HeadBlock:
    """Translate a local posting range into pre-keyed merge-head columns.

    The block counterpart of the old per-head tuple list
    ``[(-weights[g], g) for g in ...]``: two parallel columns — the
    ``-weight`` merge keys and the global ids — gathered by a single
    ``itemgetter(*block)`` call per column (one C dispatch per *block*,
    not per head) with no per-head tuple allocation.  Identical values in
    identical order; ``-w`` float negation flips the sign bit only, so the
    merge keys are bit-equal to the old tuple keys.
    """
    block = postings[lo:hi]
    n = len(block)
    if n == 0:
        return [], ()
    if n == 1:
        gid = globals_[block[0]]
        return [-weights[gid]], (gid,)
    gids = itemgetter(*block)(globals_)
    negw = list(map(neg, itemgetter(*gids)(weights)))
    return negw, gids


def filter_consistent_block(
    tids: Sequence[int],
    slot_ids: Callable[[int], tuple[int, int, int]],
    repeat_pairs: Sequence[tuple[int, int]],
) -> list[int]:
    """Triple ids of one block passing repeated-variable consistency.

    The block variant of :meth:`PatternPlan.consistent`: one call filters a
    whole decoded block, preserving order.  The common single-pair case
    (``?x knows ?x``) gets a tuple-unpacked fast path.
    """
    if len(repeat_pairs) == 1:
        a, b = repeat_pairs[0]
        out = []
        for tid in tids:
            spo = slot_ids(tid)
            if spo[a] == spo[b]:
                out.append(tid)
        return out
    out = []
    for tid in tids:
        spo = slot_ids(tid)
        consistent = True
        for a, b in repeat_pairs:
            if spo[a] != spo[b]:
                consistent = False
                break
        if consistent:
            out.append(tid)
    return out


def tuple_getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``row -> tuple(row[i] for i in indices)`` without a Python-level
    loop per call (``itemgetter`` alone returns a scalar for one index and
    refuses none)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda row: (row[index],)
    return lambda row: ()


def bind_block(
    tids: Sequence[int],
    slot_ids: Callable[[int], tuple[int, int, int]],
    var_positions: Sequence[tuple[int, int]],
    template: Sequence[int],
) -> list[tuple[int, ...]]:
    """Bindings for one block of (already consistency-filtered) triple ids.

    The block variant of :meth:`PatternPlan.bind_into` for single-pattern
    cursors: the template carries every slot the pattern does not bind, so
    each output tuple is full binding width.  Conflicts cannot arise here —
    repeated-variable ids were filtered by :func:`filter_consistent_block`
    and a posting cursor binds into an otherwise-unbound template.  Each
    row is one gather over ``(s, p, o) + template``: slot ``i`` reads the
    position that binds it, or its own template cell.
    """
    tail = tuple(template)
    bound_at = {slot: position for position, slot in var_positions}
    pick = tuple_getter([bound_at.get(slot, 3 + slot) for slot in range(len(tail))])
    return [pick(slot_ids(tid) + tail) for tid in tids]


class HotBlockCache:
    """Bounded LRU of prepared head blocks for Zipfian front pages.

    Keys are ``(backend identity, segment index, signature/key, lo, hi)``
    tuples supplied by the caller; values are the immutable prepared
    blocks (self-owned arrays — safe to serve even after the backend that
    produced them was closed or swapped away).  The cache is engine-owned:
    one instance per engine, handed to the sharded backend through
    ``configure_block_cache`` and **cleared when a compaction publishes a
    new generation** (cached front blocks of the old generation must not
    outlive it) as well as on engine close.

    Thread-safe: the engine's query fan-out shares one instance across
    worker threads.  Hit/miss totals are lifetime counters for
    introspection and tests; per-query accounting is done by the consumer
    (``MergedPostings`` counts hits per merge, the cursor diffs them into
    ``QueryStats.block_cache_hits``).
    """

    __slots__ = ("_lock", "_entries", "_capacity", "hits", "misses")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"Cache capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, HeadBlock] = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: tuple) -> HeadBlock | None:
        with self._lock:
            block = self._entries.get(key)
            if block is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return block

    def put(self, key: tuple, block: HeadBlock) -> None:
        with self._lock:
            existing = self._entries.pop(key, None)
            self._entries[key] = block if existing is None else existing
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
