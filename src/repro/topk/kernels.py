"""Zero-dependency batch kernels for the id-space hot path.

Every layer below the top-k driver is columnar, yet the innermost loops
used to burn Python-object time: one score call per posting, one merge-key
tuple per head, one match object per sorted access.  The kernels here turn
those per-item loops into **block** operations over the stores' columns
and memoryview slices, so the interpreter dispatches once per block
instead of once per posting:

* :func:`score_block` — scored weights for a whole decoded block in one
  call, with float operations element-for-element identical to the scalar
  ``IdPostingCursor._score_weight`` (byte-identity with the per-item
  reference is load-bearing: the property suite pins it);
* :func:`prepare_head_block` — a posting range translated to pre-keyed
  merge heads as two parallel columns (``(-weight, tie keys…)`` merge keys
  in the canonical posting order + global ids, every input column
  gathered by one ``itemgetter`` call), the unit the merge of a
  multi-segment lookup refills by;
* :func:`filter_consistent_block` / :func:`bind_block` — the block
  variants of :meth:`PatternPlan.consistent` / ``bind_into`` (repeated
  variable filtering over columns; the bindings of a whole tied head run
  in one call).

This module deliberately imports nothing from the storage or topk layers
(both import *it*), and it sits inside the determinism rule's scope: no
wall clocks, no unseeded randomness, no ``id()``-keyed orderings.
"""

from __future__ import annotations

from operator import itemgetter, neg
from typing import Callable, Sequence

#: A prepared head block: parallel merge-key ``(-weight, tie keys…)`` and
#: global-id columns.
HeadBlock = tuple[Sequence[tuple], Sequence[int]]


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
    start: int,
    weights,
    lo: int,
    hi: int,
    columns: Sequence[Sequence[int]],
    sort_key: Callable[[int], object],
) -> HeadBlock:
    """Translate a local posting range into pre-keyed merge-head columns.

    Two parallel columns: the merge keys and the global ids, ``start +
    local``.  A head's merge key is ``(-weight, sort_key(c[local]) for c in
    columns)`` — the canonical posting order's weight and tie key, where
    ``columns`` are the lookup's free-slot term-id columns (local-indexed).
    Every column is gathered by one ``itemgetter(*block)`` call (one C
    dispatch per *block*, not per head); ``-w`` float negation flips the
    sign bit only, so the weight part is bit-equal to the weight column.
    """
    block = postings[lo:hi]
    n = len(block)
    if n == 0:
        return [], ()
    if n == 1:
        local = block[0]
        gid = start + local
        return [(-weights[gid], *(sort_key(c[local]) for c in columns))], (gid,)
    gather = itemgetter(*block)
    gids = tuple(map(start.__add__, block)) if start else tuple(block)
    negw = map(neg, itemgetter(*gids)(weights))
    ties = [map(sort_key, gather(column)) for column in columns]
    return list(zip(negw, *ties)), gids


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
