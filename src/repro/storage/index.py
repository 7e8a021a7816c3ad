"""Bound-slot signatures of triple patterns.

For every *bound-slot signature* of a triple pattern (P bound; S and P bound;
S, P and O bound; ...) a frozen segment keeps one permutation of its triple
ids, grouped by the bound term ids and sorted within each group by descending
observation weight (observation count × confidence) — the quantity all
pattern scores are monotone in — so *sorted access in score order*, the
primitive of top-k processing, is a plain array walk
(:mod:`repro.storage.columnar`).
"""

from __future__ import annotations

from typing import Sequence

#: The seven non-scan signatures, each a tuple of bound slot positions
#: (0 = subject, 1 = predicate, 2 = object).
SIGNATURES: tuple[tuple[int, ...], ...] = (
    (0,),
    (1,),
    (2,),
    (0, 1),
    (0, 2),
    (1, 2),
    (0, 1, 2),
)


def signature_of(bound_slots: Sequence[bool]) -> tuple[int, ...]:
    """Map a per-slot boundness mask to a signature tuple.

    >>> signature_of([True, True, False])
    (0, 1)
    """
    return tuple(i for i, bound in enumerate(bound_slots) if bound)
