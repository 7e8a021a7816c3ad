"""Heap helpers for top-k processing.

:class:`TopKHeap` keeps the k best-scoring items seen so far and exposes the
current threshold (the k-th best score), which the top-k processor compares
against upper bounds to decide when relaxations can no longer contribute.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, TypeVar

T = TypeVar("T")


class TopKHeap(Generic[T]):
    """Bounded min-heap retaining the ``k`` highest-scoring items.

    Ties are broken by insertion order (earlier insertions win), which keeps
    result lists deterministic.  Items may be any payload; only scores are
    compared.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._heap: list[tuple[float, int, T]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        """True once k items are retained."""
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """Score of the current k-th best item, or 0.0 until the heap fills.

        An un-filled heap admits anything, hence the zero threshold.
        """
        if not self.is_full:
            return 0.0
        return self._heap[0][0]

    def push(self, score: float, item: T) -> bool:
        """Offer ``item``; return True if it entered the current top-k.

        The tie-break counter is negated so that among equal scores the item
        inserted *earlier* is considered better (larger), matching the
        deterministic ordering used throughout the library.
        """
        order = -next(self._counter)
        if not self.is_full:
            heapq.heappush(self._heap, (score, order, item))
            return True
        if (score, order) > (self._heap[0][0], self._heap[0][1]):
            heapq.heapreplace(self._heap, (score, order, item))
            return True
        return False

    def would_accept(self, score: float) -> bool:
        """True if an item with ``score`` could still enter the top-k."""
        return not self.is_full or score > self.threshold

    def items_descending(self) -> list[tuple[float, T]]:
        """Return the retained (score, item) pairs, best first."""
        ordered = sorted(self._heap, key=lambda entry: (entry[0], entry[1]), reverse=True)
        return [(score, item) for score, _order, item in ordered]


class DistinctTopKTracker:
    """Tracks the k-th best score over *distinct keys* with improvable scores.

    Top-k processing needs the exact threshold "score of the current k-th
    best answer" to prune; answers are deduplicated by binding and their
    scores only ever improve (max over derivations).  This structure supports
    ``offer(key, score)`` with lazy-deletion heap updates in O(log n) and an
    O(1)-amortised :attr:`threshold`.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._in_top: dict[object, float] = {}
        self._heap: list[tuple[float, int, object]] = []
        self._counter = itertools.count()

    def _clean(self) -> None:
        """Pop heap entries that no longer reflect a key's current score."""
        while self._heap:
            score, _order, key = self._heap[0]
            if self._in_top.get(key) == score:
                return
            heapq.heappop(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._in_top) >= self.k

    @property
    def threshold(self) -> float:
        """Score of the k-th best distinct key; 0.0 until k keys are known."""
        if not self.is_full:
            return 0.0
        self._clean()
        return self._heap[0][0] if self._heap else 0.0

    def offer(self, key: object, score: float) -> bool:
        """Report that ``key``'s best known score is now ``score``.

        Returns whether the tracked top-k moved: False means
        :attr:`is_full` and :attr:`threshold` are what they were, so a
        caller that polls them between offers can skip the poll.
        """
        in_top = self._in_top
        current = in_top.get(key)
        if current is not None:
            if score <= current:
                return False
        elif len(in_top) >= self.k:
            if score <= self.threshold:
                return False
            # threshold cleaned the heap: its head is the k-th best key.
            _s, _o, evicted = heapq.heappop(self._heap)
            in_top.pop(evicted, None)
        in_top[key] = score
        heapq.heappush(self._heap, (score, next(self._counter), key))
        return True


class GrowableTopKTracker:
    """A :class:`DistinctTopKTracker` whose ``k`` can grow between drains.

    The resumable query driver needs the k-th-best-distinct-score threshold
    for a ``k`` that increases as a stream's consumer asks for more answers.
    A plain tracker evicts keys that fall out of its fixed top-k, losing
    exactly the information a larger ``k`` needs — so :meth:`set_k` rebuilds
    the inner tracker from the answer aggregator, whose (key, best score)
    map is never truncated; its ``k`` best entries suffice (every other key
    scores no higher than the k-th, which is all the threshold states).
    Between rebuilds this is a zero-overhead delegate, interface-compatible
    with the joins' tracker parameter.
    """

    def __init__(self, k: int = 1):
        self.k = k
        self._inner = DistinctTopKTracker(k)

    def set_k(self, k: int, entries) -> None:
        """Retarget to ``k``, re-offering ``entries`` of (key, best score):
        at least the ``k`` best known keys, in any order."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        inner = DistinctTopKTracker(k)
        for key, score in entries:
            inner.offer(key, score)
        self._inner = inner

    @property
    def is_full(self) -> bool:
        return self._inner.is_full

    @property
    def threshold(self) -> float:
        return self._inner.threshold

    def offer(self, key: object, score: float) -> bool:
        return self._inner.offer(key, score)
