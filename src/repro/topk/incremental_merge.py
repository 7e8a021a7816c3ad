"""Incremental merging of a pattern's cursor with its relaxed forms.

This is the heart of the paper's extension of Theobald et al.'s incremental
top-k: a triple pattern and its relaxations (predicate rewrites, token
expansions, materialised sub-joins) form one *merged* descending stream.  The
merge maintains a max-heap over cursor peeks:

* a relaxation cursor with only an optimistic upper bound is *refined*
  (opened / materialised) only when that bound reaches the head of the heap
  — relaxations that can never beat what the original pattern still has to
  offer are never evaluated;
* the same binding reachable through several cursors is emitted once, at its
  maximal score (streams descend, so the first emission is the maximum).

Two access protocols share the heap.  :meth:`IncrementalMergeCursor.pop`
is the per-item one and works over any cursor with ``peek`` / ``pop`` /
``ensure_exact`` (the term-space reference core).  Id-space cursors also
hand out their **tied head run** (``head_run`` / ``advance``, see
:class:`~repro.topk.idspace.IdRun`), and :meth:`IncrementalMergeCursor.
head_run` passes the head cursor's run through: while the head cursor's
score stays what it is, its heap entry stays the smallest — a runner-up
is strictly lower or ties with a later order — so the per-item merge
would emit exactly that run, minus the bindings already emitted.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.results import QueryStats
from repro.topk.cursors import Cursor, ScoredMatch

#: Tolerance when deciding whether a heap entry's cached peek is stale.
_EPS = 1e-12


class IncrementalMergeCursor:
    """Merge several descending cursors into one descending stream.

    Parameters
    ----------
    cursors:
        The original pattern's cursor first, relaxation cursors after; order
        only matters for deterministic tie-breaks.
    stats:
        Shared work counters; ``relaxations_considered`` is bumped per
        relaxation cursor at construction, ``relaxations_invoked`` when one
        first emits an item.
    """

    def __init__(self, cursors: list[Cursor], stats: QueryStats | None = None):
        self.stats = stats
        self._counter = itertools.count()
        self._heap: list[tuple[float, int, Cursor]] = []
        # Bindings are only required to be hashable: term-space cursors emit
        # BindingKey pair-tuples, id-space cursors emit int tuples — the
        # merge serves both execution cores unchanged.
        self._emitted: set = set()
        self._invoked: set[int] = set()
        self._cursor_index: dict[int, int] = {}
        # The handed-out head run: (bindings, underlying count per item).
        self._run: tuple | None = None
        for index, cursor in enumerate(cursors):
            self._cursor_index[id(cursor)] = index
            peek = cursor.peek()
            if peek is not None:
                heapq.heappush(self._heap, (-peek, next(self._counter), cursor))
        if stats is not None and len(cursors) > 1:
            stats.relaxations_considered += len(cursors) - 1

    def peek(self) -> float | None:
        """Upper bound on the next emitted score (may be optimistic)."""
        while self._heap:
            neg_peek, order, cursor = self._heap[0]
            current = cursor.peek()
            if current is None:
                heapq.heappop(self._heap)
                continue
            if current < -neg_peek - _EPS:
                heapq.heapreplace(self._heap, (-current, order, cursor))
                continue
            return -neg_peek
        return None

    def _reseat_head(self) -> None:
        """Re-key the heap head after its cursor moved (or ran dry)."""
        _neg, order, cursor = self._heap[0]
        peek = cursor.peek()
        if peek is None:
            heapq.heappop(self._heap)
        else:
            heapq.heapreplace(self._heap, (-peek, order, cursor))

    def _exact_head(self) -> Cursor | None:
        """The cursor the next item comes from — optimistic heads refined
        until the heap head is exact — or ``None`` when all are spent."""
        while self.peek() is not None:
            cursor = self._heap[0][2]
            if cursor.ensure_exact():
                return cursor
            self._reseat_head()
        return None

    def _note_invoked(self, cursor: Cursor) -> None:
        if self.stats is None:
            return
        cursor_pos = self._cursor_index[id(cursor)]
        if cursor_pos > 0 and cursor_pos not in self._invoked:
            self._invoked.add(cursor_pos)
            self.stats.relaxations_invoked += 1

    def pop(self) -> ScoredMatch | None:
        """Next item in globally descending score order, deduped by binding."""
        while (cursor := self._exact_head()) is not None:
            item = cursor.pop()
            self._reseat_head()
            if item is None:
                continue
            self._note_invoked(cursor)
            if item.binding in self._emitted:
                continue
            self._emitted.add(item.binding)
            return item
        return None

    def head_run(self, limit: int | None = None):
        """The head cursor's tied run, minus bindings already emitted.

        Like :meth:`pop` it consumes the emitted duplicates that *precede*
        the first fresh item; the duplicates between and after fresh items
        are consumed by :meth:`advance`, and only as far as the consumer
        got — so a consumer that stops mid-run leaves the cursor where
        per-item pops would have.  Returns ``None`` when spent.
        """
        emitted = self._emitted
        while (cursor := self._exact_head()) is not None:
            run = cursor.head_run(limit)
            self._note_invoked(cursor)
            bindings = run.bindings
            fresh = [
                i for i, binding in enumerate(bindings) if binding not in emitted
            ]
            if len(fresh) == len(bindings):
                self._run = (bindings, None)
                return run
            if not fresh:
                cursor.advance(len(bindings))
                self._reseat_head()
                continue
            cursor.advance(fresh[0])
            run = run.select(fresh)
            self._run = (run.bindings, [i + 1 - fresh[0] for i in fresh])
            return run
        return None

    def advance(self, n: int) -> None:
        """Consume the first ``n`` items of the run :meth:`head_run` gave."""
        bindings, counts = self._run
        self._run = None
        self._emitted.update(bindings[:n])
        self._heap[0][2].advance(n if counts is None else counts[n - 1])
        self._reseat_head()

    def ensure_exact(self) -> bool:
        """The merged peek is exact iff the head cursor's peek is exact.

        Refines at most the head; returns False when refinement occurred so
        outer consumers (nested merges, the rank join) re-read the peek.
        """
        if not self._heap or self._heap[0][2].ensure_exact():
            return True
        self._reseat_head()
        return False

    def drain(self) -> list[ScoredMatch]:
        """Exhaust the stream (used by tests and the exhaustive evaluator)."""
        items = []
        while True:
            item = self.pop()
            if item is None:
                return items
            items.append(item)
