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

Cursors hand out their **tied head run** (``head_run`` / ``advance``, see
:class:`~repro.topk.idspace.IdRun`) besides ``peek`` / ``ensure_exact``,
and :meth:`IncrementalMergeCursor.head_run` passes the head cursor's run
through: while the head cursor's score stays what it is, its heap entry
stays the smallest — a runner-up is strictly lower or ties with a later
order — so a merge emitting one item at a time would emit exactly that
run, minus the bindings already emitted.  :meth:`IncrementalMergeCursor.
exact_head` names that cursor and :meth:`IncrementalMergeCursor.runner_up`
bounds what every other cursor can still emit, which is what lets a rank
join stop inside the head's run.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.results import QueryStats
from repro.topk.idspace import RunCursor

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

    A rank join over this stream alone may stop inside the head cursor's
    tied run when :meth:`runner_up` shows every other cursor strictly
    below it: the run is then the last thing the merge emits at its
    score, minus the bindings already emitted, in the head cursor's order.
    """

    def __init__(self, cursors: list[RunCursor], stats: QueryStats | None = None):
        self.stats = stats
        self._counter = itertools.count()
        self._heap: list[tuple[float, int, RunCursor]] = []
        # Bindings are only required to be hashable.
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

    def exact_head(self) -> RunCursor | None:
        """The cursor the next item comes from — optimistic heads refined
        until the heap head is exact — or ``None`` when all are spent."""
        while self.peek() is not None:
            cursor = self._heap[0][2]
            if cursor.ensure_exact():
                return cursor
            self._reseat_head()
        return None

    def runner_up(self) -> float | None:
        """The best cached peek of every cursor but the head's; ``None``
        when no other is live.

        A cached peek bounds its cursor from above: a stale one was read
        before the cursor moved on, an unrefined one is optimistic — both
        only higher.  The best of them sits at a child of the heap root.
        """
        children = self._heap[1:3]
        return -min(children)[0] if children else None

    def _note_invoked(self, cursor: RunCursor) -> None:
        if self.stats is None:
            return
        cursor_pos = self._cursor_index[id(cursor)]
        if cursor_pos > 0 and cursor_pos not in self._invoked:
            self._invoked.add(cursor_pos)
            self.stats.relaxations_invoked += 1

    def head_run(self, limit: int | None = None):
        """The head cursor's tied run, minus bindings already emitted.

        It consumes the emitted duplicates that *precede* the first fresh
        item; the duplicates between and after fresh items are consumed by
        :meth:`advance`, and only as far as the consumer got — so a
        consumer that stops mid-run leaves the cursor where taking one item
        at a time would have.  Returns ``None`` when spent.
        """
        emitted = self._emitted
        while (cursor := self.exact_head()) is not None:
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
        self._heap[0][2].advance(counts[n - 1] if counts and n else n)
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
