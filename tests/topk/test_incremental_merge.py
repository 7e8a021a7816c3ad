"""Unit tests for the incremental merge of pattern + relaxation cursors."""

import pytest

from repro.core.results import PatternMatchInfo, QueryStats, binding_key
from repro.core.terms import Resource, Variable
from repro.core.triples import TriplePattern
from repro.topk.cursors import ScoredMatch
from repro.topk.idspace import IdMatch, IdRun
from repro.topk.incremental_merge import IncrementalMergeCursor

X = Variable("x")
PATTERN = TriplePattern(X, Resource("p"), Resource("o"))


class FakeCursor:
    """Scripted cursor for merge testing."""

    def __init__(self, items, optimistic_bound=None):
        # items: list of (binding_name, score)
        self._items = [
            ScoredMatch(
                binding_key({X: Resource(name)}),
                score,
                PatternMatchInfo(PATTERN, (), score),
            )
            for name, score in items
        ]
        self._pos = 0
        self._bound = optimistic_bound
        self.materialize_calls = 0

    def peek(self):
        if self._bound is not None:
            return self._bound
        if self._pos < len(self._items):
            return self._items[self._pos].score
        return None

    def ensure_exact(self):
        if self._bound is not None:
            self._bound = None
            self.materialize_calls += 1
            return False
        return True

    def pop(self):
        if self._bound is not None:
            self.ensure_exact()
        if self._pos >= len(self._items):
            return None
        item = self._items[self._pos]
        self._pos += 1
        return item


def drain(cursor):
    items = []
    while (item := cursor.pop()) is not None:
        items.append(item)
    return items


class TestMergeOrder:
    def test_globally_descending(self):
        merged = IncrementalMergeCursor(
            [
                FakeCursor([("a", 0.9), ("b", 0.3)]),
                FakeCursor([("c", 0.7), ("d", 0.5)]),
                FakeCursor([("e", 0.8)]),
            ]
        )
        scores = [item.score for item in drain(merged)]
        assert scores == sorted(scores, reverse=True)
        assert scores == [0.9, 0.8, 0.7, 0.5, 0.3]

    def test_dedup_keeps_first_and_best(self):
        merged = IncrementalMergeCursor(
            [
                FakeCursor([("a", 0.9)]),
                FakeCursor([("a", 0.6), ("b", 0.4)]),
            ]
        )
        items = drain(merged)
        assert [i.score for i in items] == [0.9, 0.4]

    def test_empty_cursors(self):
        merged = IncrementalMergeCursor([FakeCursor([]), FakeCursor([])])
        assert merged.peek() is None
        assert merged.pop() is None

    def test_single_cursor_passthrough(self):
        merged = IncrementalMergeCursor([FakeCursor([("a", 0.5), ("b", 0.2)])])
        assert [i.score for i in drain(merged)] == [0.5, 0.2]


class TestAdaptiveInvocation:
    def test_lazy_cursor_not_materialized_when_dominated(self):
        lazy = FakeCursor([("z", 0.05)], optimistic_bound=0.1)
        merged = IncrementalMergeCursor(
            [FakeCursor([("a", 0.9), ("b", 0.8)]), lazy]
        )
        merged.pop()  # 0.9
        merged.pop()  # 0.8
        assert lazy.materialize_calls == 0  # bound 0.1 never reached the top

    def test_lazy_cursor_materialized_when_needed(self):
        lazy = FakeCursor([("z", 0.55)], optimistic_bound=0.6)
        merged = IncrementalMergeCursor([FakeCursor([("a", 0.9)]), lazy])
        merged.pop()  # 0.9 from the eager cursor
        item = merged.pop()  # forces the lazy cursor open
        assert lazy.materialize_calls == 1
        assert item.score == pytest.approx(0.55)

    def test_optimistic_bound_does_not_break_order(self):
        # Lazy bound 0.7 but actual best item 0.2: the merge must still
        # emit the eager 0.5 item first.
        lazy = FakeCursor([("z", 0.2)], optimistic_bound=0.7)
        merged = IncrementalMergeCursor([FakeCursor([("a", 0.5)]), lazy])
        first = merged.pop()
        second = merged.pop()
        assert first.score == pytest.approx(0.5)
        assert second.score == pytest.approx(0.2)

    def test_stats_invocations(self):
        stats = QueryStats()
        lazy = FakeCursor([("z", 0.55)], optimistic_bound=0.6)
        merged = IncrementalMergeCursor(
            [FakeCursor([("a", 0.9)]), lazy], stats=stats
        )
        assert stats.relaxations_considered == 1
        drain(merged)
        assert stats.relaxations_invoked == 1

    def test_stats_not_invoked_when_dominated(self):
        stats = QueryStats()
        lazy = FakeCursor([("z", 0.05)], optimistic_bound=0.1)
        merged = IncrementalMergeCursor(
            [FakeCursor([("a", 0.9)]), lazy], stats=stats
        )
        merged.pop()
        assert stats.relaxations_invoked == 0


class TestPeek:
    def test_peek_upper_bounds_next(self):
        merged = IncrementalMergeCursor(
            [FakeCursor([("a", 0.4)]), FakeCursor([("b", 0.9)])]
        )
        assert merged.peek() == pytest.approx(0.9)
        item = merged.pop()
        assert item.score <= 0.9

    def test_peek_after_exhaustion(self):
        merged = IncrementalMergeCursor([FakeCursor([("a", 0.4)])])
        drain(merged)
        assert merged.peek() is None


# -- the run protocol (id-space cursors) ---------------------------------------


class FakeRunCursor:
    """Scripted id-space cursor: ``(binding, score)`` items, handed out as
    tied head runs (``head_run`` / ``advance``) or one at a time (``pop``)."""

    def __init__(self, name, items, optimistic_bound=None):
        self.name = name
        self._items = [((binding,), score) for binding, score in items]
        self.position = 0
        self._bound = optimistic_bound

    def peek(self):
        if self._bound is not None:
            return self._bound
        if self.position < len(self._items):
            return self._items[self.position][1]
        return None

    def ensure_exact(self):
        if self._bound is not None:
            self._bound = None
            return False
        return True

    def head_run(self, limit=None):
        self._bound = None
        start = stop = self.position
        if start >= len(self._items):
            return None
        score = self._items[start][1]
        while stop < len(self._items) and self._items[stop][1] == score:
            stop += 1
        if limit is not None:
            stop = min(stop, start + limit)
        return IdRun(
            score,
            [binding for binding, _score in self._items[start:stop]],
            list(range(start, stop)),
            self,
            (0,),
        )

    def advance(self, n):
        self.position += n

    def match_info(self, ref, score):
        return (self.name, ref)

    def pop(self):
        run = self.head_run(1)
        if run is None:
            return None
        self.advance(1)
        return IdMatch(run.bindings[0], run.score, self.match_info(run.refs[0], run.score))


def _script():
    """An original list with two tied runs, a relaxation whose head ties
    with the second run and repeats two of its bindings, and a lazy
    relaxation whose optimistic bound overshoots."""
    return [
        FakeRunCursor("original", [(1, 0.9), (2, 0.9), (3, 0.5), (4, 0.5), (5, 0.5)]),
        FakeRunCursor("relaxed", [(4, 0.5), (6, 0.5), (3, 0.5), (7, 0.5), (8, 0.2)]),
        FakeRunCursor("lazy", [(9, 0.5), (1, 0.4)], optimistic_bound=0.95),
    ]


def _trace_pops():
    cursors = _script()
    stats = QueryStats()
    merged = IncrementalMergeCursor(cursors, stats)
    trace = []
    while (item := merged.pop()) is not None:
        trace.append(
            (item.binding, item.score, item.info,
             tuple(c.position for c in cursors), stats.relaxations_invoked)
        )
    return trace


def _trace_runs(take):
    cursors = _script()
    stats = QueryStats()
    merged = IncrementalMergeCursor(cursors, stats)
    trace = []
    while (run := merged.head_run()) is not None:
        n = min(take, len(run.bindings))
        for i in range(n):
            trace.append(
                (run.bindings[i], run.score,
                 run.source.match_info(run.refs[i], run.score))
            )
        merged.advance(n)
        # Where the cursors stand after taking n items of the run.
        trace[-1] += (tuple(c.position for c in cursors), stats.relaxations_invoked)
    return trace


class TestHeadRuns:
    @pytest.mark.parametrize("take", [1, 2, 100])
    def test_runs_emit_what_pops_emit(self, take):
        pops = _trace_pops()
        runs = _trace_runs(take)
        assert [entry[:3] for entry in runs] == [entry[:3] for entry in pops]
        # Emitted once each, heap order deciding ties between cursors.
        assert [entry[0] for entry in pops] == [
            (1,), (2,), (3,), (4,), (5,), (6,), (7,), (9,), (8,),
        ]
        # Wherever a run was cut, the cursors stand exactly where per-item
        # pops left them: duplicates *after* the last item taken stay put.
        for position, entry in enumerate(runs):
            if len(entry) > 3:
                assert entry[3:] == pops[position][3:], position
