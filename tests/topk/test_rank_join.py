"""Unit tests for the reference core's n-ary rank join."""

import pytest

from repro.core.parser import parse_query
from repro.core.results import PatternMatchInfo, binding_key
from repro.core.terms import Resource, Variable
from repro.core.triples import TriplePattern
from repro.util.heap import DistinctTopKTracker

from reference_core import AnswerAggregator, NaryRankJoin, ScoredMatch

X, Y = Variable("x"), Variable("y")


class ListCursor:
    def __init__(self, items):
        self._items = list(items)
        self._pos = 0
        self.pops = 0

    def peek(self):
        if self._pos < len(self._items):
            return self._items[self._pos].score
        return None

    def ensure_exact(self):
        return True

    def pop(self):
        if self._pos >= len(self._items):
            return None
        self.pops += 1
        item = self._items[self._pos]
        self._pos += 1
        return item


def match(var_values: dict, score: float) -> ScoredMatch:
    binding = binding_key({v: Resource(name) for v, name in var_values.items()})
    info = PatternMatchInfo(
        TriplePattern(X, Resource("p"), Y), (), score
    )
    return ScoredMatch(binding, score, info)


def run_join(query_text, streams, k=10, exhaustive=False, weight=1.0):
    query = parse_query(query_text)
    aggregator = AnswerAggregator()
    tracker = DistinctTopKTracker(k)
    join = NaryRankJoin(
        query,
        streams,
        rewriting_weight=weight,
        aggregator=aggregator,
        tracker=tracker,
        exhaustive=exhaustive,
    )
    join.run()
    return aggregator.ranked_answers(k)


class TestJoinSemantics:
    def test_simple_join(self):
        left = ListCursor([match({X: "A", Y: "B"}, 0.9), match({X: "C", Y: "D"}, 0.5)])
        right = ListCursor([match({Y: "B"}, 0.8), match({Y: "Z"}, 0.7)])
        answers = run_join("?x p ?y ; ?y q IvyLeague", [left, right])
        assert len(answers) == 1
        assert answers[0].value("x") == Resource("A")
        assert answers[0].score == pytest.approx(0.9 * 0.8)

    def test_incompatible_bindings_no_answer(self):
        left = ListCursor([match({X: "A", Y: "B"}, 0.9)])
        right = ListCursor([match({Y: "C"}, 0.8)])
        assert run_join("?x p ?y ; ?y q G", [left, right]) == []

    def test_rewriting_weight_attenuates(self):
        left = ListCursor([match({X: "A", Y: "B"}, 1.0)])
        right = ListCursor([match({Y: "B"}, 1.0)])
        answers = run_join("?x p ?y ; ?y q G", [left, right], weight=0.5)
        assert answers[0].score == pytest.approx(0.5)

    def test_cartesian_free_vars_combine(self):
        # Single pattern: all matches become answers directly.
        stream = ListCursor([match({X: "A", Y: "B"}, 0.9), match({X: "C", Y: "D"}, 0.4)])
        answers = run_join("?x p ?y", [stream])
        assert len(answers) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_join("?x p ?y ; ?y q G", [ListCursor([])])

    def test_three_way_join(self):
        s1 = ListCursor([match({X: "A"}, 0.9)])
        s2 = ListCursor([match({X: "A", Y: "B"}, 0.8)])
        s3 = ListCursor([match({Y: "B"}, 0.7)])
        answers = run_join("?x p E ; ?x q ?y ; ?y r F", [s1, s2, s3])
        assert len(answers) == 1
        assert answers[0].score == pytest.approx(0.9 * 0.8 * 0.7)


class TestTermination:
    def test_empty_stream_short_circuits(self):
        busy = ListCursor([match({X: "A", Y: f"B{i}"}, 1.0 - i / 100) for i in range(50)])
        empty = ListCursor([])
        run_join("?x p ?y ; ?y q G", [busy, empty])
        assert busy.pops == 0  # join returns before consuming anything

    def test_threshold_stops_early(self):
        # k=1: after the best combination is found, bounds collapse and the
        # tail of both streams stays untouched.
        left = ListCursor(
            [match({X: "A", Y: "B"}, 0.9)]
            + [match({X: f"L{i}", Y: f"M{i}"}, 0.1) for i in range(50)]
        )
        right = ListCursor(
            [match({Y: "B"}, 0.9)]
            + [match({Y: f"M{i}"}, 0.05) for i in range(50)]
        )
        run_join("?x p ?y ; ?y q G", [left, right], k=1)
        assert left.pops + right.pops < 20

    def test_exhaustive_consumes_everything(self):
        left = ListCursor(
            [match({X: "A", Y: "B"}, 0.9)]
            + [match({X: f"L{i}", Y: f"M{i}"}, 0.1) for i in range(20)]
        )
        right = ListCursor([match({Y: "B"}, 0.9)])
        run_join("?x p ?y ; ?y q G", [left, right], k=1, exhaustive=True)
        assert left.pops == 21

    def test_upper_bound_monotone(self):
        query = parse_query("?x p ?y ; ?y q G")
        left = ListCursor([match({X: f"A{i}", Y: f"B{i}"}, 1.0 - i / 10) for i in range(5)])
        right = ListCursor([match({Y: f"B{i}"}, 0.9 - i / 10) for i in range(5)])
        join = NaryRankJoin(
            query,
            [left, right],
            aggregator=AnswerAggregator(),
            tracker=DistinctTopKTracker(3),
        )
        bounds = []
        original_pop_left = left.pop

        # Track the bound after every pop by instrumenting run() manually.
        previous = float("inf")
        while True:
            peeks = [left.peek(), right.peek()]
            if all(p is None for p in peeks):
                break
            bound = join.upper_bound(peeks)
            assert bound <= previous + 1e-12
            previous = bound
            live = [i for i, p in enumerate(peeks) if p is not None]
            index = max(live, key=lambda i: peeks[i])
            item = (left, right)[index].pop()
            if item is None:
                continue
            if join._best[index] is None:
                join._best[index] = item.score
            join._seen[index][item.binding] = item
            bounds.append(bound)
