"""Unit tests for answer aggregation (max over derivations)."""

import pytest

from repro.core.results import Derivation, binding_key
from repro.core.terms import Resource, Variable
from repro.errors import ScoringError
from repro.scoring.answer_scoring import combine_pattern_scores

from reference_core import AnswerAggregator

X = Variable("x")
EMPTY = Derivation(matches=())


def key_for(name: str):
    return binding_key({X: Resource(name)})


class TestCombine:
    def test_product(self):
        assert combine_pattern_scores([0.5, 0.4]) == pytest.approx(0.2)

    def test_rewriting_weight(self):
        assert combine_pattern_scores([0.5], 0.8) == pytest.approx(0.4)

    def test_empty_is_weight(self):
        assert combine_pattern_scores([], 0.7) == pytest.approx(0.7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ScoringError):
            combine_pattern_scores([1.5])
        with pytest.raises(ScoringError):
            combine_pattern_scores([-0.1])

    def test_result_in_unit_interval(self):
        assert 0.0 <= combine_pattern_scores([1.0, 1.0], 1.0) <= 1.0


class TestAggregator:
    def test_max_over_derivations(self):
        agg = AnswerAggregator()
        agg.add(key_for("A"), 0.3, EMPTY)
        agg.add(key_for("A"), 0.7, EMPTY)
        agg.add(key_for("A"), 0.5, EMPTY)
        answers = agg.ranked_answers()
        assert len(answers) == 1
        assert answers[0].score == 0.7
        assert answers[0].num_derivations == 3

    def test_best_derivation_kept(self):
        agg = AnswerAggregator()
        weak = Derivation(matches=(), rewriting_weight=0.3)
        strong = Derivation(matches=(), rewriting_weight=0.9)
        agg.add(key_for("A"), 0.3, weak)
        agg.add(key_for("A"), 0.9, strong)
        assert agg.ranked_answers()[0].derivation is strong

    def test_add_returns_best_known(self):
        agg = AnswerAggregator()
        assert agg.add(key_for("A"), 0.3, EMPTY) == 0.3
        assert agg.add(key_for("A"), 0.1, EMPTY) == 0.3
        assert agg.add(key_for("A"), 0.8, EMPTY) == 0.8

    def test_ranking_deterministic_on_ties(self):
        agg = AnswerAggregator()
        agg.add(key_for("B"), 0.5, EMPTY)
        agg.add(key_for("A"), 0.5, EMPTY)
        names = [a.value("x").lexical() for a in agg.ranked_answers()]
        assert names == ["A", "B"]  # lexical tie-break

    def test_limit(self):
        agg = AnswerAggregator()
        for i in range(10):
            agg.add(key_for(f"E{i}"), i / 10, EMPTY)
        assert len(agg.ranked_answers(limit=3)) == 3

    def test_contains_and_len(self):
        agg = AnswerAggregator()
        agg.add(key_for("A"), 0.5, EMPTY)
        assert key_for("A") in agg
        assert key_for("B") not in agg
        assert len(agg) == 1

    def test_best_score_lookup(self):
        agg = AnswerAggregator()
        assert agg.best_score(key_for("A")) is None
        agg.add(key_for("A"), 0.4, EMPTY)
        assert agg.best_score(key_for("A")) == 0.4
