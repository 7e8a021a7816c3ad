"""Unit tests for rewrite-space enumeration."""

import pytest

from repro.core.parser import parse_query, parse_rule
from repro.relax.rewriting import RewriteEngine, canonical_form
from repro.relax.rules import RuleSet


def _rules(*texts):
    return RuleSet(parse_rule(t) for t in texts)


class TestCanonicalForm:
    def test_variable_renaming_invariant(self):
        a = parse_query("?x affiliation ?y ; ?y member IvyLeague")
        b = parse_query("?u affiliation ?v ; ?v member IvyLeague")
        assert canonical_form(a) == canonical_form(b)

    def test_pattern_order_invariant(self):
        b = parse_query("?x member IvyLeague ; AlbertEinstein affiliation ?x")
        c = parse_query("AlbertEinstein affiliation ?x ; ?x member IvyLeague")
        assert canonical_form(b) == canonical_form(c)

    def test_different_constants_differ(self):
        a = parse_query("?x bornIn Ulm")
        b = parse_query("?x bornIn Munich")
        assert canonical_form(a) != canonical_form(b)


class TestRewriteEngine:
    def test_original_first(self):
        engine = RewriteEngine(_rules("?x p ?y => ?x q ?y @ 0.5"))
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        assert rewrites[0].is_original
        assert rewrites[0].weight == 1.0

    def test_weights_descending(self):
        engine = RewriteEngine(
            _rules(
                "?x p ?y => ?x q ?y @ 0.5",
                "?x p ?y => ?x r ?y @ 0.9",
                "?x q ?y => ?x s ?y @ 0.8",
            ),
            max_depth=2,
        )
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        weights = [r.weight for r in rewrites]
        assert weights == sorted(weights, reverse=True)

    def test_depth_limit(self):
        engine = RewriteEngine(
            _rules("?x p ?y => ?x q ?y @ 0.9", "?x q ?y => ?x r ?y @ 0.9"),
            max_depth=1,
        )
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        assert all(r.depth <= 1 for r in rewrites)
        predicates = {
            pattern.p.lexical() for r in rewrites for pattern in r.query.patterns
        }
        assert "r" not in predicates  # needs depth 2

    def test_depth_two_composition(self):
        engine = RewriteEngine(
            _rules("?x p ?y => ?x q ?y @ 0.9", "?x q ?y => ?x r ?y @ 0.8"),
            max_depth=2,
        )
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        composed = [
            r
            for r in rewrites
            if any(p.p.lexical() == "r" for p in r.query.patterns)
        ]
        assert composed
        assert composed[0].weight == pytest.approx(0.9 * 0.8)

    def test_max_rewrites_budget(self):
        rules = _rules(*[f"?x p ?y => ?x q{i} ?y @ 0.9" for i in range(20)])
        engine = RewriteEngine(rules, max_rewrites=5)
        assert len(engine.rewrites(parse_query("?a p ?b"))) == 5

    def test_min_weight_prunes(self):
        engine = RewriteEngine(
            _rules("?x p ?y => ?x q ?y @ 0.1"), min_weight=0.5
        )
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        assert len(rewrites) == 1  # only the original

    def test_dedup_by_canonical_form(self):
        # Two rule chains reach the same query; it must appear once, at the
        # higher weight (max over derivation sequences).
        engine = RewriteEngine(
            _rules(
                "?x p ?y => ?x q ?y @ 0.9",
                "?x p ?y => ?x m ?y @ 0.4",
                "?x m ?y => ?x q ?y @ 0.9",
            ),
            max_depth=2,
        )
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        q_rewrites = [
            r
            for r in rewrites
            if any(p.p.lexical() == "q" for p in r.query.patterns)
        ]
        assert len(q_rewrites) == 1
        assert q_rewrites[0].weight == pytest.approx(0.9)

    def test_engine_over_a_filtered_rule_set(self):
        # The top-k processor routes rules by building its engine over the
        # subset it keeps; the rules left out are never applied.
        rules = _rules("?x p ?y => ?x q ?y @ 0.9", "?x p ?y => ?x r ?y @ 0.8")
        kept = RuleSet(rule for rule in rules if rule.weight < 0.85)
        rewrites = RewriteEngine(kept).rewrites(parse_query("?a p ?b"))
        assert [r.weight for r in rewrites] == [1.0, 0.8]
        assert len(RewriteEngine(RuleSet()).rewrites(parse_query("?a p ?b"))) == 1

    def test_rules_are_ordered_once(self):
        # The best-first rule order is fixed when the engine is built.
        rules = _rules("?x p ?y => ?x q ?y @ 0.9")
        engine = RewriteEngine(rules)
        rules.add(parse_rule("?x p ?y => ?x r ?y @ 0.8"))
        assert len(engine.rewrites(parse_query("?a p ?b"))) == 2
        assert len(RewriteEngine(rules).rewrites(parse_query("?a p ?b"))) == 3

    def test_lazy_iteration(self):
        rules = _rules(*[f"?x p ?y => ?x q{i} ?y @ 0.9" for i in range(50)])
        engine = RewriteEngine(rules, max_rewrites=1000)
        iterator = engine.iter_rewrites(parse_query("?a p ?b"))
        first = next(iterator)
        assert first.is_original
        second = next(iterator)
        assert second.weight == pytest.approx(0.9)

    def test_describe(self):
        engine = RewriteEngine(_rules("?x p ?y => ?x q ?y @ 0.5"))
        rewrites = engine.rewrites(parse_query("?a p ?b"))
        assert "original" in rewrites[0].describe()
        assert "relaxed" in rewrites[1].describe()
