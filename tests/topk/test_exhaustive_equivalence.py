"""Equivalence of adaptive top-k processing with exhaustive evaluation.

The whole point of threshold termination and lazy relaxation is to skip
*work*, never *answers*: for every query, the adaptive processor's top-k must
equal the first k answers of the exhaustive evaluator (same bindings, same
scores).  These tests drive both over randomised stores and rule sets.
"""

import random

import pytest

from repro.baselines.exhaustive import naive_join
from repro.core.parser import parse_query, parse_rule
from repro.core.query import Query
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.relax.rules import RuleSet
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig, TopKProcessor


def random_store(seed: int, n_entities: int = 12, n_triples: int
= 80) -> TripleStore:
    rng = random.Random(seed)
    store = TripleStore()
    entities = [Resource(f"E{i}") for i in range(n_entities)]
    predicates = [Resource(f"p{i}") for i in range(4)] + [
        TextToken("works at"),
        TextToken("lives in"),
    ]
    for _ in range(n_triples):
        store.add(
            Triple(
                rng.choice(entities),
                rng.choice(predicates),
                rng.choice(entities),
            ),
            confidence=rng.choice([0.5, 0.8, 1.0]),
            count=rng.randint(1, 4),
        )
    return store.freeze()


def random_rules(seed: int) -> RuleSet:
    rng = random.Random(seed)
    rules = RuleSet()
    predicates = [f"p{i}" for i in range(4)] + ["'works at'", "'lives in'"]
    for _ in range(6):
        source, target = rng.sample(predicates, 2)
        weight = round(rng.uniform(0.3, 0.95), 2)
        if rng.random() < 0.3:
            rules.add(parse_rule(f"?x {source} ?y => ?y {target} ?x @ {weight}"))
        else:
            rules.add(parse_rule(f"?x {source} ?y => ?x {target} ?y @ {weight}"))
    # One chain-expansion rule.
    rules.add(parse_rule("?x p0 ?y => ?x p1 ?z ; ?z p2 ?y @ 0.6"))
    return rules


QUERIES = [
    "?x p0 ?y",
    "E1 p0 ?y",
    "?x p1 E2",
    "?x 'works at' ?y",
    "?x p0 ?y ; ?y p1 ?z",
    "SELECT ?x WHERE ?x p0 ?y ; ?y p2 E3",
    "?x p0 E1 ; ?x p1 ?z",
]


def assert_valid_topk(fast_answers, full_answers, k):
    """``fast_answers`` must be *a* correct top-k of ``full_answers``.

    Answers with tied scores are interchangeable at the k-boundary, so the
    check is: identical descending score profile, and every fast answer
    (binding + score) present in the exhaustive full list.
    """
    full = [(a.binding, round(a.score, 9)) for a in full_answers]
    fast = [(a.binding, round(a.score, 9)) for a in fast_answers]
    assert len(fast) == min(k, len(full))
    assert [s for _b, s in fast] == [s for _b, s in full[: len(fast)]]
    full_set = set(full)
    for entry in fast:
        assert entry in full_set


class TestAdaptiveMatchesExhaustive:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("query_text", QUERIES)
    def test_same_topk(self, seed, query_text):
        store = random_store(seed)
        rules = random_rules(seed + 100)
        query = parse_query(query_text)
        k = 5
        adaptive = TopKProcessor(store, rules=rules)
        exhaustive = TopKProcessor(
            store, rules=rules, config=ProcessorConfig(exhaustive=True)
        )
        fast = adaptive.query(query, k)
        slow_full = exhaustive.query(query, 10_000)
        assert_valid_topk(fast.answers, slow_full.answers, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_adaptive_does_less_work(self, seed):
        store = random_store(seed, n_entities=15, n_triples=150)
        rules = random_rules(seed)
        query = parse_query("?x p0 ?y")
        adaptive = TopKProcessor(store, rules=rules)
        exhaustive = TopKProcessor(
            store, rules=rules, config=ProcessorConfig(exhaustive=True)
        )
        fast = adaptive.query(query, 1)
        slow = exhaustive.query(query, 1)
        assert fast.stats.sorted_accesses <= slow.stats.sorted_accesses


class TestAgainstNaiveJoin:
    """With relaxation and tokens disabled, the processor must agree with
    the independent backtracking evaluator on every answer and score."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "query_text",
        ["?x p0 ?y", "?x p0 ?y ; ?y p1 ?z", "E1 p2 ?y", "?x p3 E2 ; ?x p0 ?y"],
    )
    def test_exact_join_equivalence(self, seed, query_text):
        store = random_store(seed * 7 + 1)
        query = parse_query(query_text)
        processor = TopKProcessor(
            store,
            config=ProcessorConfig(
                use_relaxation=False,
                use_token_expansion=False,
                unknown_resource_fallback=False,
            ),
        )
        scorer = processor.scorer
        expected = naive_join(store, scorer, query)  # all answers
        got = processor.query(query, 10)
        got_signature = [(a.binding, round(a.score, 9)) for a in got]
        expected_signature = [(b, round(s, 9)) for b, s in expected]
        # Same descending score profile; every returned answer correct.
        assert [s for _b, s in got_signature] == [
            s for _b, s in expected_signature[: len(got_signature)]
        ]
        expected_set = set(expected_signature)
        for entry in got_signature:
            assert entry in expected_set
        assert len(got_signature) == min(10, len(expected_signature))

    def test_repeated_variable_query(self):
        store = TripleStore()
        knows = Resource("knows")
        store.add(Triple(Resource("A"), knows, Resource("A")))
        store.add(Triple(Resource("A"), knows, Resource("B")))
        store.add(Triple(Resource("B"), knows, Resource("B")))
        store.freeze()
        processor = TopKProcessor(store)
        answers = processor.query(
            Query([TriplePattern(Variable("x"), knows, Variable("x"))])
        )
        found = {a.value("x") for a in answers}
        assert found == {Resource("A"), Resource("B")}
