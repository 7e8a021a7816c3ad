"""Unit tests for XKG rule mining (the paper's §3 weight formula)."""

from collections import Counter

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple
from repro.relax.mining import mine_arg_overlap_rules, mine_chain_expansion_rules
from repro.relax.structural import inversion_rules
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore

from statistics_reference import SweptStatistics


def _store_with_overlap():
    """affiliation and 'works at' share 3 of 4 pairs; 'works at' has 4."""
    store = TripleStore()
    aff = Resource("affiliation")
    works = TextToken("works at")
    people = [Resource(f"P{i}") for i in range(5)]
    orgs = [Resource(f"O{i}") for i in range(5)]
    for i in range(3):  # shared pairs
        store.add(Triple(people[i], aff, orgs[i]))
        store.add(Triple(people[i], works, orgs[i]))
    store.add(Triple(people[3], aff, orgs[3]))   # aff-only
    store.add(Triple(people[4], works, orgs[4]))  # works-only
    return store.freeze()


class TestArgOverlapMining:
    def test_paper_weight_formula(self):
        stats = StoreStatistics(_store_with_overlap())
        rules = mine_arg_overlap_rules(stats, min_support=2, min_weight=0.0)
        by_pair = {
            (r.original[0].p, r.replacement[0].p): r.weight for r in rules
        }
        aff, works = Resource("affiliation"), TextToken("works at")
        # w(aff → works) = |∩| / |args(works)| = 3/4
        assert by_pair[(aff, works)] == pytest.approx(3 / 4)
        # w(works → aff) = 3 / |args(aff)| = 3/4
        assert by_pair[(works, aff)] == pytest.approx(3 / 4)

    def test_min_support_filters(self):
        stats = StoreStatistics(_store_with_overlap())
        rules = mine_arg_overlap_rules(stats, min_support=4)
        assert rules == []

    def test_min_weight_filters(self):
        stats = StoreStatistics(_store_with_overlap())
        rules = mine_arg_overlap_rules(stats, min_weight=0.9)
        assert rules == []

    def test_inverted_direction_mined(self):
        store = TripleStore()
        adv = Resource("hasAdvisor")
        stu = Resource("hasStudent")
        for i in range(3):
            a, b = Resource(f"A{i}"), Resource(f"B{i}")
            store.add(Triple(a, adv, b))
            store.add(Triple(b, stu, a))
        store.freeze()
        rules = mine_arg_overlap_rules(
            StoreStatistics(store), min_support=2, min_weight=0.5
        )
        inverted = [
            r
            for r in rules
            if r.original[0].p == adv
            and r.replacement[0].p == stu
            # inversion: replacement has flipped variables
            and r.replacement[0].s == Variable("y")
        ]
        assert inverted
        assert inverted[0].weight == pytest.approx(1.0)

    def test_inversions_can_be_disabled(self):
        store = TripleStore()
        adv, stu = Resource("hasAdvisor"), Resource("hasStudent")
        for i in range(3):
            a, b = Resource(f"A{i}"), Resource(f"B{i}")
            store.add(Triple(a, adv, b))
            store.add(Triple(b, stu, a))
        store.freeze()
        rules = mine_arg_overlap_rules(
            StoreStatistics(store), include_inversions=False, min_weight=0.0
        )
        assert rules == []

    def test_cap_per_predicate(self):
        store = TripleStore()
        source = Resource("p0")
        pairs = [(Resource(f"S{i}"), Resource(f"O{i}")) for i in range(4)]
        for s, o in pairs:
            store.add(Triple(s, source, o))
        for j in range(6):
            target = Resource(f"q{j}")
            for s, o in pairs[: 2 + (j % 3)]:
                store.add(Triple(s, target, o))
        store.freeze()
        rules = mine_arg_overlap_rules(
            StoreStatistics(store),
            predicates=[source],
            max_rules_per_predicate=3,
            min_weight=0.0,
        )
        assert len(rules) == 3

    def test_deterministic_order(self):
        stats = StoreStatistics(_store_with_overlap())
        first = [r.n3() for r in mine_arg_overlap_rules(stats, min_weight=0.0)]
        second = [r.n3() for r in mine_arg_overlap_rules(stats, min_weight=0.0)]
        assert first == second

    def test_rule_origin(self):
        stats = StoreStatistics(_store_with_overlap())
        rules = mine_arg_overlap_rules(stats, min_weight=0.0)
        assert all(r.origin == "mined-xkg" for r in rules)


class TestChainExpansionMining:
    def _chain_store(self):
        """affiliation(P, U) ≈ affiliation(P, I) ∘ housedIn(I, U)."""
        store = TripleStore()
        aff = Resource("affiliation")
        housed = TextToken("housed in")
        for i in range(4):
            person = Resource(f"P{i}")
            institute = Resource(f"I{i}")
            university = Resource(f"U{i}")
            store.add(Triple(person, aff, institute))
            store.add(Triple(institute, housed, university))
            if i < 2:  # some direct affiliation with the university too
                store.add(Triple(person, aff, university))
        return store.freeze()

    def test_chain_rule_mined(self):
        stats = StoreStatistics(self._chain_store())
        rules = mine_chain_expansion_rules(
            stats,
            source_predicates=[Resource("affiliation")],
            min_support=2,
            min_weight=0.1,
        )
        assert rules
        rule = rules[0]
        assert len(rule.replacement) == 2
        assert rule.replacement[1].p == TextToken("housed in")
        # support 2 of 4 composed pairs, smoothed: (2+1)/(4+2) = 0.5
        assert rule.weight == pytest.approx(0.5)

    def test_min_support(self):
        stats = StoreStatistics(self._chain_store())
        rules = mine_chain_expansion_rules(
            stats,
            source_predicates=[Resource("affiliation")],
            min_support=3,
        )
        assert rules == []

    def test_self_composition_excluded(self):
        stats = StoreStatistics(self._chain_store())
        rules = mine_chain_expansion_rules(stats, min_support=1, min_weight=0.0)
        for rule in rules:
            assert rule.replacement[0].p != rule.replacement[1].p or (
                rule.original[0].p != rule.replacement[1].p
            )


class _CountingStatistics:
    """Statistics that count the pair-set reads (``args``) a miner makes,
    per predicate."""

    def __init__(self, inner):
        self._inner = inner
        self.store = inner.store
        self.reads = Counter()

    def predicates(self):
        return self._inner.predicates()

    def args(self, predicate):
        self.reads[predicate] += 1
        return self._inner.args(predicate)


#: The engine's default miners under its default thresholds.
DEFAULT_MINERS = {
    "arg-overlap": lambda stats: mine_arg_overlap_rules(stats, min_support=2, min_weight=0.1),
    "chain-expansion": lambda stats: mine_chain_expansion_rules(stats, min_support=2),
    "inversions": lambda stats: inversion_rules(stats, min_support=2),
}


class TestPairReads:
    """Each default miner reads a predicate's pairs once, and mines over
    posting reads exactly what it mines over the id-order sweep."""

    @pytest.mark.parametrize("miner", sorted(DEFAULT_MINERS))
    def test_one_read_per_predicate(self, miner, tiny_harness, relayout):
        store = relayout(tiny_harness.engine.store.rebuild())
        counting = _CountingStatistics(StoreStatistics(store))
        rules = DEFAULT_MINERS[miner](counting)
        assert rules
        predicates = StoreStatistics(store).predicates()
        assert counting.reads == Counter(predicates)
        assert rules == DEFAULT_MINERS[miner](SweptStatistics(store))
        store.close()

    @pytest.mark.parametrize("miner", sorted(DEFAULT_MINERS))
    def test_live_delta_mines_what_the_sweep_does(self, miner, paper_store_fixture):
        store = paper_store_fixture.rebuild()
        store.add(Triple(Resource("MaxPlanck"), TextToken("works at"), Resource("KWI")))
        store.add(Triple(Resource("MaxPlanck"), Resource("affiliation"), Resource("KWI")))
        store.add(Triple(Resource("NielsBohr"), TextToken("works at"), Resource("KWI")))
        store.add(Triple(Resource("NielsBohr"), Resource("affiliation"), Resource("KWI")))
        assert store.has_delta
        rules = DEFAULT_MINERS[miner](StoreStatistics(store))
        assert rules == DEFAULT_MINERS[miner](SweptStatistics(store))
