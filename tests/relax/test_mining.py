"""Unit tests for XKG rule mining (the paper's §3 weight formula)."""

from collections import Counter
from functools import partial
from itertools import chain

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple
from repro.eval.harness import EvalHarness
from repro.kg.generator import KgGenerator
from repro.kg.paper_example import paper_store
from repro.kg.world import World, WorldConfig
from repro.relax.mining import (
    PairIndex,
    mine_arg_overlap_rules,
    mine_chain_expansion_rules,
)
from repro.relax.operators import OperatorContext
from repro.relax.rules import RuleSet
from repro.relax.structural import inversion_rules
from repro.storage.compaction import compact_store
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore

from layouts import generational_copy
from mining_reference import (
    reference_arg_overlap_rules,
    reference_chain_expansion_rules,
    reference_inversion_rules,
)
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


#: Each miner and its oracle, called the same way, in the order the engine
#: registers them.
MINERS = {
    "arg-overlap": (mine_arg_overlap_rules, reference_arg_overlap_rules),
    "chain-expansion": (mine_chain_expansion_rules, reference_chain_expansion_rules),
    "inversions": (inversion_rules, reference_inversion_rules),
}

_CONFIG = EngineConfig()

#: The thresholds the engine's default operators pass each miner.
DEFAULT_THRESHOLDS = {
    "arg-overlap": {
        "min_support": _CONFIG.mining_min_support,
        "min_weight": _CONFIG.mining_min_weight,
    },
    "chain-expansion": {"min_support": _CONFIG.mining_min_support},
    "inversions": {"min_support": _CONFIG.mining_min_support},
}

#: The engine's default miners under its default thresholds.
DEFAULT_MINERS = {
    name: partial(mine, **DEFAULT_THRESHOLDS[name])
    for name, (mine, _reference) in MINERS.items()
}


def _fingerprint(rules):
    """What must not change: each rule's repr, weight bit for bit, label and
    origin, in order."""
    return [(repr(r), r.weight.hex(), r.label, r.origin) for r in rules]


def _reference_registry_run(store):
    """The oracle's rules pooled as the engine's default registry pools its
    operators' (default thresholds, registration order)."""
    statistics = StoreStatistics(store)
    return RuleSet(
        chain.from_iterable(
            reference(statistics, **DEFAULT_THRESHOLDS[name])
            for name, (_mine, reference) in MINERS.items()
        )
    )


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

    def test_default_registry_reads_each_predicate_once(
        self, default_registry, tiny_harness, relayout
    ):
        """The engine's three default operators share one pair index: each
        predicate's pairs are read once per registry run, not once per
        operator, and the rules are what each operator mines alone."""
        store = relayout(tiny_harness.engine.store.rebuild())
        counting = _CountingStatistics(StoreStatistics(store))
        rules = default_registry.run(OperatorContext(store, counting))
        assert counting.reads == Counter(StoreStatistics(store).predicates())
        assert _fingerprint(rules) == _fingerprint(_reference_registry_run(store))
        store.close()


# -- the miners against the test-side oracle ------------------------------------


@pytest.fixture(scope="module")
def default_registry():
    """The operator registry a default-configured engine registers."""
    engine = TriniT(paper_store())
    yield engine.registry
    engine.close()


def _inverse_store():
    """``test_structural.py``'s world: four advisor/student pairs, each
    stated both ways."""
    store = TripleStore()
    adv, stu = Resource("hasAdvisor"), Resource("hasStudent")
    for i in range(4):
        a, b = Resource(f"A{i}"), Resource(f"B{i}")
        store.add(Triple(a, adv, b))
        store.add(Triple(b, stu, a))
    return store.freeze()


def _scan_store():
    """The ``scan_kg`` benchmark's world at 300 people (its CI size): the
    1M-statement world's proportions, every other count floored at 4."""
    config = WorldConfig(
        num_people=300,
        num_countries=4,
        num_universities=4,
        num_institutes=4,
        num_companies=4,
        num_fields=4,
        num_prizes=4,
        num_groups=4,
    )
    return KgGenerator(World.generate(config)).generate().store("scan")


WORLDS = {
    "paper": paper_store,
    "tiny": lambda: EvalHarness("tiny").xkg_store.rebuild(),
    "small": lambda: EvalHarness("small").xkg_store.rebuild(),
    "inverse": _inverse_store,
    "scan300": _scan_store,
}

#: fresh — one base segment; live — base + two compacted generations + a
#: live delta; compacted — that store folded again, no delta.
VARIANTS = ("fresh", "live", "compacted")


@pytest.fixture(
    scope="module",
    params=[(world, variant) for world in WORLDS for variant in VARIANTS],
    ids=lambda param: "-".join(param),
)
def mined_store(request, tmp_path_factory):
    world, variant = request.param
    store = WORLDS[world]()
    if variant != "fresh":
        store = generational_copy(store, tmp_path_factory.mktemp(world))
        assert store.has_delta
        if variant == "compacted":
            compacted = compact_store(store)
            store.close()
            store = compacted
            assert not store.has_delta
    yield store
    store.close()


def _options(predicates):
    """Per miner, keyword sets beyond the defaults, over this world's
    predicates (every other one, and every third)."""
    some, few = predicates[::2], predicates[::3]
    loose = {"min_support": 1, "min_weight": 0.0}
    return {
        "arg-overlap": [
            {"predicates": some},
            {"predicates": few + [Resource("notAPredicate")]},
            {"include_inversions": False},
            loose,
            {**loose, "include_inversions": False, "predicates": some},
        ],
        "chain-expansion": [
            {"source_predicates": some},
            {"hop_predicates": few},
            {"source_predicates": few, "hop_predicates": some + few},
            loose,
            {**loose, "source_predicates": some, "hop_predicates": few},
        ],
        "inversions": [loose, {"min_support": 1, "min_weight": 0.2}],
    }


class TestMatchesReference:
    """The shared-pass miners produce exactly the oracle's rule lists."""

    @pytest.mark.parametrize("miner", sorted(MINERS))
    def test_defaults(self, miner, mined_store):
        mine, reference = MINERS[miner]
        statistics = StoreStatistics(mined_store)
        kwargs = DEFAULT_THRESHOLDS[miner]
        assert _fingerprint(mine(statistics, **kwargs)) == _fingerprint(
            reference(statistics, **kwargs)
        )

    @pytest.mark.parametrize("miner", sorted(MINERS))
    def test_options(self, miner, mined_store):
        mine, reference = MINERS[miner]
        statistics = StoreStatistics(mined_store)
        for kwargs in _options(statistics.predicates())[miner]:
            assert _fingerprint(mine(statistics, **kwargs)) == _fingerprint(
                reference(statistics, **kwargs)
            ), kwargs

    def test_engine_registry(self, default_registry, mined_store):
        statistics = StoreStatistics(mined_store)
        rules = default_registry.run(OperatorContext(mined_store, statistics))
        assert _fingerprint(rules) == _fingerprint(
            _reference_registry_run(mined_store)
        )

    def test_shared_index_mines_what_each_miner_alone_does(self, mined_store):
        index = PairIndex(StoreStatistics(mined_store))
        for miner in ("inversions", "chain-expansion", "arg-overlap"):
            mine, reference = MINERS[miner]
            assert _fingerprint(mine(index, min_support=1, min_weight=0.0)) == (
                _fingerprint(
                    reference(StoreStatistics(mined_store), min_support=1, min_weight=0.0)
                )
            )


# -- the two prunes at their edges --------------------------------------------------

_P, _Q = Resource("p"), Resource("q")


def _chain_world(extra: int) -> TripleStore:
    """``p``: X → Z1, Z2, Y1, Y2; ``q``: Z1 → Y1, Z2 → Y2 and Z1 → W1..Wn.
    ``p∘q`` is X → Y1, Y2, W1..Wn: support 2 (the two Y), size ``2 + extra``."""
    store = TripleStore()
    x = Resource("X")
    for name in ("Z1", "Z2", "Y1", "Y2"):
        store.add(Triple(x, _P, Resource(name)))
    store.add(Triple(Resource("Z1"), _Q, Resource("Y1")))
    store.add(Triple(Resource("Z2"), _Q, Resource("Y2")))
    for i in range(extra):
        store.add(Triple(Resource("Z1"), _Q, Resource(f"W{i}")))
    return store.freeze()


def _hub_world() -> TripleStore:
    """``p``: X0..X9 → H, X0 → Y0, X1 → Y1; ``q``: H → Y0..Y9.  Through the
    hub H, ``p∘q`` is all 100 (Xi, Yj), of which p holds two."""
    store = TripleStore()
    hub = Resource("H")
    for i in range(10):
        store.add(Triple(Resource(f"X{i}"), _P, hub))
        store.add(Triple(hub, _Q, Resource(f"Y{i}")))
    for i in range(2):
        store.add(Triple(Resource(f"X{i}"), _P, Resource(f"Y{i}")))
    return store.freeze()


def _chains(store, **kwargs):
    """The chain rules mined, checked against the oracle's on the way."""
    statistics = StoreStatistics(store)
    rules = mine_chain_expansion_rules(statistics, **kwargs)
    assert _fingerprint(rules) == _fingerprint(
        reference_chain_expansion_rules(statistics, **kwargs)
    )
    return rules


class TestPrunes:
    """Support is counted before composing, and composing stops once a
    candidate cannot pass; neither changes a mined rule."""

    def test_weight_equal_to_min_weight_passes(self):
        # (2 + 1) / (18 + 2) is 0.15 exactly: the bound is not strict.
        rules = _chains(_chain_world(16), min_support=2, min_weight=0.15)
        assert [(r.weight, r.label) for r in rules] == [
            (0.15, "chain-expansion support=2")
        ]
        assert 3 / 20 == 0.15

    def test_one_more_composed_pair_fails(self):
        assert _chains(_chain_world(17), min_support=2, min_weight=0.15) == []

    def test_weight_bound_fails_after_support_is_reached(self):
        store = _chain_world(60)
        index = PairIndex(StoreStatistics(store))
        assert index.chain_support(_P, {index.position(_Q)})[index.position(_Q)] == 2
        # Support 2 reaches min_support, so p∘q is composed — and abandoned
        # once 3 / (|p∘q| + 2) drops below min_weight.
        assert index.compose(_P, _Q, 3, 0.15, 200_000) is None
        assert _chains(store, min_support=2, min_weight=0.15) == []
        assert index.compose(_P, _Q, 3, 0.0, 200_000) == 62
        [rule] = _chains(store, min_support=2, min_weight=0.0)
        assert rule.weight == 3 / 64

    def test_support_below_min_support_is_never_composed(self):
        index = PairIndex(StoreStatistics(_chain_world(16)))
        composed = []
        compose = index.compose
        index.compose = lambda *args: composed.append(args) or compose(*args)
        assert mine_chain_expansion_rules(index, min_support=3, min_weight=0.0) == []
        assert composed == []
        assert mine_chain_expansion_rules(index, min_support=2, min_weight=0.0)
        assert composed == [(_P, _Q, 3, 0.0, 200_000)]

    def test_hub_composition_overflows_max_compose_size(self):
        store = _hub_world()
        assert _chains(store, min_weight=0.0, max_compose_size=99) == []
        [rule] = _chains(store, min_weight=0.0, max_compose_size=100)
        assert (rule.weight, rule.label) == (3 / 102, "chain-expansion support=2")
