"""Id-space execution must be indistinguishable from term-space semantics.

For the paper KG and for a generated world, every query must produce
*identical* answer sets — same projection bindings, same scores, same
derivation provenance (triples, rules, token expansions), same
``num_derivations`` — as the term-space reference core
(``tests/reference_core.py``, driving the same plans): a grid over the
differential harness, world × store layout (fresh, generational, one
loaded snapshot segment) × termination (adaptive, ``exhaustive=True``).

Plus unit coverage of the id-space building blocks (slot tables, pattern
plans, posting cursors).
"""

import pytest

from repro.core.terms import Resource, Variable
from repro.core.triples import Triple, TriplePattern
from repro.kg.paper_example import paper_rules, paper_store
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig
from repro.topk.idspace import (
    UNBOUND,
    IdExecutionContext,
    IdPostingCursor,
    PatternPlan,
    SlotTable,
)

from harness.differential import NO_MINING, TERMSPACE, Ask, run, world_of
from layouts import LAYOUTS
from reference_core import pop_item

X, Y = Variable("x"), Variable("y")


# -- unit coverage ------------------------------------------------------------


class TestSlotTable:
    def test_slots_assigned_densely(self):
        table = SlotTable()
        assert table.slot(X) == 0
        assert table.slot(Y) == 1
        assert table.slot(X) == 0
        assert table.width == 2
        assert table.variable(1) == Y

    def test_freeze_rejects_new_variables(self):
        table = SlotTable()
        table.slot(X)
        table.freeze()
        assert table.slot(X) == 0  # known stays resolvable
        with pytest.raises(KeyError):
            table.slot(Variable("fresh"))


class TestPatternPlan:
    def _store(self):
        store = TripleStore()
        ae = Resource("AlbertEinstein")
        store.add(Triple(ae, Resource("knows"), ae))
        store.add(Triple(ae, Resource("knows"), Resource("MarieCurie")))
        return store.freeze()

    def test_constants_and_variables_compiled(self):
        store = self._store()
        table = SlotTable()
        plan = PatternPlan(TriplePattern(Resource("AlbertEinstein"), Resource("knows"), X), store, table)
        assert plan.const_ids[0] == store.dictionary.id_of(Resource("AlbertEinstein"))
        assert plan.const_ids[2] is None
        assert plan.var_positions == ((2, table.slot(X)),)
        assert not plan.missing_constant

    def test_unknown_constant_flagged(self):
        store = self._store()
        plan = PatternPlan(
            TriplePattern(Resource("Nobody"), Resource("knows"), X), store, SlotTable()
        )
        assert plan.missing_constant

    def test_repeated_variable_consistency(self):
        store = self._store()
        table = SlotTable()
        plan = PatternPlan(TriplePattern(X, Resource("knows"), X), store, table)
        assert plan.has_repeated_variable
        ae = store.dictionary.id_of(Resource("AlbertEinstein"))
        mc = store.dictionary.id_of(Resource("MarieCurie"))
        knows = store.dictionary.id_of(Resource("knows"))
        assert plan.consistent((ae, knows, ae))
        assert not plan.consistent((ae, knows, mc))

    def test_bind_into_conflict(self):
        store = self._store()
        table = SlotTable()
        plan = PatternPlan(TriplePattern(X, Resource("knows"), Y), store, table)
        ae = store.dictionary.id_of(Resource("AlbertEinstein"))
        mc = store.dictionary.id_of(Resource("MarieCurie"))
        knows = store.dictionary.id_of(Resource("knows"))
        out = [UNBOUND, UNBOUND]
        assert plan.bind_into((ae, knows, mc), out)
        assert out == [ae, mc]
        # Pre-bound slot with a different id must reject.
        out = [ae, mc]
        assert not plan.bind_into((mc, knows, ae), out)


class TestIdPostingCursor:
    def test_descending_scores_and_bindings(self):
        store = TripleStore()
        ae = Resource("AlbertEinstein")
        aff = Resource("affiliation")
        store.add(Triple(ae, aff, Resource("IAS")), count=3)
        store.add(Triple(ae, aff, Resource("ETH")), count=1)
        store.freeze()
        scorer = PatternScorer(store)
        ctx = IdExecutionContext(store, scorer, None)
        cursor = IdPostingCursor(ctx, TriplePattern(ae, aff, X))
        scores = []
        items = []
        while (peek := cursor.peek()) is not None:
            item = pop_item(cursor)
            assert item.score == peek
            scores.append(item.score)
            items.append(item)
        assert len(items) == 2
        assert scores == sorted(scores, reverse=True)
        decoded = [store.dictionary.decode(i.binding[0]) for i in items]
        assert decoded == [Resource("IAS"), Resource("ETH")]

    def test_repeated_variable_filtered(self):
        store = TripleStore()
        ae = Resource("AlbertEinstein")
        store.add(Triple(ae, Resource("knows"), ae))
        store.add(Triple(ae, Resource("knows"), Resource("MarieCurie")))
        store.freeze()
        ctx = IdExecutionContext(store, PatternScorer(store), None)
        cursor = IdPostingCursor(ctx, TriplePattern(X, Resource("knows"), X))
        item = pop_item(cursor)
        assert item is not None
        assert store.dictionary.decode(item.binding[0]) == ae
        assert pop_item(cursor) is None


# -- end-to-end equivalence ------------------------------------------------------


PAPER_QUERIES = [
    "AlbertEinstein affiliation ?x",
    "?x affiliation ETH",
    "?x 'works at' ?y",
    "AlbertEinstein 'won prize for' ?x",
    "?p bornIn ?c . ?c locatedIn Germany",
    "?p affiliation ?u . ?p 'won nobel prize' ?z",
    "MaxPlanck hasAdvisor ?x",
]

TERMINATION = pytest.mark.parametrize(
    "exhaustive", [False, True], ids=["adaptive", "exhaustive"]
)
STORE_LAYOUTS = pytest.mark.parametrize("store_layout", [*LAYOUTS, "snapshot"])


@TERMINATION
def test_paper_queries_identical_across_everything(layout, exhaustive):
    workload = [Ask(q, k) for q in PAPER_QUERIES for k in (1, 3, 10)]
    config = {"processor": ProcessorConfig(exhaustive=exhaustive)}
    run(world_of(paper_store(), paper_rules()), layout, workload, config, (TERMSPACE,))


@TERMINATION
@STORE_LAYOUTS
def test_generated_world_queries_identical(tiny_harness, store_layout, exhaustive):
    """The tiny evaluation world with its engine's rules: benchmark
    queries, and joins through token phrases and shared objects; laid out
    otherwise, the first six benchmark queries."""
    university = tiny_harness.world.universities[0].id
    joins = [
        "?p 'works at' ?u . ?u locatedIn ?c",
        "?p affiliation ?u . ?u locatedIn ?c",
        f"?x affiliation {university}",
        "?a 'works at' ?u . ?b 'works at' ?u",
    ]
    queries = [bq.parse() for bq in tiny_harness.benchmark.queries[:10]]
    workload = [Ask(q, k) for q in queries[:6] for k in (3,)]
    if store_layout == "fresh":
        workload = [Ask(q, k) for q in queries for k in (1, 5)]
        workload += [Ask(q, k) for q in joins for k in (1, 10)]
    engine = tiny_harness.engine
    config = dict(vars(engine.config), **NO_MINING)
    config["processor"] = ProcessorConfig(exhaustive=exhaustive)
    world = world_of(tiny_harness.xkg_store, engine.rules)
    run(world, store_layout, workload, config, (TERMSPACE,))


class TestSubJoinInvariant:
    def test_unbindable_interface_variable_rejected(self):
        from repro.errors import TopKError
        from repro.topk.idspace import IdSubJoinCursor

        store = TripleStore()
        store.add(Triple(Resource("A"), Resource("p"), Resource("B")))
        store.freeze()
        ctx = IdExecutionContext(store, PatternScorer(store), None)
        with pytest.raises(TopKError):
            IdSubJoinCursor(
                ctx,
                (TriplePattern(X, Resource("p"), Resource("B")),),
                (Variable("y"),),  # not bound by any replacement pattern
            )
