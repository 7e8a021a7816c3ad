"""Id-space execution must be indistinguishable from term-space semantics.

The equivalence harness of the id-space refactor: for the paper KG and for
generated worlds, every query must produce *identical* answer sets — same
projection bindings, same scores, same derivation provenance (triples, rules,
token expansions), same ``num_derivations`` — across

* execution cores:   idspace vs termspace,
* segment counts:    1 vs the default (the ``segments`` axis of conftest),
* termination:       adaptive vs ``exhaustive=True``.

Plus unit coverage of the id-space building blocks (slot tables, pattern
plans, posting cursors).
"""

import pytest

from repro.core.engine import TriniT
from repro.core.parser import parse_query
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.kg.paper_example import paper_rules, paper_store
from repro.scoring.language_model import PatternScorer
from repro.storage.sharded import ShardedBackend
from repro.storage.store import TripleStore
from repro.topk.idspace import (
    UNBOUND,
    IdExecutionContext,
    IdPostingCursor,
    PatternPlan,
    SlotTable,
)

X, Y = Variable("x"), Variable("y")


def fingerprint(answers):
    """All observable facets of an answer set."""
    return [
        (
            answer.binding,
            answer.score,
            answer.num_derivations,
            tuple(record.triple.n3() for record in answer.derivation.triples_used()),
            tuple(rule.n3() for rule in answer.derivation.rules_used()),
            tuple(
                (tm.token.n3(), tm.similarity)
                for tm in answer.derivation.token_matches_used()
            ),
        )
        for answer in answers
    ]


def assert_equivalent(engine, queries, ks=(1, 3, 10)):
    """Drive all four (execution × exhaustive) variants over one engine."""
    termspace = engine.variant(execution="termspace")
    for query in queries:
        for k in ks:
            for exhaustive in (False, True):
                reference = fingerprint(
                    termspace.variant(exhaustive=exhaustive).ask(query, k=k)
                )
                observed = fingerprint(
                    engine.variant(exhaustive=exhaustive).ask(query, k=k)
                )
                assert observed == reference, (query, k, exhaustive)


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
            item = cursor.pop()
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
        item = cursor.pop()
        assert item is not None
        assert store.dictionary.decode(item.binding[0]) == ae
        assert cursor.pop() is None


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


class TestPaperKgEquivalence:
    def test_paper_queries_identical_across_everything(self, segments):
        store = paper_store().convert(ShardedBackend(segments))
        engine = TriniT(store, rules=paper_rules())
        assert engine.store.backend.num_segments == segments
        assert_equivalent(engine, [parse_query(q) for q in PAPER_QUERIES])


class TestGeneratedWorldEquivalence:
    def test_tiny_harness_queries_identical(self, tiny_harness):
        queries = [
            bq.parse() for bq in tiny_harness.benchmark.queries[:10]
        ]
        assert_equivalent(tiny_harness.engine, queries, ks=(1, 5))

    def test_join_queries_identical(self, tiny_harness):
        world = tiny_harness.world
        queries = [
            parse_query("?p 'works at' ?u . ?u locatedIn ?c"),
            parse_query("?p affiliation ?u . ?u locatedIn ?c"),
            parse_query(f"?x affiliation {world.universities[0].id}"),
            parse_query("?a 'works at' ?u . ?b 'works at' ?u"),
        ]
        assert_equivalent(tiny_harness.engine, queries, ks=(1, 10))

    def test_resegmented_engine_identical(self, tiny_harness, segments):
        """However the store is partitioned, the execution core is unchanged."""
        engine = TriniT(tiny_harness.xkg_store.convert(ShardedBackend(segments)))
        assert engine.store.backend.num_segments == segments
        queries = [bq.parse() for bq in tiny_harness.benchmark.queries[:6]]
        assert_equivalent(engine, queries, ks=(3,))

    def test_snapshot_loaded_store_engine_identical(self, tiny_harness, tmp_path):
        """A mmap-loaded snapshot is observationally the original store."""
        from repro.storage.snapshot import load_snapshot, save_snapshot

        path = tmp_path / "tiny.snapd"
        save_snapshot(tiny_harness.xkg_store, path)
        engine = TriniT(load_snapshot(path))
        queries = [bq.parse() for bq in tiny_harness.benchmark.queries[:6]]
        assert_equivalent(engine, queries, ks=(3,))


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
