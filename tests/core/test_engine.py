"""Unit tests for the TriniT engine facade."""

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.query import Query
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import StorageError, TrinitError
from repro.kg.paper_example import paper_engine, paper_store
from repro.relax.operators import OperatorRegistry
from repro.storage.text_index import TokenMatcher

from statistics_reference import assert_reads_equal


class TestConstruction:
    def test_freezes_unfrozen_store(self, small_store):
        engine = TriniT(small_store)
        assert engine.store.is_frozen

    def test_from_triples(self, paper_engine_fixture):
        assert len(paper_engine_fixture.store) == 13  # 6 + 3 types + 4 ext

    def test_default_operators_registered(self, paper_engine_fixture):
        names = paper_engine_fixture.registry.names()
        assert "arg-overlap" in names
        assert "chain-expansion" in names
        assert "inversions" in names

    def test_optional_miners_respected(self, frozen_small_store):
        engine = TriniT(
            frozen_small_store,
            config=EngineConfig(mine_amie=True, mine_esa=True),
        )
        assert "amie" in engine.registry.names()
        assert "esa" in engine.registry.names()

    def test_no_storage_backend_knob(self, frozen_small_store):
        """One store layout: the engine takes the store as built, and the
        removed chooser is a typed construction error, not a silent no-op."""
        with pytest.raises(TypeError, match="storage_backend"):
            EngineConfig(storage_backend="sharded")
        engine = TriniT(frozen_small_store)
        assert engine.store is frozen_small_store
        assert engine.store.backend_name == "sharded"

    def test_custom_registry_used(self, frozen_small_store):
        registry = OperatorRegistry()
        called = []
        registry.register("probe", lambda ctx: called.append(True) or [])
        TriniT(frozen_small_store, registry=registry)
        assert called


class TestAsk:
    def test_string_query(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask("AlbertEinstein bornIn ?x")
        assert answers.top().value("x") == Resource("Ulm")

    def test_parsed_query(self, paper_engine_fixture):
        query = paper_engine_fixture.parse("AlbertEinstein bornIn ?x")
        assert isinstance(query, Query)
        answers = paper_engine_fixture.ask(query, k=1)
        assert len(answers) == 1

    def test_k_override(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask("?x type ?y", k=2)
        assert len(answers) == 2


class TestExplainSuggest:
    def test_explain_top_answer(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask(
            "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        )
        explanation = paper_engine_fixture.explain(answers.top(), answers.query)
        assert explanation.used_relaxation
        assert explanation.used_xkg
        assert "PrincetonUniversity" in explanation.render()

    def test_explain_none_raises(self, paper_engine_fixture):
        with pytest.raises(TrinitError):
            paper_engine_fixture.explain(None)

    def test_suggest_token_query(self, paper_engine_fixture):
        suggestions = paper_engine_fixture.suggest("?x 'born in' Ulm")
        assert any(s.kind == "resource" for s in suggestions)

    def test_suggest_with_answers(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask(
            "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        )
        suggestions = paper_engine_fixture.suggest(answers.query, answers)
        assert any(s.kind in ("rule-note", "reformulation") for s in suggestions)


class TestRules:
    def test_add_rule_text(self, frozen_small_store):
        engine = TriniT(frozen_small_store)
        rule = engine.add_rule("?x worksAt ?y => ?x affiliation ?y @ 0.5")
        assert rule.weight == 0.5
        answers = engine.ask("AlbertEinstein worksAt ?x")
        assert not answers.is_empty

    def test_add_rules_count(self, frozen_small_store):
        engine = TriniT(frozen_small_store)
        added = engine.add_rules(
            [
                "?x a ?y => ?x b ?y @ 0.5",
                "?x a ?y => ?x b ?y @ 0.5",  # duplicate
            ]
        )
        assert added == 1


class TestVariant:
    def test_variant_shares_data(self, paper_engine_fixture):
        variant = paper_engine_fixture.variant(use_relaxation=False)
        assert variant.store is paper_engine_fixture.store
        assert variant.rules is paper_engine_fixture.rules

    def test_variant_changes_behaviour(self, paper_engine_fixture):
        strict = paper_engine_fixture.variant(use_relaxation=False)
        query = "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        assert paper_engine_fixture.ask(query).answers
        assert strict.ask(query).is_empty

    def test_rule_added_through_either_facade_reaches_both(
        self, frozen_small_store
    ):
        engine = TriniT(frozen_small_store)
        warm = engine.variant(max_rewrite_depth=2)
        query = "?x affiliation ?y"

        def bindings(facade):
            return [(a.binding, a.score) for a in facade.ask(query)]

        before = bindings(warm)  # the variant's rule index exists now
        engine.add_rule("?x affiliation ?y => ?x bornIn ?y @ 0.5")
        after = bindings(engine)
        assert len(after) > len(before)
        assert bindings(warm) == after
        assert bindings(engine.variant(max_rewrite_depth=2)) == after
        warm.add_rule("?x affiliation ?y => ?x locatedIn ?y @ 0.4")
        assert len(bindings(engine)) > len(after)
        assert bindings(engine) == bindings(warm)
        assert warm.rules is engine.rules

    def test_variant_does_not_mutate_original(self, paper_engine_fixture):
        paper_engine_fixture.variant(use_relaxation=False)
        assert paper_engine_fixture.processor.config.use_relaxation


def _signature(engine, text):
    return [(a.binding, a.score) for a in engine.ask(text)]


def _state_token(engine):
    """``snapshot_identity()`` without the process-local store address."""
    return engine.snapshot_identity().split("@", 1)[1]


class TestIngestPublishes:
    """Every statement the store absorbed is under a view that knows it."""

    FOO = Triple(Resource("Foo"), Resource("bornIn"), Resource("Bar"))
    FOO2 = Triple(Resource("Foo2"), TextToken("born in the town"), Resource("Bar"))
    QUERIES = ("?x bornIn ?y", "?x 'born in the town' ?y")

    def test_non_triple_row_is_refused_before_the_store_is_touched(self):
        engine, clean = paper_engine(), paper_engine()
        for text in self.QUERIES:
            engine.ask(text)
        with pytest.raises(TrinitError, match="ground Triples"):
            engine.ingest([self.FOO, self.FOO2, object()])
        assert len(engine.store) == len(clean.store)
        assert _state_token(engine) == _state_token(clean)
        for text in self.QUERIES:
            assert _signature(engine, text) == _signature(clean, text)

    def test_pattern_row_is_refused(self):
        engine = paper_engine()
        pattern = TriplePattern(Variable("x"), Resource("bornIn"), Resource("Bar"))
        with pytest.raises(TrinitError):
            engine.ingest([pattern])
        assert not engine.store.has_delta

    def test_store_fault_midway_publishes_the_absorbed_prefix(self, monkeypatch):
        engine, clean = paper_engine(), paper_engine()
        # Warm matcher, processor and masses: all of them stale afterwards.
        stale = [_signature(engine, text) for text in self.QUERIES]
        add, calls = engine.store.add, []

        def faulty(triple, *args, **kwargs):
            if len(calls) == 2:
                raise StorageError("disk on fire")
            calls.append(triple)
            return add(triple, *args, **kwargs)

        monkeypatch.setattr(engine.store, "add", faulty)
        with pytest.raises(StorageError, match="disk on fire"):
            engine.ingest([self.FOO, self.FOO2, self.FOO])
        clean.ingest([self.FOO, self.FOO2])
        assert _state_token(engine) == _state_token(clean)
        assert _state_token(engine).endswith("+delta2")
        for text in self.QUERIES:
            assert _signature(engine, text) == _signature(clean, text)
        assert [_signature(engine, text) for text in self.QUERIES] != stale

    def test_empty_batch_publishes_nothing(self):
        engine = paper_engine()
        engine.ask("?x bornIn ?y")
        view, identity = engine._state.view, engine.snapshot_identity()
        processor = engine.processor
        assert engine.ingest([]) == []
        assert engine._state.view is view
        assert engine.processor is processor
        assert engine.snapshot_identity() == identity

    def test_empty_batch_on_a_closed_engine_still_raises(self):
        engine = paper_engine()
        engine.close()
        with pytest.raises(TrinitError, match="closed"):
            engine.ingest([])


class TestDerivedViews:
    """The next view's token matcher comes from the previous one."""

    @staticmethod
    def _batch(number):
        person = Resource(f"Person{number}")
        return [
            Triple(person, Resource("bornIn"), Resource(f"Town{number % 3}")),
            Triple(person, TextToken(f"lectured at {number}"), Resource("ETH")),
            Triple(person, TextToken("born in"), Resource("Ulm")),
        ]

    def test_warm_engine_never_sweeps_again(self, monkeypatch):
        engine = paper_engine(compaction_threshold=7)
        engine.ask("?x 'born in' ?y")
        engine.suggest("?x 'born in' Germany")
        assert engine.matcher.is_built
        sweeps = []
        build = TokenMatcher._build
        monkeypatch.setattr(
            TokenMatcher,
            "_build",
            lambda self: sweeps.append(type(self)) or build(self),
        )
        generation = engine.generation
        for number in range(20):
            engine.ingest(self._batch(number))
            assert engine.matcher.is_built
            engine.ask("?x 'born in' ?y")
            engine.suggest("?x 'born in' Germany")
        assert engine.generation > generation  # compactions happened too
        assert sweeps == []

    def test_rule_change_reuses_the_instances(self):
        engine = paper_engine()
        engine.ask("?x 'born in' ?y")
        matcher = engine.matcher
        engine.add_rule("?x worksAt ?y => ?x affiliation ?y @ 0.5")
        assert engine.matcher is matcher
        cold = paper_engine()
        unbuilt = cold.matcher
        cold.add_rule("?x worksAt ?y => ?x affiliation ?y @ 0.5")
        assert cold.matcher is unbuilt and not unbuilt.is_built

    def test_unbuilt_structures_stay_lazy_across_ingest_and_compaction(self):
        engine = paper_engine()
        engine.ingest(self._batch(0))
        assert not engine.matcher.is_built
        engine.compact()
        assert not engine.matcher.is_built

    def test_each_view_reads_its_own_store_and_mining_reads_the_first(self):
        seen = []
        registry = OperatorRegistry()
        registry.register("probe", lambda ctx: seen.append(ctx.statistics) or [])
        engine = TriniT(paper_store(), registry=registry)
        assert seen == [engine.statistics]
        first = engine.statistics
        engine.ingest(self._batch(0))
        assert engine.statistics is not first
        assert engine.statistics.store is engine.store
        assert_reads_equal(engine.statistics)
        engine.compact()
        assert engine.statistics.store is engine.store
        assert_reads_equal(engine.statistics)
        engine.close()
