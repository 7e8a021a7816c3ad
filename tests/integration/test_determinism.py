"""Determinism: identical seeds produce byte-identical artifacts."""

from repro.eval.harness import EvalHarness, HarnessConfig
from repro.kg.generator import KgGenerator
from repro.kg.world import World, WorldConfig
from repro.openie.corpus import CorpusConfig, CorpusGenerator
from repro.openie.ned import EntityLinker
from repro.xkg.builder import build_xkg

from harness.differential import fingerprint


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        def build():
            world = World.generate(WorldConfig(num_people=30, seed=5))
            kg = KgGenerator(world).generate()
            corpus = CorpusGenerator(
                world, CorpusConfig(num_popularity_documents=20)
            ).generate()
            store, report = build_xkg(
                kg.triples, corpus, linker=EntityLinker(world)
            )
            return store, report

        store_a, report_a = build()
        store_b, report_b = build()
        assert len(store_a) == len(store_b)
        assert report_a.summary() == report_b.summary()
        for rec_a, rec_b in zip(store_a.records(), store_b.records()):
            assert rec_a.triple == rec_b.triple
            assert rec_a.count == rec_b.count
            assert rec_a.confidence == rec_b.confidence

    def test_engine_rules_reproducible(self):
        config = HarnessConfig(
            world=WorldConfig(num_people=30, seed=5),
            corpus=CorpusConfig(num_popularity_documents=20),
        )
        a = EvalHarness(config)
        b = EvalHarness(config)
        rules_a = sorted(r.n3() for r in a.engine.rules)
        rules_b = sorted(r.n3() for r in b.engine.rules)
        assert rules_a == rules_b

    def test_query_results_reproducible(self):
        config = HarnessConfig(
            world=WorldConfig(num_people=30, seed=5),
            corpus=CorpusConfig(num_popularity_documents=20),
        )
        a = EvalHarness(config)
        b = EvalHarness(config)
        fact = a.world.facts_of("worksAt")[0]
        query = f"{fact.subject} affiliation ?x"
        result_a = fingerprint(a.engine.ask(query))
        result_b = fingerprint(b.engine.ask(query))
        assert result_a == result_b

    def test_store_save_is_stable(self, tmp_path):
        from repro.storage.persistence import save_store

        world = World.generate(WorldConfig(num_people=15, seed=5))
        kg = KgGenerator(world).generate()
        store = kg.store(freeze=False)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_store(store, path_a)
        save_store(store, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
