"""Unit tests for the top-k processor on hand-built stores."""

import pytest

from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Provenance, Triple
from repro.errors import TopKError
from repro.relax.rules import RuleSet
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig, TopKProcessor


@pytest.fixture()
def processor(frozen_small_store):
    return TopKProcessor(frozen_small_store)


class TestConfig:
    def test_bad_k(self):
        with pytest.raises(TopKError):
            ProcessorConfig(k=0)

    def test_bad_depth(self):
        with pytest.raises(TopKError):
            ProcessorConfig(max_rewrite_depth=-1)

    def test_requires_frozen(self, small_store):
        with pytest.raises(TopKError):
            TopKProcessor(small_store)

    @pytest.mark.parametrize(
        "field", ["max_relaxations_per_pattern", "max_token_expansions"]
    )
    def test_negative_stream_caps_rejected(self, field):
        # Both caps are slice ends: -1 would silently drop the last stream.
        with pytest.raises(TopKError):
            ProcessorConfig(**{field: -1})
        ProcessorConfig(**{field: 0})


class TestUnknownResourceFallback:
    @pytest.mark.parametrize("penalty", [0.9, 0.999, 1.0])
    def test_unknown_predicate_falls_back_at_any_penalty(
        self, paper_store_fixture, penalty
    ):
        # ``lecturedAt`` is not in the paper KG: its words become the token
        # 'lectured at', attenuated by the penalty — 1.0 attenuating nothing.
        processor = TopKProcessor(
            paper_store_fixture,
            config=ProcessorConfig(unknown_resource_penalty=penalty),
        )
        answers = processor.query(parse_query("?x lecturedAt ?y"))
        assert [(a.value("x"), a.value("y")) for a in answers] == [
            (Resource("AlbertEinstein"), Resource("PrincetonUniversity"))
        ]
        token = processor.query(parse_query("?x 'lectured at' ?y"))
        assert answers.top().score == pytest.approx(penalty * token.top().score)


class TestExactQueries:
    def test_single_pattern(self, processor):
        answers = processor.query(parse_query("AlbertEinstein bornIn ?x"))
        assert len(answers) == 1
        assert answers.top().value("x") == Resource("Ulm")

    def test_join(self, processor):
        answers = processor.query(
            parse_query("?p bornIn ?c ; ?c locatedIn Germany")
        )
        assert len(answers) == 1
        assert answers.top().value("p") == Resource("AlbertEinstein")

    def test_k_limits_results(self, processor):
        answers = processor.query(parse_query("?x bornIn ?y"), k=1)
        assert len(answers) == 1

    def test_rejects_bad_k(self, processor):
        with pytest.raises(TopKError):
            processor.query(parse_query("?x bornIn ?y"), k=0)

    def test_empty_result(self, processor):
        answers = processor.query(parse_query("?x bornIn Atlantis"))
        assert answers.is_empty

    def test_fully_bound_assertion_join(self, processor):
        answers = processor.query(
            parse_query("AlbertEinstein bornIn Ulm ; ?x bornIn Ulm")
        )
        assert len(answers) == 1

    def test_scores_descending(self, processor):
        answers = processor.query(parse_query("?x 'lectured at' ?y"))
        scores = [a.score for a in answers]
        assert scores == sorted(scores, reverse=True)


class TestTokenMatching:
    def test_fuzzy_phrase_expansion(self, processor):
        # 'lectures at' should reach the stored 'lectured at' phrase.
        answers = processor.query(
            parse_query("AlbertEinstein 'lectures at' ?x")
        )
        assert not answers.is_empty
        assert answers.top().value("x") == Resource("PrincetonUniversity")

    def test_token_to_resource_translation(self, processor):
        # Token 'born in' taps the canonical bornIn predicate.
        answers = processor.query(parse_query("AlbertEinstein 'born in' ?x"))
        assert not answers.is_empty
        assert answers.top().value("x") == Resource("Ulm")

    def test_token_expansion_ablation(self, frozen_small_store):
        config = ProcessorConfig(use_token_expansion=False)
        processor = TopKProcessor(frozen_small_store, config=config)
        answers = processor.query(parse_query("AlbertEinstein 'lectures at' ?x"))
        assert answers.is_empty

    def test_unknown_resource_fallback(self, processor):
        # lecturedAt is not a stored predicate; the fallback reads it as
        # the phrase 'lectured at'.
        answers = processor.query(parse_query("AlbertEinstein lecturedAt ?x"))
        assert not answers.is_empty

    def test_unknown_resource_fallback_ablation(self, frozen_small_store):
        config = ProcessorConfig(unknown_resource_fallback=False)
        processor = TopKProcessor(frozen_small_store, config=config)
        answers = processor.query(parse_query("AlbertEinstein lecturedAt ?x"))
        assert answers.is_empty


class TestRelaxation:
    def _processor_with_rules(self, store, *rule_texts, **config_kwargs):
        rules = RuleSet(parse_rule(t) for t in rule_texts)
        config = ProcessorConfig(**config_kwargs) if config_kwargs else None
        return TopKProcessor(store, rules=rules, config=config)

    def test_single_pattern_rule(self, frozen_small_store):
        processor = self._processor_with_rules(
            frozen_small_store,
            "?x affiliation ?y => ?x 'lectured at' ?y @ 0.7",
        )
        answers = processor.query(parse_query("MarieCurie affiliation ?x"))
        # Exact answer (Sorbonne via affiliation) must rank first; the
        # relaxed path adds nothing new here but must not crash or distort.
        assert answers.top().value("x") == Resource("Sorbonne")

    def test_relaxed_answer_attenuated(self, frozen_small_store):
        processor = self._processor_with_rules(
            frozen_small_store,
            "?x worksAt ?y => ?x affiliation ?y @ 0.5",
        )
        exact = processor.query(parse_query("AlbertEinstein affiliation ?x"))
        relaxed = processor.query(parse_query("AlbertEinstein worksAt ?x"))
        assert relaxed.top().value("x") == exact.top().value("x")
        assert relaxed.top().score < exact.top().score

    def test_relaxation_ablation(self, frozen_small_store):
        processor = self._processor_with_rules(
            frozen_small_store,
            "?x worksAt ?y => ?x affiliation ?y @ 0.5",
            use_relaxation=False,
        )
        answers = processor.query(parse_query("AlbertEinstein worksAt ?x"))
        assert answers.is_empty

    def test_multi_pattern_rule_with_condition(self):
        store = TripleStore()
        ae, born = Resource("AlbertEinstein"), Resource("bornIn")
        t, located = Resource("type"), Resource("locatedIn")
        store.add(Triple(ae, born, Resource("Ulm")))
        store.add(Triple(Resource("Ulm"), t, Resource("city")))
        store.add(Triple(Resource("Ulm"), located, Resource("Germany")))
        store.add(Triple(Resource("Germany"), t, Resource("country")))
        store.freeze()
        processor = self._processor_with_rules(
            store,
            "?x bornIn ?y ; ?y type country => "
            "?x bornIn ?z ; ?z type city ; ?z locatedIn ?y @ 1.0",
        )
        answers = processor.query(parse_query("?x bornIn Germany"))
        assert answers.top().value("x") == ae

    def test_max_over_derivations(self, frozen_small_store):
        # Two rules reach the same answer with different weights; the
        # answer's score must reflect the heavier path.
        processor = self._processor_with_rules(
            frozen_small_store,
            "?x worksAt ?y => ?x affiliation ?y @ 0.3",
            "?x worksAt ?y => ?x 'lectured at' ?y @ 0.9",
        )
        answers = processor.query(parse_query("AlbertEinstein worksAt ?x"))
        princeton = [
            a for a in answers if a.value("x") == Resource("PrincetonUniversity")
        ]
        assert princeton
        # 'lectured at' path (0.9) should dominate the affiliation path for
        # Princeton (affiliation gives IAS, not Princeton).
        assert princeton[0].score > 0.3

    def test_pattern_merge_vs_rewriting_same_answers(self, frozen_small_store):
        rule = "?x worksAt ?y => ?x affiliation ?y @ 0.5"
        merged = self._processor_with_rules(
            frozen_small_store, rule, pattern_level_merge=True
        )
        rewritten = self._processor_with_rules(
            frozen_small_store, rule, pattern_level_merge=False
        )
        query = parse_query("AlbertEinstein worksAt ?x")
        a = [(x.binding, round(x.score, 9)) for x in merged.query(query)]
        b = [(x.binding, round(x.score, 9)) for x in rewritten.query(query)]
        assert a == b


class TestStats:
    def test_stats_populated(self, processor):
        answers = processor.query(parse_query("?x bornIn ?y"))
        assert answers.stats.sorted_accesses > 0
        assert answers.stats.cursors_opened > 0
        assert answers.stats.rewritings_processed == 1
        assert answers.stats.elapsed_seconds > 0

    def test_with_config_clone(self, processor):
        clone = processor.with_config(use_relaxation=False)
        assert clone.store is processor.store
        assert not clone.config.use_relaxation
        assert processor.config.use_relaxation
