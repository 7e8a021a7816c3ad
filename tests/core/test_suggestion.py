"""Unit tests for query suggestion."""

import pytest

from repro.core.suggestion import KIND_RESOURCE, QuerySuggester, Suggestion
from repro.core.parser import parse_query
from repro.core.terms import Resource, TextToken
from repro.storage.statistics import StoreStatistics
from repro.storage.text_index import TokenMatcher
from repro.util.text import overlap_coefficient


@pytest.fixture(scope="module")
def suggester(tiny_harness):
    engine = tiny_harness.engine
    return QuerySuggester(engine.statistics, engine.matcher, min_overlap=0.2)


class TestResourceSuggestions:
    def test_token_predicate_suggests_kg_predicate(self, tiny_harness, suggester):
        """'works at' should suggest the canonical affiliation predicate —
        the paper's token→resource suggestion."""
        query = parse_query("?x 'works at' ?y")
        suggestions = suggester.resource_suggestions(query)
        assert any(
            s.replacement == "affiliation" and s.kind == KIND_RESOURCE
            for s in suggestions
        )

    def test_no_tokens_no_suggestions(self, suggester):
        query = parse_query("?x affiliation ?y")
        assert suggester.resource_suggestions(query) == []

    def test_duplicate_tokens_suggested_once(self, suggester):
        query = parse_query("?x 'works at' ?y ; ?z 'works at' ?y")
        suggestions = suggester.resource_suggestions(query)
        texts = [s.text for s in suggestions]
        assert len(texts) == len(set(texts))

    def test_scores_sorted(self, suggester):
        query = parse_query("?x 'works at' ?y")
        suggestions = suggester.resource_suggestions(query)
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_shared_pair_counts_score_as_the_context_sets_do(self, tiny_harness):
        """Counting each resource's pairs in common with the token, and
        scoring only those that share one or match by surface form,
        suggests exactly what intersecting every resource's context set
        does — over every benchmark query, and with zero-score resources
        admitted too."""
        engine = tiny_harness.engine
        queries = [parse_query(query.text) for query in tiny_harness.benchmark]
        for min_overlap in (0.25, 0.0):
            suggester = QuerySuggester(
                engine.statistics, engine.matcher, min_overlap=min_overlap
            )
            got = [suggester.resource_suggestions(query) for query in queries]
            assert got == [
                _full_scan(suggester, query) for query in queries
            ], min_overlap
            assert any(got)

    def test_max_suggestions_respected(self, tiny_harness):
        engine = tiny_harness.engine
        limited = QuerySuggester(
            engine.statistics,
            engine.matcher,
            min_overlap=0.01,
            max_suggestions_per_token=2,
        )
        query = parse_query("?x 'works at' ?y")
        by_kind = [s for s in limited.resource_suggestions(query)]
        assert len(by_kind) <= 2


class TestRuleSuggestions:
    def test_invoked_rules_surfaced(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask(
            "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        )
        suggester = paper_engine_fixture.suggester
        suggestions = suggester.rule_suggestions(answers)
        assert suggestions
        assert any("housed in" in s.text for s in suggestions)

    def test_exact_answers_no_rule_notes(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask("AlbertEinstein bornIn ?x")
        assert paper_engine_fixture.suggester.rule_suggestions(answers) == []

    def test_combined_suggest(self, paper_engine_fixture):
        answers = paper_engine_fixture.ask(
            "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        )
        suggestions = paper_engine_fixture.suggest(answers.query, answers)
        assert suggestions
        assert all(0 < s.score <= 1 for s in suggestions)


def _full_scan(suggester, query):
    """Resource suggestions by the definition: every resource in the slot,
    scored by the overlap coefficient of the two context-pair sets."""
    statistics, matcher = suggester.statistics, suggester.matcher
    suggestions, seen = [], set()
    for pattern in query.patterns:
        for slot, term in enumerate(pattern.terms()):
            if not isinstance(term, TextToken) or (term.norm, slot) in seen:
                continue
            seen.add((term.norm, slot))
            context, surface = set(), {}
            for match in matcher.matches(term, slot):
                if isinstance(match.token, TextToken):
                    context |= statistics.context_pairs(match.token, slot)
                else:
                    surface[match.token] = match.similarity
            if not context and not surface:
                continue
            scored = []
            for resource in statistics.terms_in_slot(slot, kind="resource"):
                overlap = overlap_coefficient(
                    context, statistics.context_pairs(resource, slot)
                )
                score = max(overlap, surface.get(resource, 0.0))
                if score >= suggester.min_overlap:
                    scored.append((score, resource))
            scored.sort(key=lambda item: (-item[0], item[1].sort_key()))
            slot_name = ("subject", "predicate", "object")[slot]
            suggestions += [
                Suggestion(
                    kind=KIND_RESOURCE,
                    text=(
                        f"token '{term.norm}' in the {slot_name} slot closely "
                        f"matches KG resource {resource.n3()} "
                        f"(match overlap {overlap:.2f})"
                    ),
                    score=min(1.0, overlap),
                    replacement=resource.n3(),
                )
                for overlap, resource in scored[: suggester.max_suggestions_per_token]
            ]
    return sorted(suggestions, key=Suggestion.sort_key)
