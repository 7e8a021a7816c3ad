"""Query suggestion (Section 5, "Query Suggestion").

Two kinds of suggestion are produced:

* **Token → resource**: when matches for a text token overlap significantly
  with the matches of a canonical KG resource, the resource is suggested for
  future queries ("you wrote ``'born in'`` — the KG predicate is
  ``bornIn``").  Overlap is measured between *context-pair sets*: the set of
  (S, O) pairs a token predicate connects vs. a resource predicate's
  ``args(p)``, and analogously for subject/object slots.
* **Reformulation / rule notification**: when a structural relaxation rule
  contributed to the answers, the user is told, and the corresponding
  rewritten query is suggested as a better-aligned formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Query
from repro.core.results import AnswerSet
from repro.core.terms import Resource, TextToken
from repro.storage.statistics import StoreStatistics
from repro.storage.text_index import TokenMatcher

#: Suggestion kinds.
KIND_RESOURCE = "resource"
KIND_REFORMULATION = "reformulation"
KIND_RULE_NOTE = "rule-note"


@dataclass(frozen=True)
class Suggestion:
    """One suggestion with a confidence score in (0, 1]."""

    kind: str
    text: str
    score: float
    replacement: str = ""

    def sort_key(self):
        return (-self.score, self.kind, self.text)


class QuerySuggester:
    """Generates suggestions from store statistics and answer derivations."""

    def __init__(
        self,
        statistics: StoreStatistics,
        matcher: TokenMatcher,
        *,
        min_overlap: float = 0.25,
        max_suggestions_per_token: int = 3,
    ):
        self.statistics = statistics
        self.matcher = matcher
        self.min_overlap = min_overlap
        self.max_suggestions_per_token = max_suggestions_per_token

    # -- token → resource ------------------------------------------------------

    def resource_suggestions(self, query: Query) -> list[Suggestion]:
        """Suggest canonical resources for each text token in the query."""
        suggestions: list[Suggestion] = []
        seen: set[tuple[str, int]] = set()
        for pattern in query.patterns:
            for slot, term in enumerate(pattern.terms()):
                if not isinstance(term, TextToken):
                    continue
                if (term.norm, slot) in seen:
                    continue
                seen.add((term.norm, slot))
                suggestions.extend(self._suggest_for_token(term, slot))
        suggestions.sort(key=Suggestion.sort_key)
        return suggestions

    def _suggest_for_token(self, token: TextToken, slot: int) -> list[Suggestion]:
        # Union the context pairs of every stored phrase the token matches —
        # weighting each phrase's contribution by the match similarity would
        # be possible, but plain union is what "matches for these tokens"
        # denotes in the paper.
        token_context: set[tuple[int, int]] = set()
        surface_similarity: dict[Resource, float] = {}
        for match in self.matcher.matches(token, slot):
            if isinstance(match.token, TextToken):
                token_context |= self.statistics.context_pairs(match.token, slot)
            elif isinstance(match.token, Resource):
                # The matcher already found resources whose surface form
                # resembles the token; keep them as direct candidates.
                surface_similarity[match.token] = match.similarity
        if not token_context and not surface_similarity:
            return []
        # |context(token) ∩ context(resource)| per resource, counted off
        # the token's pairs: only a resource sharing one, or matched by
        # surface form, scores above zero.
        shared = self.statistics.shared_pairs(token_context, slot)
        if self.min_overlap > 0:
            candidates = [
                term
                for term in shared
                if term.kind == "resource" and term not in surface_similarity
            ] + list(surface_similarity)
        else:
            candidates = self.statistics.terms_in_slot(slot, kind="resource")
        scored: list[tuple[float, Resource]] = []
        for resource in candidates:
            common = shared.get(resource, 0)
            overlap = (
                common
                / min(len(token_context), self.statistics.context_size(resource, slot))
                if common
                else 0.0
            )
            score = max(overlap, surface_similarity.get(resource, 0.0))
            if score >= self.min_overlap:
                scored.append((score, resource))
        scored.sort(key=lambda item: (-item[0], item[1].sort_key()))
        slot_name = ("subject", "predicate", "object")[slot]
        return [
            Suggestion(
                kind=KIND_RESOURCE,
                text=(
                    f"token '{token.norm}' in the {slot_name} slot closely "
                    f"matches KG resource {resource.n3()} "
                    f"(match overlap {overlap:.2f})"
                ),
                score=min(1.0, overlap),
                replacement=resource.n3(),
            )
            for overlap, resource in scored[: self.max_suggestions_per_token]
        ]

    # -- rule notifications / reformulations ----------------------------------

    def rule_suggestions(self, answers: AnswerSet) -> list[Suggestion]:
        """Notify about relaxations that actually contributed to answers.

        For each distinct rule used by some answer's best derivation, the
        highest answer score using it becomes the suggestion score, and the
        rewritten query of the top-most such answer is offered as a
        reformulation.
        """
        by_rule: dict[str, Suggestion] = {}
        for answer in answers:
            derivation = answer.derivation
            for application in derivation.rewriting:
                description = application.rule.describe()
                if description not in by_rule:
                    by_rule[description] = Suggestion(
                        kind=KIND_REFORMULATION,
                        text=(
                            f"answers used rule {application.rule.n3()}; "
                            "a better-aligned query would be: "
                            f"{application.query.n3()}"
                        ),
                        score=min(1.0, answer.score + (1.0 - answer.score) * 0.5),
                        replacement=application.query.n3(),
                    )
            for match in derivation.matches:
                if match.rule is None:
                    continue
                description = match.rule.describe()
                if description not in by_rule:
                    by_rule[description] = Suggestion(
                        kind=KIND_RULE_NOTE,
                        text=(
                            f"the relaxation {match.rule.n3()} "
                            f"({match.rule.origin}) contributed answers"
                        ),
                        score=min(1.0, match.rule.weight),
                    )
        return sorted(by_rule.values(), key=Suggestion.sort_key)

    def suggest(self, query: Query, answers: AnswerSet | None = None) -> list[Suggestion]:
        """All suggestions for a query (and optionally its answers)."""
        suggestions = self.resource_suggestions(query)
        if answers is not None:
            suggestions.extend(self.rule_suggestions(answers))
        suggestions.sort(key=Suggestion.sort_key)
        return suggestions
