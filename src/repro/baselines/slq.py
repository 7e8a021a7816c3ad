"""SLQ-style schemaless graph querying on the curated KG.

Yang et al.'s SLQ (PVLDB 2014) matches query graphs against a data graph
through a library of *transformations* (synonym, abbreviation, ontology)
over node and edge labels, scoring matches by a weighted combination of
transformation similarities.  Our representative: each query pattern's
constants may be transformed into KG terms whose surface words overlap
(token-set similarity), the transformed conjunctive query is evaluated
exactly, and the answer score is the product of transformation similarities.

No XKG and no structural relaxation — the two TriniT capabilities the paper
positions against this family ("both of these projects assume a fixed
dataset ... none of this related work considers the power of query
relaxation").
"""

from __future__ import annotations

import itertools

from repro.baselines.exhaustive import naive_join
from repro.core.query import Query
from repro.core.terms import Resource, Term, TextToken, Variable
from repro.core.triples import TriplePattern
from repro.scoring.language_model import PatternScorer
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore
from repro.util.text import camel_to_words, dice, stem, tokenize_phrase


def _label_tokens(term: Term) -> frozenset[str]:
    if isinstance(term, Resource):
        text = camel_to_words(term.name)
    else:
        text = term.lexical()
    return frozenset(stem(tok) for tok in tokenize_phrase(text) if len(tok) > 1)


class SlqBaseline:
    """Transformation-based matching over one KG store."""

    name = "slq-schemaless"

    def __init__(
        self,
        store: TripleStore,
        *,
        max_transformations_per_term: int = 4,
        min_similarity: float = 0.34,
        max_query_variants: int = 32,
    ):
        self.store = store
        self.scorer = PatternScorer(store)
        self.statistics = StoreStatistics(store)
        self.max_transformations_per_term = max_transformations_per_term
        self.min_similarity = min_similarity
        self.max_query_variants = max_query_variants
        # Label token index for every predicate and every entity in the KG.
        self._predicate_labels = [
            (p, _label_tokens(p)) for p in self.statistics.predicates()
        ]

    def _transformations(self, term: Term, is_predicate: bool) -> list[tuple[Term, float]]:
        """Candidate KG terms for a query constant, best first.

        Identity (similarity 1.0) is included when the term exists in the
        KG; otherwise only transformed candidates remain.
        """
        options: list[tuple[Term, float]] = []
        if self.store.dictionary.id_of(term) is not None:
            options.append((term, 1.0))
        query_tokens = _label_tokens(term)
        if query_tokens and is_predicate:
            for predicate, label in self._predicate_labels:
                if predicate == term or not label:
                    continue
                similarity = dice(set(query_tokens), set(label))
                if similarity >= self.min_similarity:
                    options.append((predicate, similarity))
        options.sort(key=lambda o: (-o[1], o[0].sort_key()))
        return options[: self.max_transformations_per_term]

    def _variants(self, query: Query) -> list[tuple[Query, float]]:
        """Transformed query variants with their similarity products."""
        per_pattern: list[list[tuple[TriplePattern, float]]] = []
        for pattern in query.patterns:
            slot_options: list[list[tuple[Term, float]]] = []
            for slot, term in enumerate(pattern.terms()):
                if isinstance(term, Variable):
                    slot_options.append([(term, 1.0)])
                else:
                    found = self._transformations(term, is_predicate=(slot == 1))
                    slot_options.append(found if found else [(term, 0.0)])
            combos = [
                (TriplePattern(s[0], p[0], o[0]), s[1] * p[1] * o[1])
                for s, p, o in itertools.product(*slot_options)
            ]
            combos = [c for c in combos if c[1] > 0.0]
            per_pattern.append(combos if combos else [(pattern, 0.0)])

        variants: list[tuple[Query, float]] = []
        for combination in itertools.product(*per_pattern):
            weight = 1.0
            patterns = []
            for pattern, similarity in combination:
                weight *= similarity
                patterns.append(pattern)
            if weight <= 0.0:
                continue
            try:
                variants.append((Query(patterns, query.projection, query.limit), weight))
            except Exception:
                continue
        variants.sort(key=lambda v: -v[1])
        return variants[: self.max_query_variants]

    def rank(self, query: Query, target: Variable, k: int) -> list[Term]:
        best: dict[Term, float] = {}
        for variant, weight in self._variants(query):
            for binding, score in naive_join(self.store, self.scorer, variant):
                for var, term in binding:
                    if var == target:
                        total = weight * score
                        if total > best.get(term, 0.0):
                            best[term] = total
                        break
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
        return [term for term, _score in ranked[:k]]
