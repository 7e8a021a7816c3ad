"""Strict SPARQL-style evaluation on the curated KG.

What a user gets from a plain SPARQL endpoint: exact matching of every
triple pattern, no vocabulary translation, no extension data.  This is the
floor the paper's motivation section is about — users A–D all get empty or
wrong results here.  Ranking among exact matches uses the same
query-likelihood scores as TriniT so the comparison isolates *matching*
behaviour, not ranking tweaks.
"""

from __future__ import annotations

from repro.baselines.exhaustive import naive_join
from repro.core.query import Query
from repro.core.terms import Term, Variable
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore


class StrictSparqlBaseline:
    """Exact conjunctive evaluation over one (KG-only) store."""

    name = "strict-sparql"

    def __init__(self, store: TripleStore, scorer: PatternScorer | None = None):
        self.store = store
        self.scorer = scorer if scorer is not None else PatternScorer(store)

    def rank(self, query: Query, target: Variable, k: int) -> list[Term]:
        results = naive_join(self.store, self.scorer, query)
        ranked: list[Term] = []
        seen: set[Term] = set()
        for binding, _score in results:
            for var, term in binding:
                if var == target and term not in seen:
                    seen.add(term)
                    ranked.append(term)
                    break
            if len(ranked) >= k:
                break
        return ranked
