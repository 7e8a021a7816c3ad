"""Naive reference evaluation, independent of the top-k machinery.

:func:`naive_join` evaluates a query by plain backtracking over the store
with exact matching only — no relaxation, no token expansion, no pruning.
The strict-SPARQL and SLQ baselines answer with it, and tests compare the
:class:`~repro.topk.processor.TopKProcessor` (with relaxation disabled)
against it; any disagreement is a bug in cursors, the merge, the join, or
the bounds.

For reference semantics *with* relaxation, use a processor configured with
``exhaustive=True`` — same semantics as the adaptive processor, all early
termination disabled.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.results import BindingKey, binding_key
from repro.core.terms import Term, Variable
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore


def naive_join(
    store: TripleStore,
    scorer: PatternScorer,
    query: Query,
    limit: int | None = None,
) -> list[tuple[BindingKey, float]]:
    """All answers of ``query`` under exact matching, best score first.

    Results are (projection binding, score) pairs, deduplicated by binding
    with max-score semantics, sorted by (score desc, binding) — the same
    deterministic order the processor uses.
    """
    best: dict[BindingKey, float] = {}

    # Most selective pattern first keeps the backtracking tree small.
    ordered = sorted(query.patterns, key=store.cardinality)

    def backtrack(index: int, binding: dict[Variable, Term], score: float) -> None:
        if index == len(ordered):
            key = binding_key(
                {v: binding[v] for v in query.projection if v in binding}
            )
            if score > best.get(key, -1.0):
                best[key] = score
            return
        # Matching narrows with the current binding, but scoring is always
        # against the *original* pattern — the same emission model the
        # processor's per-pattern cursors use (a pattern's mass does not
        # depend on the join order).
        original = ordered[index]
        pattern = original.substitute(binding)
        for record in store.matches(pattern):
            local = pattern.bind(record.triple)
            if local is None:
                continue
            extended = dict(binding)
            extended.update(local)
            backtrack(
                index + 1, extended, score * scorer.score(original, record)
            )

    backtrack(0, {}, 1.0)
    ranked = sorted(
        best.items(),
        key=lambda kv: (
            -kv[1],
            tuple((var.name, term.sort_key()) for var, term in kv[0]),
        ),
    )
    return ranked if limit is None else ranked[:limit]
