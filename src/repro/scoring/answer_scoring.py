"""Answer-level score aggregation.

Per-pattern scores combine multiplicatively (the query-likelihood of a
conjunction), the rewriting weight attenuates the product, and — because the
same answer can be obtained through multiple relaxation sequences — the
aggregator keeps the *maximal* score over all derivations, as Section 4
specifies.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.core.results import Answer, BindingKey, Derivation
from repro.errors import ScoringError


def combine_pattern_scores(scores: Iterable[float], rewriting_weight: float = 1.0) -> float:
    """Product of per-pattern scores, attenuated by the rewriting weight.

    All inputs must lie in [0, 1]; the result therefore does too, which the
    top-k bounds rely on.
    """
    result = rewriting_weight
    for score in scores:
        if score < 0.0 or score > 1.0 or math.isnan(score):
            raise ScoringError(f"Pattern score out of [0, 1]: {score}")
        result *= score
    return result


class AnswerAggregator:
    """Collects derivations, keeping the best score per answer binding.

    ``add`` returns the answer's current best score so callers can feed the
    top-k heap.  ``num_derivations`` counts how many distinct derivations
    produced each binding — surfaced in explanations ("also obtainable
    via ...").
    """

    def __init__(self):
        self._best: dict[BindingKey, tuple[float, Derivation]] = {}
        self._counts: dict[BindingKey, int] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: BindingKey) -> bool:
        return key in self._best

    def add(self, key: BindingKey, score: float, derivation: Derivation) -> float:
        """Record one derivation; return the binding's best known score."""
        self._counts[key] = self._counts.get(key, 0) + 1
        existing = self._best.get(key)
        if existing is None or score > existing[0]:
            self._best[key] = (score, derivation)
            return score
        return existing[0]

    def best_score(self, key: BindingKey) -> float | None:
        entry = self._best.get(key)
        return None if entry is None else entry[0]

    def best_scores(self, limit: int | None = None) -> list[tuple[BindingKey, float]]:
        """Every distinct binding with its best score (tracker rebuilds).

        ``limit`` is the tracker's new ``k`` — the id-space aggregator
        answers with its ``limit`` best; a superset serves the tracker
        equally, so the reference core hands over everything."""
        return [(key, entry[0]) for key, entry in self._best.items()]

    def ranked_answers(self, limit: int | None = None, start: int = 0) -> list[Answer]:
        """Answers sorted by (score desc, binding lexical) — deterministic.

        ``start`` slices off an already-emitted prefix (streaming windows).
        """
        items = [
            Answer(key, score, derivation, self._counts[key])
            for key, (score, derivation) in self._best.items()
        ]
        items.sort(
            key=lambda a: (
                -a.score,
                tuple((var.name, term.sort_key()) for var, term in a.binding),
            )
        )
        return items[start:] if limit is None else items[start:limit]
