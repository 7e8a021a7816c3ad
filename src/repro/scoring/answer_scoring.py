"""Answer-level score combination.

Per-pattern scores combine multiplicatively (the query-likelihood of a
conjunction) and the rewriting weight attenuates the product.  Because the
same answer can be obtained through multiple relaxation sequences, the
execution core's aggregator (:class:`~repro.topk.idspace.IdAggregator`)
keeps the *maximal* score over all derivations, as Section 4 specifies.
"""

from __future__ import annotations

import math
from typing import Iterable

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


def score_product(weight: float, factors: Iterable[float]) -> float:
    """``weight · f_0 · f_1 ⋯``, multiplied left to right.

    Rank joins compute every combination score *and* every upper bound
    through this one function, in stream order.  Float multiplication is
    not associative, but IEEE rounding is monotone in each argument, so a
    bound whose factors dominate a combination's factors position by
    position dominates its score — a bound multiplied in another order can
    round one ulp below the scores it is meant to cover.
    """
    for factor in factors:
        weight *= factor
    return weight
