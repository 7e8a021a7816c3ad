"""Answer scoring: query-likelihood language models over triple patterns.

Section 4 of the paper: a triple pattern is viewed as a document that emits
triples; the probability of a triple is proportional to its observation
frequency (tf-like) and inversely proportional to the pattern's total number
of matches (idf-like selectivity).  Relaxation weights attenuate scores, and
an answer obtainable through several derivations keeps the maximal score.
"""

from repro.scoring.language_model import PatternScorer, ScoringConfig
from repro.scoring.answer_scoring import combine_pattern_scores

__all__ = [
    "PatternScorer",
    "ScoringConfig",
    "combine_pattern_scores",
]
