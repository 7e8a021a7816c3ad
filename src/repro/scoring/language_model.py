"""Query-likelihood scoring of triples against triple patterns.

The model (adapted from the paper and its companion [14]): a triple pattern
``q`` is a document emitting triples.  The emission probability of a matching
triple ``t`` is its share of the pattern's observation mass, smoothed with
the collection model::

    P(t | q) = (1 - λ) · w(t) / mass(q)  +  λ · w(t) / mass(collection)

where ``w(t) = observations(t) × confidence(t)``.  The first term carries
both paper effects: proportional to the triple's observation frequency
(tf-like) and inversely proportional to the pattern's total matches
(idf-like selectivity — a pattern with few matches concentrates its
probability mass).  Jelinek-Mercer smoothing keeps scores comparable across
patterns and strictly positive for any stored triple.

Because both terms are monotone in ``w(t)``, the store's weight-sorted
posting lists enumerate matches in exactly descending ``P(t | q)`` order —
the property sorted access in top-k processing relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.triples import TriplePattern
from repro.errors import ScoringError
from repro.storage.store import StoredTriple, TripleStore


@dataclass(frozen=True)
class ScoringConfig:
    """Scoring parameters.

    Attributes
    ----------
    smoothing:
        Jelinek-Mercer λ in [0, 1).  0 disables smoothing entirely.
    """

    smoothing: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.smoothing < 1.0:
            raise ScoringError(f"Smoothing must be in [0, 1), got {self.smoothing}")


class PatternScorer:
    """Computes P(triple | pattern) over one frozen store."""

    def __init__(self, store: TripleStore, config: ScoringConfig | None = None):
        if not store.is_frozen:
            raise ScoringError("PatternScorer requires a frozen store")
        self.store = store
        self.config = config if config is not None else ScoringConfig()
        self._collection_mass = store.total_observations()

    def pattern_mass(self, pattern: TriplePattern) -> float:
        """Total observation weight of the pattern's matches (cached)."""
        return self.store.observation_mass(pattern)

    def score(self, pattern: TriplePattern, record: StoredTriple) -> float:
        """P(record.triple | pattern) under the smoothed emission model.

        The caller guarantees the record matches the pattern; the score of a
        non-matching record is meaningless (but still finite).
        """
        return self.score_weight(pattern, record.weight)

    def score_weight(self, pattern: TriplePattern, weight: float) -> float:
        """P(t | pattern) for a match of the given observation weight.

        The id-space hot path calls this with weights read straight from the
        store's weight column; the float arithmetic is identical to
        :meth:`score`, which is what backend/execution equivalence tests
        rely on.
        """
        lam = self.config.smoothing
        mass = self.pattern_mass(pattern)
        foreground = weight / mass if mass > 0 else 0.0
        if lam == 0.0:
            return foreground
        background = (
            weight / self._collection_mass if self._collection_mass > 0 else 0.0
        )
        return (1.0 - lam) * foreground + lam * background

    def emission_model(self, pattern: TriplePattern) -> tuple[float, float, float]:
        """(λ, pattern mass, collection mass) for inlined per-weight scoring.

        Cursors that walk thousands of postings fetch these three constants
        once and compute ``(1-λ)·w/mass + λ·w/cmass`` locally, keeping the
        per-item cost at two multiplies — with bit-identical results to
        :meth:`score`.
        """
        return (
            self.config.smoothing,
            self.pattern_mass(pattern),
            self._collection_mass,
        )

    def max_score(self, pattern: TriplePattern) -> float:
        """Upper bound on P(t | pattern): the score of the best match.

        Returns 0.0 for patterns with no matches — relaxation is then the
        only way the pattern can contribute answers.
        """
        ids = self.store.sorted_ids(pattern)
        if not ids:
            return 0.0
        return self.score(pattern, self.store.record(ids[0]))

    def scored_matches(self, pattern: TriplePattern) -> list[tuple[float, StoredTriple]]:
        """All (score, record) matches, descending — exhaustive evaluation."""
        return [
            (self.score(pattern, record), record)
            for record in self.store.matches(pattern)
        ]
