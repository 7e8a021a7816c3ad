"""Shared utilities: text normalisation and seeded randomness."""

from repro.util.text import (
    normalize_phrase,
    normalize_token,
    stem,
    tokenize_phrase,
    jaccard,
    dice,
    overlap_coefficient,
)
from repro.util.rand import SeededRng, stable_hash

__all__ = [
    "normalize_phrase",
    "normalize_token",
    "stem",
    "tokenize_phrase",
    "jaccard",
    "dice",
    "overlap_coefficient",
    "SeededRng",
    "stable_hash",
]
