"""Bounded enumeration of weighted query rewritings.

A derivation is a sequence of rule applications; its weight is the product of
the applied rules' weights.  The space of rewritings grows exponentially, so
the :class:`RewriteEngine` enumerates best-first (highest weight first) under
three budgets: maximum derivation depth, maximum number of rewritings, and a
minimum weight.  Deduplication is by the *canonical form* of the rewritten
query (its pattern multiset modulo variable renaming), keeping the
highest-weight derivation — which implements the paper's "the score of an
answer is the maximal one obtained through any sequence of relaxations" at
the rewriting level.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.query import Query
from repro.core.terms import Variable
from repro.core.triples import TriplePattern
from repro.relax.rules import RelaxationRule, RuleApplication, RuleSet


@dataclass(frozen=True)
class RewrittenQuery:
    """A query rewriting with its derivation and cumulative weight."""

    query: Query
    weight: float
    applications: tuple[RuleApplication, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.applications)

    @property
    def is_original(self) -> bool:
        return not self.applications

    def describe(self) -> str:
        if self.is_original:
            return f"original query (w=1)"
        steps = "; ".join(app.describe() for app in self.applications)
        return f"w={self.weight:.3f}: {steps}"


def canonical_form(query: Query) -> tuple:
    """A rewriting-dedup key: patterns with variables renamed canonically.

    Variables are numbered in order of first appearance across the sorted
    pattern renderings, so two rewritings differing only in fresh-variable
    names collapse to one key.
    """
    # Sort patterns by a rendering that ignores variable names, then number
    # variables by first appearance in that order.
    def skeleton(pattern: TriplePattern) -> tuple:
        return tuple(
            ("var",) if t.is_variable else (t.kind, t.lexical()) for t in pattern.terms()
        )

    ordered = sorted(query.patterns, key=skeleton)
    numbering: dict[Variable, int] = {}
    key_parts: list[tuple] = []
    for pattern in ordered:
        part: list[tuple] = []
        for term in pattern.terms():
            if isinstance(term, Variable):
                index = numbering.setdefault(term, len(numbering))
                part.append(("var", index))
            else:
                part.append((term.kind, term.lexical()))
        key_parts.append(tuple(part))
    return tuple(sorted(key_parts))


class RewriteEngine:
    """Best-first rewrite-space enumeration under budgets.

    Parameters
    ----------
    rules:
        The rules this engine applies, ordered best-first once, here: a
        later change to the set is not seen.  The top-k processor builds
        its engine over only the rules it routes to this level.
    max_depth:
        Maximum number of rule applications per derivation.
    max_rewrites:
        Maximum number of distinct rewritings returned (including the
        original query).
    min_weight:
        Rewritings lighter than this are pruned.
    """

    def __init__(
        self,
        rules: RuleSet,
        *,
        max_depth: int = 2,
        max_rewrites: int = 200,
        min_weight: float = 0.05,
        condition_checker: Callable[[TriplePattern], bool] | None = None,
    ):
        self.rules = rules
        self.max_depth = max_depth
        self.max_rewrites = max_rewrites
        self.min_weight = min_weight
        self.condition_checker = condition_checker
        self._active_rules: list[RelaxationRule] = rules.best_first()

    def rewrites(self, query: Query) -> list[RewrittenQuery]:
        """Enumerate rewritings, highest weight first.

        The original query is always first (weight 1.0).  Enumeration is
        exact best-first: a max-heap keyed by weight, so the ``max_rewrites``
        budget keeps the globally best rewritings, not an arbitrary subset.
        """
        return list(self.iter_rewrites(query))

    def iter_rewrites(
        self,
        query: Query,
        condition_checker: Callable[[TriplePattern], bool] | None = None,
    ) -> Iterator[RewrittenQuery]:
        """Lazy best-first enumeration — the top-k processor consumes this
        incrementally and stops pulling once rewriting upper bounds fall
        below the current answer threshold ("invoking a relaxation only when
        it can contribute to the top-k answers").  ``condition_checker``,
        when given, checks rule conditions for this enumeration instead of
        the engine's own."""
        active_rules = self._active_rules
        if condition_checker is None:
            condition_checker = self.condition_checker
        counter = itertools.count()
        fresh_names = (f"fv{i}" for i in itertools.count())
        heap: list[tuple[float, int, RewrittenQuery]] = []
        root = RewrittenQuery(query, 1.0, ())
        heapq.heappush(heap, (-1.0, next(counter), root))
        emitted: set[tuple] = set()
        produced = 0
        while heap and produced < self.max_rewrites:
            neg_weight, _order, item = heapq.heappop(heap)
            weight = -neg_weight
            key = canonical_form(item.query)
            if key in emitted:
                continue
            emitted.add(key)
            yield item
            produced += 1
            if item.depth >= self.max_depth:
                continue
            for rule in active_rules:
                child_weight = weight * rule.weight
                if child_weight < self.min_weight:
                    continue  # rules are weight-sorted per rule, not combined
                for application in rule.apply(
                    item.query, fresh_names, condition_checker
                ):
                    child_key = canonical_form(application.query)
                    if child_key in emitted:
                        continue
                    child = RewrittenQuery(
                        application.query,
                        child_weight,
                        item.applications + (application,),
                    )
                    heapq.heappush(heap, (-child_weight, next(counter), child))
