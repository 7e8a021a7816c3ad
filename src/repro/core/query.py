"""Conjunctive extended-triple-pattern queries.

A :class:`Query` is a set of conjunctively combined triple patterns plus a
projection list, exactly as in the paper: occurrences of the same variable in
multiple patterns denote joins; answers are bindings of the projection
variables.  The extended language allows text tokens in any slot of any
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.terms import Term, Variable
from repro.core.triples import TriplePattern
from repro.errors import QueryError


@dataclass(frozen=True)
class Query:
    """An immutable conjunctive query.

    Parameters
    ----------
    patterns:
        The triple patterns, evaluated as a conjunction.
    projection:
        Variables whose bindings constitute an answer.  Empty projection
        defaults to *all* variables of the query, in first-appearance order.
    limit:
        Requested number of answers (the ``k`` of top-k); engines may be
        asked for a different k at call time, this is the query's default.
    """

    patterns: tuple[TriplePattern, ...]
    projection: tuple[Variable, ...] = ()
    limit: int = 10

    def __init__(
        self,
        patterns: Iterable[TriplePattern],
        projection: Sequence[Variable] = (),
        limit: int = 10,
    ):
        patterns = tuple(patterns)
        if not patterns:
            raise QueryError("A query needs at least one triple pattern")
        if limit < 1:
            raise QueryError(f"Query limit must be >= 1, got {limit}")
        all_vars = _variables_in_order(patterns)
        projection = tuple(projection) if projection else all_vars
        unknown = [v for v in projection if v not in all_vars]
        if unknown:
            names = ", ".join(str(v) for v in unknown)
            raise QueryError(f"Projection variables not used in any pattern: {names}")
        if len(set(projection)) != len(projection):
            raise QueryError("Duplicate projection variable")
        if not _is_connected(patterns) and len(patterns) > 1:
            raise QueryError(
                "Query patterns must be connected via shared variables "
                "(a cartesian product is almost never intended)"
            )
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "limit", limit)

    def __hash__(self) -> int:
        # A query keys its processor's plans, looked up by every read and
        # re-keyed by every view that carries them: hash the patterns once.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.patterns, self.projection, self.limit))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # A string's hash differs between processes: pickle the fields only.
        return {
            "patterns": self.patterns,
            "projection": self.projection,
            "limit": self.limit,
        }

    # -- structure -------------------------------------------------------------

    def variables(self) -> tuple[Variable, ...]:
        """All distinct variables in first-appearance order."""
        return _variables_in_order(self.patterns)

    @property
    def has_token(self) -> bool:
        """True when any pattern carries a text token (extended-language query)."""
        return any(p.has_token for p in self.patterns)

    def join_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in more than one pattern (the join keys)."""
        counts: dict[Variable, int] = {}
        for pattern in self.patterns:
            for var in pattern.variables():
                counts[var] = counts.get(var, 0) + 1
        return tuple(v for v in _variables_in_order(self.patterns) if counts[v] > 1)

    # -- rewriting ---------------------------------------------------------------

    def replace_patterns(
        self,
        old: Sequence[TriplePattern],
        new: Sequence[TriplePattern],
    ) -> "Query":
        """Return a new query with ``old`` patterns swapped for ``new``.

        This is the primitive a relaxation-rule application uses.  Pattern
        order is preserved: the first replaced position receives the new
        patterns, later replaced positions are dropped.
        """
        old_set = list(old)
        for pattern in old_set:
            if pattern not in self.patterns:
                raise QueryError(f"Pattern not in query: {pattern}")
        result: list[TriplePattern] = []
        inserted = False
        for pattern in self.patterns:
            if pattern in old_set:
                old_set.remove(pattern)
                if not inserted:
                    result.extend(new)
                    inserted = True
                continue
            result.append(pattern)
        projection = tuple(
            v for v in self.projection if any(v in p.variables() for p in result)
        )
        if not projection:
            raise QueryError("Rewriting removed all projection variables")
        return Query(result, projection, self.limit)

    def substitute(self, binding: Mapping[Variable, Term]) -> "Query":
        """Substitute constants for variables across all patterns."""
        new_patterns = [p.substitute(binding) for p in self.patterns]
        projection = tuple(v for v in self.projection if v not in binding)
        if not projection:
            projection = _variables_in_order(tuple(new_patterns))
        if not projection:
            raise QueryError("Substitution left no variables to project")
        return Query(new_patterns, projection, self.limit)

    # -- rendering ---------------------------------------------------------------

    def n3(self) -> str:
        """Render in the parser's textual syntax."""
        body = " ; ".join(p.n3() for p in self.patterns)
        proj = " ".join(v.n3() for v in self.projection)
        return f"SELECT {proj} WHERE {body}"

    def __str__(self) -> str:
        return self.n3()

    def __len__(self) -> int:
        return len(self.patterns)


def _variables_in_order(patterns: tuple[TriplePattern, ...]) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for pattern in patterns:
        for var in pattern.variables():
            seen.setdefault(var, None)
    return tuple(seen)


def _is_connected(patterns: tuple[TriplePattern, ...]) -> bool:
    """True when the patterns form one connected component via shared variables.

    Patterns without variables (fully bound assertions) attach to any
    component, so they never break connectivity.
    """
    with_vars = [p for p in patterns if p.variables()]
    if len(with_vars) <= 1:
        return True
    remaining = list(range(1, len(with_vars)))
    component_vars = set(with_vars[0].variables())
    grew = True
    while grew and remaining:
        grew = False
        for idx in list(remaining):
            pattern_vars = set(with_vars[idx].variables())
            if pattern_vars & component_vars:
                component_vars |= pattern_vars
                remaining.remove(idx)
                grew = True
    return not remaining
