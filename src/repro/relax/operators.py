"""The pluggable relaxation-operator API.

The paper: "TriniT has an API for relaxation operators, which administrators
and advanced users can use to plug in their code for generating relaxation
rules and their weights."  An operator is any callable taking the storage
context and returning an iterable of :class:`RelaxationRule`.  Operators are
registered (optionally via the :func:`operator` decorator) in an
:class:`OperatorRegistry`; the engine runs every enabled operator at setup
time and pools the rules into one :class:`RuleSet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Protocol

from repro.errors import OperatorError
from repro.relax.mining import PairIndex
from repro.relax.rules import RelaxationRule, RuleSet
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore


@dataclass
class OperatorContext:
    """Everything a rule generator may consult.

    Attributes
    ----------
    store:
        The frozen XKG triple store.
    statistics:
        :class:`StoreStatistics` over the store: reads of its posting
        index (``args(p)``, predicate order), each made when asked.
    params:
        Free-form configuration for the operator (thresholds, caps...).
    """

    store: TripleStore
    statistics: StoreStatistics
    params: dict = field(default_factory=dict)

    @cached_property
    def pair_index(self) -> PairIndex:
        """One :class:`~repro.relax.mining.PairIndex` over ``statistics``,
        built when an operator first asks: the miners of one registry run
        share its reads and counts."""
        return PairIndex(self.statistics)


class RelaxationOperator(Protocol):
    """An operator: context in, rules out."""

    def __call__(self, context: OperatorContext) -> Iterable[RelaxationRule]: ...


@dataclass
class _Registration:
    name: str
    func: RelaxationOperator
    enabled: bool = True
    description: str = ""


class OperatorRegistry:
    """Named registry of relaxation operators with enable/disable switches."""

    def __init__(self):
        self._operators: dict[str, _Registration] = {}

    def register(
        self,
        name: str,
        func: RelaxationOperator,
        *,
        enabled: bool = True,
        description: str = "",
    ) -> None:
        """Register ``func`` under ``name``; names must be unique."""
        if not name:
            raise OperatorError("Operator name must be non-empty")
        if name in self._operators:
            raise OperatorError(f"Operator already registered: {name!r}")
        if not callable(func):
            raise OperatorError(f"Operator {name!r} is not callable")
        self._operators[name] = _Registration(
            name, func, enabled, description or (func.__doc__ or "").strip()
        )

    def unregister(self, name: str) -> None:
        if name not in self._operators:
            raise OperatorError(f"No such operator: {name!r}")
        del self._operators[name]

    def enable(self, name: str, enabled: bool = True) -> None:
        if name not in self._operators:
            raise OperatorError(f"No such operator: {name!r}")
        self._operators[name].enabled = enabled

    def names(self) -> list[str]:
        return list(self._operators)

    def describe(self) -> list[tuple[str, bool, str]]:
        """(name, enabled, description) for every registered operator."""
        return [
            (reg.name, reg.enabled, reg.description)
            for reg in self._operators.values()
        ]

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def run(self, context: OperatorContext, into: RuleSet | None = None) -> RuleSet:
        """Run every enabled operator; pool the rules (dedup keeps max weight).

        A misbehaving operator (returning non-rules) raises
        :class:`OperatorError` naming the operator, so plug-in authors get a
        precise failure.
        """
        rules = into if into is not None else RuleSet()
        for reg in self._operators.values():
            if not reg.enabled:
                continue
            produced = reg.func(context)
            if produced is None:
                continue
            for item in produced:
                if not isinstance(item, RelaxationRule):
                    raise OperatorError(
                        f"Operator {reg.name!r} produced a "
                        f"{type(item).__name__}, expected RelaxationRule"
                    )
                rules.add(item)
        return rules


def operator(
    registry: OperatorRegistry, name: str, *, enabled: bool = True, description: str = ""
) -> Callable[[RelaxationOperator], RelaxationOperator]:
    """Decorator form of :meth:`OperatorRegistry.register`.

    >>> registry = OperatorRegistry()
    >>> @operator(registry, "noop")
    ... def no_rules(context):
    ...     return []
    >>> "noop" in registry
    True
    """

    def decorate(func: RelaxationOperator) -> RelaxationOperator:
        registry.register(name, func, enabled=enabled, description=description)
        return func

    return decorate
