"""Rule mining from the XKG itself.

Section 3 of the paper: "We generate a rule rewriting the XKG predicate p1 to
the XKG predicate p2 and assign it the weight
``w(p1 → p2) = |args(p1) ∩ args(p2)| / |args(p2)|``, where args(p) is the set
of subject-object pairs connected by p in the XKG."

Two mining procedures live here:

* :func:`mine_arg_overlap_rules` — the formula above, for same-direction and
  (optionally) inverted-argument predicate pairs.  This is what turns the
  redundancy between curated predicates and Open IE phrases (``affiliation``
  vs. ``'works at'``) into weighted rewrite rules.
* :func:`mine_chain_expansion_rules` — rules in the shape of Figure 4 rule 3
  (``?x affiliation ?y → ?x affiliation ?z ; ?z 'housed in' ?y``): a
  predicate is approximated by composing it with a second hop.  The weight is
  the confidence that the composed path lands on pairs the predicate itself
  connects.

Both, and :func:`~repro.relax.structural.inversion_rules`, count over one
:class:`PairIndex`: every predicate's ``args`` read once, in
``statistics.predicates()`` order, and each (subject, object) pair mapped to
the predicates connecting it.  The engine's default operators share one
index per registry run (``OperatorContext.pair_index``); a miner given plain
statistics builds its own.  Support is counted, never intersected:

* One pass over ``args(p1)`` counts, for every other predicate, the pairs it
  connects as they are and flipped.  The first count is arg overlap's
  support, the second both its inverted support and inversion mining's
  ``|args(p1) ∩ inv(args(p2))|``.
* A chain's support ``|p∘q ∩ args(p)|`` is counted without composing: a pair
  ``(x, y)`` of ``p`` counts for ``q`` when some ``z`` with ``(x, z)`` in
  ``args(p)`` has ``(z, y)`` in ``args(q)``.  Only a ``q`` whose support
  reaches ``min_support`` is composed at all, and composing stops once the
  composition is too large to pass: past ``max_compose_size``, or once
  ``(support + 1) / (|p∘q| + 2) < min_weight``.  The composition only grows
  and correctly rounded division is monotone in the denominator, so a
  candidate stopped early could never have passed: the stop is exact.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable

from repro.core.terms import Term, Variable
from repro.core.triples import TriplePattern
from repro.relax.rules import ORIGIN_MINED_XKG, RelaxationRule
from repro.storage.statistics import StoreStatistics

_X, _Y, _Z = Variable("x"), Variable("y"), Variable("z")

_FLIP = itemgetter(1, 0)


def _pattern(p: Term, s: Variable = _X, o: Variable = _Y) -> TriplePattern:
    return TriplePattern(s, p, o)


class PairIndex:
    """``args(p)`` of every store predicate, read once, and per (subject id,
    object id) pair the predicates connecting it.

    Counts are keyed by a predicate's position in :attr:`predicates` (the
    order ``statistics.predicates()`` gave), so counting hashes ints, not
    terms.  Per-predicate co-occurrence counts and adjacency are kept once
    computed: the miners sharing an index share them too.
    """

    def __init__(self, statistics: StoreStatistics):
        self.statistics = statistics
        self.predicates = statistics.predicates()
        self._position = {p: i for i, p in enumerate(self.predicates)}
        self._args: list[frozenset[tuple[int, int]]] = []
        connecting: dict[tuple[int, int], tuple[int, ...]] = {}
        for i, p in enumerate(self.predicates):
            pairs = statistics.args(p)
            self._args.append(pairs)
            shared = connecting.keys() & pairs
            connecting.update(dict.fromkeys(pairs - shared, (i,)))
            for pair in shared:
                connecting[pair] += (i,)
        self._connecting = connecting
        self._overlaps: dict[Term, tuple[Counter, Counter]] = {}
        self._successors: dict[Term, dict[int, list[int]]] = {}

    @classmethod
    def of(cls, statistics: "StoreStatistics | PairIndex") -> "PairIndex":
        """``statistics`` if it is an index already, else a new one over it."""
        return statistics if isinstance(statistics, PairIndex) else cls(statistics)

    def position(self, predicate: Term) -> int | None:
        """``predicate``'s position in :attr:`predicates`, ``None`` if the
        store does not list it."""
        return self._position.get(predicate)

    def args(self, predicate: Term) -> frozenset[tuple[int, int]]:
        """``args(predicate)``; a predicate the store does not list is read
        from the statistics each time."""
        i = self._position.get(predicate)
        return self.statistics.args(predicate) if i is None else self._args[i]

    def size(self, position: int) -> int:
        """``|args(p)|`` of the predicate at ``position``."""
        return len(self._args[position])

    def overlaps(self, predicate: Term) -> tuple[Counter, Counter]:
        """Per other predicate's position, how many of ``args(predicate)``
        it connects as they are, and how many flipped."""
        counts = self._overlaps.get(predicate)
        if counts is None:
            pairs = self.args(predicate)
            get = self._connecting.get
            forward = Counter(chain.from_iterable(filter(None, map(get, pairs))))
            flipped = Counter(
                chain.from_iterable(filter(None, map(get, map(_FLIP, pairs))))
            )
            i = self._position.get(predicate)
            forward.pop(i, None)
            flipped.pop(i, None)
            counts = self._overlaps[predicate] = (forward, flipped)
        return counts

    def successors(self, predicate: Term) -> dict[int, list[int]]:
        """``predicate``'s adjacency: subject id -> its object ids."""
        adjacency = self._successors.get(predicate)
        if adjacency is None:
            adjacency = self._successors[predicate] = {}
            for s, o in self.args(predicate):
                objects = adjacency.get(s)
                if objects is None:
                    adjacency[s] = [o]
                else:
                    objects.append(o)
        return adjacency

    def chain_support(self, p: Term, hops: set[int]) -> Counter:
        """``|p∘q ∩ args(p)|`` per position of a hop ``q``, counted without
        composing.

        A subject ``x`` with objects ``zs`` holds one pair ``(x, y)`` per
        ``y`` in ``zs``; it supports ``q`` when some ``(z, y)`` with ``z``
        in ``zs`` is a pair of ``q``.  Small ``zs`` look every ``(z, y)`` up
        in the pair map; a hub whose ``zs`` outnumber the hops walks each
        hop's adjacency from ``zs`` instead, which costs ``|hops|·|zs|``
        rather than ``|zs|²``.  Counts for non-hops and for ``p`` itself
        are the caller's to ignore.
        """
        get = self._connecting.get
        support: Counter = Counter()
        singles = []
        hop_adjacency = None
        for zs in self.successors(p).values():
            if len(zs) == 1:
                singles.append(zs[0])
            elif len(zs) <= len(hops):
                for y in zs:
                    support.update(
                        set(chain.from_iterable(filter(None, map(get, zip(zs, repeat(y))))))
                    )
            else:
                if hop_adjacency is None:
                    hop_adjacency = [
                        (i, self.successors(self.predicates[i])) for i in sorted(hops)
                    ]
                targets = set(zs)
                for i, adjacency in hop_adjacency:
                    reached: set[int] = set()
                    for z in zs:
                        ys = adjacency.get(z)
                        if ys:
                            reached.update(targets.intersection(ys))
                    support[i] += len(reached)
        # A subject with one object z: its one y is z, reached by a loop (z, z).
        support.update(chain.from_iterable(filter(None, map(get, zip(singles, singles)))))
        return support

    def compose(
        self, p: Term, q: Term, numerator: int, min_weight: float, max_size: int
    ) -> int | None:
        """``|p∘q|``, or ``None`` once the composition grows past
        ``max_size`` or ``numerator / (|p∘q| + 2)`` falls below
        ``min_weight`` — neither of which can be undone by growing."""
        adjacency = self.successors(q)
        composed: set[tuple[int, int]] = set()
        for x, zs in self.successors(p).items():
            for z in zs:
                ys = adjacency.get(z)
                if ys:
                    composed.update(zip(repeat(x), ys))
                    size = len(composed)
                    if size > max_size or numerator / (size + 2) < min_weight:
                        return None
        return len(composed)


def mine_arg_overlap_rules(
    statistics: StoreStatistics | PairIndex,
    *,
    min_support: int = 2,
    min_weight: float = 0.1,
    max_rules_per_predicate: int = 20,
    include_inversions: bool = True,
    predicates: Iterable[Term] | None = None,
) -> list[RelaxationRule]:
    """Mine predicate-rewrite rules weighted by argument overlap.

    Parameters
    ----------
    statistics:
        Store statistics exposing ``args(p)``, or a :class:`PairIndex` over
        them that several miners share.
    min_support:
        Minimum ``|args(p1) ∩ args(p2)|`` for a rule to be emitted.
        Singleton overlaps are almost always coincidence.
    min_weight:
        Minimum rule weight.
    max_rules_per_predicate:
        Per-p1 cap, keeping the highest-weight rules (deterministic ties).
    include_inversions:
        Also test flipped argument order, emitting ``?x p1 ?y → ?y p2 ?x``
        rules (Figure 4 rule 2 is of this shape).
    predicates:
        Restrict p1 to these predicates (default: all store predicates).

    Returns rules sorted by (p1, descending weight) — deterministic.
    """
    index = PairIndex.of(statistics)
    sources = list(predicates) if predicates is not None else index.predicates
    rules: list[RelaxationRule] = []
    for p1 in sources:
        if not index.args(p1):
            continue
        forward, flipped = index.overlaps(p1)
        candidates: list[tuple[float, int, Term, bool]] = []
        for counts, inverted in ((forward, False), (flipped, True)):
            if inverted and not include_inversions:
                break
            for position, support in counts.items():
                if support < min_support:
                    continue
                weight = support / index.size(position)
                if weight >= min_weight:
                    candidates.append(
                        (weight, support, index.predicates[position], inverted)
                    )

        candidates.sort(key=lambda c: (-c[0], -c[1], c[2].sort_key(), c[3]))
        for weight, support, p2, inverted in candidates[:max_rules_per_predicate]:
            replacement = (
                _pattern(p2, _Y, _X) if inverted else _pattern(p2, _X, _Y)
            )
            rules.append(
                RelaxationRule(
                    original=(_pattern(p1),),
                    replacement=(replacement,),
                    weight=min(1.0, weight),
                    origin=ORIGIN_MINED_XKG,
                    label=f"arg-overlap support={support}"
                    + (" inverted" if inverted else ""),
                )
            )
    return rules


def mine_chain_expansion_rules(
    statistics: StoreStatistics | PairIndex,
    *,
    source_predicates: Iterable[Term] | None = None,
    hop_predicates: Iterable[Term] | None = None,
    min_support: int = 2,
    min_weight: float = 0.15,
    max_rules_per_predicate: int = 10,
    max_compose_size: int = 200_000,
) -> list[RelaxationRule]:
    """Mine ``?x p ?y → ?x p ?z ; ?z q ?y`` chain-expansion rules.

    For each source predicate ``p`` and hop predicate ``q``, the rule weight
    is the confidence ``|p∘q ∩ args(p)| / |p∘q|`` that the two-hop path
    ``p∘q = {(x, y) : ∃z  p(x, z) ∧ q(z, y)}`` lands on pairs ``p`` itself
    connects.  This is how Figure 4 rule 3 (affiliation → affiliation ∘
    'housed in') arises from data in which organisations are affiliated
    with institutes housed in universities.  The support is counted off the
    pair index; only a pair that reaches ``min_support`` is composed, and
    only until it can no longer pass (see the module docstring).

    ``max_compose_size`` aborts pathological compositions (hub nodes) before
    they blow up quadratically.
    """
    index = PairIndex.of(statistics)
    sources = list(source_predicates) if source_predicates is not None else index.predicates
    hops = list(hop_predicates) if hop_predicates is not None else index.predicates

    positions = [index.position(q) for q in hops]
    listed = {i for i in positions if i is not None}

    rules: list[RelaxationRule] = []
    for p in sources:
        if not index.args(p):
            continue
        support_of = index.chain_support(p, listed)
        candidates: list[tuple[float, int, Term]] = []
        for q, position in zip(hops, positions):
            if q == p:
                continue
            support = 0 if position is None else support_of[position]
            if support < min_support:
                continue
            # Smoothed confidence: pure overlap underestimates weight when
            # the KG is incomplete (the whole reason relaxation exists), so
            # one pseudo-count is granted to the overlap.
            size = index.compose(p, q, support + 1, min_weight, max_compose_size)
            if not size:
                continue
            weight = (support + 1) / (size + 2)
            if weight >= min_weight:
                candidates.append((weight, support, q))
        candidates.sort(key=lambda c: (-c[0], -c[1], c[2].sort_key()))
        for weight, support, q in candidates[:max_rules_per_predicate]:
            rules.append(
                RelaxationRule(
                    original=(_pattern(p, _X, _Y),),
                    replacement=(
                        _pattern(p, _X, _Z),
                        _pattern(q, _Z, _Y),
                    ),
                    weight=min(1.0, weight),
                    origin=ORIGIN_MINED_XKG,
                    label=f"chain-expansion support={support}",
                )
            )
    return rules
