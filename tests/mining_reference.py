"""The rule miners as they were before they shared one pair index, kept
as their oracle.

Each function is the body :mod:`repro.relax.mining` and
:mod:`repro.relax.structural` once had: every miner reads each
predicate's pairs itself, arg overlap builds its own pair map, inversion
mining intersects flipped pair sets, and chain mining composes ``p∘q`` in
full for every candidate pair before it counts the support.  The engine's
miners must produce exactly these lists — ``repr``, weight bit for bit,
label, origin and order (``tests/relax/test_mining.py``).

Import as ``from mining_reference import ...`` (``tests/`` is on
``sys.path`` through its ``conftest.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.core.terms import Term, Variable
from repro.core.triples import TriplePattern
from repro.relax.rules import ORIGIN_MINED_XKG, ORIGIN_STRUCTURAL, RelaxationRule
from repro.storage.statistics import StoreStatistics

_X, _Y, _Z = Variable("x"), Variable("y"), Variable("z")


def _pattern(p: Term, s: Variable = _X, o: Variable = _Y) -> TriplePattern:
    return TriplePattern(s, p, o)


def reference_arg_overlap_rules(
    statistics: StoreStatistics,
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
        Store statistics exposing ``args(p)``.
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
    all_predicates = statistics.predicates()
    sources = list(predicates) if predicates is not None else all_predicates

    # Invert args: pair -> predicates connecting it.  This turns the naive
    # O(P^2) pair-set intersections into sparse co-occurrence counting.
    pair_to_preds: dict[tuple[int, int], list[Term]] = defaultdict(list)
    args_cache: dict[Term, frozenset[tuple[int, int]]] = {}
    for pred in all_predicates:
        pairs = statistics.args(pred)
        args_cache[pred] = pairs
        for pair in pairs:
            pair_to_preds[pair].append(pred)

    rules: list[RelaxationRule] = []
    for p1 in sources:
        p1_args = args_cache.get(p1)
        if p1_args is None:
            p1_args = statistics.args(p1)
        if not p1_args:
            continue
        overlap: dict[Term, int] = defaultdict(int)
        overlap_inv: dict[Term, int] = defaultdict(int)
        for s, o in p1_args:
            for p2 in pair_to_preds.get((s, o), ()):
                if p2 != p1:
                    overlap[p2] += 1
            if include_inversions:
                for p2 in pair_to_preds.get((o, s), ()):
                    if p2 != p1:
                        overlap_inv[p2] += 1

        candidates: list[tuple[float, int, Term, bool]] = []
        for p2, support in overlap.items():
            if support < min_support:
                continue
            weight = support / len(args_cache[p2])
            if weight >= min_weight:
                candidates.append((weight, support, p2, False))
        for p2, support in overlap_inv.items():
            if support < min_support:
                continue
            weight = support / len(args_cache[p2])
            if weight >= min_weight:
                candidates.append((weight, support, p2, True))

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


def reference_chain_expansion_rules(
    statistics: StoreStatistics,
    *,
    source_predicates: Iterable[Term] | None = None,
    hop_predicates: Iterable[Term] | None = None,
    min_support: int = 2,
    min_weight: float = 0.15,
    max_rules_per_predicate: int = 10,
    max_compose_size: int = 200_000,
) -> list[RelaxationRule]:
    """Mine ``?x p ?y → ?x p ?z ; ?z q ?y`` chain-expansion rules.

    For each source predicate ``p`` and hop predicate ``q``, the composition
    ``p∘q = {(x, y) : ∃z  p(x, z) ∧ q(z, y)}`` is computed; the rule weight is
    the confidence ``|p∘q ∩ args(p)| / |p∘q|`` that the two-hop path lands on
    pairs ``p`` itself connects.  This is how Figure 4 rule 3
    (affiliation → affiliation ∘ 'housed in') arises from data in which
    organisations are affiliated with institutes housed in universities.

    ``max_compose_size`` aborts pathological compositions (hub nodes) before
    they blow up quadratically.
    """
    all_predicates = statistics.predicates()
    sources = list(source_predicates) if source_predicates is not None else all_predicates
    hops = list(hop_predicates) if hop_predicates is not None else all_predicates

    # q's adjacency: subject id -> set of object ids.  A source that is
    # also a hop reuses the pairs read for its adjacency.
    hop_args = {q: statistics.args(q) for q in hops}
    hop_adjacency: dict[Term, dict[int, set[int]]] = {}
    for q, pairs in hop_args.items():
        adjacency: dict[int, set[int]] = defaultdict(set)
        for s, o in pairs:
            adjacency[s].add(o)
        hop_adjacency[q] = adjacency

    rules: list[RelaxationRule] = []
    for p in sources:
        p_args = hop_args.get(p)
        if p_args is None:
            p_args = statistics.args(p)
        if not p_args:
            continue
        candidates: list[tuple[float, int, Term]] = []
        for q in hops:
            if q == p:
                continue
            adjacency = hop_adjacency[q]
            composed: set[tuple[int, int]] = set()
            overflow = False
            for x, z in p_args:
                for y in adjacency.get(z, ()):
                    composed.add((x, y))
                    if len(composed) > max_compose_size:
                        overflow = True
                        break
                if overflow:
                    break
            if overflow or not composed:
                continue
            support = len(composed & p_args)
            # Smoothed confidence: pure overlap underestimates weight when
            # the KG is incomplete (the whole reason relaxation exists), so
            # one pseudo-count is granted to the overlap.
            weight = (support + 1) / (len(composed) + 2)
            if support >= min_support and weight >= min_weight:
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


def reference_inversion_rules(
    statistics: StoreStatistics,
    *,
    min_support: int = 2,
    min_weight: float = 0.5,
) -> list[RelaxationRule]:
    """Detect inverse predicate pairs and emit inversion rules.

    For predicates p, q the candidate weight is
    ``|args(p) ∩ inv(args(q))| / |args(q)|`` — the fraction of q-pairs
    explained as flipped p-pairs.  True inverses in a consistent KG score
    1.0, which matches the weight of Figure 4 rule 2.
    """
    rules: list[RelaxationRule] = []
    predicates = statistics.predicates()
    args = {p: statistics.args(p) for p in predicates}
    inverted = {q: frozenset((o, s) for s, o in pairs) for q, pairs in args.items()}
    for p in predicates:
        p_args = args[p]
        if not p_args:
            continue
        for q in predicates:
            if q == p:
                continue
            q_inv = inverted[q]
            if not q_inv:
                continue
            support = len(p_args & q_inv)
            if support < min_support:
                continue
            weight = support / len(q_inv)
            if weight < min_weight:
                continue
            rules.append(
                RelaxationRule(
                    original=(TriplePattern(_X, p, _Y),),
                    replacement=(TriplePattern(_Y, q, _X),),
                    weight=min(1.0, weight),
                    origin=ORIGIN_STRUCTURAL,
                    label=f"inversion support={support}",
                )
            )
    rules.sort(key=lambda r: (-r.weight, r.n3()))
    return rules
