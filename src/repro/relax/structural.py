"""Structural relaxation rules: inversions, granularity repair, KG↔token bridges.

These are the rules of Figure 4 that are not plain predicate synonymy:

* rule 2 — *predicate inversion*: ``?x hasAdvisor ?y → ?y hasStudent ?x``;
  detected from data when ``args(p)`` flipped coincides with ``args(q)``.
* rule 1 — *granularity repair*: ``?x bornIn ?y ; ?y type country →
  ?x bornIn ?z ; ?z type city ; ?z locatedIn ?y``; generated for predicates
  whose objects are fine-grained instances contained in coarse-grained ones.
* rules 3/4 — *KG→token bridges* are produced by the miners in
  :mod:`repro.relax.mining`; :func:`kg_to_token_bridge_rules` is a
  convenience wrapper restricting them to (KG predicate → token phrase).
"""

from __future__ import annotations

from repro.core.terms import Resource, Term, Variable
from repro.core.triples import TriplePattern
from repro.relax.mining import (
    PairIndex,
    mine_arg_overlap_rules,
    mine_chain_expansion_rules,
)
from repro.relax.rules import ORIGIN_STRUCTURAL, RelaxationRule
from repro.storage.statistics import StoreStatistics

_X, _Y, _Z = Variable("x"), Variable("y"), Variable("z")


def inversion_rules(
    statistics: StoreStatistics | PairIndex,
    *,
    min_support: int = 2,
    min_weight: float = 0.5,
) -> list[RelaxationRule]:
    """Detect inverse predicate pairs and emit inversion rules.

    For predicates p, q the candidate weight is
    ``|args(p) ∩ inv(args(q))| / |args(q)|`` — the fraction of q-pairs
    explained as flipped p-pairs.  True inverses in a consistent KG score
    1.0, which matches the weight of Figure 4 rule 2.

    No pair set is flipped or intersected: the support is the flipped
    co-occurrence count of the arg-overlap pass over ``args(p)``
    (:meth:`~repro.relax.mining.PairIndex.overlaps`) — each ``(s, o)`` of
    ``p`` counts for every ``q`` connecting ``(o, s)`` — so under a shared
    :class:`~repro.relax.mining.PairIndex` (the engine's default operators)
    inversions cost no pass of their own.
    """
    index = PairIndex.of(statistics)
    predicates = index.predicates
    rules: list[RelaxationRule] = []
    for i, p in enumerate(predicates):
        if not index.size(i):
            continue
        _forward, flipped = index.overlaps(p)
        for j, q in enumerate(predicates):
            if j == i or not index.size(j):
                continue
            support = flipped[j]
            if support < min_support:
                continue
            weight = support / index.size(j)
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


def granularity_rules(
    statistics: StoreStatistics,
    *,
    type_predicate: Term,
    containment_predicate: Term,
    fine_class: Term,
    coarse_class: Term,
    min_fine_fraction: float = 0.3,
    weight: float = 1.0,
) -> list[RelaxationRule]:
    """Emit Figure-4-rule-1-style granularity repairs.

    For every predicate ``p`` whose objects are predominantly instances of
    ``fine_class`` (e.g. city) while a user might constrain them to
    ``coarse_class`` (e.g. country), generate::

        ?x p ?y ; ?y type coarse  →  ?x p ?z ; ?z type fine ; ?z containment ?y

    The weight defaults to 1.0 — the rewrite is semantically exact whenever
    the containment predicate is transitive over the two classes, which is
    how the paper assigns rule 1 its weight.

    ``min_fine_fraction`` guards against generating the rule for predicates
    that rarely point at fine-class instances at all.
    """
    store = statistics.store
    fine_instances = {
        store.dictionary.require_id(entity)
        for entity in statistics.type_instances(fine_class, type_predicate)
    }
    if not fine_instances:
        return []
    rules: list[RelaxationRule] = []
    skip = {type_predicate, containment_predicate}
    for p in statistics.predicates():
        if p in skip:
            continue
        pairs = statistics.args(p)
        if not pairs:
            continue
        fine_objects = sum(1 for _s, o in pairs if o in fine_instances)
        if fine_objects / len(pairs) < min_fine_fraction:
            continue
        rules.append(
            RelaxationRule(
                original=(
                    TriplePattern(_X, p, _Y),
                    TriplePattern(_Y, type_predicate, coarse_class),
                ),
                replacement=(
                    TriplePattern(_X, p, _Z),
                    TriplePattern(_Z, type_predicate, fine_class),
                    TriplePattern(_Z, containment_predicate, _Y),
                ),
                weight=weight,
                origin=ORIGIN_STRUCTURAL,
                label=(
                    f"granularity {fine_class.lexical()}"
                    f"→{coarse_class.lexical()}"
                ),
            )
        )
    rules.sort(key=lambda r: r.n3())
    return rules


def kg_to_token_bridge_rules(
    statistics: StoreStatistics,
    *,
    min_support: int = 2,
    min_weight: float = 0.15,
    max_rules_per_predicate: int = 10,
) -> list[RelaxationRule]:
    """Mine rules that move query processing from the KG into the XKG.

    Combines (a) predicate rewrites whose target is a token phrase (Figure 4
    rule 4: ``affiliation → 'lectured at'``) and (b) chain expansions whose
    hop is a token phrase (rule 3: ``affiliation → affiliation ∘ 'housed
    in'``).  Sources are restricted to canonical (resource) predicates and
    targets to token predicates.
    """
    predicates = statistics.predicates()
    kg_predicates = [p for p in predicates if isinstance(p, Resource)]
    token_predicates = [p for p in predicates if p.is_token]
    if not kg_predicates or not token_predicates:
        return []

    index = PairIndex(statistics)
    rewrites = mine_arg_overlap_rules(
        index,
        min_support=min_support,
        min_weight=min_weight,
        max_rules_per_predicate=max_rules_per_predicate,
        predicates=kg_predicates,
    )
    rewrites = [
        r
        for r in rewrites
        if any(term.is_token for pat in r.replacement for term in pat.terms())
    ]
    chains = mine_chain_expansion_rules(
        index,
        source_predicates=kg_predicates,
        hop_predicates=token_predicates,
        min_support=min_support,
        min_weight=min_weight,
        max_rules_per_predicate=max_rules_per_predicate,
    )
    return rewrites + chains
