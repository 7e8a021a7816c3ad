"""Derived statistics over a frozen store.

Relaxation-rule mining needs ``args(p)`` — the set of subject-object pairs a
predicate connects (Section 3 of the paper); query suggestion needs the
*context pairs* of a term in a slot to measure match overlap between a text
token and a candidate KG resource (Section 5).  Both are computed here, once,
from the frozen store, and exposed through cached accessors.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.terms import Term
from repro.core.triples import TriplePattern, Triple
from repro.core.terms import Variable
from repro.errors import StorageError
from repro.storage.store import TripleStore
from repro.util.lazy import LazilyBuilt

#: Slot indexes, for readability at call sites.
SUBJECT, PREDICATE, OBJECT = 0, 1, 2


class StoreStatistics(LazilyBuilt):
    """Aggregate views over a frozen :class:`TripleStore`.

    All returned collections use term *ids* internally but the public API
    speaks :class:`Term`; decoding happens lazily where needed.
    """

    def __init__(self, store: TripleStore):
        if not store.is_frozen:
            raise StorageError("Statistics require a frozen store")
        self.store = store
        self._init_lazy()

    def _build(self) -> None:
        # Deferring the build (LazilyBuilt._ensure) keeps a cold
        # ``TriniT.open()`` with mining disabled from sweeping the whole
        # store; the build itself reads the backend's id columns and the
        # weight column directly, so no :class:`StoredTriple` records are
        # materialised for it.
        store = self.store
        slot_ids = store.backend.slot_ids
        weights = store.weights()
        # predicate id -> set of (subject id, object id)
        args: dict[int, set[tuple[int, int]]] = defaultdict(set)
        # predicate id -> total observation weight
        pred_mass: dict[int, float] = defaultdict(float)
        # slot -> term id -> set of context tuples (ids of the other 2 slots)
        context: list[dict[int, set[tuple[int, int]]]] = [
            defaultdict(set),
            defaultdict(set),
            defaultdict(set),
        ]
        for tid in range(len(store)):
            s, p, o = slot_ids(tid)
            args[p].add((s, o))
            pred_mass[p] += weights[tid]
            context[SUBJECT][s].add((p, o))
            context[PREDICATE][p].add((s, o))
            context[OBJECT][o].add((s, p))
        self._args = args
        self._pred_mass = pred_mass
        self._context = context

    # -- predicates ---------------------------------------------------------

    def predicates(self) -> list[Term]:
        """All distinct predicate terms, most-observed first (deterministic)."""
        self._ensure()
        ordered = sorted(
            self._args,
            key=lambda pid: (-self._pred_mass[pid], self.store.dictionary.decode(pid).sort_key()),
        )
        return [self.store.dictionary.decode(pid) for pid in ordered]

    def args(self, predicate: Term) -> frozenset[tuple[int, int]]:
        """``args(p)``: the set of (subject id, object id) pairs p connects.

        This is exactly the quantity the paper's mining weight
        ``w(p1 → p2) = |args(p1) ∩ args(p2)| / |args(p2)|`` is defined over.
        """
        self._ensure()
        pid = self.store.dictionary.id_of(predicate)
        if pid is None:
            return frozenset()
        return frozenset(self._args.get(pid, ()))

    def args_inverted(self, predicate: Term) -> frozenset[tuple[int, int]]:
        """``args(p)`` with each pair flipped — for mining inversion rules."""
        return frozenset((o, s) for s, o in self.args(predicate))

    def predicate_fanout(self, predicate: Term) -> int:
        """Number of distinct S-O pairs the predicate connects."""
        return len(self.args(predicate))

    def predicate_mass(self, predicate: Term) -> float:
        """Total observation weight across the predicate's triples."""
        self._ensure()
        pid = self.store.dictionary.id_of(predicate)
        return 0.0 if pid is None else self._pred_mass.get(pid, 0.0)

    # -- per-slot context ------------------------------------------------------

    def context_pairs(self, term: Term, slot: int) -> frozenset[tuple[int, int]]:
        """Context tuples of ``term`` in ``slot``.

        For a subject this is its set of (predicate, object) pairs, for a
        predicate its (subject, object) pairs, for an object its
        (subject, predicate) pairs.  Query suggestion compares the context
        pairs of a text token with those of KG resources: large overlap means
        the token likely denotes that resource.
        """
        if slot not in (SUBJECT, PREDICATE, OBJECT):
            raise StorageError(f"Slot must be 0, 1 or 2, got {slot}")
        self._ensure()
        term_id = self.store.dictionary.id_of(term)
        if term_id is None:
            return frozenset()
        return frozenset(self._context[slot].get(term_id, ()))

    def terms_in_slot(self, slot: int, kind: str | None = None) -> list[Term]:
        """Distinct terms occurring in ``slot``, optionally filtered by kind."""
        if slot not in (SUBJECT, PREDICATE, OBJECT):
            raise StorageError(f"Slot must be 0, 1 or 2, got {slot}")
        self._ensure()
        decode = self.store.dictionary.decode
        terms = (decode(term_id) for term_id in sorted(self._context[slot]))
        if kind is None:
            return list(terms)
        return [t for t in terms if t.kind == kind]

    # -- selectivity helpers -----------------------------------------------------

    def pattern_selectivity(self, pattern: TriplePattern) -> float:
        """Fraction of the store matched by the pattern (0 when empty store)."""
        total = len(self.store)
        if total == 0:
            return 0.0
        return self.store.cardinality(pattern) / total

    def type_instances(self, class_term: Term, type_predicate: Term) -> list[Term]:
        """Entities ``e`` with ``e type_predicate class_term`` — taxonomy helper."""
        pattern = TriplePattern(Variable("x"), type_predicate, class_term)
        return [rec.triple.s for rec in self.store.matches(pattern)]
