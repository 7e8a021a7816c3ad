"""Derived statistics over a frozen store.

Relaxation-rule mining needs ``args(p)`` — the set of subject-object pairs a
predicate connects (Section 3 of the paper); query suggestion needs the
*context pairs* of a term in a slot to measure match overlap between a text
token and a candidate KG resource (Section 5).  Both are the same grow-only
per-slot context maps, accumulated here statement by statement in id
order: swept from the store once, on first use, or — in the engine's next
read view — extended from a built predecessor by only the statements that
arrived since.  Predicate masses read the store's *sort weights*, which
later evidence can move, so they are not carried along: each instance
sums them exactly, the first time it is asked.
"""

from __future__ import annotations

import math
from array import array

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
    ``previous=`` names statistics over the same statements minus a suffix
    (same term ids): if it is built, this instance extends its context maps
    copy-on-write by that suffix; if not, it is ignored and this instance
    stays lazy.  Built context maps are never written to again.
    """

    def __init__(
        self, store: TripleStore, *, previous: "StoreStatistics | None" = None
    ):
        if not store.is_frozen:
            raise StorageError("Statistics require a frozen store")
        self.store = store
        self._mass: dict[int, float] | None = None
        if previous is not None and previous.is_built:
            self._extend(previous)
            self._init_lazy(built=True)
        else:
            self._init_lazy()

    def _build(self) -> None:
        # Deferring the sweep (LazilyBuilt._ensure) keeps a cold
        # ``TriniT.open()`` with mining disabled from touching every
        # statement; it is "extend nothing with every statement".
        self._extend(None)

    def _extend(self, previous: "StoreStatistics | None") -> None:
        """Accumulate the statements ``previous`` does not cover (all, from
        None), reading the backend's id columns directly — no
        :class:`StoredTriple` records are materialised.  The per-slot maps
        of ``previous`` are shallow-copied and only the sets the new
        statements land in are copied."""
        store = self.store
        covered = len(store)
        slot_ids = store.backend.slot_ids
        start = 0 if previous is None else previous._covered
        rows = [slot_ids(tid) for tid in range(start, covered)]
        # slot -> term id -> set of context tuples (ids of the other 2 slots)
        context: list[dict[int, set[tuple[int, int]]]] = (
            [{}, {}, {}] if previous is None else list(previous._context)
        )
        if rows:
            for slot in (SUBJECT, PREDICATE, OBJECT):
                pairs = context[slot] = dict(context[slot])
                for term_id in {row[slot] for row in rows}:
                    pairs[term_id] = set(pairs.get(term_id, ()))
            by_subject, by_predicate, by_object = context
            for s, p, o in rows:
                by_subject[s].add((p, o))
                by_predicate[p].add((s, o))
                by_object[o].add((s, p))
        self._context = context
        self._covered = covered

    # -- predicates ---------------------------------------------------------

    def _masses(self) -> dict[int, float]:
        """predicate id -> total sort weight, each summed exactly
        (:func:`math.fsum`), so it does not depend on arrival order.  One
        pass over the weight column the first time this instance is asked
        (grouping it per predicate costs 8 bytes a statement, freed on
        return), kept for its life."""
        masses = self._mass
        if masses is None:
            store = self.store
            slot_ids = store.backend.slot_ids
            weights = store.weights()
            groups: dict[int, array[float]] = {}
            for tid in range(len(store)):
                pid = slot_ids(tid)[PREDICATE]
                group = groups.get(pid)
                if group is None:
                    group = groups[pid] = array("d")
                group.append(weights[tid])
            masses = {pid: math.fsum(group) for pid, group in groups.items()}
            self._mass = masses
        return masses

    def predicates(self) -> list[Term]:
        """All distinct predicate terms, most-observed first (deterministic)."""
        self._ensure()
        decode = self.store.dictionary.decode
        masses = self._masses()
        ordered = sorted(
            self._context[PREDICATE],
            key=lambda pid: (-masses.get(pid, 0.0), decode(pid).sort_key()),
        )
        return [decode(pid) for pid in ordered]

    def args(self, predicate: Term) -> frozenset[tuple[int, int]]:
        """``args(p)``: the set of (subject id, object id) pairs p connects
        — the predicate's context pairs.

        This is exactly the quantity the paper's mining weight
        ``w(p1 → p2) = |args(p1) ∩ args(p2)| / |args(p2)|`` is defined over.
        """
        return self.context_pairs(predicate, PREDICATE)

    def args_inverted(self, predicate: Term) -> frozenset[tuple[int, int]]:
        """``args(p)`` with each pair flipped — for mining inversion rules."""
        return frozenset((o, s) for s, o in self.args(predicate))

    def predicate_fanout(self, predicate: Term) -> int:
        """Number of distinct S-O pairs the predicate connects."""
        return len(self.args(predicate))

    def predicate_mass(self, predicate: Term) -> float:
        """Total observation weight across the predicate's triples."""
        pid = self.store.dictionary.id_of(predicate)
        return 0.0 if pid is None else self._masses().get(pid, 0.0)

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
