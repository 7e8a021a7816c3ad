"""Derived statistics over a frozen store, read off its posting index.

Relaxation-rule mining needs ``args(p)`` — the set of subject-object pairs a
predicate connects (Section 3 of the paper); query suggestion needs the
*context pairs* of a term in a slot to measure match overlap between a text
token and a candidate KG resource (Section 5).  Both are the term's
single-slot key group — its ``(p,)``, ``(s,)`` or ``(o,)`` postings in each
segment, plus the live delta's rows for that key — read as pairs of the
other two id columns (:meth:`~repro.storage.sharded.ShardedBackend.
slot_pairs`).  Nothing is swept or carried: every read asks the store as
it is, and its pair set lives no longer than the caller holds it.
Predicate masses read the store's *sort weights*, summed exactly per
predicate the first time an instance is asked and kept for its life.
"""

from __future__ import annotations

import math

from repro.core.terms import Term, Variable
from repro.core.triples import TriplePattern
from repro.errors import StorageError
from repro.storage.store import TripleStore

#: Slot indexes, for readability at call sites.
SUBJECT, PREDICATE, OBJECT = 0, 1, 2

#: Per slot: the lookup that binds it alone, and the two slots it leaves.
_BOUND = ((True, False, False), (False, True, False), (False, False, True))
_OTHERS = ((PREDICATE, OBJECT), (SUBJECT, OBJECT), (SUBJECT, PREDICATE))


def _check_slot(slot: int) -> None:
    if slot not in (SUBJECT, PREDICATE, OBJECT):
        raise StorageError(f"Slot must be 0, 1 or 2, got {slot}")


class StoreStatistics:
    """Aggregate views over a frozen :class:`TripleStore`.

    All returned collections use term *ids* internally but the public API
    speaks :class:`Term`; decoding happens lazily where needed.  The only
    state is the predicate-mass memo: everything else is a read of the
    store's index, so an instance costs nothing until asked.
    """

    def __init__(self, store: TripleStore):
        if not store.is_frozen:
            raise StorageError("Statistics require a frozen store")
        self.store = store
        self._mass: dict[int, float] | None = None

    def _slot_ids(self, slot: int) -> set[int]:
        _check_slot(slot)
        return self.store.slot_values(None, None, None, slot)

    # -- predicates ---------------------------------------------------------

    def _masses(self) -> dict[int, float]:
        """predicate id -> total sort weight for every predicate, each
        summed exactly (:func:`math.fsum`) over its ``(p,)`` group's
        weights, so it does not depend on arrival order.  Read the first
        time this instance is asked, kept for its life."""
        masses = self._mass
        if masses is None:
            key_weights = self.store.backend.key_weights
            masses = self._mass = {
                pid: math.fsum(key_weights(_BOUND[PREDICATE], (pid,)))
                for pid in self._slot_ids(PREDICATE)
            }
        return masses

    def predicates(self) -> list[Term]:
        """All distinct predicate terms, most-observed first (deterministic);
        like the masses, as of this instance's first read of them."""
        decode = self.store.dictionary.decode
        masses = self._masses()
        ordered = sorted(
            masses, key=lambda pid: (-masses[pid], decode(pid).sort_key())
        )
        return [decode(pid) for pid in ordered]

    def args(self, predicate: Term) -> frozenset[tuple[int, int]]:
        """``args(p)``: the set of (subject id, object id) pairs p connects
        — the predicate's context pairs.

        This is exactly the quantity the paper's mining weight
        ``w(p1 → p2) = |args(p1) ∩ args(p2)| / |args(p2)|`` is defined over.
        """
        return self.context_pairs(predicate, PREDICATE)

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
        _check_slot(slot)
        term_id = self.store.dictionary.id_of(term)
        if term_id is None:
            return frozenset()
        return self.store.backend.slot_pairs(_BOUND[slot], (term_id,), _OTHERS[slot])

    def context_size(self, term: Term, slot: int) -> int:
        """``len(context_pairs(term, slot))``, read as the size of the
        term's key group: each statement is one distinct pair."""
        _check_slot(slot)
        term_id = self.store.dictionary.id_of(term)
        if term_id is None:
            return 0
        return len(self.store.backend.postings(_BOUND[slot], (term_id,)))

    def shared_pairs(
        self, pairs: "set[tuple[int, int]] | frozenset[tuple[int, int]]", slot: int
    ) -> dict[Term, int]:
        """For each term in ``slot`` with one of ``pairs`` among its context
        pairs, how many: the ``slot`` values of the statements holding a
        pair in the other two slots, counted off those key groups."""
        _check_slot(slot)
        bound = [True, True, True]
        bound[slot] = False
        decode = self.store.dictionary.decode
        counts = self.store.backend.slot_counts(bound, list(pairs), slot)
        return {decode(term_id): count for term_id, count in counts.items()}

    def terms_in_slot(self, slot: int, kind: str | None = None) -> list[Term]:
        """Distinct terms occurring in ``slot``, optionally filtered by kind."""
        decode = self.store.dictionary.decode
        terms = (decode(term_id) for term_id in sorted(self._slot_ids(slot)))
        if kind is None:
            return list(terms)
        return [t for t in terms if t.kind == kind]

    def type_instances(self, class_term: Term, type_predicate: Term) -> list[Term]:
        """Entities ``e`` with ``e type_predicate class_term`` — taxonomy helper."""
        pattern = TriplePattern(Variable("x"), type_predicate, class_term)
        return [rec.triple.s for rec in self.store.matches(pattern)]
