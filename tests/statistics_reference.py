"""The statement sweep that store statistics replace, kept as their oracle.

:class:`SweptStatistics` walks every statement in id order into three
maps — slot -> term id -> set of context pairs — and groups the weight
column by predicate, exactly as ``StoreStatistics`` once did before it
read the store's posting index instead.  It answers the same reads
(``predicates``, ``args``, ``predicate_mass``, ``context_pairs``,
``context_size``, ``shared_pairs``, ``terms_in_slot``), so the miners and
the suggester run on it too.

Import as ``from statistics_reference import ...`` (``tests/`` is on
``sys.path`` through its ``conftest.py``).
"""

from __future__ import annotations

import math
from array import array

from repro.storage.statistics import PREDICATE, StoreStatistics
from repro.storage.store import TripleStore


class SweptStatistics:
    """Every read of :class:`StoreStatistics`, answered from one sweep of
    ``store`` taken at construction."""

    def __init__(self, store: TripleStore):
        self.store = store
        slot_ids = store.backend.slot_ids
        weights = store.weights()
        by_subject, by_predicate, by_object = self._context = ({}, {}, {})
        groups: dict[int, array] = {}
        for tid in range(len(store)):
            s, p, o = slot_ids(tid)
            by_subject.setdefault(s, set()).add((p, o))
            by_predicate.setdefault(p, set()).add((s, o))
            by_object.setdefault(o, set()).add((s, p))
            groups.setdefault(p, array("d")).append(weights[tid])
        self._mass = {pid: math.fsum(group) for pid, group in groups.items()}

    def predicates(self):
        decode = self.store.dictionary.decode
        ordered = sorted(
            self._context[PREDICATE],
            key=lambda pid: (-self._mass[pid], decode(pid).sort_key()),
        )
        return [decode(pid) for pid in ordered]

    def args(self, predicate):
        return self.context_pairs(predicate, PREDICATE)

    def predicate_mass(self, predicate):
        pid = self.store.dictionary.id_of(predicate)
        return self._mass.get(pid, 0.0)

    def context_pairs(self, term, slot):
        term_id = self.store.dictionary.id_of(term)
        return frozenset(self._context[slot].get(term_id, ()))

    def context_size(self, term, slot):
        return len(self.context_pairs(term, slot))

    def shared_pairs(self, pairs, slot):
        decode = self.store.dictionary.decode
        shared = {
            term_id: len(context & pairs)
            for term_id, context in self._context[slot].items()
        }
        return {decode(term_id): count for term_id, count in shared.items() if count}

    def terms_in_slot(self, slot, kind=None):
        decode = self.store.dictionary.decode
        terms = [decode(term_id) for term_id in sorted(self._context[slot])]
        return terms if kind is None else [t for t in terms if t.kind == kind]


def assert_reads_equal(statistics: StoreStatistics, extra_terms=()) -> None:
    """Every read of ``statistics`` equals the sweep's over its store:
    predicate order, masses bit for bit, ``args``, and per slot the terms,
    and the context pairs of every dictionary term (plus ``extra_terms``,
    which may be absent from the store), their sizes and, per term in the
    slot, how many of them it shares."""
    reference = SweptStatistics(statistics.store)
    predicates = reference.predicates()
    assert statistics.predicates() == predicates
    for predicate in predicates:
        assert statistics.predicate_mass(predicate) == reference.predicate_mass(predicate)
        assert statistics.args(predicate) == reference.args(predicate)
    terms = [*statistics.store.dictionary, *extra_terms]
    for slot in (0, 1, 2):
        assert statistics.terms_in_slot(slot) == reference.terms_in_slot(slot)
        for term in terms:
            pairs = reference.context_pairs(term, slot)
            assert statistics.context_pairs(term, slot) == pairs
            assert statistics.context_size(term, slot) == len(pairs)
            assert statistics.shared_pairs(pairs, slot) == reference.shared_pairs(pairs, slot)
