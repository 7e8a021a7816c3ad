"""Mutable delta segment: the live write path over a frozen store.

The storage stack is freeze-once by construction — posting lists are
permutations computed at :meth:`~repro.storage.store.TripleStore.freeze`
time.  This module breaks that assumption the LSM way: a *delta segment*
is a small, mutable, in-memory segment that absorbs live additions while
the frozen segments keep serving reads untouched.  Delta triples get
**global ids densely above the frozen id space** (``gid = base + local``)
and the delta sorts its postings by the canonical key every segment
freezes with — weight desc, tie key asc (the terms' sort keys, looked up
per id in the store's dictionary: nothing is swept), id asc — so merging
the frozen posting lists with the delta's produces exactly the posting
order a fresh freeze over the union would, even for ingested terms that
sort between frozen ones: the byte-identity invariant live ingestion is
property-tested against.

Rows are indexed as they arrive: :meth:`DeltaSegment.add` appends the new
local id to one ``key -> [locals]`` list per signature, so a lookup costs
its matches, not the size of the delta — it reads its list and sorts
only those rows.

Reads hand out **immutable snapshots**: :meth:`DeltaSegment.posting_part`
returns a :class:`DeltaPart` whose posting order and weights are fixed at
capture time, so a merge can keep consuming a part while concurrent
``add_all`` calls grow the delta — later additions simply aren't in that
part.  Mutations are serialised by an internal lock; every mutation bumps
``version``.

Deltas are folded into frozen columnar segments by background compaction
(:mod:`repro.storage.compaction`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import StorageError
from repro.storage.index import SIGNATURES, signature_of


class DeltaPart(NamedTuple):
    """One lookup's immutable slice of the delta, merge-ready.

    ``postings`` are delta-local positions in canonical (weight desc, tie
    key asc, gid asc) order; ``start`` is the delta's first global id
    (``gid = start + local``); ``weights`` maps each of the part's global
    ids to its weight as of capture — a merge that ordered its heap by
    these keys stays internally consistent even if the live delta is
    updated mid-merge; ``columns`` are the delta's live s/p/o term-id
    columns (local-indexed, append-only, so every local of the part reads
    the value it had at capture), which the merge reads tie keys from.
    """

    postings: Sequence[int]
    start: int
    weights: Mapping[int, float]
    columns: tuple[Sequence[int], Sequence[int], Sequence[int]]


class DeltaSegment:
    """Mutable in-memory segment holding live additions above ``base``.

    ``base`` is the size of the frozen id space the delta sits on top of;
    the delta's global ids are ``base, base + 1, ...`` in insertion order.
    The segment stores the per-triple ``(s, p, o)`` term ids and sort
    weight — everything the posting merge and the id-space accessors
    need; the full :class:`~repro.storage.store.StoredTriple` records,
    observation counts included, stay with the store.  ``sort_key`` maps
    a term id to its tie key (the store's :meth:`TermDictionary.sort_key`).
    """

    def __init__(self, base: int, sort_key: Callable[[int], object]):
        if base < 0:
            raise StorageError(f"Delta base must be >= 0, got {base}")
        self._base = base
        self._sort_key = sort_key
        # The s, p and o term-id columns, local-indexed and append-only.
        self._columns: tuple[list[int], list[int], list[int]] = ([], [], [])
        # Per signature (the scan's ``()`` included): key -> its locals,
        # ascending.
        self._index: dict[tuple[int, ...], dict[tuple[int, ...], list[int]]] = {
            sig: {} for sig in ((), *SIGNATURES)
        }
        # Per local: the tie key (its terms' sort keys), fixed at add.
        self._ties: list[tuple] = []
        self._weights: list[float] = []
        # The distinct weights held, ascending, and how many triples hold
        # each — what weight_below bisects.
        self._levels: list[float] = []
        self._held: dict[float, int] = {}
        self._version = 0
        self._lock = threading.RLock()

    @property
    def base(self) -> int:
        """First global id owned by the delta (= frozen store size)."""
        return self._base

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every :meth:`add` / :meth:`update`."""
        with self._lock:
            return self._version

    def __len__(self) -> int:
        return len(self._ties)

    # -- mutation ----------------------------------------------------------

    def add(self, gid: int, slot_ids: tuple[int, int, int], weight: float) -> None:
        """Absorb one new triple.  Ids must arrive densely above ``base``."""
        with self._lock:
            local = len(self._ties)
            expected = self._base + local
            if gid != expected:
                raise StorageError(
                    f"Delta ids must be dense: expected {expected}, got {gid}"
                )
            for column, term in zip(self._columns, slot_ids):
                column.append(term)
            for sig, keys in self._index.items():
                key = tuple(map(slot_ids.__getitem__, sig))
                keys.setdefault(key, []).append(local)
            self._ties.append(tuple(map(self._sort_key, slot_ids)))
            self._weights.append(weight)
            self._hold(weight)
            self._version += 1

    def update(self, gid: int, weight: float) -> None:
        """Re-weigh an existing delta triple (duplicate evidence arrived)."""
        with self._lock:
            local = self._local(gid)
            self._release(self._weights[local])
            self._weights[local] = weight
            self._hold(weight)
            self._version += 1

    def _hold(self, weight: float) -> None:
        held = self._held.get(weight, 0)
        if not held:
            insort(self._levels, weight)
        self._held[weight] = held + 1

    def _release(self, weight: float) -> None:
        held = self._held[weight] - 1
        if held:
            self._held[weight] = held
        else:
            del self._held[weight]
            del self._levels[bisect_left(self._levels, weight)]

    # -- id-space accessors ------------------------------------------------

    def _local(self, gid: int) -> int:
        local = gid - self._base
        if not 0 <= local < len(self._ties):
            raise StorageError(f"Unknown triple id: {gid}")
        return local

    def slot_ids(self, gid: int) -> tuple[int, int, int]:
        local = self._local(gid)
        s, p, o = self._columns
        return s[local], p[local], o[local]

    def weight(self, gid: int) -> float:
        with self._lock:
            return self._weights[self._local(gid)]

    def weight_below(self, weight: float) -> float | None:
        """The largest delta weight below ``weight`` (``None``: none)."""
        with self._lock:
            position = bisect_left(self._levels, weight)
            return self._levels[position - 1] if position else None

    # -- lookup ------------------------------------------------------------

    def _matches(
        self, sig: tuple[int, ...], key: tuple[int, ...]
    ) -> Sequence[int]:
        if len(key) != len(sig):
            raise StorageError(
                f"Key arity {len(key)} does not match signature {sig}"
            )
        return self._index[sig].get(key, ())

    def posting_part(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> DeltaPart | None:
        """Immutable merge-ready snapshot for one lookup; None when empty.

        Local postings are sorted by ``(-weight, tie key)``, stable over
        local order — the canonical order, since ``gid = base + local`` is
        monotone in ``local``.
        """
        sig = signature_of(bound_slots)
        with self._lock:
            matches = self._matches(sig, key)
            if not matches:
                return None
            weights, ties, base = self._weights, self._ties, self._base
            postings = tuple(
                sorted(matches, key=lambda local: (-weights[local], ties[local]))
            )
            return DeltaPart(
                postings,
                base,
                {base + local: weights[local] for local in postings},
                self._columns,
            )

    def slot_values(
        self, sig: tuple[int, ...], key: tuple[int, ...], slot: int
    ) -> set[int]:
        """The distinct term ids at ``slot`` of the rows keyed ``key`` on
        signature ``sig``, read off the index (nothing is sorted)."""
        with self._lock:
            column = self._columns[slot]
            return {column[local] for local in self._matches(sig, key)}

    def slot_counts(
        self, sig: tuple[int, ...], keys: Iterable[tuple[int, ...]], slot: int
    ) -> Counter[int]:
        """How many rows keyed by one of ``keys`` on ``sig`` hold each id
        at ``slot``."""
        with self._lock:
            column = self._columns[slot]
            matches = self._index[sig].get
            return Counter(
                column[local] for key in keys for local in matches(key, ())
            )

    def slot_pairs(
        self, sig: tuple[int, ...], key: tuple[int, ...], slots: Sequence[int]
    ) -> list[tuple[int, int]]:
        """The ids at the two ``slots`` of each row keyed ``key`` on
        signature ``sig``, one pair per row."""
        with self._lock:
            first, second = (self._columns[slot] for slot in slots)
            return [(first[local], second[local]) for local in self._matches(sig, key)]

    def key_weights(
        self, sig: tuple[int, ...], key: tuple[int, ...]
    ) -> list[float]:
        """The current weights of the rows keyed ``key`` on ``sig``."""
        with self._lock:
            weights = self._weights
            return [weights[local] for local in self._matches(sig, key)]
