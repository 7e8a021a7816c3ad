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

Reads hand out **immutable snapshots**: :meth:`DeltaSegment.posting_part`
returns a :class:`DeltaPart` whose posting order and weights are fixed at
capture time (weights are snapshot per delta *version*), so a merge can
keep consuming a part while concurrent ``add_all`` calls grow the delta —
later additions simply aren't in that part.  Mutations are serialised by
an internal lock; every mutation bumps ``version``, invalidating the
per-``(signature, key)`` part cache.

Deltas are folded into frozen columnar segments by background compaction
(:mod:`repro.storage.compaction`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import Callable, NamedTuple, Sequence

from repro.errors import StorageError
from repro.storage.index import signature_of

#: Per-(signature, key) posting snapshots cached on the delta; cleared
#: wholesale past this size so a scan-heavy workload over a long-lived
#: delta cannot grow the cache without bound.
_PART_CACHE_LIMIT = 256


class DeltaPart(NamedTuple):
    """One lookup's immutable slice of the delta, merge-ready.

    ``postings`` are delta-local positions in canonical (weight desc, tie
    key asc, gid asc) order; ``start`` is the delta's first global id
    (``gid = start + local``); ``weights`` is a *snapshot* indexed by global id, frozen at
    the delta version the part was captured at — a merge that ordered its
    heap by these keys stays internally consistent even if the live delta
    is updated mid-merge; ``columns`` are the s/p/o term-id columns
    (local-indexed) the merge reads tie keys from.
    """

    postings: Sequence[int]
    start: int
    weights: "_DeltaWeights"
    columns: tuple[Sequence[int], Sequence[int], Sequence[int]]


class _DeltaWeights:
    """Immutable gid-indexed weight view over one delta version."""

    __slots__ = ("_base", "_weights")

    def __init__(self, base: int, weights: tuple[float, ...]):
        self._base = base
        self._weights = weights

    def __getitem__(self, gid: int) -> float:
        return self._weights[gid - self._base]

    def __len__(self) -> int:
        return len(self._weights)


class DeltaSegment:
    """Mutable in-memory segment holding live additions above ``base``.

    ``base`` is the size of the frozen id space the delta sits on top of;
    the delta's global ids are ``base, base + 1, ...`` in insertion order.
    The segment stores the per-triple ``(s, p, o)`` term ids, the sort
    weight and the observation count — everything the posting merge and
    the id-space accessors need; the full :class:`~repro.storage.store.
    StoredTriple` records stay with the store.  ``sort_key`` maps a term
    id to its tie key (the store's :meth:`TermDictionary.sort_key`).
    """

    def __init__(self, base: int, sort_key: Callable[[int], object]):
        if base < 0:
            raise StorageError(f"Delta base must be >= 0, got {base}")
        self._base = base
        self._sort_key = sort_key
        self._slots: list[tuple[int, int, int]] = []
        # Per local: the tie key (its terms' sort keys), fixed at add.
        self._ties: list[tuple] = []
        self._weights: list[float] = []
        # The distinct weights held, ascending, and how many triples hold
        # each — what weight_below bisects.
        self._levels: list[float] = []
        self._held: dict[float, int] = {}
        self._counts: list[int] = []
        self._version = 0
        self._lock = threading.RLock()
        # (sig, key) -> (version, DeltaPart | None)
        self._part_cache: dict = {}
        self._weights_snapshot: tuple[int, _DeltaWeights] | None = None

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
        return len(self._slots)

    # -- mutation ----------------------------------------------------------

    def add(
        self,
        gid: int,
        slot_ids: tuple[int, int, int],
        weight: float,
        count: int,
    ) -> None:
        """Absorb one new triple.  Ids must arrive densely above ``base``."""
        with self._lock:
            expected = self._base + len(self._slots)
            if gid != expected:
                raise StorageError(
                    f"Delta ids must be dense: expected {expected}, got {gid}"
                )
            self._slots.append(tuple(slot_ids))
            self._ties.append(tuple(map(self._sort_key, slot_ids)))
            self._weights.append(weight)
            self._hold(weight)
            self._counts.append(count)
            self._version += 1

    def update(self, gid: int, weight: float, count: int) -> None:
        """Re-weigh an existing delta triple (duplicate evidence arrived)."""
        with self._lock:
            local = gid - self._base
            if not 0 <= local < len(self._slots):
                raise StorageError(f"Unknown delta triple id: {gid}")
            self._release(self._weights[local])
            self._weights[local] = weight
            self._hold(weight)
            self._counts[local] = count
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
        if not 0 <= local < len(self._slots):
            raise StorageError(f"Unknown triple id: {gid}")
        return local

    def slot_ids(self, gid: int) -> tuple[int, int, int]:
        return self._slots[self._local(gid)]

    def weight(self, gid: int) -> float:
        with self._lock:
            return self._weights[self._local(gid)]

    def count(self, gid: int) -> int:
        with self._lock:
            return self._counts[self._local(gid)]

    def weight_below(self, weight: float) -> float | None:
        """The largest delta weight below ``weight`` (``None``: none)."""
        with self._lock:
            position = bisect_left(self._levels, weight)
            return self._levels[position - 1] if position else None

    # -- lookup ------------------------------------------------------------

    def _weights_view(self) -> _DeltaWeights:
        with self._lock:
            snapshot = self._weights_snapshot
            if snapshot is None or snapshot[0] != self._version:
                snapshot = (
                    self._version,
                    _DeltaWeights(self._base, tuple(self._weights)),
                )
                self._weights_snapshot = snapshot
            return snapshot[1]

    def posting_part(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> DeltaPart | None:
        """Immutable merge-ready snapshot for one lookup; None when empty.

        Local postings are sorted by ``(-weight, tie key)``, stable over
        local order — the canonical order, since ``gid = base + local`` is
        monotone in ``local``.
        """
        sig = signature_of(bound_slots)
        if sig and len(key) != len(sig):
            raise StorageError(
                f"Key arity {len(key)} does not match signature {sig}"
            )
        with self._lock:
            if not self._slots:
                return None
            cache_key = (sig, tuple(key))
            cached = self._part_cache.get(cache_key)
            if cached is not None and cached[0] == self._version:
                return cached[1]
            weights = self._weights
            slots = self._slots
            matches = [
                local
                for local, spo in enumerate(slots)
                if all(spo[slot] == key[i] for i, slot in enumerate(sig))
            ]
            if matches:
                ties = self._ties
                matches.sort(key=lambda local: (-weights[local], ties[local]))
                part = DeltaPart(
                    tuple(matches),
                    self._base,
                    self._weights_view(),
                    tuple(zip(*slots)),
                )
            else:
                part = None
            if len(self._part_cache) >= _PART_CACHE_LIMIT:
                self._part_cache.clear()
            self._part_cache[cache_key] = (self._version, part)
            return part
