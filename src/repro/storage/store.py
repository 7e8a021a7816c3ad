"""The triple store: the library's single source of truth for XKG data.

A :class:`TripleStore` is built in two phases.  During the *load* phase,
triples are :meth:`~TripleStore.add`-ed; duplicate statements accumulate
observation counts (the same fact extracted from ten documents is one
distinct triple observed ten times — the tf-like evidence the scoring model
uses) and keep the best confidence plus a bounded sample of provenances.
:meth:`~TripleStore.freeze` then builds the posting-list indexes; afterwards
the store is immutable and supports sorted access.

The physical index is one :class:`~repro.storage.sharded.ShardedBackend`
over columnar segments, which also owns the sort-weight column; the store
exposes the id-level accessors (:meth:`spo_ids`, :meth:`weight`,
:meth:`weights`, :meth:`postings_ids`) the id-space execution core runs on.

**Live ingestion.**  Freezing is no longer the end of the write path: an
:meth:`~TripleStore.add` against a frozen store routes the observation
into a mutable :class:`~repro.storage.delta.DeltaSegment` layered on top
of the frozen backend.  New statements get dense ids above the frozen id
space and are immediately visible to every lookup (the backend merges the
delta's score-sorted postings into its own); duplicate evidence for a
statement *already frozen* updates the record's count/confidence/
provenance metadata but leaves its sort weight — and so its place in the
frozen posting order — as it was when the statement was frozen.  Only an
in-memory :meth:`~TripleStore.rebuild` (how a store without a backing
directory compacts) re-sorts it by its current evidence.  On a
directory-backed store the frozen sort weight never changes: a generation
write (:mod:`repro.storage.compaction`) hardlinks the segment that holds
it, and a reopen or a :func:`~repro.storage.snapshot.save_snapshot` reads
and writes the backend's frozen weight column.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

from repro.core.terms import Term
from repro.core.triples import KG_PROVENANCE, Provenance, Triple, TriplePattern
from repro.errors import StorageError
from repro.storage.delta import DeltaSegment
from repro.storage.dictionary import TermDictionary
from repro.storage.sharded import ShardedBackend

#: How many distinct provenance records are retained per triple.  Answer
#: explanations show a sample of sources, not every one of potentially
#: thousands of documents.
MAX_PROVENANCES = 5


def exact_partials(values: Sequence[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of ``values``, so that
    ``math.fsum(partials + more)`` rounds the exact sum of ``values`` and
    ``more`` once, whatever their order.

    Each :func:`math.fsum` pass rounds the exact remainder; the remainder
    shrinks by the float precision per pass, so two or three C-speed passes
    usually end at a remainder of exactly zero.
    """
    partials: list[float] = []
    while True:
        remainder = math.fsum(chain(values, map(float.__neg__, partials)))
        if remainder == 0.0:
            return partials
        partials.append(remainder)


@dataclass
class StoredTriple:
    """A distinct triple with aggregated observation evidence."""

    triple: Triple
    count: int = 1
    confidence: float = 1.0
    provenances: list[Provenance] = field(default_factory=list)

    @property
    def weight(self) -> float:
        """Sort/score weight: observations × extraction confidence."""
        return self.count * self.confidence

    def add_provenance(self, provenance: Provenance | None) -> bool:
        """Append one provenance sample; return True if it was retained.

        This is the single code path enforcing the :data:`MAX_PROVENANCES`
        bound — both live :meth:`TripleStore.add` calls and the persistence
        loaders route through it, so no format (hand-edited or future) can
        inflate a record past the documented cap.
        """
        if provenance is None:
            return False
        if len(self.provenances) >= MAX_PROVENANCES:
            return False
        if provenance in self.provenances:
            return False
        self.provenances.append(provenance)
        return True


class TripleStore:
    """Dictionary-encoded triple store with score-sorted posting lists.

    Parameters
    ----------
    name:
        Label used in provenance descriptions and persistence headers.
    """

    #: Preferred posting-block granularity for the id-space execution
    #: kernels (``EngineConfig.block_size``).  A class attribute so stores
    #: assembled via ``__new__`` (snapshot restore, ``_adopt_frozen``)
    #: inherit the adaptive default without extra wiring; the engine
    #: overrides it per instance through :meth:`configure_blocks`.
    _block_size: int | None = None
    #: Postings an id-space cursor pulls per read of a lookup
    #: (``EngineConfig.merge_batch``); a class attribute for the same
    #: reason.  A store the engine never configured pulls 64 at a time.
    _merge_batch: int | None = 64

    def __init__(self, name: str = "XKG"):
        self.name = name
        self.dictionary = TermDictionary()
        self._triples: list[StoredTriple] = []
        self._by_key: dict[tuple[int, int, int], int] = {}
        self._backend = ShardedBackend()
        self._frozen = False
        self._closed = False
        self._pattern_total_cache: dict[object, float] = {}
        self._weight_levels: list[float] | None = None
        self._weight_partials: list[float] | None = None
        self._delta_records: list[StoredTriple] = []
        self._delta: DeltaSegment | None = None
        # Whether a frozen record has gained evidence since the store was
        # frozen or loaded: its metadata then differs from what the
        # snapshot it was loaded from holds.
        self._frozen_records_changed = False

    @classmethod
    def _adopt_frozen(
        cls,
        name: str,
        dictionary: TermDictionary,
        records: Sequence[StoredTriple],
        by_key: dict[tuple[int, int, int], int] | None,
        backend: ShardedBackend,
    ) -> "TripleStore":
        """Assemble an already-frozen store from restored parts.

        Entry point for the snapshot loader (:mod:`repro.storage.snapshot`):
        the backend arrives frozen with its posting structures intact, so no
        re-ingestion and no :meth:`freeze` re-sort happens — posting lists
        are byte-identical to the store the snapshot was written from.
        ``records`` may be a lazy sequence that materialises
        :class:`StoredTriple` objects on demand, and ``by_key`` may be
        ``None`` — the statement-lookup map is then derived from the backend
        columns on first :meth:`lookup`.
        """
        store = cls.__new__(cls)
        store.name = name
        store.dictionary = dictionary
        store._triples = records
        store._by_key = by_key
        store._backend = backend
        store._frozen = True
        store._closed = False
        store._pattern_total_cache = {}
        store._weight_levels = None
        store._weight_partials = None
        store._delta_records = []
        store._delta = None
        store._frozen_records_changed = False
        return store

    def _require_by_key(self) -> dict[tuple[int, int, int], int]:
        """The (s, p, o) id-triple → triple id map, derived lazily if absent."""
        by_key = self._by_key
        if by_key is None:
            slot_ids = self._backend.slot_ids
            total = len(self._triples) + len(self._delta_records)
            by_key = {slot_ids(tid): tid for tid in range(total)}
            self._by_key = by_key
        return by_key

    # -- load phase ------------------------------------------------------------

    def add(
        self,
        triple: Triple,
        provenance: Provenance | None = None,
        confidence: float = 1.0,
        count: int = 1,
    ) -> int:
        """Add one observation of ``triple``; return its triple id.

        Re-adding an existing statement increments its observation count,
        raises its confidence to the max seen, and appends the provenance
        (up to :data:`MAX_PROVENANCES` distinct records).

        Adding to a *frozen* store routes the observation into the mutable
        delta segment: brand-new statements get dense ids above the frozen
        id space and become visible to every lookup immediately, while
        duplicate evidence for an already-frozen statement only updates
        the record's metadata: its sort weight stays the one it was frozen
        with until an in-memory :meth:`rebuild`, and for good on a
        directory-backed store (see the module docstring).
        """
        if not 0.0 < confidence <= 1.0:
            raise StorageError(f"Confidence must be in (0, 1], got {confidence}")
        if count < 1:
            raise StorageError(f"Observation count must be >= 1, got {count}")
        if provenance is None:
            provenance = KG_PROVENANCE
        if self._frozen:
            return self._add_live(triple, provenance, confidence, count)
        key = (
            self.dictionary.encode(triple.s),
            self.dictionary.encode(triple.p),
            self.dictionary.encode(triple.o),
        )
        existing = self._by_key.get(key)
        if existing is not None:
            record = self._triples[existing]
            record.count += count
            record.confidence = max(record.confidence, confidence)
            record.add_provenance(provenance)
            return existing
        triple_id = len(self._triples)
        self._triples.append(
            StoredTriple(triple, count, confidence, [provenance])
        )
        self._by_key[key] = triple_id
        self._backend.insert(triple_id, key)
        return triple_id

    def _add_live(
        self,
        triple: Triple,
        provenance: Provenance,
        confidence: float,
        count: int,
    ) -> int:
        """Post-freeze write path: absorb one observation into the delta."""
        if self._closed:
            raise StorageError("Store is closed")
        # The dictionary is append-only (lazy snapshot dictionaries encode
        # new terms after materialising), so encoding live terms is safe.
        key = (
            self.dictionary.encode(triple.s),
            self.dictionary.encode(triple.p),
            self.dictionary.encode(triple.o),
        )
        by_key = self._require_by_key()
        base = len(self._triples)
        existing = by_key.get(key)
        if existing is not None:
            record = self.record(existing)
            record.count += count
            record.confidence = max(record.confidence, confidence)
            record.add_provenance(provenance)
            if existing >= base:
                # Delta statements re-sort live; frozen ones keep the
                # sort weight they were frozen with (module docstring).
                self._delta.update(existing, record.weight)
            else:
                self._frozen_records_changed = True
            self._pattern_total_cache.clear()
            return existing
        delta = self._delta
        if delta is None:
            delta = self._delta = DeltaSegment(base, self.dictionary.sort_key)
            self._backend.attach_delta(delta)
        triple_id = base + len(self._delta_records)
        record = StoredTriple(triple, count, confidence, [provenance])
        self._delta_records.append(record)
        by_key[key] = triple_id
        delta.add(triple_id, key, record.weight)
        self._pattern_total_cache.clear()
        return triple_id

    def add_all(
        self,
        triples: Sequence[Triple],
        provenance: Provenance | None = None,
        *,
        confidence: float = 1.0,
        count: int = 1,
    ) -> list[int]:
        """Bulk-add facts with shared provenance/confidence/count.

        The confidence and count apply to every triple in the batch, so bulk
        extension loading (one corpus chunk, one extractor confidence) does
        not need per-triple :meth:`add` calls.  Returns the triple ids in
        input order.
        """
        return [
            self.add(triple, provenance, confidence=confidence, count=count)
            for triple in triples
        ]

    def freeze(self) -> "TripleStore":
        """Finalise the store: sort posting lists into the canonical order
        (weight desc, tie key asc, id asc).  Returns self for chaining."""
        if self._frozen:
            raise StorageError("Store already frozen")
        self._backend.freeze(
            [record.weight for record in self._triples],
            sort_key=self.dictionary.sort_key,
        )
        self._frozen = True
        return self

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (mapped snapshot buffers, columns).

        After closing, lookups raise :class:`StorageError`; the distinct-
        triple records and the term dictionary stay readable so answers
        already materialised keep rendering.  Idempotent — the engine's
        context manager calls this on exit.
        """
        if self._closed:
            return
        self._closed = True
        self._delta = None
        # Lazy record tables hold views over the snapshot mapping; release
        # them before the backend unmaps the buffer.
        release = getattr(self._triples, "release", None)
        if release is not None:
            release()
        self._backend.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection ------------------------------------------------------------

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    @property
    def backend(self) -> ShardedBackend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def __len__(self) -> int:
        """Number of *distinct* triples (frozen + live delta)."""
        return len(self._triples) + len(self._delta_records)

    @property
    def delta_size(self) -> int:
        """Distinct statements living in the mutable delta (0 when none)."""
        return len(self._delta_records)

    @property
    def has_delta(self) -> bool:
        return bool(self._delta_records)

    @property
    def delta_version(self) -> int:
        """Monotonic version of the mutable delta segment (0 when none).

        Every accepted live write — a new statement *or* fresh evidence
        for a delta statement — bumps the version, so ``(generation,
        delta_version)`` names the exact data a query sees.  Result caches
        key on it: a changed version can change answers, an unchanged one
        cannot.  Resets with the delta itself at compaction (the
        generation number advances instead).
        """
        delta = self._delta
        return delta.version if delta is not None else 0

    def __contains__(self, triple: Triple) -> bool:
        key = self._encode_key(triple)
        return key is not None and key in self._require_by_key()

    def records(self) -> Iterator[StoredTriple]:
        """Iterate all stored records in id order (frozen, then delta)."""
        if not self._delta_records:
            return iter(self._triples)
        return chain(iter(self._triples), iter(self._delta_records))

    def record(self, triple_id: int) -> StoredTriple:
        if 0 <= triple_id < len(self._triples):
            return self._triples[triple_id]
        local = triple_id - len(self._triples)
        if 0 <= local < len(self._delta_records):
            return self._delta_records[local]
        raise StorageError(f"Unknown triple id: {triple_id}")

    def triple(self, triple_id: int) -> Triple:
        return self.record(triple_id).triple

    def weight(self, triple_id: int) -> float:
        if self._closed:
            raise StorageError("Store is closed")
        if not self._frozen:
            return self.record(triple_id).weight
        if not 0 <= triple_id < len(self):
            raise StorageError(f"Unknown triple id: {triple_id}")
        return self._backend.weight(triple_id)

    def weights(self) -> Sequence[float]:
        """The per-triple *sort* weight column (index parallel to triple ids),
        read off the backend (:meth:`ShardedBackend.weights`): with a live
        delta, ids above the frozen size read the delta's live weights.
        """
        if self._closed:
            raise StorageError("Store is closed")
        if not self._frozen:
            raise StorageError("Weights are materialised at freeze time")
        return self._backend.weights()

    def weight_below(self, weight: float) -> float | None:
        """The largest sort weight below ``weight`` any statement carries
        (``None`` when there is none).  Scores are monotone in the weight,
        so no lighter posting of any list can score above this weight's
        score: where that is below a tied run's score, every posting of
        that score is in the run — and the run is in tie-key order."""
        levels = self._weight_levels
        if levels is None:
            # The frozen column never changes; one sorted pass per store.
            levels = self._weight_levels = sorted(
                set(self._backend.frozen_weights)
            )
        position = bisect_left(levels, weight)
        below = levels[position - 1] if position else None
        if self._delta is not None:
            live = self._delta.weight_below(weight)
            if live is not None and (below is None or live > below):
                below = live
        return below

    @property
    def block_size(self) -> int | None:
        """Posting-block granularity for block-at-a-time execution.

        ``None`` (the default) adapts: cursors score exactly what each
        batched pull of the segment merge materialised.  ``1`` selects the
        per-item reference path (the property suite's oracle).
        """
        return self._block_size

    def configure_blocks(self, block_size: int | None) -> None:
        """Set the preferred posting-block size (``None`` = adaptive)."""
        if block_size is not None and block_size < 1:
            raise StorageError(
                f"Block size must be >= 1 or None, got {block_size}"
            )
        self._block_size = block_size

    @property
    def merge_batch(self) -> int | None:
        """Postings a cursor pulls per read of a lookup.

        ``None`` slow-starts each cursor (8, 8, 16, … up to 1024); ``1``
        pulls item at a time, the serial reference.  Each cursor copies it
        when it opens, so nothing changes mid-query.
        """
        return self._merge_batch

    def configure_pulls(self, merge_batch: int | None) -> None:
        """Set :attr:`merge_batch` (``None`` = adaptive)."""
        if merge_batch is not None and merge_batch < 1:
            raise StorageError(
                f"Merge batch must be >= 1 or None, got {merge_batch}"
            )
        self._merge_batch = merge_batch

    def spo_ids(self, triple_id: int) -> tuple[int, int, int]:
        """The (s, p, o) term ids of one stored triple.

        Validates the id; hot loops that walk trusted posting lists read
        ``backend.slot_ids`` / :meth:`weights` directly instead.
        """
        if not 0 <= triple_id < len(self):
            raise StorageError(f"Unknown triple id: {triple_id}")
        return self._backend.slot_ids(triple_id)

    def total_observations(self) -> float:
        """Collection-wide observation mass (for smoothing): the exact sum
        of every statement's weight, rounded once — a function of the
        statement set, not of the order statements arrived in.

        A frozen store reads its weight column once into exact partials
        (:func:`exact_partials`); a view with a live delta rounds those
        partials together with the delta's weights, so an ingest costs
        the delta, not the collection.
        """
        if not self._frozen:
            return math.fsum(record.weight for record in self._triples)
        partials = self._weight_partials
        if partials is None:
            partials = self._weight_partials = exact_partials(
                self._backend.frozen_weights
            )
        if self._delta is None:
            return math.fsum(partials)
        return math.fsum(chain(partials, self._delta.key_weights((), ())))

    # -- lookup ------------------------------------------------------------

    def _encode_key(self, triple: Triple) -> tuple[int, int, int] | None:
        ids = tuple(self.dictionary.id_of(t) for t in triple.terms())
        if any(i is None for i in ids):
            return None
        return ids  # type: ignore[return-value]

    def lookup(self, triple: Triple) -> StoredTriple | None:
        """Return the stored record for an exact statement, if present."""
        key = self._encode_key(triple)
        if key is None:
            return None
        triple_id = self._require_by_key().get(key)
        return None if triple_id is None else self.record(triple_id)

    def sorted_ids(self, pattern: TriplePattern) -> Sequence[int]:
        """Triple ids matching the pattern's *constant slots*, best first.

        Token constants match exactly (same normalised phrase); fuzzy token
        expansion is layered on top by :class:`~repro.storage.text_index.
        TokenMatcher`.  Patterns with repeated variables need post-filtering
        — use :meth:`matches` or filter via ``pattern.bind``.  The returned
        sequence is immutable and owned by the backend.
        """
        lookup = self._lookup_key(pattern)
        return () if lookup is None else self._backend.postings(*lookup)

    def _lookup_key(
        self, pattern: TriplePattern
    ) -> tuple[list[bool], tuple[int, ...]] | None:
        """The backend lookup of ``pattern``'s constant slots — which slots
        are bound, and their ids — or ``None`` when a constant is unknown."""
        if self._closed:
            raise StorageError("Store is closed")
        if not self._frozen:
            raise StorageError("Store must be frozen before lookup")
        bound = [t.is_constant for t in pattern.terms()]
        key: list[int] = []
        for term in pattern.terms():
            if term.is_constant:
                term_id = self.dictionary.id_of(term)
                if term_id is None:
                    return None
                key.append(term_id)
        return bound, tuple(key)

    def postings_ids(
        self, s: int | None, p: int | None, o: int | None
    ) -> Sequence[int]:
        """Score-sorted triple ids for an id-level lookup (None = unbound).

        :meth:`sorted_ids` for callers that already hold term ids — the
        id-space probes of a sub-join and of a join's tied band.
        """
        if self._closed:
            raise StorageError("Store is closed")
        if not self._frozen:
            raise StorageError("Store must be frozen before lookup")
        bound = (s is not None, p is not None, o is not None)
        key = tuple(i for i in (s, p, o) if i is not None)
        return self._backend.postings(bound, key)

    def slot_values(
        self, s: int | None, p: int | None, o: int | None, position: int
    ) -> set[int]:
        """The distinct term ids at ``position`` (an unbound one) of the
        statements an id-level lookup matches, read off the index's key
        groups — the values a probe walks, without merging a posting list."""
        if self._closed:
            raise StorageError("Store is closed")
        if not self._frozen:
            raise StorageError("Store must be frozen before lookup")
        bound = (s is not None, p is not None, o is not None)
        key = tuple(i for i in (s, p, o) if i is not None)
        return self._backend.slot_values(bound, key, position)

    def _has_repeated_variable(self, pattern: TriplePattern) -> bool:
        names = [t for t in pattern.terms() if t.is_variable]
        return len(names) != len(set(names))

    def matches(self, pattern: TriplePattern) -> list[StoredTriple]:
        """All records matching ``pattern`` exactly, best-scoring first."""
        ids = self.sorted_ids(pattern)
        if self._has_repeated_variable(pattern):
            return [
                self.record(i)
                for i in ids
                if pattern.bind(self.record(i).triple) is not None
            ]
        return [self.record(i) for i in ids]

    def cardinality(self, pattern: TriplePattern) -> int:
        """Number of distinct triples matching ``pattern``'s constants.

        Repeated-variable patterns are counted directly on the id columns —
        no :class:`StoredTriple` lists are materialised just to be measured
        (cardinality is called per pattern per sub-join ordering, so this
        sits on the planning path).
        """
        ids = self.sorted_ids(pattern)
        if not self._has_repeated_variable(pattern):
            return len(ids)
        first_position: dict[Term, int] = {}
        repeat_pairs: list[tuple[int, int]] = []
        for position, term in enumerate(pattern.terms()):
            if term.is_variable:
                seen_at = first_position.setdefault(term, position)
                if seen_at != position:
                    repeat_pairs.append((seen_at, position))
        slot_ids = self._backend.slot_ids
        total = 0
        for tid in ids:
            spo = slot_ids(tid)
            if all(spo[a] == spo[b] for a, b in repeat_pairs):
                total += 1
        return total

    def observation_mass(self, pattern: TriplePattern) -> float:
        """Total observation weight of the pattern's matches (idf-like
        term), summed exactly as :meth:`total_observations` is.

        The sum is order-free, so it reads each part's matches as they lie
        (:meth:`ShardedBackend.key_weights`) and merges no posting list; a
        pattern with no constant is the whole collection.  Cached per
        pattern since scoring asks repeatedly for the same pattern during
        top-k processing.
        """
        cache_key = (pattern.s, pattern.p, pattern.o)
        cached = self._pattern_total_cache.get(cache_key)
        if cached is not None:
            return cached
        lookup = self._lookup_key(pattern)
        if lookup is None:
            total = 0.0
        elif lookup[1]:
            total = math.fsum(self._backend.key_weights(*lookup))
        else:
            total = self.total_observations()
        self._pattern_total_cache[cache_key] = total
        return total

    # -- rebuild ------------------------------------------------------------

    def rebuild(self) -> "TripleStore":
        """An in-memory rebuild of this store: one fresh base segment.

        Records are re-added in id order (frozen records first, then any
        live delta records), so triple ids, dictionary ids, and posting
        orders are identical to a fresh build over the same statements —
        the rebuild is observationally transparent to query processing.
        This is also the path compaction uses to fold a delta into a fresh
        frozen store.
        """
        clone = TripleStore(self.name)
        for record in self.records():
            key = (
                clone.dictionary.encode(record.triple.s),
                clone.dictionary.encode(record.triple.p),
                clone.dictionary.encode(record.triple.o),
            )
            triple_id = len(clone._triples)
            clone._triples.append(
                StoredTriple(
                    record.triple,
                    record.count,
                    record.confidence,
                    list(record.provenances),
                )
            )
            clone._by_key[key] = triple_id
            clone._backend.insert(triple_id, key)
        if self._frozen:
            clone.freeze()
        return clone

