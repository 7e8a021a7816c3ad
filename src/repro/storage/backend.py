"""The pluggable storage backend boundary.

The top-k machinery needs a narrow contract from physical storage: *given the
bound-slot signature and key of a triple pattern, enumerate matching triple
ids in descending score order*, plus O(1) id-level access to each triple's
slot ids and sort weight.  Everything above this boundary (cursors, rank
join, scoring) speaks integer ids only, so swapping the physical layout —
hash-bucketed posting lists, columnar arrays, later a sharded or persistent
backend — never touches query processing.

Three backends ship in-tree:

* :class:`DictBackend` — the original hash-index layout
  (:class:`~repro.storage.index.PostingIndex` underneath): one dict per
  bound-slot signature mapping key tuples to posting tuples.
* :class:`~repro.storage.columnar.ColumnarBackend` — compact parallel
  columns (``array('i')`` for s/p/o ids, ``array('d')`` for weights) with
  posting lists represented as index *ranges* into per-signature permutation
  arrays; lookups return zero-copy read-only memoryview slices.  This is
  also the layout the binary snapshot format (:mod:`repro.storage.snapshot`)
  maps back from disk.
* :class:`~repro.storage.sharded.ShardedBackend` — a segmented composite:
  triples hash-partitioned across N inner columnar segments, postings
  answered by a lazy k-way heap merge of the segments' score-sorted lists.

Backends register themselves in :data:`BACKENDS`; :func:`make_backend`
resolves a name (as carried by ``EngineConfig.storage_backend``) to a fresh
instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NoReturn, Protocol, Sequence, runtime_checkable

from repro.errors import StorageError
from repro.storage.index import PostingIndex

if TYPE_CHECKING:
    from repro.storage.delta import DeltaSegment


@runtime_checkable
class StorageBackend(Protocol):
    """Physical storage contract for one :class:`~repro.storage.store.TripleStore`.

    Build phase: :meth:`insert` every triple id with its (s, p, o) term ids,
    then :meth:`freeze` once with the per-triple sort weights.  After
    freezing the backend's *frozen* structures are immutable and lookups
    are allowed — until :meth:`close` releases whatever the backend holds
    (mapped snapshot buffers, segment columns); any use after that raises
    :class:`~repro.errors.StorageError`.

    Live ingestion rides on one optional extension: ``attach_delta(delta)``
    hooks a mutable :class:`~repro.storage.delta.DeltaSegment` (ids densely
    above the frozen size) into the lookup surface — ``postings`` merges
    the delta's score-sorted matches behind the same sequence interface,
    and the id-level accessors (:meth:`slot_ids` / :meth:`weight` /
    :meth:`count` / :meth:`__len__`) dispatch delta ids to it.  All three
    in-tree backends implement it; a backend without it simply cannot back
    a live store (``TripleStore`` raises on the first post-freeze add).
    """

    #: Registry name ("dict", "columnar", ...).
    name: str

    @property
    def is_frozen(self) -> bool: ...

    @property
    def closed(self) -> bool: ...

    def close(self) -> None:
        """Release held resources; idempotent.  Lookups afterwards raise."""
        ...

    def __len__(self) -> int:
        """Number of triples inserted."""
        ...

    def insert(self, triple_id: int, slot_ids: tuple[int, int, int]) -> None:
        """Register one triple.  Ids must arrive densely, in order."""
        ...

    def freeze(
        self, weights: Sequence[float], counts: Sequence[int] | None = None
    ) -> None:
        """Finalise: sort posting structures by (weight desc, triple id asc).

        ``counts`` is the optional per-triple observation-count column;
        backends may retain it (the columnar backend does, for
        introspection and future persistence) or ignore it.
        """
        ...

    def postings(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> Sequence[int]:
        """Score-sorted triple ids for a bound-slot lookup.

        The returned sequence is immutable (tuple or read-only memoryview);
        callers may hold it indefinitely without copying.
        """
        ...

    def segment_count(self) -> int:
        """Physical partitions one lookup fans out over (1 for monoliths)."""
        ...

    def distinct_keys(self, bound_slots: Sequence[bool]) -> list[tuple[int, ...]]:
        """All keys present for a signature (statistics and mining)."""
        ...

    def slot_ids(self, triple_id: int) -> tuple[int, int, int]:
        """The (s, p, o) term ids of one triple."""
        ...

    def weight(self, triple_id: int) -> float:
        """The sort weight the backend was frozen with."""
        ...

    def count(self, triple_id: int) -> int:
        """The observation count the backend was frozen with.

        Raises :class:`~repro.errors.StorageError` for unknown triple ids
        and when the backend was frozen without a counts column.
        """
        ...


class _ClosedData:
    """Placeholder swapped in for released columns and posting structures.

    Every access path through a closed backend lands on one of these, so
    use-after-close surfaces as :class:`StorageError` instead of a released
    memoryview's ``ValueError`` (mmap case) or silently-working stale data
    (in-memory case) — with zero per-access cost before close.
    """

    def _raise(self) -> NoReturn:
        raise StorageError("Storage backend is closed")

    def __getitem__(self, index: object) -> NoReturn:
        self._raise()

    def __len__(self) -> NoReturn:
        self._raise()

    def __iter__(self) -> NoReturn:
        self._raise()

    def get(self, *args: object) -> NoReturn:
        self._raise()

    def keys(self) -> NoReturn:
        self._raise()

    def values(self) -> NoReturn:
        self._raise()


_CLOSED = _ClosedData()


class DictBackend:
    """Hash-bucketed posting lists — the original storage layout."""

    name = "dict"

    def __init__(self) -> None:
        self._index = PostingIndex()
        self._keys: list[tuple[int, int, int]] = []
        self._weights: Sequence[float] = ()
        self._counts: Sequence[int] | None = None
        self._closed = False
        self._delta: DeltaSegment | None = None

    @property
    def delta(self) -> DeltaSegment | None:
        """The attached mutable delta segment, or ``None``."""
        return self._delta

    def attach_delta(self, delta: DeltaSegment) -> None:
        """Overlay a mutable delta on the frozen index (live ingestion)."""
        if not self.is_frozen:
            raise StorageError("Only a frozen backend can carry a delta")
        if self._closed:
            raise StorageError("Storage backend is closed")
        self._delta = delta

    @property
    def is_frozen(self) -> bool:
        return self._frozen_at_close if self._closed else self._index.is_frozen

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drop the index and columns; further lookups raise StorageError."""
        if self._closed:
            return
        self._frozen_at_close = self._index.is_frozen
        self._closed = True
        self._delta = None
        self._index = _CLOSED
        self._keys = _CLOSED
        self._weights = _CLOSED
        if self._counts is not None:
            self._counts = _CLOSED

    def __len__(self) -> int:
        n = len(self._keys)
        if self._delta is not None:
            n += len(self._delta)
        return n

    def insert(self, triple_id: int, slot_ids: tuple[int, int, int]) -> None:
        if triple_id != len(self._keys):
            raise StorageError(
                f"Triple ids must be dense: expected {len(self._keys)}, "
                f"got {triple_id}"
            )
        self._keys.append(slot_ids)
        self._index.insert(triple_id, slot_ids)

    def freeze(
        self, weights: Sequence[float], counts: Sequence[int] | None = None
    ) -> None:
        if len(weights) != len(self._keys):
            raise StorageError(
                f"{len(self._keys)} triples but {len(weights)} weights"
            )
        if counts is not None:
            if len(counts) != len(self._keys):
                raise StorageError(
                    f"{len(self._keys)} triples but {len(counts)} counts"
                )
            self._counts = tuple(counts)
        self._weights = tuple(weights)
        self._index.freeze(self._weights)

    def postings(
        self, bound_slots: Sequence[bool], key: tuple[int, ...]
    ) -> Sequence[int]:
        if self._closed:
            raise StorageError("Storage backend is closed")
        base = self._index.postings(bound_slots, key)
        if self._delta is None or not len(self._delta):
            return base
        from repro.storage.delta import overlay_postings

        return overlay_postings(
            base, len(self._keys), self._weights, self._delta, bound_slots, key
        )

    def segment_count(self) -> int:
        return 1

    def distinct_keys(self, bound_slots: Sequence[bool]) -> list[tuple[int, ...]]:
        if self._closed:
            raise StorageError("Storage backend is closed")
        keys = list(self._index.distinct_keys(bound_slots))
        if self._delta is not None and len(self._delta):
            known = set(keys)
            keys.extend(
                key
                for key in self._delta.distinct_keys(bound_slots)
                if key not in known
            )
        return keys

    def slot_ids(self, triple_id: int) -> tuple[int, int, int]:
        if self._delta is not None and triple_id >= len(self._keys):
            return self._delta.slot_ids(triple_id)
        return self._keys[triple_id]

    def weight(self, triple_id: int) -> float:
        if self._delta is not None and triple_id >= len(self._weights):
            return self._delta.weight(triple_id)
        return self._weights[triple_id]

    def count(self, triple_id: int) -> int:
        if self._delta is not None and triple_id >= len(self._keys):
            return self._delta.count(triple_id)
        if not 0 <= triple_id < len(self._keys):
            raise StorageError(f"Unknown triple id: {triple_id}")
        if self._counts is None:
            raise StorageError("Backend was frozen without a counts column")
        return self._counts[triple_id]


#: Name -> constructor registry.  The columnar backend registers itself on
#: import (see bottom of this module); third-party backends may register too.
BACKENDS: dict[str, type] = {DictBackend.name: DictBackend}


def register_backend(cls: type) -> type:
    """Register a backend class under its ``name``.  Usable as a decorator."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise StorageError(f"Backend {cls!r} has no string 'name' attribute")
    BACKENDS[name] = cls
    return cls


def make_backend(backend: "str | StorageBackend | None") -> StorageBackend:
    """Resolve a backend spec: None -> default, name -> new instance."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        cls = BACKENDS.get(backend)
        if cls is None:
            known = ", ".join(sorted(BACKENDS))
            raise StorageError(f"Unknown storage backend {backend!r} (have: {known})")
        return cls()
    if len(backend) or backend.is_frozen:
        raise StorageError("A shared backend instance must be empty and unfrozen")
    return backend


# Imported for the side effect of registering "columnar" and "sharded" in
# BACKENDS; the imports sit below the registry to avoid a cycle.
from repro.storage import columnar as _columnar  # noqa: E402,F401
from repro.storage import sharded as _sharded  # noqa: E402,F401

#: Backend used when a store is built without an explicit choice.  Columnar
#: is the compact, fast layout; "dict" remains available for comparison and
#: as the reference for backend-equivalence tests.
DEFAULT_BACKEND = "columnar"
