"""The storage backend boundary.

The top-k machinery needs a narrow contract from physical storage: *given the
bound-slot signature and key of a triple pattern, enumerate matching triple
ids in descending score order*, plus O(1) id-level access to each triple's
slot ids and sort weight.  Everything above this boundary (cursors, rank
join, scoring) speaks integer ids only, so the physical layout never touches
query processing.

There is one layout: :class:`~repro.storage.sharded.ShardedBackend` —
triples hash-partitioned across N frozen
:class:`~repro.storage.columnar.ColumnarBackend` segments (parallel id and
weight columns, posting lists as index ranges into per-signature permutation
arrays, mapped zero-copy from a snapshot directory), postings answered by a
lazy k-way merge of the segments' score-sorted lists plus the mutable delta
segment.  :class:`StorageBackend` is the typed seam that layout implements;
:func:`make_backend` resolves what ``TripleStore(backend=...)`` accepts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NoReturn, Protocol, Sequence, runtime_checkable

from repro.errors import StorageError

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

    Live ingestion: :meth:`attach_delta` hooks a mutable
    :class:`~repro.storage.delta.DeltaSegment` (ids densely above the
    frozen size) into the lookup surface — ``postings`` merges the delta's
    score-sorted matches behind the same sequence interface, and the
    id-level accessors (:meth:`slot_ids` / :meth:`weight` / :meth:`count` /
    :meth:`__len__`) dispatch delta ids to it.
    """

    #: Layout name, reported by ``TripleStore.backend_name`` and ``/healthz``.
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

        ``counts`` is the optional per-triple observation-count column.
        """
        ...

    def attach_delta(self, delta: "DeltaSegment") -> None:
        """Overlay the store's mutable delta segment on the frozen data."""
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
        """Physical partitions one lookup fans out over."""
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


def make_backend(backend: "str | StorageBackend | None") -> StorageBackend:
    """Resolve what ``TripleStore(backend=...)`` accepts to a fresh backend.

    ``None`` and ``"sharded"`` build a default-sized
    :class:`~repro.storage.sharded.ShardedBackend`; a ``ShardedBackend(n)``
    instance picks the segment count and must be empty and unfrozen.
    """
    # Imported here: sharded.py imports _CLOSED from this module.
    from repro.storage.sharded import ShardedBackend

    if backend is None or backend == ShardedBackend.name:
        return ShardedBackend()
    if not isinstance(backend, ShardedBackend):
        raise StorageError(
            f"Unknown storage backend {backend!r}: the one store layout is "
            f'"sharded" (ShardedBackend over columnar segments) — pass None, '
            f'"sharded" or a fresh ShardedBackend(n)'
        )
    if len(backend) or backend.is_frozen:
        raise StorageError("A shared backend instance must be empty and unfrozen")
    return backend
