"""Background compaction: fold the mutable delta into frozen storage.

Live ingestion (:meth:`TripleStore.add` on a frozen store) accumulates
statements in an in-memory :class:`~repro.storage.delta.DeltaSegment`
that the posting merge treats as one more segment head.  The delta keeps
reads correct but not free — every posting pull re-sorts its keys against
the frozen heads — so once it grows past the engine's threshold it is
folded back into frozen, immutable storage here.

Two folding strategies, chosen by where the store lives:

* **Generation write** (:func:`write_generation`) — for stores loaded
  from a snapshot directory.  The delta becomes one new frozen
  columnar segment; the existing segment files are **hardlinked** (never
  copied, never rewritten) into a new ``generation-K`` directory next to
  a freshly written manifest and the new segment's container, and the
  root's ``CURRENT`` pointer is atomically swapped last.  A crash at any
  earlier point leaves the previous generation untouched and active.
  Readers that opened the old generation keep it: their mmaps reference
  the old files, which the swap does not disturb.

* **In-memory rebuild** (the fallback) — for stores with no backing
  directory.  :meth:`TripleStore.convert` re-adds every record in id order
  onto a fresh backend with the same segment count, which freezes into
  exactly the store a fresh build over the same statements would produce.

Both strategies preserve the byte-identity contract: within-segment
posting order is (weight desc, id asc) over densely assigned global ids,
and the delta's ids continue the frozen id space, so merging the new
segment reproduces the old (frozen + delta) merge order bit for bit.

Frozen *sort weights* are deliberately carried over unchanged by the
generation write: duplicate evidence arriving for an already-frozen
statement updates its record metadata (count, confidence, provenance —
persisted via the new manifest) but re-sorting the frozen postings for
the new weight would mean rewriting every segment file.  The in-memory
rebuild, which re-sorts anyway, folds those weight changes in.
"""

from __future__ import annotations

import shutil
from array import array
from pathlib import Path

from repro.errors import StorageError
from repro.storage.columnar import ID_TYPECODE, ColumnarBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.snapshot import (
    _column_bytes,
    generation_dirname,
    load_snapshot,
    parse_generation_dirname,
    segment_filename,
    swap_current,
    write_manifest,
    write_segment,
)
from repro.storage.store import TripleStore


def compact_store(store: TripleStore) -> TripleStore:
    """Fold ``store``'s delta away; returns the compacted store.

    A store without a delta is returned unchanged.  Otherwise the result
    is a **new** store (the caller decides when the old one closes — the
    engine keeps it open while pinned streams still read from it): loaded
    from a freshly written snapshot generation when the store came from a
    directory snapshot, rebuilt in memory otherwise.
    """
    if not store.is_frozen:
        raise StorageError("Only frozen stores can be compacted")
    if not store.has_delta:
        return store
    backend = store.backend
    if backend.snapshot_root is not None:
        write_generation(store)
        return load_snapshot(backend.snapshot_root)
    return store.convert(ShardedBackend(backend.num_segments))


def _link_or_copy(src: Path, dst: Path) -> None:
    """Hardlink ``src`` to ``dst``; fall back to a copy across devices."""
    try:
        dst.hardlink_to(src)
    except OSError:
        shutil.copy2(src, dst)


def next_generation_number(root: Path, current: int) -> int:
    """First unused generation number at ``root`` (also skips leftovers
    of crashed, never-referenced compactions)."""
    highest = current
    for entry in root.iterdir():
        parsed = parse_generation_dirname(entry.name)
        if parsed is not None and entry.is_dir():
            highest = max(highest, parsed)
    return highest + 1


def _delta_segment_backend(store: TripleStore) -> ColumnarBackend:
    """The delta frozen as a columnar segment, locals in global-id order."""
    backend = store.backend
    delta = backend.delta
    frozen_n = len(backend._seg_of)
    weights: list[float] = []
    counts: list[int] = []
    segment = ColumnarBackend()
    for local in range(len(delta)):
        gid = frozen_n + local
        segment.insert(local, delta.slot_ids(gid))
        weights.append(delta.weight(gid))
        counts.append(delta.count(gid))
    segment.freeze(weights, counts)
    return segment


def write_generation(store: TripleStore, *, swap: bool = True) -> tuple[Path, int]:
    """Write ``store`` (frozen segments + delta) as a new snapshot generation.

    Returns ``(generation directory, generation number)``.  With
    ``swap=False`` the generation is written but ``CURRENT`` is left
    untouched — the crash-window state: a reopened store still loads the
    previous generation (crash-safety tests exercise exactly this).
    """
    backend = store.backend
    if backend.snapshot_root is None:
        raise StorageError(
            "Generation writes need a store loaded from a directory "
            "snapshot — use compact_store() for in-memory stores"
        )
    if not store.has_delta:
        raise StorageError("Nothing to compact: the store has no delta segment")
    root = Path(backend.snapshot_root)
    source_dir = Path(backend.source_dir)
    generation = next_generation_number(root, backend.generation)
    gen_dir = root / generation_dirname(generation)
    gen_dir.mkdir(parents=True, exist_ok=True)

    new_index = backend.num_segments
    delta_len = store.delta_size
    frozen_n = len(backend._seg_of)
    segment = _delta_segment_backend(store)

    for index in range(new_index):
        filename = segment_filename(index)
        _link_or_copy(source_dir / filename, gen_dir / filename)
    write_segment(gen_dir, store.name, new_index, segment)

    sections: dict[str, bytes] = {}
    sections["seg_of"] = (
        _column_bytes(backend._seg_of)
        + array(ID_TYPECODE, [new_index] * delta_len).tobytes()
    )
    sections["local_of"] = (
        _column_bytes(backend._local_of)
        + array(ID_TYPECODE, range(delta_len)).tobytes()
    )
    sections["weights"] = (
        _column_bytes(backend._weights) + _column_bytes(segment._weights)
    )
    # Counts come from the records, not the old column: duplicate evidence
    # for frozen statements bumps record counts that the old column predates.
    sections["counts"] = array(
        ID_TYPECODE, [record.count for record in store.records()]
    ).tobytes()
    for index in range(new_index):
        sections[f"seg{index}:globals"] = _column_bytes(backend._globals[index])
    sections[f"seg{new_index}:globals"] = array(
        ID_TYPECODE, range(frozen_n, frozen_n + delta_len)
    ).tobytes()

    write_manifest(
        gen_dir, store, sections, backend.segment_sizes() + [delta_len]
    )
    if swap:
        swap_current(root, generation)
    return gen_dir, generation
