"""Background compaction: fold the mutable delta into frozen storage.

Live ingestion (:meth:`TripleStore.add` on a frozen store) accumulates
statements in an in-memory :class:`~repro.storage.delta.DeltaSegment`
that the posting merge treats as one more segment head.  The delta keeps
reads correct but not free — a lookup that matches delta rows sorts them
on the spot and heap-merges them with the frozen heads, and every row
costs memory and an index entry per signature — so once it grows past
the engine's threshold it is folded back into frozen, immutable storage
here.

Two folding strategies, chosen by where the store lives:

* **Generation write** (:func:`write_generation`) — for stores loaded
  from a snapshot directory.  The delta becomes one new frozen
  columnar segment, appended after the existing ones: it holds the
  contiguous global id range the delta owned, so its start offset is its
  whole id map.  Like every segment it holds posting structure only: the
  delta's sort weights are appended to the global weight column and its
  records' counts, confidences and provenance to the record metadata, both
  in the manifest.  The existing segment files are **hardlinked** (never
  copied, never rewritten) into a new ``generation-K`` directory next to
  the new segment's container and a manifest that extends the loaded
  one — its terms and record metadata sections with the delta's appended
  (:func:`~repro.storage.snapshot.generation_sections`) — and the root's
  ``CURRENT`` pointer is atomically swapped last.  ``K`` is the first
  number after the loaded generation whose directory an exclusive
  ``mkdir`` creates, so the leftovers of a crashed, never-referenced
  compaction are stepped over, never reused or written into.  A crash at
  any earlier point leaves the previous generation untouched and active.
  Readers that opened the old generation keep it: their mmaps reference
  the old files, which the swap does not disturb.

  The compacted store opens the new generation from its parent's state
  (:func:`~repro.storage.snapshot.open_compacted`), so a fold costs its
  delta, not the store: it starts from copies of the parent's decoded
  term table and key map, and it **shares** every segment the parent has
  already restored.  Only the new segment is mapped and restored again.
  A shared segment's mapping belongs to every store listing it: each
  store that closes drops its hold (:meth:`~repro.storage.columnar.
  ColumnarBackend.close`, under the segment's lock), and the last one
  unmaps it.  So a parent may close before or after its child, and a
  stream pinned on either keeps its segments mapped until its store
  closes.

* **In-memory rebuild** (the fallback) — for stores with no backing
  directory.  :meth:`TripleStore.rebuild` re-adds every record in id order
  onto a fresh base segment, which freezes into exactly the store a fresh
  build over the same statements would produce.

Both strategies preserve the byte-identity contract: within-segment
posting order is the canonical (weight desc, tie key asc, id asc) over
densely assigned global ids — the new segment is frozen with the
dictionary's per-id sort keys for its own terms only, no dictionary-wide
pass — and the delta's ids continue the frozen id space, so merging the
new segment reproduces the old (frozen + delta) merge order bit for bit.
The new manifest records that order (see :mod:`repro.storage.snapshot`);
a generation only ever hardlinks segments of a store that loaded, i.e.
segments written in the same order.

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
from repro.storage.columnar import ColumnarBackend
from repro.storage.snapshot import (
    generation_dirname,
    generation_sections,
    open_compacted,
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
    engine keeps it open while pinned streams still read from it): a
    freshly written snapshot generation, opened from ``store``'s decoded
    state, when the store came from a directory snapshot; rebuilt in
    memory otherwise.
    """
    if store.closed:
        raise StorageError("Store is closed")
    if not store.is_frozen:
        raise StorageError("Only frozen stores can be compacted")
    if not store.has_delta:
        return store
    if store.backend.snapshot_root is not None:
        return open_compacted(store, *write_generation(store))
    return store.rebuild()


def _link_or_copy(src: Path, dst: Path) -> None:
    """Hardlink ``src`` to ``dst``; fall back to a copy across devices."""
    try:
        dst.hardlink_to(src)
    except OSError:
        shutil.copy2(src, dst)


def _new_generation_dir(root: Path, current: int) -> tuple[Path, int]:
    """Create the directory of the first generation after ``current``
    that does not exist at ``root`` yet; returns it and its number.

    Each ``mkdir`` is exclusive, so a leftover of a crashed,
    never-referenced compaction (or of a concurrent writer) is stepped
    over, never reused or written into — and the root is never listed.
    """
    generation = current + 1
    while True:
        gen_dir = root / generation_dirname(generation)
        try:
            gen_dir.mkdir()
        except FileExistsError:
            generation += 1
        else:
            return gen_dir, generation


def _delta_segment_backend(store: TripleStore) -> tuple[ColumnarBackend, array]:
    """The delta frozen as a columnar segment, locals in global-id order,
    and the sort-weight column it was frozen by."""
    delta = store.backend.delta
    gids = range(delta.base, delta.base + len(delta))
    segment = ColumnarBackend()
    for local, gid in enumerate(gids):
        segment.insert(local, delta.slot_ids(gid))
    weights = array("d", map(delta.weight, gids))
    segment.freeze(weights, sort_key=store.dictionary.sort_key)
    return segment, weights


def write_generation(store: TripleStore, *, swap: bool = True) -> tuple[Path, int]:
    """Write ``store`` (frozen segments + delta) as a new snapshot generation.

    Returns ``(generation directory, generation number)``.  With
    ``swap=False`` the generation is written but ``CURRENT`` is left
    untouched — the crash-window state: a reopened store still loads the
    previous generation (crash-safety tests exercise exactly this).
    """
    if store.closed:
        raise StorageError("Store is closed")
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
    gen_dir, generation = _new_generation_dir(root, backend.generation)

    new_index = backend.segment_count()
    segment, weights = _delta_segment_backend(store)

    for index in range(new_index):
        filename = segment_filename(index)
        _link_or_copy(source_dir / filename, gen_dir / filename)
    write_segment(gen_dir, store.name, new_index, segment)

    write_manifest(
        gen_dir,
        store,
        generation_sections(store, b"".join((backend.frozen_weights, weights))),
        backend.segment_sizes() + [store.delta_size],
    )
    if swap:
        swap_current(root, generation)
    return gen_dir, generation
