"""The store layouts production serves, for tests to run on both.

* ``fresh`` — one base segment: what a build, a JSONL load, a saved
  snapshot and an in-memory compaction all freeze into.  Every lookup
  is the base segment's own posting slice.
* ``generational`` — the same statements as a saved base segment, two
  compacted generations and a live delta, built through ``save_snapshot``
  → live ``add`` → ``compact_store``: lookups merge several streams.

Import as ``from layouts import ...`` (``tests/`` is on ``sys.path``
through its ``conftest.py``); tests taking a ``layout`` argument run once
per :data:`LAYOUTS` (see ``tests/conftest.py``).  :func:`distinct_keys`
enumerates the keys a store's lookups can be asked for.
"""

from __future__ import annotations

from pathlib import Path

from repro.storage.compaction import compact_store
from repro.storage.index import signature_of
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.store import StoredTriple, TripleStore

LAYOUTS = ("fresh", "generational")


def distinct_keys(backend, bound_slots) -> list[tuple[int, ...]]:
    """The keys on ``bound_slots``' signature that ``backend``'s statements
    hold, in first-occurrence order over global ids — delta-only keys
    last, in arrival order, as a fresh build orders them."""
    sig = signature_of(bound_slots)
    slot_ids = backend.slot_ids
    return list(
        dict.fromkeys(
            tuple(slot_ids(tid)[slot] for slot in sig) for tid in range(len(backend))
        )
    )


def replay(store: TripleStore, records: list[StoredTriple]) -> None:
    """Add ``records`` with their final evidence, one ``add`` each."""
    for record in records:
        first, *rest = record.provenances
        triple_id = store.add(
            record.triple, first, confidence=record.confidence, count=record.count
        )
        for provenance in rest:
            store.record(triple_id).add_provenance(provenance)


def generational_copy(store: TripleStore, directory: str | Path) -> TripleStore:
    """``store``'s statements laid out as base segment + generations + delta.

    ``store`` must be frozen and carry no delta.  Its records are split in
    id order: the first part is saved to ``directory`` as the base segment,
    the next two are each ingested live and compacted into a generation,
    and the last stays in the live delta.  Each record is added once with
    its final count and confidence, so ids, term ids and sort weights equal
    ``store``'s — the returned store must answer exactly like it.  Worlds of
    fewer than four statements leave the leading parts empty.
    """
    records = list(store.records())
    n = len(records)
    step = max(1, n // 4)
    cuts = [0] + [max(0, n - k * step) for k in (3, 2, 1)] + [n]
    base = TripleStore(store.name)
    replay(base, records[: cuts[1]])
    save_snapshot(base.freeze(), directory)
    current = load_snapshot(directory)
    for lo, hi in zip(cuts[1:3], cuts[2:4]):
        replay(current, records[lo:hi])
        compacted = compact_store(current)
        if compacted is not current:
            current.close()
        current = compacted
    replay(current, records[cuts[3] :])
    return current


def as_layout(store: TripleStore, layout: str, tmp_path_factory) -> TripleStore:
    """``store`` (frozen, no delta) in ``layout``; ``fresh`` is itself."""
    if layout == "fresh":
        return store
    return generational_copy(store, tmp_path_factory.mktemp("generational"))
