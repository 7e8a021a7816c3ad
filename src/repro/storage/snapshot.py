"""Binary columnar snapshots: persistence that maps the arrays, not rows.

The JSONL format (:mod:`repro.storage.persistence`) re-ingests every
statement on load — JSON parsing, dictionary re-encoding, backend inserts,
and a full freeze-time re-sort of every posting structure.  A snapshot
instead writes the frozen backend state *as laid out in memory*:

* the s/p/o id columns, the weight column, and the counts column,
* the global scan permutation and the per-signature permutation arrays,
* the per-signature offset tables (key → posting range),
* the term dictionary (in id order) and the per-triple record metadata
  (exact binary confidences, counts, provenance samples).

Loading ``mmap``-s the file and exposes the permutation arrays and columns
as zero-copy read-only memoryviews directly over the mapped pages — no
re-ingestion, no re-freeze, and posting lists byte-identical to the store
the snapshot was written from.  Confidences and weights travel as binary
IEEE doubles, so reloaded scores are bit-exact, not round-tripped through
decimal text.

A snapshot is a **directory**: one self-contained container file per
segment (``segment-0000.xkgsnap`` …) plus ``manifest.xkgsnap`` carrying the
global id maps, weights, terms and record metadata.  Every segment is
mapped only when a lookup first touches it.  The loaded backend remembers
its :attr:`~repro.storage.sharded.ShardedBackend.source_dir` so compaction
can hardlink the segment files into the next generation.

A directory may additionally be **generational**: after background
compaction (:mod:`repro.storage.compaction`) the root holds
``generation-K`` subdirectories — each a complete flat layout — plus a
``CURRENT`` pointer file naming the live one, swapped atomically by
write-new-then-rename.  A root without ``CURRENT`` *is* its own
generation 0.

Container layout, shared by the manifest and every segment file (``kind``
in the header tells them apart; all integers little/big per the writing
platform, recorded in the header)::

    [ magic "XKGSNAP\\x01" ][ uint64 header offset ][ sections ... ][ header JSON ]

The header JSON carries the format name/version (3), store name, byte
order, item sizes, segmentation, and a section table
``{name: [offset, length]}``.  Placing the header *after* the sections
keeps section offsets stable while the header is being composed.  The
single-file containers of format versions 1 and 2 are no longer readable:
:func:`load_snapshot` rejects them by version — re-save from JSONL.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import threading
from array import array
from functools import partial
from pathlib import Path
from typing import Sequence

from repro.core.triples import Triple
from repro.errors import PersistenceError, StorageError
from repro.storage.columnar import ID_TYPECODE, ColumnarBackend
from repro.storage.dictionary import LazyTermDictionary, TermDictionary
from repro.storage.index import SIGNATURES
from repro.storage.sharded import ShardedBackend
from repro.storage.store import StoredTriple, TripleStore
from repro.storage.termcodec import (
    decode_provenance,
    decode_term,
    encode_provenance,
    encode_term,
)

#: First bytes of every snapshot container file; :func:`repro.storage.
#: persistence.load_store` sniffs it to dispatch between formats.
MAGIC = b"XKGSNAP\x01"
FORMAT_NAME = "trinit-xkg-snapshot"
#: The one container version written and read.
FORMAT_VERSION = 3

#: File names inside a snapshot directory.
MANIFEST_NAME = "manifest.xkgsnap"

#: Pointer file naming the active generation of a multi-generation
#: directory snapshot.  Absent on flat (single-generation) layouts.
CURRENT_NAME = "CURRENT"

WEIGHT_TYPECODE = "d"
_ALIGN = 8
_OFFSET_STRUCT = struct.Struct("<Q")


def segment_filename(index: int) -> str:
    """Name of segment ``index``'s container inside a directory snapshot."""
    return f"segment-{index:04d}.xkgsnap"


def generation_dirname(generation: int) -> str:
    """Name of generation ``generation``'s directory inside a snapshot root."""
    return f"generation-{generation:04d}"


def parse_generation_dirname(name: str) -> int | None:
    """Inverse of :func:`generation_dirname`; ``None`` for other names."""
    if not name.startswith("generation-"):
        return None
    digits = name[len("generation-"):]
    if not digits.isdigit():
        return None
    return int(digits)


def resolve_generation(path: Path) -> tuple[Path, Path, int]:
    """``(root, active generation directory, generation number)`` of ``path``.

    A directory snapshot that has been compacted at least once holds its
    container files in ``generation-K`` subdirectories, with a ``CURRENT``
    pointer file naming the live one.  A flat layout (as written by
    :func:`save_snapshot`) has no pointer and *is* its own generation 0.
    """
    path = Path(path)
    current = path / CURRENT_NAME
    if not current.exists():
        return path, path, 0
    try:
        name = current.read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise PersistenceError(
            f"Unreadable {CURRENT_NAME} pointer in snapshot directory "
            f"{path}: {exc}"
        ) from exc
    generation = parse_generation_dirname(name)
    if generation is None:
        raise PersistenceError(
            f"Corrupt snapshot directory {path}: {CURRENT_NAME} names "
            f"{name!r}, not a generation directory"
        )
    gen_dir = path / name
    if not gen_dir.is_dir():
        raise PersistenceError(
            f"Corrupt snapshot directory {path}: {CURRENT_NAME} points at "
            f"missing generation directory {gen_dir}"
        )
    return path, gen_dir, generation


def swap_current(root: Path, generation: int) -> None:
    """Atomically repoint ``root``'s ``CURRENT`` at ``generation``.

    Write-new-then-rename: the pointer contents land in a temporary file
    first and ``os.replace`` makes them visible in one step, so a crash
    between the two leaves the previous generation active and the new
    directory merely unreferenced.
    """
    root = Path(root)
    tmp = root / f"{CURRENT_NAME}.tmp"
    tmp.write_text(generation_dirname(generation) + "\n", encoding="utf-8")
    os.replace(tmp, root / CURRENT_NAME)


def _sig_key(sig: tuple[int, ...]) -> str:
    return "".join(str(slot) for slot in sig)


def _column_bytes(column) -> bytes:
    """Raw bytes of a column, whether a live array or a restored memoryview."""
    return column.tobytes()


def _columnar_sections(backend: ColumnarBackend) -> dict[str, bytes]:
    """The posting-structure sections of one frozen columnar segment."""
    sections: dict[str, bytes] = {}
    sections["counts"] = _column_bytes(backend._counts)
    sections["col:s"] = _column_bytes(backend._s)
    sections["col:p"] = _column_bytes(backend._p)
    sections["col:o"] = _column_bytes(backend._o)
    sections["weights"] = _column_bytes(backend._weights)
    sections["scan"] = bytes(backend._scan_view)
    for sig in SIGNATURES:
        key = _sig_key(sig)
        sections[f"perm:{key}"] = bytes(backend._perm_views[sig])
        flat = array(ID_TYPECODE)
        for group_key, (start, stop) in backend._offsets[sig].items():
            flat.extend(group_key)
            flat.append(start)
            flat.append(stop)
        sections[f"offsets:{key}"] = flat.tobytes()
    return sections


def _metadata_sections(store: TripleStore) -> dict[str, bytes]:
    """The manifest's term dictionary and per-record metadata sections."""
    records = list(store.records())
    return {
        "terms": json.dumps(
            [encode_term(term) for term in store.dictionary], ensure_ascii=False
        ).encode("utf-8"),
        "prov": json.dumps(
            [
                [encode_provenance(p) for p in record.provenances]
                for record in records
            ],
            ensure_ascii=False,
        ).encode("utf-8"),
        "confidence": array(
            WEIGHT_TYPECODE, [record.confidence for record in records]
        ).tobytes(),
    }


# -- container writer ---------------------------------------------------------


def _write_container(
    path: Path, sections: dict[str, bytes], header_fields: dict
) -> int:
    """Write one snapshot container (magic + sections + trailing header).

    ``header_fields`` supplies the variable part of the header (version,
    kind, store identity, segmentation); platform fields and the section
    table are appended here.  Returns bytes written.

    The bytes land in ``<name>.tmp`` and are renamed into place: a reader
    never sees a torn container, and overwriting a name never writes
    through to other hard links of the old file (compaction links segment
    files into generation directories).
    """
    table: dict[str, list[int]] = {}
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(_OFFSET_STRUCT.pack(0))  # header offset, patched below
        position = len(MAGIC) + _OFFSET_STRUCT.size
        for name, payload in sections.items():
            if position % _ALIGN:
                padding = _ALIGN - position % _ALIGN
                handle.write(b"\x00" * padding)
                position += padding
            table[name] = [position, len(payload)]
            handle.write(payload)
            position += len(payload)
        header = {
            "format": FORMAT_NAME,
            **header_fields,
            "byteorder": sys.byteorder,
            "id_itemsize": array(ID_TYPECODE).itemsize,
            "weight_itemsize": array(WEIGHT_TYPECODE).itemsize,
            "signatures": [_sig_key(sig) for sig in SIGNATURES],
            "sections": table,
        }
        header_offset = position
        handle.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        total = handle.tell()
        handle.seek(len(MAGIC))
        handle.write(_OFFSET_STRUCT.pack(header_offset))
    os.replace(tmp, path)
    return total


def write_segment(
    directory: Path, store_name: str, index: int, segment: ColumnarBackend
) -> int:
    """Write segment ``index``'s container into ``directory``."""
    return _write_container(
        directory / segment_filename(index),
        _columnar_sections(segment),
        {
            "version": FORMAT_VERSION,
            "kind": "segment",
            "name": store_name,
            "segment": index,
            "triples": len(segment),
        },
    )


def write_manifest(
    directory: Path,
    store: TripleStore,
    sections: dict[str, bytes],
    segment_sizes: list[int],
) -> int:
    """Write the manifest of ``len(segment_sizes)`` segments into
    ``directory``: ``sections`` are the global id maps, joined here by the
    term dictionary and record metadata of ``store``."""
    return _write_container(
        directory / MANIFEST_NAME,
        {**_metadata_sections(store), **sections},
        {
            "version": FORMAT_VERSION,
            "kind": "manifest",
            "name": store.name,
            "triples": len(store),
            "terms": len(store.dictionary),
            "backend": "sharded",
            "segments": len(segment_sizes),
            "segment_sizes": segment_sizes,
            "segment_files": [
                segment_filename(index) for index in range(len(segment_sizes))
            ],
        },
    )


def save_snapshot(store: TripleStore, path: str | Path) -> int:
    """Write ``store``'s frozen state as the snapshot directory ``path``.

    Returns bytes written.  The store must be frozen (snapshots capture
    posting structures, which only exist after freeze) and carry no
    uncompacted delta.  Segmentation round-trips: segment count,
    per-segment posting layout and the global id maps.  ``path`` becomes a
    directory holding one self-contained container per segment plus the
    manifest; a root that compaction has already turned generational
    (``CURRENT`` pointer) is refused — its live generation would shadow
    what is written here.
    """
    if not store.is_frozen:
        raise PersistenceError("Only frozen stores can be snapshotted")
    if store.delta_size:
        raise PersistenceError(
            f"Cannot snapshot a store with {store.delta_size} uncompacted "
            "live statements in its delta segment — compact first "
            "(repro.storage.compaction.compact_store or engine.compact())"
        )
    backend = store.backend
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise PersistenceError(
            f"Directory snapshot target exists and is not a directory: {path}"
        )
    if (path / CURRENT_NAME).exists():
        raise PersistenceError(
            f"Snapshot directory {path} already holds a {CURRENT_NAME} "
            "generation pointer (it has been compacted); save to a fresh "
            "directory instead"
        )
    path.mkdir(parents=True, exist_ok=True)
    total = sum(
        write_segment(path, store.name, index, backend._segment(index))
        for index in range(backend.num_segments)
    )
    sections = {
        "seg_of": _column_bytes(backend._seg_of),
        "local_of": _column_bytes(backend._local_of),
        "weights": _column_bytes(backend._weights),
        "counts": _column_bytes(backend._counts),
    }
    for index in range(backend.num_segments):
        sections[f"seg{index}:globals"] = _column_bytes(backend._globals[index])
    return total + write_manifest(path, store, sections, backend.segment_sizes())


# -- container reader ---------------------------------------------------------


def _read_header(base: memoryview) -> dict:
    if bytes(base[: len(MAGIC)]) != MAGIC:
        raise PersistenceError("Not a snapshot file (bad magic)")
    (header_offset,) = _OFFSET_STRUCT.unpack_from(base, len(MAGIC))
    if not len(MAGIC) + _OFFSET_STRUCT.size <= header_offset <= len(base):
        raise PersistenceError("Corrupt snapshot: header offset out of range")
    try:
        header = json.loads(bytes(base[header_offset:]).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"Corrupt snapshot header: {exc}") from exc
    if not isinstance(header, dict):
        raise PersistenceError("Corrupt snapshot header: not an object")
    if header.get("format") != FORMAT_NAME:
        raise PersistenceError(
            f"Not a {FORMAT_NAME} file: format={header.get('format')!r}"
        )
    if header.get("version") != FORMAT_VERSION:
        raise PersistenceError(
            f"Snapshot container version {header.get('version')!r} is not "
            f"readable by this build (only version {FORMAT_VERSION} "
            "directory snapshots are) — re-save from JSONL"
        )
    if header.get("byteorder") != sys.byteorder:
        raise PersistenceError(
            f"Snapshot written on a {header.get('byteorder')}-endian platform "
            f"cannot be mapped on a {sys.byteorder}-endian one"
        )
    if header.get("id_itemsize") != array(ID_TYPECODE).itemsize:
        raise PersistenceError(
            f"Snapshot id itemsize {header.get('id_itemsize')} does not match "
            f"this platform's {array(ID_TYPECODE).itemsize}"
        )
    if header.get("weight_itemsize") != array(WEIGHT_TYPECODE).itemsize:
        raise PersistenceError(
            f"Snapshot weight itemsize {header.get('weight_itemsize')} does "
            f"not match this platform's {array(WEIGHT_TYPECODE).itemsize}"
        )
    if header.get("signatures") != [_sig_key(sig) for sig in SIGNATURES]:
        raise PersistenceError("Snapshot signature set does not match this build")
    return header


class _Container:
    """One mapped snapshot container: header plus typed section views.

    With ``map_file=True`` the file is ``mmap``-ed and sections are
    zero-copy memoryviews over the mapped pages; otherwise the file is
    read into a private bytes buffer once.  Ownership of :attr:`buffer`
    passes to whichever backend the loader assembles from it.
    """

    def __init__(self, path: Path, *, map_file: bool = True):
        self.path = Path(path)
        if not self.path.exists():
            raise PersistenceError(f"No such file: {self.path}")
        if map_file:
            with self.path.open("rb") as handle:
                self.buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            self.buffer = self.path.read_bytes()
        try:
            self.base = memoryview(self.buffer)
            try:
                self.header = _read_header(self.base)
            except PersistenceError as exc:
                # Name the damaged file: directory snapshots open containers
                # lazily, long after the user pointed anything at this path.
                raise PersistenceError(f"{exc}: {self.path}") from exc
        except Exception:
            self.discard()
            raise

    @property
    def kind(self) -> str | None:
        """Container role: "manifest" or "segment"."""
        return self.header.get("kind")

    def discard(self) -> None:
        """Release the mapping of a container that will not be adopted."""
        base, self.base = getattr(self, "base", None), None
        if base is not None:
            base.release()
        buffer, self.buffer = self.buffer, None
        if buffer is not None and hasattr(buffer, "close"):
            try:
                buffer.close()
            except BufferError:  # a view escaped; freed when it is collected
                pass

    # -- typed section access ---------------------------------------------

    def view(self, name: str) -> memoryview:
        base = self.base
        if base is None:
            raise PersistenceError(
                f"Snapshot container already discarded: {self.path}"
            )
        entry = self.header["sections"].get(name)
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, int) for v in entry)
        ):
            raise PersistenceError(f"Snapshot is missing section {name!r}")
        offset, length = entry
        if offset < 0 or length < 0 or offset + length > len(base):
            raise PersistenceError(f"Corrupt snapshot: section {name!r} truncated")
        return base[offset : offset + length]

    def cast(self, name: str, typecode: str) -> memoryview:
        raw = self.view(name)
        itemsize = array(typecode).itemsize
        if len(raw) % itemsize:
            raise PersistenceError(
                f"Corrupt snapshot: section {name!r} is not a whole number "
                f"of {itemsize}-byte items"
            )
        return raw.cast(typecode)

    def ids(self, name: str) -> memoryview:
        return self.cast(name, ID_TYPECODE)

    def doubles(self, name: str) -> memoryview:
        return self.cast(name, WEIGHT_TYPECODE)

    def restore_columnar(self, length: int) -> ColumnarBackend:
        """The :class:`ColumnarBackend` segment this container holds,
        validated against the ``length`` the manifest declares; the
        segment takes ownership of the mapping."""
        col_s = self.ids("col:s")
        col_p = self.ids("col:p")
        col_o = self.ids("col:o")
        weights = self.doubles("weights")
        counts = self.ids("counts")
        if not (
            len(col_s) == len(col_p) == len(col_o) == len(weights)
            == len(counts) == length
        ):
            raise PersistenceError(
                f"Header declares {length} triples but the columns disagree"
            )
        perm_views: dict[tuple[int, ...], memoryview] = {}
        offsets: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, int]]] = {}
        for sig in SIGNATURES:
            key = _sig_key(sig)
            perm = self.ids(f"perm:{key}")
            if len(perm) != length:
                raise PersistenceError(
                    f"Corrupt snapshot: permutation {key} has "
                    f"{len(perm)} entries, expected {length}"
                )
            perm_views[sig] = perm
            flat = self.ids(f"offsets:{key}")
            arity = len(sig)
            stride = arity + 2
            if len(flat) % stride:
                raise PersistenceError(f"Corrupt snapshot: offset table {key}")
            table: dict[tuple[int, ...], tuple[int, int]] = {}
            for i in range(0, len(flat), stride):
                table[tuple(flat[i : i + arity])] = (
                    flat[i + arity],
                    flat[i + arity + 1],
                )
            offsets[sig] = table
        scan = self.ids("scan")
        if len(scan) != length:
            raise PersistenceError("Corrupt snapshot: scan permutation truncated")
        return ColumnarBackend._restore(
            s=col_s,
            p=col_p,
            o=col_o,
            weights=weights,
            counts=counts,
            scan_view=scan,
            perm_views=perm_views,
            offsets=offsets,
            buffer=self.buffer,
        )


class _SnapshotRecords(Sequence):
    """Per-triple :class:`StoredTriple` records, materialised on demand.

    Everything a record needs is already in the mapped sections: term ids
    come from the backend columns, counts and bit-exact confidences from
    their own columns, provenance samples from the ``prov`` JSON blob —
    which itself is parsed only when the first record is materialised.
    Materialised records are cached, so repeated ``store.record(tid)`` calls
    return the same object (explanations hold on to them).
    """

    def __init__(
        self,
        dictionary: TermDictionary,
        backend,
        counts,
        confidences,
        prov_raw: memoryview,
        n: int,
    ):
        self._dictionary = dictionary
        self._backend = backend
        self._counts = counts
        self._confidences = confidences
        self._prov_raw = prov_raw
        self._prov: list | None = None
        self._n = n
        self._cache: list[StoredTriple | None] = [None] * n
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._n

    @property
    def materialized(self) -> int:
        """How many records have been decoded so far (introspection)."""
        with self._lock:
            return sum(1 for record in self._cache if record is not None)

    def release(self) -> None:
        """Drop the mapped views (store close).  Cached records stay valid;
        records never materialised raise :class:`StorageError` afterwards
        (their backing columns are gone with the mapping)."""
        for view in (self._prov_raw, self._counts, self._confidences):
            if isinstance(view, memoryview):
                view.release()
        self._prov_raw = self._counts = self._confidences = None

    def _provenances(self) -> list:
        prov = self._prov
        if prov is None:
            if self._prov_raw is None:
                raise StorageError("Store is closed")
            try:
                prov = json.loads(bytes(self._prov_raw).decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
                raise PersistenceError(
                    f"Corrupt snapshot provenance table: {exc}"
                ) from exc
            if not isinstance(prov, list) or len(prov) != self._n:
                raise PersistenceError("Corrupt snapshot: provenance table truncated")
            self._prov = prov
        return prov

    def _materialize(self, tid: int) -> StoredTriple:
        if self._counts is None or self._confidences is None:
            raise StorageError("Store is closed")
        decode = self._dictionary.decode
        try:
            s, p, o = self._backend.slot_ids(tid)
            count = self._counts[tid]
            confidence = self._confidences[tid]
        except ValueError as exc:  # released memoryview after close
            raise StorageError("Store is closed") from exc
        record = StoredTriple(
            Triple(decode(s), decode(p), decode(o)), count, confidence, []
        )
        for encoded in self._provenances()[tid]:
            record.add_provenance(decode_provenance(encoded))
        return record

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"Record index out of range: {index}")
        # xkg: allow[lock-discipline] double-checked locking: slots are written once under the lock; a racy None read just falls through to the locked re-check
        record = self._cache[index]
        if record is None:
            with self._lock:
                record = self._cache[index]
                if record is None:
                    record = self._materialize(index)
                    self._cache[index] = record
        return record


def _global_id_maps(container: _Container, header: dict):
    """Validated (seg_of, local_of, weights, counts, globals) of a manifest."""
    n = header["triples"]
    num_segments = header.get("segments")
    sizes = header.get("segment_sizes")
    if (
        not isinstance(num_segments, int)
        or num_segments < 1
        or not isinstance(sizes, list)
        or len(sizes) != num_segments
        or not all(isinstance(size, int) and size >= 0 for size in sizes)
        or sum(sizes) != n
    ):
        raise PersistenceError("Corrupt snapshot: bad segmentation header")
    seg_of = container.ids("seg_of")
    local_of = container.ids("local_of")
    weights = container.doubles("weights")
    counts = container.ids("counts")
    if not (len(seg_of) == len(local_of) == len(weights) == len(counts) == n):
        raise PersistenceError(
            f"Header declares {n} triples but the global columns disagree"
        )
    globals_ = []
    for index in range(num_segments):
        seg_globals = container.ids(f"seg{index}:globals")
        if len(seg_globals) != sizes[index]:
            raise PersistenceError(
                f"Corrupt snapshot: segment {index} id map truncated"
            )
        globals_.append(seg_globals)
    return seg_of, local_of, weights, counts, globals_, sizes


def _assemble_store(container: _Container, backend) -> TripleStore:
    """Finish a load: lazy dictionary, lazy records, adopt the backend."""
    header = container.header
    n = header["triples"]
    confidences = container.doubles("confidence")
    if len(confidences) != n:
        raise PersistenceError(
            f"Header declares {n} triples but the confidence column disagrees"
        )
    # Terms are copied out of the mapping (one memcpy, still no parse): the
    # dictionary must stay decodable after close(), when the map is gone.
    terms_blob = bytes(container.view("terms"))
    prov_raw = container.view("prov")
    expected_terms = header["terms"]

    def populate_terms(dictionary: TermDictionary) -> None:
        try:
            encoded_terms = json.loads(terms_blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            raise PersistenceError(f"Corrupt snapshot metadata: {exc}") from exc
        for encoded in encoded_terms:
            TermDictionary.encode(dictionary, decode_term(encoded))
        if TermDictionary.__len__(dictionary) != expected_terms:
            raise PersistenceError(
                f"Header declares {expected_terms} terms but "
                f"{TermDictionary.__len__(dictionary)} were decoded"
            )

    dictionary = LazyTermDictionary(populate_terms)
    records = _SnapshotRecords(
        dictionary, backend, container.ids("counts"), confidences, prov_raw, n
    )
    weights = container.doubles("weights")
    return TripleStore._adopt_frozen(
        header.get("name", "XKG"), dictionary, records, None, backend, weights
    )


def load_snapshot(path: str | Path, *, map_file: bool = True) -> TripleStore:
    """Load a snapshot directory written by :func:`save_snapshot`.

    ``path`` is the snapshot *root*: either a flat layout (containers
    directly inside it) or a generation layout (``CURRENT`` pointer naming
    the active ``generation-K`` subdirectory, written by compaction).
    With ``map_file=True`` (the default) each file is ``mmap``-ed and every
    column and permutation array is a read-only memoryview over the mapped
    pages — the OS pages postings in on demand and shares them across
    processes.  ``map_file=False`` reads the files into memory once instead
    (same views, private buffers); useful where mapping is unavailable.

    The returned store is **lazy**: records and the term dictionary decode
    on first use, and each segment's own file is mapped only when a lookup
    touches it (or all in parallel via
    ``store.backend.load_segments(executor)``) — a missing or damaged
    segment file surfaces as :class:`~repro.errors.StorageError` at that
    point, not at open time.

    The mappings are owned by the returned store's backend: release them
    with ``store.close()`` (or the engine lifecycle — ``with
    TriniT.open(path)``), which releases every retained view and unmaps
    the files.

    A single *file* is rejected with a :class:`PersistenceError`: either
    a pre-directory (version 1/2) snapshot, named by its version, or one
    container of a directory snapshot opened on its own.
    """
    path = Path(path)
    if not path.is_dir():
        container = _Container(path, map_file=map_file)  # raises on v1/v2
        kind = container.kind
        container.discard()
        raise PersistenceError(
            f"{path} is the {kind} container of a directory snapshot — "
            "load the directory instead"
        )
    root, gen_dir, generation = resolve_generation(path)
    manifest_path = gen_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise PersistenceError(
            f"Not a snapshot directory (no {MANIFEST_NAME}): {gen_dir}"
        )
    manifest = _Container(manifest_path, map_file=map_file)
    try:
        header = manifest.header
        if manifest.kind != "manifest":
            raise PersistenceError(
                f"Corrupt directory snapshot: {MANIFEST_NAME} has kind "
                f"{manifest.kind!r}"
            )
        seg_of, local_of, weights, counts, globals_, sizes = _global_id_maps(
            manifest, header
        )
        segment_files = header.get("segment_files")
        if (
            not isinstance(segment_files, list)
            or len(segment_files) != len(sizes)
            or not all(isinstance(name, str) for name in segment_files)
        ):
            raise PersistenceError(
                "Corrupt directory snapshot: bad segment file table"
            )

        backend = ShardedBackend._restore(
            seg_of=seg_of,
            local_of=local_of,
            weights=weights,
            counts=counts,
            globals_=globals_,
            segment_loaders=[
                partial(_load_segment, gen_dir / filename, index, length, map_file)
                for index, (filename, length) in enumerate(zip(segment_files, sizes))
            ],
            buffer=manifest.buffer,
            source_dir=str(gen_dir),
            snapshot_root=str(root),
            generation=generation,
        )
        return _assemble_store(manifest, backend)
    except Exception:
        manifest.discard()
        raise


def _load_segment(
    segment_path: Path, index: int, length: int, map_file: bool
) -> ColumnarBackend:
    """Map, validate and restore segment ``index`` of a directory snapshot.

    The lazy segment loaders go through here.  A missing or mismatched
    file raises :class:`PersistenceError` (a
    :class:`~repro.errors.StorageError`).
    """
    if not segment_path.exists():
        raise PersistenceError(
            f"Directory snapshot is missing segment file {segment_path} "
            f"(expected segment {index})"
        )
    container = _Container(segment_path, map_file=map_file)
    try:
        if container.kind != "segment":
            raise PersistenceError(
                f"Corrupt directory snapshot: {segment_path} has kind "
                f"{container.kind!r}, expected a segment container"
            )
        if container.header.get("segment") != index:
            raise PersistenceError(
                f"Corrupt directory snapshot: {segment_path} claims segment "
                f"{container.header.get('segment')!r}, expected {index}"
            )
        if container.header.get("triples") != length:
            raise PersistenceError(
                f"Corrupt directory snapshot: {segment_path} holds "
                f"{container.header.get('triples')!r} triples, manifest "
                f"declares {length} for segment {index}"
            )
        return container.restore_columnar(length)
    except Exception:
        container.discard()
        raise


def is_snapshot(path: str | Path) -> bool:
    """True if ``path`` is a snapshot directory holding a
    ``manifest.xkgsnap`` — or a lone container file starting with the
    snapshot magic, which :func:`load_snapshot` rejects (format sniffing)."""
    path = Path(path)
    if path.is_dir():
        try:
            _root, gen_dir, _generation = resolve_generation(path)
        except PersistenceError:
            return False
        path = gen_dir / MANIFEST_NAME
    try:
        with path.open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
