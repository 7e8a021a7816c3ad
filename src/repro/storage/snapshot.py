"""Binary columnar snapshots: persistence that maps the arrays, not rows.

The JSONL format (:mod:`repro.storage.persistence`) re-ingests every
statement on load — JSON parsing, dictionary re-encoding, backend inserts,
and a full freeze-time re-sort of every posting structure.  A snapshot
instead writes the frozen backend state *as laid out in memory*.  Each
value has one owner, stored once.  A **segment** file is posting
structure only:

* the s/p/o id columns (``col:s``, ``col:p``, ``col:o``),
* the segment's scan permutation (``scan``) and the per-signature
  permutation arrays (``perm:*``; key groups in key order, postings in
  each in the canonical weight desc, tie key asc, id asc order),
* one key table per slot (``keys:N``, the slot's distinct ids ascending;
  ``starts:N``, where each id's group starts — it stops where the next
  starts).

The **manifest** holds everything per statement: the global sort-weight
column (``weights``, by global id — the one weight column the store
reads), the record metadata (``counts``, exact binary ``confidence``,
``prov`` provenance samples) and the term dictionary (``terms``, in id
order).

Loading ``mmap``-s the file and exposes the permutation arrays, columns
and key tables as zero-copy read-only memoryviews directly over the
mapped pages — no re-ingestion, no re-freeze, no decoded lookup table,
and posting lists byte-identical to the store the snapshot was written
from.  A lookup bisects the lead slot's key table and then, for each
further bound slot, the permutation inside that run
(:mod:`repro.storage.columnar`); a restore checks each key table with C
comparisons over the mapped views.  Confidences and weights travel as binary
IEEE doubles, so reloaded scores are bit-exact, not round-tripped through
decimal text.

A snapshot is a **directory**: one self-contained container file per
segment (``segment-0000.xkgsnap`` …) plus ``manifest.xkgsnap`` carrying the
global weight column, terms and record metadata.  A fresh
build saves as one segment, the base; each compaction appends one.  The
manifest's segment table gives each segment's file, first global id and
size — the segments tile the id space in order, so ``gid = start +
local`` is the whole id map.  Every segment is mapped only when a lookup
first touches it.  The loaded backend remembers its
:attr:`~repro.storage.sharded.ShardedBackend.source_dir` so compaction can
hardlink the segment files into the next generation.

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

The header JSON carries the format name/version (6), store name, byte
order, item sizes, the segment table, and a section table
``{name: [offset, length]}``.  Placing the header *after* the sections
keeps section offsets stable while the header is being composed.  Earlier
versions are not readable and :func:`load_snapshot` rejects them by
version — re-save from JSONL: the single-file containers of versions 1
and 2, the version-3 directories that hash-partitioned a store over
several segments with per-statement id maps, the version-4 ones whose
per-signature ``offsets:`` tables of (key, start, stop) entries a load
decoded into dicts, and the version-5 ones whose segments also carried
their own copies of the weight and count columns.

The manifest also names the **posting order** its segments were frozen in
(``"order"``: :data:`POSTING_ORDER`, the canonical weight desc, tie key
asc, id asc).  Directories written before that order existed — weight
desc, id asc, no ``"order"`` field — are refused with a
:class:`~repro.errors.PersistenceError` asking for a re-save: a merge
keyed by tie key over id-ordered segments would emit a wrong order, not
fail.  The marker is a format-version note, not a new format: it replaces
the manifest's redundant ``"backend"`` field byte for byte.
"""

from __future__ import annotations

import json
import mmap
import operator
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
FORMAT_VERSION = 6

#: The manifest's name for the canonical posting order (weight desc, tie
#: key asc, id asc) its segments were frozen in.
POSTING_ORDER = "w-tie-key"

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


def _columnar_sections(backend: ColumnarBackend) -> dict[str, bytes]:
    """The posting-structure sections of one frozen columnar segment."""
    sections: dict[str, bytes] = {}
    sections["col:s"] = bytes(backend._s)
    sections["col:p"] = bytes(backend._p)
    sections["col:o"] = bytes(backend._o)
    sections["scan"] = bytes(backend._scan_view)
    for sig in SIGNATURES:
        sections[f"perm:{_sig_key(sig)}"] = bytes(backend._perm_views[sig])
    for slot, (keys, starts) in enumerate(backend._key_tables):
        sections[f"keys:{slot}"] = bytes(keys)
        sections[f"starts:{slot}"] = bytes(starts)
    return sections


def _encoded_provenances(record: StoredTriple) -> list:
    return [encode_provenance(p) for p in record.provenances]


def _metadata(record: StoredTriple) -> tuple[int, float, list]:
    return record.count, record.confidence, _encoded_provenances(record)


def record_metadata(store: TripleStore) -> list[tuple[int, float, list]]:
    """Every record's (count, confidence, encoded provenances), in id order.

    The records of a loaded snapshot that were never materialised are read
    off its columns (:meth:`_SnapshotRecords.metadata`), so writing the
    next generation decodes only the records something touched.
    """
    frozen = store._triples
    if isinstance(frozen, _SnapshotRecords):
        head = [frozen.metadata(tid) for tid in range(len(frozen))]
    else:
        head = [_metadata(record) for record in frozen]
    return head + [_metadata(record) for record in store._delta_records]


def _json_list(items: list) -> bytes:
    return json.dumps(items, ensure_ascii=False).encode("utf-8")


def _extend_json_list(head: memoryview, items: list) -> bytes:
    """``head`` — a list :func:`_json_list` wrote — with ``items``
    appended: byte for byte what :func:`_json_list` writes for the whole."""
    if not items:
        return bytes(head)
    tail = _json_list(items)
    if len(head) == 2:  # "[]"
        return tail
    return b"".join((head[:-1], b", ", tail[1:]))


def _encoded_sections(store: TripleStore, weights: bytes) -> dict[str, bytes]:
    """Every manifest section of ``store``, encoded in full: the term
    dictionary, the ``prov``, ``confidence`` and ``counts`` sections from
    the records (:func:`record_metadata`), and the global sort-weight
    column ``weights``."""
    metadata = record_metadata(store)
    return {
        "terms": _json_list([encode_term(term) for term in store.dictionary]),
        "prov": _json_list([prov for _count, _confidence, prov in metadata]),
        "confidence": array(
            WEIGHT_TYPECODE, [confidence for _count, confidence, _prov in metadata]
        ).tobytes(),
        "weights": weights,
        "counts": array(
            ID_TYPECODE, [count for count, _confidence, _prov in metadata]
        ).tobytes(),
    }


def generation_sections(store: TripleStore, weights: bytes) -> dict[str, bytes]:
    """The manifest sections of ``store``'s next generation, whose global
    sort-weight column is ``weights``.

    The generation the store was loaded from already holds the terms and
    the frozen records' metadata, so the new manifest is its sections
    with the terms and the delta's records appended: the bytes a full
    encode writes, for the cost of the delta.  Only once a frozen record
    has gained evidence since the load does its metadata differ from the
    loaded sections; then every record's metadata is read, in one pass,
    and every section encoded in full.
    """
    if store._frozen_records_changed:
        return _encoded_sections(store, weights)
    parent = store._triples.manifest
    delta = store._delta_records
    decode = store.dictionary.decoder()
    terms = range(parent.header["terms"], len(store.dictionary))
    confidences = array(WEIGHT_TYPECODE, [record.confidence for record in delta])
    counts = array(ID_TYPECODE, [record.count for record in delta])
    return {
        "terms": _extend_json_list(
            parent.view("terms"), [encode_term(decode(i)) for i in terms]
        ),
        "prov": _extend_json_list(
            parent.view("prov"), [_encoded_provenances(record) for record in delta]
        ),
        "confidence": b"".join((parent.view("confidence"), confidences)),
        "weights": weights,
        "counts": b"".join((parent.view("counts"), counts)),
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
    ``directory``: ``sections`` are ``store``'s term dictionary, record
    metadata and global weight column (:func:`_encoded_sections`).
    Segment ``i`` starts at the sum of the sizes before it."""
    segments = []
    start = 0
    for index, size in enumerate(segment_sizes):
        segments.append(
            {"file": segment_filename(index), "start": start, "size": size}
        )
        start += size
    return _write_container(
        directory / MANIFEST_NAME,
        sections,
        {
            "version": FORMAT_VERSION,
            "kind": "manifest",
            "name": store.name,
            "triples": len(store),
            "terms": len(store.dictionary),
            "order": POSTING_ORDER,
            "segments": segments,
        },
    )


def save_snapshot(store: TripleStore, path: str | Path) -> int:
    """Write ``store``'s frozen state as the snapshot directory ``path``.

    Returns bytes written.  The store must be frozen (snapshots capture
    posting structures, which only exist after freeze) and carry no
    uncompacted delta.  Segments round-trip: a fresh build is one, a
    compacted store keeps its generations' segments.  ``path`` becomes a
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
        for index in range(backend.segment_count())
    )
    sections = _encoded_sections(store, bytes(backend.frozen_weights))
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
    if not isinstance(header.get("sections"), dict):
        raise PersistenceError("Corrupt snapshot header: no section table")
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
        self.mapped = map_file
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

    def release_views(self) -> None:
        """Stop handing out section views; the buffer stays with its owner."""
        base, self.base = getattr(self, "base", None), None
        if base is not None:
            base.release()

    def discard(self) -> None:
        """Release the mapping of a container that will not be adopted."""
        self.release_views()
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
            raise PersistenceError(
                f"Snapshot is missing section {name!r}: {self.path}"
            )
        offset, length = entry
        if offset < 0 or length < 0 or offset + length > len(base):
            raise PersistenceError(
                f"Corrupt snapshot: section {name!r} truncated: {self.path}"
            )
        return base[offset : offset + length]

    def cast(self, name: str, typecode: str) -> memoryview:
        raw = self.view(name)
        itemsize = array(typecode).itemsize
        if len(raw) % itemsize:
            raise PersistenceError(
                f"Corrupt snapshot: section {name!r} is not a whole number "
                f"of {itemsize}-byte items: {self.path}"
            )
        return raw.cast(typecode)

    def ids(self, name: str) -> memoryview:
        return self.cast(name, ID_TYPECODE)

    def doubles(self, name: str) -> memoryview:
        return self.cast(name, WEIGHT_TYPECODE)

    def restore_columnar(self, length: int) -> ColumnarBackend:
        """The :class:`ColumnarBackend` segment this container holds,
        validated against the ``length`` the manifest declares; the
        segment takes ownership of the mapping.

        Nothing is decoded: every section becomes a memoryview over the
        mapping, and the key tables are checked in place
        (:meth:`key_table`).
        """
        col_s = self.ids("col:s")
        col_p = self.ids("col:p")
        col_o = self.ids("col:o")
        if not len(col_s) == len(col_p) == len(col_o) == length:
            raise PersistenceError(
                f"Header declares {length} triples but the columns "
                f"disagree: {self.path}"
            )
        perm_views: dict[tuple[int, ...], memoryview] = {}
        for sig in SIGNATURES:
            key = _sig_key(sig)
            perm = self.ids(f"perm:{key}")
            if len(perm) != length:
                raise PersistenceError(
                    f"Corrupt snapshot: permutation {key} has "
                    f"{len(perm)} entries, expected {length}: {self.path}"
                )
            perm_views[sig] = perm
        key_tables = tuple(self.key_table(slot, length) for slot in range(3))
        scan = self.ids("scan")
        if len(scan) != length:
            raise PersistenceError(
                f"Corrupt snapshot: scan permutation truncated: {self.path}"
            )
        return ColumnarBackend._restore(
            s=col_s,
            p=col_p,
            o=col_o,
            scan_view=scan,
            perm_views=perm_views,
            key_tables=key_tables,
            buffer=self.buffer,
        )

    def key_table(self, slot: int, length: int) -> tuple[memoryview, memoryview]:
        """Slot ``slot``'s key table: its ``keys:`` and ``starts:`` views.

        A lookup bisects the keys and reads a group's span off the starts,
        so the keys must strictly increase, and the spans must tile the
        ``length`` postings: starts strictly increasing from 0, the last
        below ``length``.  A table that does not is refused — a span past
        its neighbours would answer lookups with other keys' ids.  The
        checks compare adjacent items of the mapped views in C
        (:func:`_increasing`); nothing is decoded.
        """
        keys = self.ids(f"keys:{slot}")
        starts = self.ids(f"starts:{slot}")
        if len(keys) != len(starts):
            problem = f"has {len(keys)} keys but {len(starts)} starts"
        elif not _increasing(keys):
            problem = "keys are not strictly increasing"
        elif not _increasing(starts):
            problem = "starts are not strictly increasing"
        elif len(starts) and (starts[0] != 0 or starts[-1] >= length):
            problem = f"spans leave [0, {length})"
        elif length and not len(starts):
            problem = f"holds no key for {length} postings"
        else:
            return keys, starts
        raise PersistenceError(
            f"Corrupt snapshot: key table {slot} {problem}: {self.path}"
        )


def _increasing(view: memoryview) -> bool:
    """Whether each item of ``view`` is below the next: one C comparison
    per adjacent pair of the view and its shifted slice."""
    return all(map(operator.lt, view[:-1], view[1:]))


class _SnapshotRecords(Sequence):
    """Per-triple :class:`StoredTriple` records, materialised on demand.

    Everything a record needs is already in the mapped sections of the
    ``manifest``: term ids come from the backend columns, counts and
    bit-exact confidences from their own columns, provenance samples from
    the ``prov`` JSON blob — which itself is parsed only when the first
    record is materialised, unless ``prov`` hands it over parsed (a
    compaction's result inherits its parent's).  Materialised records are
    cached, so repeated ``store.record(tid)`` calls return the same object
    (explanations hold on to them).  The manifest stays reachable
    (:attr:`manifest`) for the next generation to extend.
    """

    def __init__(
        self,
        dictionary: TermDictionary,
        backend,
        manifest: _Container,
        n: int,
        prov: list | None = None,
    ):
        confidences = manifest.doubles("confidence")
        counts = manifest.ids("counts")
        if not len(confidences) == len(counts) == n:
            raise PersistenceError(
                f"Header declares {n} triples but the record columns "
                f"disagree: {manifest.path}"
            )
        self._dictionary = dictionary
        self._backend = backend
        self._manifest: _Container | None = manifest
        self._counts = counts
        self._confidences = confidences
        self._prov_raw = manifest.view("prov")
        self._prov = prov
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

    @property
    def manifest(self) -> _Container:
        """The mapped manifest these records were read from."""
        manifest = self._manifest
        if manifest is None:
            raise StorageError("Store is closed")
        return manifest

    @property
    def parsed_provenances(self) -> list | None:
        """The ``prov`` table, if something has parsed it."""
        return self._prov

    def release(self) -> None:
        """Drop the mapped views (store close).  Cached records stay valid;
        records never materialised raise :class:`StorageError` afterwards
        (their backing columns are gone with the mapping)."""
        for view in (self._prov_raw, self._counts, self._confidences):
            if isinstance(view, memoryview):
                view.release()
        self._prov_raw = self._counts = self._confidences = None
        manifest, self._manifest = self._manifest, None
        if manifest is not None:
            manifest.release_views()

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

    def metadata(self, tid: int) -> tuple[int, float, list]:
        """Record ``tid``'s (count, confidence, encoded provenances).

        Only a materialised record can have changed since the snapshot was
        written — new evidence for a stored statement updates its record —
        so one never materialised is read off the columns as written.
        """
        with self._lock:
            record = self._cache[tid]
        if record is not None:
            return _metadata(record)
        if self._counts is None or self._confidences is None:
            raise StorageError("Store is closed")
        return self._counts[tid], self._confidences[tid], self._provenances()[tid]

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


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _segment_table(container: _Container) -> list[tuple[str, int, int]]:
    """The validated ``(file, start, size)`` of each segment a manifest
    lists: the segments tile ``[0, triples)`` in order."""
    header = container.header
    for field in ("triples", "terms"):
        if not _is_count(header.get(field)):
            raise PersistenceError(
                f"Corrupt snapshot header: {field!r} is "
                f"{header.get(field)!r}, not a count: {container.path}"
            )
    table = header.get("segments")
    if not isinstance(table, list) or not table:
        raise PersistenceError(
            f"Corrupt snapshot header: no segment table: {container.path}"
        )
    segments = []
    start = 0
    for entry in table:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("file"), str)
            or entry.get("start") != start
            or not _is_count(entry.get("size"))
        ):
            raise PersistenceError(
                f"Corrupt snapshot header: segment entry {entry!r} does not "
                f"start at global id {start}: {container.path}"
            )
        segments.append((entry["file"], start, entry["size"]))
        start += entry["size"]
    if start != header["triples"]:
        raise PersistenceError(
            f"Corrupt snapshot header: segments hold {start} triples, the "
            f"header declares {header['triples']}: {container.path}"
        )
    return segments


def _lazy_dictionary(container: _Container) -> LazyTermDictionary:
    """The manifest's term dictionary, decoded on first use."""
    # Terms are copied out of the mapping (one memcpy, still no parse): the
    # dictionary must stay decodable after close(), when the map is gone.
    terms_blob = bytes(container.view("terms"))
    expected_terms = container.header["terms"]

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

    return LazyTermDictionary(populate_terms)


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
    touches it (or all at once via
    ``store.backend.load_segments()``) — a missing or damaged
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
    return _open_generation(root, gen_dir, generation, map_file)


def open_compacted(
    parent: TripleStore, gen_dir: Path, generation: int
) -> TripleStore:
    """The store of generation ``generation`` (at ``gen_dir``), which
    :func:`~repro.storage.compaction.write_generation` has just written
    from ``parent``: the generation :func:`load_snapshot` would open,
    started from what ``parent`` has already decoded.

    It shares every segment ``parent`` has restored (each mapping closes
    with the last store listing it) and restores only the new one; it
    starts from a copy of ``parent``'s term table and key map, and from
    its parsed provenance table when the new manifest extends the loaded
    one.  ``parent`` stays open and unchanged.
    """
    frozen = parent._triples
    prov = frozen.parsed_provenances
    if prov is not None and not parent._frozen_records_changed:
        prov = prov + [_encoded_provenances(r) for r in parent._delta_records]
    else:
        prov = None
    by_key = parent._by_key
    return _open_generation(
        Path(parent.backend.snapshot_root),
        gen_dir,
        generation,
        frozen.manifest.mapped,
        parent=parent.backend,
        dictionary=parent.dictionary.copy(),
        prov=prov,
        by_key=None if by_key is None else dict(by_key),
    )


def _open_generation(
    root: Path,
    gen_dir: Path,
    generation: int,
    map_file: bool,
    *,
    parent: ShardedBackend | None = None,
    dictionary: TermDictionary | None = None,
    prov: list | None = None,
    by_key: dict | None = None,
) -> TripleStore:
    """Open the generation at ``gen_dir``; a compaction's result hands in
    its ``parent``'s backend and decoded state (:func:`open_compacted`)."""
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
        if header.get("order") != POSTING_ORDER:
            raise PersistenceError(
                f"Snapshot directory {gen_dir} was written in the (weight "
                "desc, id asc) posting order of earlier builds; this build "
                "orders postings by (weight desc, tie key asc, id asc) and "
                "will not merge the two — re-save it: export it with the "
                "build that wrote it (persistence.save_store) and "
                "save_snapshot the reloaded store with this one"
            )
        segments = _segment_table(manifest)
        n = header["triples"]
        weights = manifest.doubles("weights")
        if len(weights) != n:
            raise PersistenceError(
                f"Header declares {n} triples but the global weight "
                f"column disagrees: {manifest_path}"
            )
        if dictionary is None:
            dictionary = _lazy_dictionary(manifest)
        backend = ShardedBackend._restore(
            starts=[start for _file, start, _size in segments],
            weights=weights,
            segment_loaders=[
                partial(_load_segment, gen_dir / filename, index, size, map_file)
                for index, (filename, _start, size) in enumerate(segments)
            ],
            buffer=manifest.buffer,
            source_dir=str(gen_dir),
            snapshot_root=str(root),
            generation=generation,
            sort_key=dictionary.sort_key,
        )
        records = _SnapshotRecords(dictionary, backend, manifest, n, prov)
        if parent is not None:
            backend.adopt_segments(parent)
    except Exception:
        manifest.discard()
        raise
    return TripleStore._adopt_frozen(
        header.get("name", "XKG"), dictionary, records, by_key, backend
    )


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
