"""Directory snapshots: per-segment files + manifest.

The layout's contract: byte-identical postings and answers after a round
trip, and — because segment files load lazily — damage to the directory
(missing or swapped segment files, a corrupt manifest or header, key
tables out of order or not tiling their postings, a bad ``CURRENT``
pointer) must
surface as :class:`StorageError`, never as a KeyError or a wrong answer.  Writing is replace-by-rename, so re-saving never reaches
through hard links into a compacted generation.
"""

import json
import os
import struct

import pytest

from repro.core.engine import TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import PersistenceError, StorageError
from repro.storage.compaction import compact_store
from repro.storage.index import SIGNATURES
from repro.storage.persistence import load_store
from repro.storage.snapshot import (
    MAGIC,
    MANIFEST_NAME,
    _Container,
    generation_dirname,
    is_snapshot,
    load_snapshot,
    save_snapshot,
    segment_filename,
)
from repro.storage.store import TripleStore

from layouts import distinct_keys


@pytest.fixture()
def sharded_store(frozen_small_store) -> TripleStore:
    return frozen_small_store.rebuild()


@pytest.fixture()
def snapshot_dir(sharded_store, tmp_path):
    path = tmp_path / "store.snapd"
    save_snapshot(sharded_store, path)
    return path


def _all_postings(store):
    backend = store.backend
    out = {}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in distinct_keys(backend, bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out[("scan",)] = list(backend.postings([False, False, False], ()))
    return out


class TestDirectoryLayout:
    def test_writes_manifest_plus_one_file_per_segment(
        self, sharded_store, snapshot_dir
    ):
        names = sorted(p.name for p in snapshot_dir.iterdir())
        expected = sorted(
            [MANIFEST_NAME]
            + [
                segment_filename(i)
                for i in range(sharded_store.backend.segment_count())
            ]
        )
        assert names == expected

    def test_every_file_is_a_self_contained_container(self, snapshot_dir):
        for path in snapshot_dir.iterdir():
            assert path.read_bytes()[: len(MAGIC)] == MAGIC

    def test_segments_hold_their_posting_index_only(self, snapshot_dir):
        """Each value has one owner: a segment holds posting structure,
        the manifest the global weight column, the record metadata and
        the terms — in a flat layout and in a compacted generation."""
        store = load_snapshot(snapshot_dir)
        store.add(Triple(Resource("Zed"), Resource("bornIn"), Resource("Ulm")))
        compacted = compact_store(store)
        gen_dir = snapshot_dir / generation_dirname(1)
        posting_sections = {
            "col:s", "col:p", "col:o", "scan",
            *("perm:" + "".join(map(str, sig)) for sig in SIGNATURES),
            *(f"{table}:{slot}" for table in ("keys", "starts") for slot in range(3)),
        }
        try:
            for directory, segments in ((snapshot_dir, 1), (gen_dir, 2)):
                for index in range(segments):
                    segment = _Container(directory / segment_filename(index))
                    assert set(segment.header["sections"]) == posting_sections
                    segment.discard()
                manifest = _Container(directory / MANIFEST_NAME)
                assert list(manifest.header["sections"]) == [
                    "terms", "prov", "confidence", "weights", "counts"
                ]
                manifest.discard()
        finally:
            compacted.close()
            store.close()

    def test_is_snapshot_on_directories(self, snapshot_dir, tmp_path):
        assert is_snapshot(snapshot_dir)
        empty = tmp_path / "not_a_snapshot"
        empty.mkdir()
        assert not is_snapshot(empty)

    def test_no_temporary_files_left_behind(self, snapshot_dir):
        assert not [p for p in snapshot_dir.iterdir() if p.suffix == ".tmp"]

    def test_target_collides_with_existing_file(self, sharded_store, tmp_path):
        path = tmp_path / "occupied"
        path.write_text("not a directory")
        with pytest.raises(PersistenceError, match="not a directory"):
            save_snapshot(sharded_store, path)


class TestRoundtripFidelity:
    def test_byte_identical_postings(self, sharded_store, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        assert _all_postings(loaded) == _all_postings(sharded_store)
        assert loaded.backend.segment_sizes() == (
            sharded_store.backend.segment_sizes()
        )

    def test_records_and_weights_survive(self, sharded_store, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        assert len(loaded) == len(sharded_store)
        assert list(loaded.weights()) == list(sharded_store.weights())
        for tid in range(len(sharded_store)):
            original, reloaded = sharded_store.record(tid), loaded.record(tid)
            assert reloaded.triple == original.triple
            assert reloaded.count == original.count
            assert reloaded.confidence == original.confidence
            assert reloaded.provenances == original.provenances

    def test_source_dir_remembered(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        assert loaded.backend.source_dir == str(snapshot_dir)
        # In-memory backends have no re-open address.
        assert TripleStore("t").freeze().rebuild().backend.source_dir is None

    def test_segments_load_lazily_per_file(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        assert loaded.backend.loaded_segments() == []
        loaded.backend.load_segments()
        assert loaded.backend.loaded_segments() == list(
            range(loaded.backend.segment_count())
        )

    def test_map_file_false_reads_private_buffers(
        self, sharded_store, snapshot_dir
    ):
        loaded = load_snapshot(snapshot_dir, map_file=False)
        assert _all_postings(loaded) == _all_postings(sharded_store)

    def test_load_store_and_engine_open_dispatch(
        self, sharded_store, snapshot_dir
    ):
        assert len(load_store(snapshot_dir)) == len(sharded_store)
        with TriniT.open(snapshot_dir) as engine:
            answers = engine.ask("?x bornIn ?y", k=5)
            assert len(answers) == 2

    def test_close_releases_directory_mappings(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        loaded.backend.load_segments()
        loaded.close()
        with pytest.raises(StorageError):
            loaded.backend.postings([True, False, False], (0,))


class TestResave:
    """Saving onto an existing directory replaces files, never rewrites them."""

    def _other_store(self) -> TripleStore:
        other = TripleStore("other")
        for i in range(12):
            other.add(Triple(Resource(f"N{i}"), Resource("q"), Resource(f"M{i % 3}")))
        return other.freeze()

    def test_resave_does_not_write_through_hard_links(
        self, sharded_store, snapshot_dir, tmp_path
    ):
        """``write_generation`` hard-links segment files; a writer opening
        them with "wb" would truncate every link at once."""
        segment = snapshot_dir / segment_filename(0)
        link = tmp_path / "linked-segment"
        os.link(segment, link)
        before = link.read_bytes()
        save_snapshot(self._other_store(), snapshot_dir)
        assert link.read_bytes() == before
        assert segment.read_bytes() != before
        assert len(load_snapshot(snapshot_dir)) == 12

    def test_save_onto_compacted_root_refused_and_root_intact(
        self, sharded_store, snapshot_dir
    ):
        """save → load → ingest → compact → save another store onto the
        same root: refused (CURRENT would shadow it), generation intact."""
        live = load_snapshot(snapshot_dir)
        live.add(Triple(Resource("AlbertEinstein"), Resource("bornIn"), Resource("Bern")))
        compacted = compact_store(live)
        assert compacted.backend.generation == 1
        expected = _all_postings(compacted)
        with TriniT(compacted) as engine:
            answers = [
                (a.binding, a.score) for a in engine.ask("?x bornIn ?y", k=10)
            ]
        live.close()

        with pytest.raises(PersistenceError, match="CURRENT"):
            save_snapshot(self._other_store(), snapshot_dir)

        reopened = load_snapshot(snapshot_dir)
        reopened.backend.load_segments()  # every linked segment file intact
        assert reopened.backend.generation == 1
        assert _all_postings(reopened) == expected
        with TriniT(reopened) as engine:
            assert [
                (a.binding, a.score) for a in engine.ask("?x bornIn ?y", k=10)
            ] == answers


class TestDamage:
    def test_missing_manifest(self, snapshot_dir):
        (snapshot_dir / MANIFEST_NAME).unlink()
        assert not is_snapshot(snapshot_dir)
        with pytest.raises(PersistenceError, match="manifest"):
            load_snapshot(snapshot_dir)
        with pytest.raises(PersistenceError):
            load_store(snapshot_dir)

    def test_corrupt_manifest_magic(self, snapshot_dir):
        manifest = snapshot_dir / MANIFEST_NAME
        manifest.write_bytes(b"garbage" + manifest.read_bytes()[7:])
        with pytest.raises(PersistenceError, match="magic") as excinfo:
            load_snapshot(snapshot_dir)
        # Diagnosability: the error must name the offending file.
        assert str(manifest) in str(excinfo.value)

    def test_truncated_manifest(self, snapshot_dir):
        manifest = snapshot_dir / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[:40])
        with pytest.raises(PersistenceError):
            load_snapshot(snapshot_dir)

    def test_missing_segment_file_surfaces_as_storage_error(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        missing = snapshot_dir / segment_filename(0)
        missing.unlink()
        # The manifest loads fine; the damage surfaces when segment 0 is
        # touched — PersistenceError is a StorageError, so storage-layer
        # callers need no new except clause.
        with pytest.raises(StorageError, match="missing segment file") as excinfo:
            loaded.backend.load_segments()
        # The error names the missing file, not just the segment index.
        assert str(missing) in str(excinfo.value)

    def test_swapped_segment_file_rejected(self, snapshot_dir):
        live = load_snapshot(snapshot_dir)
        live.add(Triple(Resource("Zed"), Resource("bornIn"), Resource("Ulm")))
        compact_store(live).close()
        live.close()
        gen_dir = snapshot_dir / generation_dirname(1)
        seg0 = gen_dir / segment_filename(0)
        seg1 = gen_dir / segment_filename(1)
        seg0.unlink()  # a hard link to generation 0's segment
        seg0.write_bytes(seg1.read_bytes())
        loaded = load_snapshot(snapshot_dir)
        with pytest.raises(StorageError, match="claims segment") as excinfo:
            loaded.backend.load_segments()
        # Expected vs actual identity, anchored to the offending path.
        message = str(excinfo.value)
        assert str(seg0) in message
        assert "claims segment 1" in message
        assert "expected 0" in message

    def test_manifest_in_segment_slot_rejected(self, snapshot_dir):
        seg0 = snapshot_dir / segment_filename(0)
        seg0.write_bytes((snapshot_dir / MANIFEST_NAME).read_bytes())
        loaded = load_snapshot(snapshot_dir)
        with pytest.raises(StorageError, match="kind") as excinfo:
            loaded.backend.load_segments()
        message = str(excinfo.value)
        assert str(seg0) in message
        assert "'manifest'" in message
        assert "expected a segment container" in message

    def test_segment_file_opened_directly_is_redirected(self, snapshot_dir):
        with pytest.raises(PersistenceError, match="directory"):
            load_snapshot(snapshot_dir / segment_filename(0))
        with pytest.raises(PersistenceError, match="directory"):
            load_snapshot(snapshot_dir / MANIFEST_NAME)

    def test_offset_table_that_does_not_tile_rejected(self, snapshot_dir):
        """One key's span starting past its stop used to load and answer
        lookups with other keys' ids."""
        segment = snapshot_dir / segment_filename(0)
        data, starts, _length = _segment_section(segment, "starts:1")
        # A span stops where the next starts; push the first start past it.
        _start, stop = struct.unpack_from("=2i", data, starts)
        struct.pack_into("=i", data, starts, stop + 1)
        segment.write_bytes(bytes(data))
        loaded = load_snapshot(snapshot_dir)
        with pytest.raises(PersistenceError, match="key table 1") as excinfo:
            loaded.backend.load_segments()
        assert str(segment) in str(excinfo.value)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h.pop("triples"),
            lambda h: h.update(triples="12"),
            lambda h: h.pop("terms"),
            lambda h: h.update(terms=-1),
            lambda h: h.update(sections=[]),
            lambda h: h.pop("segments"),
            lambda h: h.update(segments=1),
            lambda h: h["segments"][0].update(start=1),
            lambda h: h["segments"][0].update(size="10"),
            lambda h: h["segments"][0].update(file=None),
            lambda h: h["segments"][0].update(size=h["segments"][0]["size"] + 1),
        ],
        ids=[
            "no-triples", "str-triples", "no-terms", "negative-terms",
            "list-sections", "no-segments", "int-segments", "start-off",
            "str-size", "no-file", "sizes-disagree",
        ],
    )
    def test_damaged_header_raises_naming_the_file(self, snapshot_dir, mutate):
        def damage(header):
            mutate(header)
            return header

        _rewrite_manifest_header(snapshot_dir, damage)
        with pytest.raises(PersistenceError) as excinfo:
            load_snapshot(snapshot_dir)
        assert str(snapshot_dir / MANIFEST_NAME) in str(excinfo.value)

    @pytest.mark.parametrize(
        ("name", "itemsize"), [("weights", 8), ("counts", 4), ("confidence", 8)]
    )
    def test_short_statement_column_refused_naming_the_manifest(
        self, snapshot_dir, name, itemsize
    ):
        """The manifest holds the one copy of each per-statement column; a
        column one statement short is refused when the store opens."""
        _rewrite_segment_section_entry(
            snapshot_dir / MANIFEST_NAME,
            name,
            lambda offset, length: (offset, length - itemsize),
        )
        with pytest.raises(PersistenceError, match="disagree") as excinfo:
            load_snapshot(snapshot_dir)
        assert str(snapshot_dir / MANIFEST_NAME) in str(excinfo.value)

    def test_non_snapshot_directory_via_load_store(self, tmp_path):
        plain = tmp_path / "plain_dir"
        plain.mkdir()
        with pytest.raises(PersistenceError, match="snapshot directory"):
            load_store(plain)


class TestKeyTableDamage:
    """Format 5 bisects each slot's key table in place — its ``keys:``
    column and the ``starts:`` of the groups — so a table that would
    misdirect a bisection is refused when the segment is restored, with a
    :class:`PersistenceError` naming the file."""

    def _refused(self, snapshot_dir, match):
        segment = snapshot_dir / segment_filename(0)
        loaded = load_snapshot(snapshot_dir)
        try:
            with pytest.raises(PersistenceError, match=match) as excinfo:
                loaded.backend.load_segments()
        finally:
            loaded.close()
        assert str(segment) in str(excinfo.value)

    def _patch_items(self, snapshot_dir, name, patch):
        """Rewrite the items of segment 0's section ``name`` (4-byte ids)
        as ``patch`` returns them."""
        segment = snapshot_dir / segment_filename(0)
        data, offset, length = _segment_section(segment, name)
        items = list(struct.unpack_from(f"={length // 4}i", data, offset))
        assert len(items) >= 3
        patched = patch(items)
        struct.pack_into(f"={len(patched)}i", data, offset, *patched)
        segment.write_bytes(bytes(data))

    def test_keys_out_of_order_rejected(self, snapshot_dir):
        def swap(keys):
            keys[0], keys[1] = keys[1], keys[0]
            return keys

        self._patch_items(snapshot_dir, "keys:0", swap)
        self._refused(snapshot_dir, "key table 0 keys are not strictly increasing")

    def test_repeated_key_rejected(self, snapshot_dir):
        self._patch_items(snapshot_dir, "keys:2", lambda keys: [keys[0], *keys[:-1]])
        self._refused(snapshot_dir, "key table 2 keys are not strictly increasing")

    def test_start_that_does_not_increase_rejected(self, snapshot_dir):
        def stall(starts):
            starts[2] = starts[1]
            return starts

        self._patch_items(snapshot_dir, "starts:0", stall)
        self._refused(snapshot_dir, "key table 0 starts are not strictly increasing")

    def test_first_span_not_at_zero_rejected(self, snapshot_dir):
        def shift(starts):
            starts[0] = -1
            return starts

        self._patch_items(snapshot_dir, "starts:2", shift)
        self._refused(snapshot_dir, r"key table 2 spans leave \[0, ")

    def test_last_span_past_the_postings_rejected(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        length = len(loaded)
        loaded.close()

        def overrun(starts):
            starts[-1] = length
            return starts

        self._patch_items(snapshot_dir, "starts:0", overrun)
        self._refused(snapshot_dir, rf"key table 0 spans leave \[0, {length}\)")

    @pytest.mark.parametrize("name", ["keys:1", "starts:1"])
    def test_columns_of_different_lengths_rejected(self, snapshot_dir, name):
        segment = snapshot_dir / segment_filename(0)
        _rewrite_segment_section_entry(
            segment, name, lambda offset, length: (offset, length - 4)
        )
        self._refused(snapshot_dir, r"key table 1 has \d+ keys but \d+ starts")

    @pytest.mark.parametrize("name", ["keys:2", "starts:0"])
    @pytest.mark.parametrize(
        ("cut", "match"),
        [
            (lambda offset, length, size: (offset, size), "truncated"),
            (lambda offset, length, size: (offset, length - 2), "whole number"),
        ],
        ids=["past-the-file", "partial-item"],
    )
    def test_truncated_section_rejected(self, snapshot_dir, name, cut, match):
        segment = snapshot_dir / segment_filename(0)
        size = segment.stat().st_size
        _rewrite_segment_section_entry(
            segment, name, lambda offset, length: cut(offset, length, size)
        )
        self._refused(snapshot_dir, f"{name!r}.*{match}|{match}.*{name!r}")

    def test_empty_table_of_a_nonempty_segment_rejected(self, snapshot_dir):
        segment = snapshot_dir / segment_filename(0)
        for name in ("keys:1", "starts:1"):
            _rewrite_segment_section_entry(
                segment, name, lambda offset, length: (offset, 0)
            )
        self._refused(snapshot_dir, "key table 1 holds no key for")

    def test_missing_section_rejected(self, snapshot_dir):
        def drop(header):
            del header["sections"]["starts:1"]
            return header

        _rewrite_container_header(snapshot_dir / segment_filename(0), drop)
        self._refused(snapshot_dir, "missing section 'starts:1'")


class TestGenerationPointerDamage:
    """Damage to the ``CURRENT`` generation pointer (compacted layouts)."""

    def test_current_naming_garbage_rejected(self, snapshot_dir):
        (snapshot_dir / "CURRENT").write_text("not-a-generation\n")
        assert not is_snapshot(snapshot_dir)
        with pytest.raises(PersistenceError, match="CURRENT") as excinfo:
            load_snapshot(snapshot_dir)
        message = str(excinfo.value)
        assert str(snapshot_dir) in message
        assert "not-a-generation" in message

    def test_current_pointing_at_missing_generation(self, snapshot_dir):
        (snapshot_dir / "CURRENT").write_text("generation-0007\n")
        with pytest.raises(PersistenceError, match="missing generation") as excinfo:
            load_snapshot(snapshot_dir)
        assert str(snapshot_dir / "generation-0007") in str(excinfo.value)

    @pytest.mark.parametrize("pointer", ["generation-0007\n", "not-a-generation\n"])
    def test_load_store_and_open_name_the_pointer(self, snapshot_dir, pointer):
        """The manifest is present; the damage is CURRENT — say so, rather
        than "not a snapshot directory (no manifest.xkgsnap)"."""
        (snapshot_dir / "CURRENT").write_text(pointer)
        for load in (load_store, TriniT.open):
            with pytest.raises(PersistenceError, match="CURRENT") as excinfo:
                load(snapshot_dir)
            assert "no manifest" not in str(excinfo.value)
            assert pointer.strip() in str(excinfo.value)


def _rewrite_manifest_header(directory, mutate):
    """Rewrite a manifest's trailing header JSON in place, as a writer of
    another build would have laid it out."""
    _rewrite_container_header(directory / MANIFEST_NAME, mutate)


def _rewrite_container_header(path, mutate):
    """Rewrite the trailing header JSON of the container at ``path``."""
    data = path.read_bytes()
    (offset,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[offset:].decode("utf-8"))
    header = mutate(header)
    path.write_bytes(
        data[:offset] + json.dumps(header, ensure_ascii=False).encode("utf-8")
    )


def _segment_section(segment, name):
    """``segment``'s bytes (mutable) and its section ``name``'s offset and
    length."""
    data = bytearray(segment.read_bytes())
    (offset,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[offset:].decode("utf-8"))
    return (data, *header["sections"][name])


def _rewrite_segment_section_entry(segment, name, entry):
    """Point ``segment``'s section table entry ``name`` at ``entry(offset,
    length)``, the section bytes left as they are."""

    def repoint(header):
        header["sections"][name] = list(entry(*header["sections"][name]))
        return header

    _rewrite_container_header(segment, repoint)


def _old_order(header):
    """The manifest the (weight desc, id asc) builds wrote: no order marker,
    the redundant ``"backend"`` field in its place."""
    return {
        ("backend" if name == "order" else name): (
            "sharded" if name == "order" else value
        )
        for name, value in header.items()
    }


class TestFormatVersion:
    def test_version_3_directory_refused_naming_its_version(self, snapshot_dir):
        """Version 3 hash-partitioned a store over several segments with
        per-statement id maps; this build reads one start per segment."""
        _rewrite_manifest_header(snapshot_dir, lambda header: {**header, "version": 3})
        for load in (load_snapshot, load_store, TriniT.open):
            with pytest.raises(PersistenceError) as excinfo:
                load(snapshot_dir)
            message = str(excinfo.value)
            assert "version 3" in message
            assert "re-save" in message
            assert str(snapshot_dir / MANIFEST_NAME) in message


    @pytest.mark.parametrize("version", [4, 5])
    def test_earlier_directory_refused_naming_the_resave(self, snapshot_dir, version):
        """Version 4 wrote each signature's key table as (key, start,
        stop) entries that a load decoded into dicts; this build bisects
        per-slot key tables in place.  Version 5 segments also carried
        their own weight and count columns; this build reads weights from
        the manifest's one column and counts from the records."""
        _rewrite_manifest_header(
            snapshot_dir, lambda header: {**header, "version": version}
        )
        _rewrite_container_header(
            snapshot_dir / segment_filename(0),
            lambda header: {**header, "version": version},
        )
        for load in (load_snapshot, load_store, TriniT.open):
            with pytest.raises(PersistenceError) as excinfo:
                load(snapshot_dir)
            message = str(excinfo.value)
            assert f"version {version}" in message
            assert "re-save" in message
            assert str(snapshot_dir / MANIFEST_NAME) in message
        with pytest.raises(PersistenceError, match=f"version {version}.*re-save"):
            _Container(snapshot_dir / segment_filename(0))


class TestPostingOrderMarker:
    def test_manifest_names_the_canonical_order(self, snapshot_dir):
        from repro.storage.snapshot import POSTING_ORDER, _Container

        manifest = _Container(snapshot_dir / MANIFEST_NAME)
        try:
            assert manifest.header["order"] == POSTING_ORDER
            assert "backend" not in manifest.header
        finally:
            manifest.discard()

    def test_old_order_directory_refused_naming_the_fix(self, snapshot_dir):
        size = (snapshot_dir / MANIFEST_NAME).stat().st_size
        _rewrite_manifest_header(snapshot_dir, _old_order)
        # A format-version note, not a new format: the marker costs no byte.
        assert (snapshot_dir / MANIFEST_NAME).stat().st_size == size
        for load in (load_snapshot, load_store, TriniT.open):
            with pytest.raises(StorageError, match="re-save") as excinfo:
                load(snapshot_dir)
            assert "tie key" in str(excinfo.value)

    def test_generation_inherits_the_marker(self, snapshot_dir):
        from repro.storage.compaction import write_generation
        from repro.storage.snapshot import POSTING_ORDER, _Container

        store = load_snapshot(snapshot_dir)
        fresh = Triple(Resource("Zed"), Resource("bornIn"), Resource("Ulm"))
        store.add(fresh)
        gen_dir, _generation = write_generation(store)
        store.close()
        manifest = _Container(gen_dir / MANIFEST_NAME)
        try:
            assert manifest.header["order"] == POSTING_ORDER
        finally:
            manifest.discard()
        reopened = load_snapshot(snapshot_dir)
        try:
            assert reopened.lookup(fresh) is not None
        finally:
            reopened.close()
