"""Directory snapshots: per-segment files + manifest.

The layout's contract: byte-identical postings and answers after a round
trip, and — because segment files load lazily — damage to the directory
(missing or swapped segment files, corrupt manifest, a bad ``CURRENT``
pointer) must surface as :class:`StorageError`, never as a KeyError or a
wrong answer.  Writing is replace-by-rename, so re-saving never reaches
through hard links into a compacted generation.
"""

import os

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import PersistenceError, StorageError
from repro.storage.compaction import compact_store
from repro.storage.index import SIGNATURES
from repro.storage.persistence import load_store
from repro.storage.snapshot import (
    MAGIC,
    MANIFEST_NAME,
    is_snapshot,
    load_snapshot,
    save_snapshot,
    segment_filename,
)
from repro.storage.store import TripleStore


@pytest.fixture()
def sharded_store(frozen_small_store) -> TripleStore:
    return frozen_small_store.convert("sharded")


@pytest.fixture()
def snapshot_dir(sharded_store, tmp_path):
    path = tmp_path / "store.snapd"
    save_snapshot(sharded_store, path)
    return path


def _all_posting_bytes(store):
    backend = store.backend
    out = {}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in backend.distinct_keys(bound):
            out[(sig, key)] = bytes(backend.postings(bound, key))
    out[("scan",)] = bytes(backend.postings([False, False, False], ()))
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
                for i in range(sharded_store.backend.num_segments)
            ]
        )
        assert names == expected

    def test_every_file_is_a_self_contained_container(self, snapshot_dir):
        for path in snapshot_dir.iterdir():
            assert path.read_bytes()[: len(MAGIC)] == MAGIC

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
        assert _all_posting_bytes(loaded) == _all_posting_bytes(sharded_store)
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
        assert TripleStore("t").freeze().convert("sharded").backend.source_dir is None

    def test_segments_load_lazily_per_file(self, snapshot_dir):
        loaded = load_snapshot(snapshot_dir)
        assert loaded.backend.loaded_segments() == []
        loaded.backend.load_segments()
        assert loaded.backend.loaded_segments() == list(
            range(loaded.backend.num_segments)
        )

    def test_map_file_false_reads_private_buffers(
        self, sharded_store, snapshot_dir
    ):
        loaded = load_snapshot(snapshot_dir, map_file=False)
        assert _all_posting_bytes(loaded) == _all_posting_bytes(sharded_store)

    def test_load_store_and_engine_open_dispatch(
        self, sharded_store, snapshot_dir
    ):
        assert len(load_store(snapshot_dir)) == len(sharded_store)
        with TriniT.open(
            snapshot_dir, config=EngineConfig(parallelism=1)
        ) as engine:
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
        expected = _all_posting_bytes(compacted)
        with TriniT(compacted, config=EngineConfig(parallelism=1)) as engine:
            answers = [
                (a.binding, a.score) for a in engine.ask("?x bornIn ?y", k=10)
            ]
        live.close()

        with pytest.raises(PersistenceError, match="CURRENT"):
            save_snapshot(self._other_store(), snapshot_dir)

        reopened = load_snapshot(snapshot_dir)
        reopened.backend.load_segments()  # every linked segment file intact
        assert reopened.backend.generation == 1
        assert _all_posting_bytes(reopened) == expected
        with TriniT(reopened, config=EngineConfig(parallelism=1)) as engine:
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
        seg0 = snapshot_dir / segment_filename(0)
        seg1 = snapshot_dir / segment_filename(1)
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

    def test_non_snapshot_directory_via_load_store(self, tmp_path):
        plain = tmp_path / "plain_dir"
        plain.mkdir()
        with pytest.raises(PersistenceError, match="snapshot directory"):
            load_store(plain)


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
