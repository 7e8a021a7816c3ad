"""Snapshot round-trip: freeze → save → mmap-load → byte-identical postings.

The snapshot format's whole contract is *fidelity without re-ingestion*: the
loaded store must be observationally indistinguishable from the one written —
posting bytes, weights, confidences, provenances, answers — while its
permutation arrays are zero-copy views over the mapped files.  Layout and
generation-pointer cases live in test_snapshot_dir.py, segmentation and
laziness in test_snapshot_segments.py.
"""

import json
import mmap

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Provenance, Triple, TriplePattern
from repro.errors import PersistenceError, StorageError
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
from repro.topk.processor import TopKProcessor

from harness.differential import fingerprint
from layouts import distinct_keys

X, Y, P = Variable("x"), Variable("y"), Variable("p")


@pytest.fixture()
def snapshot_path(frozen_small_store, tmp_path):
    path = tmp_path / "store.snapd"
    save_snapshot(frozen_small_store, path)
    return path


def _all_postings(store):
    """Postings for every signature and key, plus the scan list."""
    backend = store.backend
    out = {}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in distinct_keys(backend, bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out[("scan",)] = list(backend.postings([False, False, False], ()))
    return out


class TestRoundtripFidelity:
    def test_byte_identical_postings(self, frozen_small_store, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert _all_postings(loaded) == _all_postings(frozen_small_store)

    def test_records_survive_exactly(self, frozen_small_store, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert len(loaded) == len(frozen_small_store)
        assert loaded.name == frozen_small_store.name
        for tid in range(len(frozen_small_store)):
            original, reloaded = frozen_small_store.record(tid), loaded.record(tid)
            assert reloaded.triple == original.triple
            assert reloaded.count == original.count
            assert reloaded.confidence == original.confidence  # bit-exact
            assert reloaded.provenances == original.provenances

    def test_weights_identical(self, frozen_small_store, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert list(loaded.weights()) == list(frozen_small_store.weights())
        for tid in range(len(frozen_small_store)):
            assert loaded.weight(tid) == frozen_small_store.weight(tid)

    def test_dictionary_ids_identical(self, frozen_small_store, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert len(loaded.dictionary) == len(frozen_small_store.dictionary)
        for term in frozen_small_store.dictionary:
            assert loaded.dictionary.id_of(term) == (
                frozen_small_store.dictionary.id_of(term)
            )

    def test_identical_topk_answers(self, frozen_small_store, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        queries = [
            "AlbertEinstein ?p ?y",
            "?x bornIn ?y",
            "?x 'lectured at' ?y",
            "?x bornIn ?c . ?c locatedIn ?l",
        ]
        from repro.core.parser import parse_query

        for text in queries:
            query = parse_query(text)
            for k in (1, 3, 10):
                original = TopKProcessor(frozen_small_store).query(query, k)
                reloaded = TopKProcessor(loaded).query(query, k)
                assert fingerprint(reloaded) == fingerprint(original)

    def test_exotic_confidence_round_trips_bit_exact(self, tmp_path):
        store = TripleStore("exact")
        store.add(
            Triple(Resource("A"), Resource("p"), Resource("B")),
            confidence=0.1234567891,
            count=3,
        )
        store.freeze()
        path = tmp_path / "exact.snapd"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        assert loaded.record(0).confidence == 0.1234567891
        assert loaded.weight(0) == store.weight(0)


class TestZeroCopy:
    def test_postings_view_over_mapped_file(self, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        born = (loaded.dictionary.id_of(Resource("bornIn")),)
        merged = loaded.sorted_ids(TriplePattern(X, Resource("bornIn"), Y))
        assert len(merged) == 2
        # The merge's inputs are each segment's posting slice: read-only
        # views straight over that segment file's mapping.
        parts = [
            loaded.backend._segment(index).postings([False, True, False], born)
            for index in range(loaded.backend.segment_count())
        ]
        parts = [part for part in parts if len(part)]
        assert sum(len(part) for part in parts) == 2
        for postings in parts:
            assert isinstance(postings, memoryview)
            assert postings.readonly
            assert isinstance(postings.obj, mmap.mmap)

    def test_loaded_store_is_frozen_but_absorbs_live_adds(self, snapshot_path):
        loaded = load_snapshot(snapshot_path)
        assert loaded.is_frozen
        assert loaded.backend_name == "sharded"
        assert loaded.backend.is_frozen
        # Live ingestion: additions land in the mutable delta segment, the
        # mapped frozen columns stay untouched.
        before = len(loaded)
        loaded.add(Triple(Resource("A"), Resource("p"), Resource("B")))
        assert loaded.delta_size == 1
        assert len(loaded) == before + 1

    def test_eager_load_matches_mapped_load(self, frozen_small_store, snapshot_path):
        mapped = load_snapshot(snapshot_path, map_file=True)
        eager = load_snapshot(snapshot_path, map_file=False)
        assert _all_postings(mapped) == _all_postings(eager)
        assert list(mapped.weights()) == list(eager.weights())


class TestFormatSniffing:
    def test_load_store_dispatches_on_directory(
        self, frozen_small_store, snapshot_path
    ):
        loaded = load_store(snapshot_path)
        assert len(loaded) == len(frozen_small_store)
        assert loaded.backend_name == "sharded"
        assert loaded.is_frozen

    def test_load_store_returns_the_mapped_store(self, snapshot_path):
        """No convert-and-drop: a directory loads as mapped (an old convert
        branch rebuilt it in memory and leaked the mmap until GC)."""
        loaded = load_store(snapshot_path)
        assert loaded.backend.source_dir == str(snapshot_path)
        assert isinstance(loaded.backend._buffer, mmap.mmap)
        assert isinstance(loaded.backend._segment(0)._buffer, mmap.mmap)
        loaded.close()

    @pytest.mark.parametrize("name", ["dict", "columnar"])
    def test_load_store_rejects_deleted_backends(self, snapshot_path, name):
        with pytest.raises(StorageError, match="sharded"):
            load_store(snapshot_path, backend=name)

    def test_snapshot_rejects_freeze_false(self, snapshot_path):
        with pytest.raises(PersistenceError):
            load_store(snapshot_path, freeze=False)

    def test_is_snapshot(self, snapshot_path, tmp_path):
        assert is_snapshot(snapshot_path)
        other = tmp_path / "plain.jsonl"
        other.write_text(json.dumps({"format": "trinit-xkg-jsonl"}) + "\n")
        assert not is_snapshot(other)
        assert not is_snapshot(tmp_path / "missing.snap")


class TestErrors:
    def test_unfrozen_store_rejected(self, small_store, tmp_path):
        with pytest.raises(PersistenceError):
            save_snapshot(small_store, tmp_path / "nope.snapd")

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_snapshot(tmp_path / "missing.snap")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_truncated_segment_file(self, snapshot_path):
        segment = snapshot_path / segment_filename(0)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) // 2])
        # Segment files map lazily: the damage surfaces on first touch.
        with pytest.raises(PersistenceError) as excinfo:
            load_snapshot(snapshot_path).backend.load_segments()
        assert str(segment) in str(excinfo.value)

    def test_corrupt_header_json(self, snapshot_path):
        manifest = snapshot_path / MANIFEST_NAME
        data = bytearray(manifest.read_bytes())
        # The header JSON sits at the end; mangle its last byte.
        data[-1] = ord("!")
        manifest.write_bytes(bytes(data))
        with pytest.raises(PersistenceError):
            load_snapshot(snapshot_path)

    def _rewrite_header(self, container_path, mutate):
        import struct

        data = bytearray(container_path.read_bytes())
        (header_offset,) = struct.unpack_from("<Q", data, len(MAGIC))
        header = json.loads(bytes(data[header_offset:]).decode("utf-8"))
        mutate(header)
        container_path.write_bytes(
            bytes(data[:header_offset])
            + json.dumps(header, ensure_ascii=False).encode("utf-8")
        )

    def test_negative_section_offset_rejected(self, snapshot_path):
        self._rewrite_header(
            snapshot_path / segment_filename(0),
            lambda header: header["sections"].__setitem__("col:s", [-16, 8]),
        )
        with pytest.raises(PersistenceError):
            load_snapshot(snapshot_path).backend.load_segments()

    def test_misaligned_section_length_rejected(self, snapshot_path):
        def shrink(header):
            offset, length = header["sections"]["col:s"]
            header["sections"]["col:s"] = [offset, length - 1]

        self._rewrite_header(snapshot_path / segment_filename(0), shrink)
        with pytest.raises(PersistenceError):
            load_snapshot(snapshot_path).backend.load_segments()

    def test_foreign_weight_itemsize_rejected(self, snapshot_path):
        self._rewrite_header(
            snapshot_path / MANIFEST_NAME,
            lambda header: header.__setitem__("weight_itemsize", 4),
        )
        with pytest.raises(PersistenceError):
            load_snapshot(snapshot_path)

    def test_foreign_byteorder_rejected(self, snapshot_path):
        self._rewrite_header(
            snapshot_path / MANIFEST_NAME,
            lambda header: header.__setitem__(
                "byteorder", "big" if __import__("sys").byteorder == "little" else "little"
            ),
        )
        with pytest.raises(PersistenceError):
            load_snapshot(snapshot_path)

    def test_magic_prefix_only(self):
        assert len(MAGIC) == 8


class TestSnapshotOfSnapshot:
    def test_resave_of_loaded_snapshot_is_faithful(
        self, frozen_small_store, snapshot_path, tmp_path
    ):
        loaded = load_snapshot(snapshot_path)
        second_path = tmp_path / "second.snapd"
        save_snapshot(loaded, second_path)
        second = load_snapshot(second_path)
        assert _all_postings(second) == _all_postings(frozen_small_store)
        assert list(second.weights()) == list(frozen_small_store.weights())


class TestEvidenceForFrozenStatements:
    """New evidence for a frozen statement lives in its record alone —
    count, confidence, provenance — and a save writes all three from
    there, whether the store was built in memory or loaded."""

    STATEMENT = Triple(Resource("A"), Resource("p"), Resource("B"))

    @pytest.mark.parametrize("source", ["in-memory", "loaded"])
    def test_resave_keeps_the_new_evidence(self, tmp_path, source):
        store = TripleStore("evidence")
        store.add(self.STATEMENT, Provenance("kg", "dump-1"), confidence=0.4)
        store.add(Triple(Resource("C"), Resource("p"), Resource("D")))
        store.freeze()
        if source == "loaded":
            save_snapshot(store, tmp_path / "first.snapd")
            store = load_snapshot(tmp_path / "first.snapd")
        provenance = Provenance("openie", "doc-2", "A is p of B", "reverb")
        store.add(self.STATEMENT, provenance, confidence=0.7)
        live = store.lookup(self.STATEMENT)
        assert (live.count, live.confidence) == (2, 0.7)
        assert live.provenances[-1] == provenance
        save_snapshot(store, tmp_path / "resaved.snapd")
        reloaded = load_snapshot(tmp_path / "resaved.snapd")
        try:
            assert len(reloaded) == len(store)
            for tid in range(len(store)):
                got, want = reloaded.record(tid), store.record(tid)
                assert (got.triple, got.count, got.confidence, got.provenances) == (
                    want.triple, want.count, want.confidence, want.provenances
                )
        finally:
            reloaded.close()
            store.close()
