"""Segment-aware snapshots: round-trip, laziness, legacy-file rejection.

A snapshot directory holds one container per segment, so a store
round-trips with its segmentation intact, segments mmap-load lazily (or in
parallel), and records / the term dictionary materialise on first touch.
The single-file containers of format versions 1 and 2 are rejected by
version.  General snapshot fidelity lives in test_snapshot.py, conformance
per segment count in test_backends.py.
"""

import json
import struct

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import PersistenceError
from repro.storage.index import SIGNATURES
from repro.storage.persistence import load_store
from repro.storage.sharded import ShardedBackend
from repro.storage.snapshot import (
    FORMAT_NAME,
    MAGIC,
    is_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.storage.store import TripleStore
from repro.topk.processor import TopKProcessor

X, Y, P = Variable("x"), Variable("y"), Variable("p")


def _build_store(backend=None, people: int = 30) -> TripleStore:
    store = TripleStore("seg-test", backend=backend)
    for i in range(people):
        person = Resource(f"Person{i}")
        store.add(
            Triple(person, Resource("affiliation"), Resource(f"Uni{i % 4}")),
            confidence=0.5 + 0.5 * ((i * 7) % 10) / 10,
            count=1 + i % 3,
        )
        store.add(Triple(person, Resource("type"), Resource("person")))
    store.add(
        Triple(Resource("Person0"), TextToken("works at"), Resource("Uni0")),
        confidence=0.8,
    )
    return store.freeze()


def _all_posting_bytes(store):
    backend = store.backend
    out = {}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in backend.distinct_keys(bound):
            out[(sig, key)] = bytes(backend.postings(bound, key))
    out[("scan",)] = bytes(backend.postings([False, False, False], ()))
    return out


@pytest.fixture()
def sharded_store() -> TripleStore:
    return _build_store()


@pytest.fixture()
def sharded_snapshot(sharded_store, tmp_path):
    path = tmp_path / "sharded.snapd"
    save_snapshot(sharded_store, path)
    return path


class TestShardedRoundtrip:
    def test_segmentation_preserved(self, sharded_store, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        assert isinstance(loaded.backend, ShardedBackend)
        assert loaded.backend.num_segments == sharded_store.backend.num_segments
        assert loaded.backend.segment_sizes() == sharded_store.backend.segment_sizes()

    def test_postings_byte_identical(self, sharded_store, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        assert _all_posting_bytes(loaded) == _all_posting_bytes(sharded_store)

    def test_custom_segment_count_survives(self, tmp_path):
        store = _build_store(backend=ShardedBackend(7))
        path = tmp_path / "seven.snapd"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        assert loaded.backend.num_segments == 7
        assert loaded.backend.segment_sizes() == store.backend.segment_sizes()

    def test_identical_topk_answers(self, sharded_store, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        from repro.core.parser import parse_query

        for text in ("?x affiliation ?y", "?x 'works at' ?y", "?x ?p ?y"):
            query = parse_query(text)
            reference = TopKProcessor(sharded_store).query(query, 10)
            answers = TopKProcessor(loaded).query(query, 10)
            assert [(a.binding, a.score) for a in answers] == [
                (a.binding, a.score) for a in reference
            ]

    def test_records_survive(self, sharded_store, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        for tid in range(len(sharded_store)):
            ours, theirs = sharded_store.record(tid), loaded.record(tid)
            assert ours.triple == theirs.triple
            assert ours.count == theirs.count
            assert ours.confidence == theirs.confidence

    def test_resave_is_faithful(self, sharded_snapshot, tmp_path):
        loaded = load_snapshot(sharded_snapshot)
        again = tmp_path / "again.snapd"
        save_snapshot(loaded, again)
        reloaded = load_snapshot(again)
        assert reloaded.backend.segment_sizes() == loaded.backend.segment_sizes()
        assert _all_posting_bytes(reloaded) == _all_posting_bytes(loaded)


class TestLazyMaterialization:
    def test_segments_load_on_first_touch(self, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        assert loaded.backend.loaded_segments() == []
        _ = loaded.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))[0]
        assert loaded.backend.loaded_segments() != []

    def test_load_segments_eagerly(self, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        loaded.backend.load_segments()
        assert loaded.backend.loaded_segments() == list(
            range(loaded.backend.num_segments)
        )

    def test_load_segments_in_parallel(self, sharded_store, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        with ThreadPoolExecutor(max_workers=4) as pool:
            loaded.backend.load_segments(pool)
        assert loaded.backend.loaded_segments() == list(
            range(loaded.backend.num_segments)
        )
        assert _all_posting_bytes(loaded) == _all_posting_bytes(sharded_store)

    def test_dictionary_lazy_until_first_access(self, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        assert not loaded.dictionary.is_materialized
        loaded.dictionary.require_id(Resource("Person0"))
        assert loaded.dictionary.is_materialized

    def test_records_lazy_until_first_access(self, sharded_snapshot):
        loaded = load_snapshot(sharded_snapshot)
        assert loaded._triples.materialized == 0
        record = loaded.record(3)
        assert record is loaded.record(3)  # cached, not re-decoded
        assert loaded._triples.materialized == 1


def _legacy_file(path, version: int, **extra):
    """A single-file container as the deleted v1/v2 writer laid it out:
    magic, header offset, (no sections needed), trailing header JSON."""
    header = {"format": FORMAT_NAME, "version": version, "name": "old", **extra}
    offset = len(MAGIC) + 8
    path.write_bytes(
        MAGIC + struct.pack("<Q", offset) + json.dumps(header).encode("utf-8")
    )
    return path


class TestLegacyFormatRejected:
    """v1/v2 single files are recognised and refused, never half-read."""

    @pytest.mark.parametrize(
        ("version", "extra"),
        [(1, {}), (2, {"backend": "columnar"}), (2, {"backend": "sharded"})],
    )
    def test_single_file_rejected_naming_its_version(
        self, tmp_path, version, extra
    ):
        path = _legacy_file(tmp_path / "legacy.snap", version, **extra)
        assert is_snapshot(path)  # still sniffed as a snapshot, not JSONL
        for load in (load_snapshot, load_store):
            with pytest.raises(PersistenceError) as excinfo:
                load(path)
            message = str(excinfo.value)
            assert f"version {version}" in message
            assert "re-save from JSONL" in message
            assert str(path) in message

    def test_engine_open_surfaces_the_same_error(self, tmp_path):
        from repro.core.engine import TriniT

        path = _legacy_file(tmp_path / "legacy.snap", 2, backend="sharded")
        with pytest.raises(PersistenceError, match="re-save from JSONL"):
            TriniT.open(path)

    def test_save_snapshot_has_no_version_parameter(self, sharded_store, tmp_path):
        with pytest.raises(TypeError):
            save_snapshot(sharded_store, tmp_path / "nope.snapd", version=2)
