"""Compaction: folding the delta into frozen storage, generations, pinning.

Directory-snapshot stores compact by writing a new ``generation-K``
layout (old segment files hardlinked, the delta frozen as one new
segment) published by an atomic ``CURRENT`` swap — a crash before the
swap must leave the previous generation active.  In-memory stores
compact by rebuilding.  Both must preserve byte-identity with a fresh
build, and the engine must swap stores without disturbing streams pinned
to the pre-compaction generation.
"""

import gc
import threading

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import PersistenceError, StorageError, TrinitError
from repro.scoring.language_model import PatternScorer
from repro.storage.compaction import (
    compact_store,
    next_generation_number,
    write_generation,
)
from repro.storage.index import SIGNATURES
from repro.storage.sharded import DEFAULT_SEGMENTS, ShardedBackend
from repro.storage.snapshot import (
    CURRENT_NAME,
    MANIFEST_NAME,
    generation_dirname,
    is_snapshot,
    load_snapshot,
    save_snapshot,
    segment_filename,
    swap_current,
)
from repro.storage.store import TripleStore

X, Y = Variable("x"), Variable("y")

ROWS = [
    (f"E{i % 9}", ["bornIn", "livesIn", "locatedIn", "type"][i % 4],
     f"E{(i * 5 + 2) % 9}", 0.05 + (i % 17) / 20, 1 + i % 3)
    for i in range(60)
]

LIVE_ROWS = [
    ("E9", "bornIn", "E2", 0.9, 1),
    ("E1", "type", "E9", 0.65, 2),
    ("E9", "locatedIn", "E0", 0.8, 1),
    ("E9", "bornIn", "E2", 0.9, 1),  # duplicate of a delta statement
]


def _add(store, rows):
    for s, p, o, conf, count in rows:
        store.add(
            Triple(Resource(s), Resource(p), Resource(o)),
            confidence=conf,
            count=count,
        )


def _postings_by_key(store):
    backend = store.backend
    out = {}
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in backend.distinct_keys(bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out[("scan",)] = list(backend.postings([False, False, False], ()))
    return out


def _fresh_store(segments=DEFAULT_SEGMENTS):
    fresh = TripleStore("XKG", backend=ShardedBackend(segments))
    _add(fresh, ROWS)
    _add(fresh, LIVE_ROWS)
    fresh.freeze()
    return fresh


def _signature(answers):
    return [(a.binding, a.score) for a in answers]


def _triples(rows):
    return [Triple(Resource(s), Resource(p), Resource(o)) for s, p, o, _, _ in rows]


def _record_store_closes(monkeypatch):
    """Patch ``TripleStore.close`` to log each store it really closes."""
    closed = []
    original = TripleStore.close

    def close(store):
        if not store.closed:
            closed.append(store)
        original(store)

    monkeypatch.setattr(TripleStore, "close", close)
    return closed


@pytest.fixture()
def snapshot_root(tmp_path):
    store = TripleStore("XKG", backend="sharded")
    _add(store, ROWS)
    store.freeze()
    path = tmp_path / "store.snapd"
    save_snapshot(store, path)
    store.close()
    return path


@pytest.fixture()
def live_store(snapshot_root):
    store = load_snapshot(snapshot_root)
    _add(store, LIVE_ROWS)
    return store


class TestCompactStore:
    def test_unfrozen_store_rejected(self):
        store = TripleStore("x")
        with pytest.raises(StorageError, match="frozen"):
            compact_store(store)

    def test_no_delta_is_a_noop(self):
        store = TripleStore("x")
        store.add(Triple(Resource("A"), Resource("p"), Resource("B")))
        store.freeze()
        assert compact_store(store) is store

    def test_in_memory_rebuild_matches_fresh_build(self, segments):
        store = TripleStore("XKG", backend=ShardedBackend(segments))
        _add(store, ROWS)
        store.freeze()
        _add(store, LIVE_ROWS)
        compacted = compact_store(store)
        assert compacted is not store
        assert not compacted.has_delta
        assert compacted.backend.num_segments == segments
        fresh = _fresh_store(segments)
        assert _postings_by_key(compacted) == _postings_by_key(fresh)
        assert list(compacted.weights()) == list(fresh.weights())

    def test_rebuild_keeps_segment_count(self):
        store = TripleStore("XKG", backend=ShardedBackend(7))
        _add(store, ROWS)
        store.freeze()
        _add(store, LIVE_ROWS)
        assert compact_store(store).backend.num_segments == 7


class TestGenerationWrite:
    def test_writes_generation_and_swaps_current(self, snapshot_root, live_store):
        compacted = compact_store(live_store)
        gen_dir = snapshot_root / generation_dirname(1)
        assert gen_dir.is_dir()
        pointer = (snapshot_root / CURRENT_NAME).read_text().strip()
        assert pointer == generation_dirname(1)
        assert compacted.backend.generation == 1
        assert compacted.backend.snapshot_root == str(snapshot_root)
        assert compacted.backend.source_dir == str(gen_dir)
        # The delta became one new frozen segment.
        assert compacted.backend.num_segments == (
            live_store.backend.num_segments + 1
        )
        assert not compacted.has_delta

    def test_old_segments_hardlinked_not_copied(self, snapshot_root, live_store):
        compact_store(live_store)
        gen_dir = snapshot_root / generation_dirname(1)
        for index in range(live_store.backend.num_segments):
            flat = snapshot_root / segment_filename(index)
            linked = gen_dir / segment_filename(index)
            assert linked.stat().st_ino == flat.stat().st_ino

    def test_postings_identical_to_fresh_build(self, live_store):
        compacted = compact_store(live_store)
        fresh = _fresh_store()
        # Compare via the store surface: same distinct triples, same
        # lookup order everywhere (the compacted store has one more
        # segment, so raw per-segment layout differs by design).
        assert len(compacted) == len(fresh)
        for pattern in (
            TriplePattern(X, Resource("bornIn"), Y),
            TriplePattern(Resource("E9"), Variable("p"), Y),
            TriplePattern(X, Variable("p"), Y),
        ):
            assert list(compacted.sorted_ids(pattern)) == list(
                fresh.sorted_ids(pattern)
            )
        assert list(compacted.weights()) == list(fresh.weights())
        for tid in range(len(fresh)):
            assert compacted.record(tid).triple == fresh.record(tid).triple
            assert compacted.record(tid).count == fresh.record(tid).count

    def test_duplicate_evidence_for_frozen_statement_persisted(
        self, snapshot_root, live_store
    ):
        tid = live_store.add(
            Triple(Resource(ROWS[0][0]), Resource(ROWS[0][1]), Resource(ROWS[0][2])),
            confidence=0.99,
            count=7,
        )
        expected_count = live_store.record(tid).count
        compact_store(live_store)
        reopened = load_snapshot(snapshot_root)
        assert reopened.record(tid).count == expected_count
        assert reopened.record(tid).confidence == 0.99

    def test_requires_directory_backing(self):
        store = TripleStore("XKG", backend="sharded")
        _add(store, ROWS)
        store.freeze()
        _add(store, LIVE_ROWS)
        with pytest.raises(StorageError, match="directory"):
            write_generation(store)

    def test_requires_a_delta(self, snapshot_root):
        store = load_snapshot(snapshot_root)
        with pytest.raises(StorageError, match="delta"):
            write_generation(store)

    def test_snapshot_of_uncompacted_store_rejected(self, live_store, tmp_path):
        with pytest.raises(PersistenceError, match="uncompacted"):
            save_snapshot(live_store, tmp_path / "nope.snapd")


class TestCrashSafety:
    def test_unswapped_generation_is_invisible_on_reopen(
        self, snapshot_root, live_store
    ):
        """Crash window: generation written, CURRENT rename never happened."""
        gen_dir, generation = write_generation(live_store, swap=False)
        assert gen_dir.is_dir()
        assert (gen_dir / MANIFEST_NAME).exists()
        assert not (snapshot_root / CURRENT_NAME).exists()
        reopened = load_snapshot(snapshot_root)
        # The store reopens cleanly on the old generation: pre-ingest size,
        # generation 0, no delta.
        assert reopened.backend.generation == 0
        assert len(reopened) == len(live_store) - live_store.delta_size
        assert not reopened.has_delta
        # Completing the interrupted swap publishes the new generation.
        swap_current(snapshot_root, generation)
        swapped = load_snapshot(snapshot_root)
        assert swapped.backend.generation == generation
        assert len(swapped) == len(live_store)

    def test_crash_leftovers_are_skipped_not_reused(
        self, snapshot_root, live_store
    ):
        write_generation(live_store, swap=False)  # orphaned generation-0001
        assert next_generation_number(snapshot_root, 0) == 2
        compacted = compact_store(live_store)
        assert compacted.backend.generation == 2
        assert (snapshot_root / CURRENT_NAME).read_text().strip() == (
            generation_dirname(2)
        )

    def test_flat_layout_still_loads_as_generation_zero(self, snapshot_root):
        assert is_snapshot(snapshot_root)
        store = load_snapshot(snapshot_root)
        assert store.backend.generation == 0
        assert store.backend.snapshot_root == str(snapshot_root)


class TestMultiRound:
    def test_generations_accumulate(self, snapshot_root):
        store = load_snapshot(snapshot_root)
        for round_number in (1, 2, 3):
            store.add(
                Triple(
                    Resource(f"N{round_number}"),
                    Resource("type"),
                    Resource("Round"),
                ),
                confidence=0.5,
            )
            store = compact_store(store)
            assert store.backend.generation == round_number
        assert store.backend.num_segments >= 4
        reopened = load_snapshot(snapshot_root)
        assert reopened.backend.generation == 3
        assert list(reopened.weights()) == list(store.weights())


class TestEngineLifecycle:
    def test_inline_compaction_at_threshold(self, snapshot_root):
        config = EngineConfig(
            executor_kind="serial", merge_batch=1, compaction_threshold=3
        )
        with TriniT.open(snapshot_root, config=config) as engine:
            assert engine.generation == 0
            for s, p, o, conf, count in LIVE_ROWS[:2]:
                engine.ingest(
                    [Triple(Resource(s), Resource(p), Resource(o))],
                    confidence=conf,
                )
            assert engine.store.delta_size == 2  # below threshold: no swap
            assert engine.generation == 0
            engine.ingest(
                [Triple(Resource("E9"), Resource("locatedIn"), Resource("E0"))],
                confidence=0.8,
            )
            # Serial engines compact inline the moment the threshold hits.
            assert engine.store.delta_size == 0
            assert engine.generation == 1

    def test_explicit_compact_returns_generation(self, snapshot_root):
        config = EngineConfig(executor_kind="serial", merge_batch=1)
        with TriniT.open(snapshot_root, config=config) as engine:
            assert engine.compact() == 0  # nothing to do
            engine.ingest(
                [Triple(Resource("E9"), Resource("bornIn"), Resource("E2"))],
                confidence=0.9,
            )
            assert engine.compact() == 1
            assert not engine.store.has_delta

    def test_answers_identical_across_ingest_and_compaction(self, snapshot_root):
        # Rule miners run once at construction, so a live-ingesting engine
        # and a fresh-built one can legitimately mine different rule sets;
        # disable mining to compare the storage/merge contract in isolation.
        config = EngineConfig(
            executor_kind="serial",
            merge_batch=1,
            mine_arg_overlap=False,
            mine_chains=False,
            mine_inversions=False,
        )
        reference = TriniT(_fresh_store(), config=config)
        queries = ["?x bornIn ?y", "?x ?p ?y", "E9 ?p ?y"]
        with TriniT.open(snapshot_root, config=config) as engine:
            for s, p, o, conf, count in LIVE_ROWS:
                for _ in range(count):
                    engine.ingest(
                        [Triple(Resource(s), Resource(p), Resource(o))],
                        confidence=conf,
                    )
            before = {
                text: [(a.binding, a.score) for a in engine.ask(text, k=15)]
                for text in queries
            }
            engine.compact()
            for text in queries:
                expected = [
                    (a.binding, a.score) for a in reference.ask(text, k=15)
                ]
                assert before[text] == expected
                after = [(a.binding, a.score) for a in engine.ask(text, k=15)]
                assert after == expected
        reference.close()

    def test_delta_hits_counted(self, snapshot_root):
        config = EngineConfig(executor_kind="serial", merge_batch=1)
        with TriniT.open(snapshot_root, config=config) as engine:
            engine.ingest(
                [Triple(Resource("E9"), Resource("bornIn"), Resource("E2"))],
                confidence=0.9,
            )
            stream = engine.stream("?x bornIn ?y")
            stream.next_k(20)
            assert stream.stats.delta_hits > 0

    def test_pinned_stream_survives_compaction_byte_identically(
        self, snapshot_root, tmp_path
    ):
        """A stream opened pre-compaction resumes on its pinned generation."""
        reference_root = tmp_path / "reference.snapd"
        ref_store = TripleStore("XKG", backend="sharded")
        _add(ref_store, ROWS)
        ref_store.freeze()
        save_snapshot(ref_store, reference_root)
        ref_store.close()

        config = EngineConfig(executor_kind="serial", merge_batch=1)
        with TriniT.open(reference_root, config=config) as reference, TriniT.open(
            snapshot_root, config=config
        ) as engine:
            ref_stream = reference.stream("?x ?p ?y")
            stream = engine.stream("?x ?p ?y")
            assert [(a.binding, a.score) for a in stream.next_k(5)] == [
                (a.binding, a.score) for a in ref_stream.next_k(5)
            ]
            # Ingest + compact retire the store the stream is reading.
            for s, p, o, conf, count in LIVE_ROWS:
                engine.ingest(
                    [Triple(Resource(s), Resource(p), Resource(o))],
                    confidence=conf,
                )
            assert engine.compact() == 1
            # The pinned stream continues against the pre-ingest view:
            # byte-identical to the reference engine that never ingested.
            while True:
                expected = ref_stream.next_k(7)
                got = stream.next_k(7)
                assert [(a.binding, a.score) for a in got] == [
                    (a.binding, a.score) for a in expected
                ]
                if not expected:
                    break
            # New streams see the compacted store (the ingested E9 facts).
            fresh_stream = engine.stream("E9 ?p ?y")
            assert len(fresh_stream.next_k(10)) > 0

    # -- one read view shared by an engine and its variants -----------------

    @pytest.mark.parametrize("compactor", ["parent", "variant"])
    def test_variant_and_parent_share_every_swap(self, snapshot_root, compactor):
        """A compaction through either facade is the same event for both."""
        config = EngineConfig(executor_kind="serial", merge_batch=1)
        with TriniT.open(snapshot_root, config=config) as engine:
            variant = engine.variant(use_relaxation=False)
            facades = {"parent": engine, "variant": variant}
            expected = _signature(variant.ask("?x ?p ?y", k=500))
            stream = variant.stream("?x ?p ?y")
            emitted = _signature(stream.next_k(5))
            engine.ingest(_triples(LIVE_ROWS[:3]))
            assert facades[compactor].compact() == 1
            assert variant.store is engine.store
            assert variant.generation == engine.generation == 1
            for facade in facades.values():
                assert facade.ask("E9 ?p ?y", k=10).answers
            # The stream opened on the variant resumes on the store it
            # started on, byte-identical to the pre-ingest eager answer.
            while batch := stream.next_k(7):
                emitted.extend(_signature(batch))
            assert emitted == expected

    @pytest.mark.parametrize("closer", ["parent", "variant"])
    def test_close_through_either_facade_closes_the_shared_state_once(
        self, snapshot_root, closer, monkeypatch
    ):
        closed = _record_store_closes(monkeypatch)
        engine = TriniT.open(snapshot_root)
        variant = engine.variant(use_relaxation=False)
        facades = {"parent": engine, "variant": variant}
        other = facades["variant" if closer == "parent" else "parent"]
        store = engine.store
        facades[closer].close()
        assert other.closed
        with pytest.raises(TrinitError, match="Engine is closed") as info:
            other.ingest(_triples(LIVE_ROWS[:1]))
        assert not isinstance(info.value, StorageError)
        other.close()
        assert closed == [store]

    def test_swap_waits_for_nobody_and_leaks_nothing(
        self, snapshot_root, monkeypatch
    ):
        """compact() returns while a query is mid-flight and a stream is open
        on the view it supersedes; that store closes when both let go."""
        closed = _record_store_closes(monkeypatch)
        entered, proceed = threading.Event(), threading.Event()
        emission_model = PatternScorer.emission_model

        def blocking_emission_model(scorer, pattern):
            if threading.current_thread().name == "reader-A":
                entered.set()
                assert proceed.wait(timeout=30)
            return emission_model(scorer, pattern)

        monkeypatch.setattr(
            PatternScorer, "emission_model", blocking_emission_model
        )
        engine = TriniT.open(snapshot_root, config=EngineConfig(merge_batch=1))
        try:
            engine.ingest(_triples(LIVE_ROWS[:3]))
            expected = _signature(engine.ask("?x ?p ?y", k=500))
            stream = engine.stream("?x ?p ?y")
            emitted = _signature(stream.next_k(5))
            results = []
            reader = threading.Thread(
                name="reader-A",
                target=lambda: results.append(engine.ask("?x ?p ?y", k=500)),
            )
            reader.start()
            assert entered.wait(timeout=30)
            old = engine.store
            swapped = []
            swapper = threading.Thread(
                target=lambda: swapped.append(engine.compact())
            )
            swapper.start()
            swapper.join(timeout=30)
            # At the parent commit the swap drained in-flight queries first
            # and this join timed out with reader A still blocked.
            assert not swapper.is_alive() and swapped == [1]
            assert reader.is_alive() and not old.closed
            assert engine.store is not old and engine.generation == 1

            proceed.set()
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert _signature(results[0]) == expected  # pre-compaction bytes
            assert not old.closed  # the stream still reads it
            while batch := stream.next_k(7):
                emitted.extend(_signature(batch))
            assert emitted == expected
            del stream, batch
            gc.collect()
            assert old.closed and closed == [old]

            # close() with a superseded-but-held store outstanding: every
            # store closes once, the held stream fails with StorageError.
            held = engine.stream("?x ?p ?y")
            held.next_k(2)
            middle = engine.store
            engine.ingest(_triples([("E9", "type", "E0", 1.0, 1)]))
            assert engine.compact() == 2
            assert not middle.closed
            engine.close()
            assert sorted(map(id, closed)) == sorted(
                map(id, (old, middle, engine.store))
            )
            with pytest.raises(StorageError):
                held.next_k(2)
        finally:
            proceed.set()
            engine.close()

