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
from repro.core.triples import Provenance, Triple, TriplePattern
from repro.errors import PersistenceError, StorageError, TrinitError
from repro.scoring.language_model import PatternScorer
import repro.core.engine as engine_module
from repro.storage import snapshot as snapshot_module
from repro.storage.compaction import compact_store, write_generation
from repro.storage.dictionary import LazyTermDictionary
from repro.storage.index import SIGNATURES
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

from layouts import distinct_keys

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
        for key in distinct_keys(backend, bound):
            out[(sig, key)] = list(backend.postings(bound, key))
    out[("scan",)] = list(backend.postings([False, False, False], ()))
    return out


def _fresh_store():
    fresh = TripleStore("XKG")
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


def _fail_first_fold(monkeypatch, error):
    """Patch the engine's ``compact_store`` to raise ``error`` on its first
    call only; the returned list logs the store of every call."""
    folds = []

    def compact_failing_once(store):
        folds.append(store)
        if len(folds) == 1:
            raise error
        return compact_store(store)

    monkeypatch.setattr("repro.core.engine.compact_store", compact_failing_once)
    return folds


@pytest.fixture()
def snapshot_root(tmp_path):
    store = TripleStore("XKG")
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

    def test_compaction_matches_fresh_build(self, relayout):
        """In memory the fold rebuilds one base segment; on a generational
        store it appends one segment."""
        store = TripleStore("XKG")
        _add(store, ROWS)
        store = relayout(store.freeze())
        _add(store, LIVE_ROWS)
        compacted = compact_store(store)
        assert compacted is not store
        assert not compacted.has_delta
        backend = store.backend
        assert compacted.backend.segment_count() == (
            1 if backend.snapshot_root is None else backend.segment_count() + 1
        )
        fresh = _fresh_store()
        assert _postings_by_key(compacted) == _postings_by_key(fresh)
        assert list(compacted.weights()) == list(fresh.weights())


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
        assert compacted.backend.segment_count() == (
            live_store.backend.segment_count() + 1
        )
        assert not compacted.has_delta

    def test_old_segments_hardlinked_not_copied(self, snapshot_root, live_store):
        compact_store(live_store)
        gen_dir = snapshot_root / generation_dirname(1)
        for index in range(live_store.backend.segment_count()):
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

    def test_untouched_records_are_written_without_decoding_them(self, tmp_path):
        """A generation reads the metadata of records nothing touched off
        the snapshot's columns, yet writes the manifest a fold that decoded
        every record writes, byte for byte."""
        provenance = Provenance("openie", "doc-7", "E1 is in E2", "reverb")
        manifests = []
        for decode_all in (False, True):
            root = tmp_path / f"decode-{decode_all}.snapd"
            store = TripleStore("XKG")
            _add(store, ROWS)
            for s, p, o, conf, count in ROWS[::7]:
                store.add(Triple(Resource(s), Resource(p), Resource(o)), provenance)
            store.freeze()
            save_snapshot(store, root)
            store.close()
            live = load_snapshot(root)
            _add(live, LIVE_ROWS)
            # New evidence for a frozen statement: the one record decoded.
            live.add(_triples(ROWS[:1])[0], Provenance("kg", "dump-2"), count=2)
            if decode_all:
                list(live.records())
            write_generation(live)
            frozen = live._triples
            assert frozen.materialized == (len(frozen) if decode_all else 1)
            manifests.append((root / generation_dirname(1) / MANIFEST_NAME).read_bytes())
            reopened = load_snapshot(root)
            first, untouched = _triples([ROWS[0], ROWS[7]])
            assert reopened.lookup(first).provenances[-2:] == [
                provenance,
                Provenance("kg", "dump-2"),
            ]
            assert provenance in reopened.lookup(untouched).provenances
        assert manifests[0] == manifests[1]

    def test_requires_directory_backing(self):
        store = TripleStore("XKG")
        _add(store, ROWS)
        store.freeze()
        _add(store, LIVE_ROWS)
        with pytest.raises(StorageError, match="directory"):
            write_generation(store)

    def test_requires_a_delta(self, snapshot_root):
        store = load_snapshot(snapshot_root)
        with pytest.raises(StorageError, match="delta"):
            write_generation(store)

    def test_a_store_closed_with_a_live_delta_is_not_folded(self, snapshot_root):
        """Close drops the store's delta; folding it after close used to
        fail with a TypeError from the delta freeze."""
        store = load_snapshot(snapshot_root)
        _add(store, LIVE_ROWS[:1])
        store.close()
        for fold in (compact_store, write_generation):
            with pytest.raises(StorageError, match="closed"):
                fold(store)
        assert not (snapshot_root / CURRENT_NAME).exists()
        assert not list(snapshot_root.glob("generation-*"))

    def test_an_in_memory_store_closed_with_a_delta_is_not_folded(self):
        store = TripleStore("XKG")
        _add(store, ROWS)
        store.freeze()
        _add(store, LIVE_ROWS[:1])
        store.close()
        with pytest.raises(StorageError, match="closed"):
            compact_store(store)

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
        self, snapshot_root, live_store, monkeypatch
    ):
        def contents(directory):
            return {path.name: path.read_bytes() for path in directory.iterdir()}

        orphans = {}
        orphan, generation = write_generation(live_store, swap=False)
        assert generation == 1
        orphans[orphan] = contents(orphan)
        # A fold probes for its directory with exclusive mkdirs; it never
        # lists the root.
        with monkeypatch.context() as patched:
            patched.setattr(
                type(snapshot_root), "iterdir", lambda self: pytest.fail("listed")
            )
            compacted = compact_store(live_store)
        assert compacted.backend.generation == 2
        assert (snapshot_root / CURRENT_NAME).read_text().strip() == (
            generation_dirname(2)
        )
        # An orphan right after the live generation is stepped over too.
        compacted.add(Triple(Resource("E7"), Resource("type"), Resource("E9")))
        orphan, generation = write_generation(compacted, swap=False)
        assert generation == 3
        orphans[orphan] = contents(orphan)
        again = compact_store(compacted)
        assert again.backend.generation == 4
        for orphan, before in orphans.items():
            assert contents(orphan) == before
        reopened = load_snapshot(snapshot_root)
        assert reopened.backend.generation == 4
        assert len(reopened) == len(again) == len(live_store) + 1
        for store in (reopened, again, compacted):
            store.close()

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
        assert store.backend.segment_count() == 4
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
        ref_store = TripleStore("XKG")
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

    # -- the background fold -------------------------------------------------

    def test_a_failed_background_fold_raises_from_the_next_write(
        self, snapshot_root, monkeypatch
    ):
        """The fold's error reaches the next ingest once, unchanged and
        before it touches the store; the ingest after that folds again."""
        boom = StorageError("generation write failed")
        folds = _fail_first_fold(monkeypatch, boom)
        config = EngineConfig(merge_batch=1, compaction_threshold=2)
        with TriniT.open(snapshot_root, config=config) as engine:
            engine.ingest(_triples(LIVE_ROWS[:2]))
            assert engine._state.fold.exception(timeout=30) is boom
            size = len(engine.store)
            with pytest.raises(StorageError) as info:
                engine.ingest(_triples(LIVE_ROWS[2:3]))
            assert info.value is boom
            assert len(engine.store) == size
            assert engine.generation == 0 and len(folds) == 1

            engine.ingest(_triples(LIVE_ROWS[2:3]))
            engine._state.fold.result(timeout=30)
            assert len(folds) == 2
            assert engine.generation == 1 and not engine.store.has_delta
            assert len(engine.store) == size + 1
            engine.ingest(_triples([("E9", "type", "E0", 1.0, 1)]))

    def test_a_failed_background_fold_raises_from_the_next_compact(
        self, snapshot_root, monkeypatch
    ):
        """compact() hands over the fold's error as ingest() does: once,
        unchanged, with the delta still live; the compact after it folds."""
        boom = StorageError("generation write failed")
        folds = _fail_first_fold(monkeypatch, boom)
        config = EngineConfig(merge_batch=1, compaction_threshold=2)
        with TriniT.open(snapshot_root, config=config) as engine:
            engine.ingest(_triples(LIVE_ROWS[:2]))
            assert engine._state.fold.exception(timeout=30) is boom
            with pytest.raises(StorageError) as info:
                engine.compact()
            assert info.value is boom
            assert len(folds) == 1
            assert engine.generation == 0 and engine.store.has_delta

            assert engine.compact() == 1
            assert len(folds) == 2 and not engine.store.has_delta

    def test_close_waits_for_an_in_flight_fold(self, snapshot_root, monkeypatch):
        """close() from another thread returns once the parked fold has
        published; the superseded store and the published one each close
        once, and nothing escapes the worker."""
        closed = _record_store_closes(monkeypatch)
        inside, resume, closing = (threading.Event() for _ in range(3))

        def parked_compact_store(store):
            inside.set()
            assert resume.wait(timeout=30)
            return compact_store(store)

        monkeypatch.setattr(
            "repro.core.engine.compact_store", parked_compact_store
        )
        config = EngineConfig(merge_batch=1, compaction_threshold=2)
        engine = TriniT.open(snapshot_root, config=config)
        try:
            superseded = engine.store
            engine.ingest(_triples(LIVE_ROWS[:2]))
            fold = engine._state.fold
            order = []
            fold.add_done_callback(lambda _: order.append("fold"))
            assert inside.wait(timeout=30)

            worker = engine._state.executor
            shutdown = worker.shutdown

            def signalling_shutdown(*args, **kwargs):
                closing.set()
                shutdown(*args, **kwargs)

            worker.shutdown = signalling_shutdown
            closer = threading.Thread(
                target=lambda: (engine.close(), order.append("close"))
            )
            closer.start()
            assert closing.wait(timeout=30)
            resume.set()
            closer.join(timeout=30)
            assert not closer.is_alive()
            assert order == ["fold", "close"]
            assert fold.exception() is None

            published = engine.store
            assert published is not superseded and engine.generation == 1
            assert sorted(map(id, closed)) == sorted(map(id, (superseded, published)))
            with pytest.raises(TrinitError, match="Engine is closed") as info:
                engine.ingest(_triples(LIVE_ROWS[2:3]))
            assert not isinstance(info.value, StorageError)
        finally:
            resume.set()
            engine.close()

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


def _counting(monkeypatch, owner, name):
    """Patch ``owner.name`` to log the first argument of every call."""
    calls = []
    original = getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _serial_config(**kwargs):
    return EngineConfig(
        executor_kind="serial",
        merge_batch=1,
        mine_arg_overlap=False,
        mine_chains=False,
        mine_inversions=False,
        **kwargs,
    )


class TestAFoldCostsItsDelta:
    """Counted, not timed: what a fold decodes, restores and rebuilds."""

    def test_each_engine_fold_restores_only_the_new_segment(
        self, snapshot_root, monkeypatch
    ):
        restored = _counting(
            monkeypatch, snapshot_module._Container, "restore_columnar"
        )
        with TriniT.open(
            snapshot_root, config=_serial_config(compaction_threshold=2)
        ) as engine:
            engine.ask("?x ?p ?y", k=5)
            assert [c.path.name for c in restored] == [segment_filename(0)]
            for fold in range(1, 5):
                before = len(restored)
                engine.ingest(
                    _triples([(f"N{fold}", "type", "Round", 1, 1),
                              (f"M{fold}", "bornIn", "E1", 1, 1)])
                )
                assert engine.generation == fold and not engine.store.has_delta
                assert engine.ask("?x ?p ?y", k=5).answers
                assert [c.path.name for c in restored[before:]] == [
                    segment_filename(fold)
                ]
                assert engine.store.backend.loaded_segments() == list(
                    range(fold + 1)
                )

    def test_the_key_map_is_carried_not_rebuilt(self, live_store):
        assert live_store._by_key is not None  # the live adds built it
        compacted = compact_store(live_store)
        carried = compacted._by_key
        assert carried is not None and carried is not live_store._by_key
        slot_ids = compacted.backend.slot_ids
        assert carried == {slot_ids(tid): tid for tid in range(len(compacted))}
        # A copy: the parent's map does not grow with the child's adds.
        compacted.add(_triples([("E9", "type", "New", 1, 1)])[0])
        assert len(compacted._by_key) == len(live_store._by_key) + 1

    @pytest.mark.parametrize("frozen_evidence", [False, True])
    def test_a_parsed_provenance_table_is_carried(
        self, snapshot_root, frozen_evidence
    ):
        """Carried while the new manifest extends the loaded one; parsed
        again from the new manifest once a frozen record changed."""
        live = load_snapshot(snapshot_root)
        live.record(1)  # parses the loaded provenance table
        _add(live, LIVE_ROWS)
        if frozen_evidence:
            live.add(_triples(ROWS[:1])[0], Provenance("kg", "dump-2"))
        compacted = compact_store(live)
        carried = compacted._triples.parsed_provenances
        assert (carried is None) == frozen_evidence
        reopened = load_snapshot(snapshot_root)

        def evidence(store):
            return [
                (r.triple, r.count, r.confidence, r.provenances)
                for r in store.records()
            ]

        assert evidence(compacted) == evidence(reopened)
        for store in (reopened, compacted, live):
            store.close()

    def test_folds_decode_no_term_table(self, snapshot_root, monkeypatch):
        decoded = _counting(monkeypatch, LazyTermDictionary, "_build")
        compared = []
        same_term_ids = engine_module._same_term_ids

        def recorded(old, new):
            compared.append(same_term_ids(old, new))
            return compared[-1]

        monkeypatch.setattr(engine_module, "_same_term_ids", recorded)
        with TriniT.open(snapshot_root, config=_serial_config()) as engine:
            engine.ingest(_triples(LIVE_ROWS[:1]))  # decodes the loaded table
            assert len(decoded) == 1
            for fold in range(1, 4):
                engine.ingest(_triples([(f"N{fold}", "type", "Round", 1, 1)]))
                assert engine.compact() == fold
            assert len(decoded) == 1
            assert compared == [True, True, True]
            assert not isinstance(engine.store.dictionary, LazyTermDictionary)
            assert engine.store.dictionary.id_of(Resource("N3")) is not None


def _unused_rows(count):
    """Statements of ``ROWS``' terms that ``ROWS`` does not hold."""
    held = {(s, p, o) for s, p, o, _conf, _count in ROWS}
    subjects = sorted({s for s, *_ in ROWS})
    predicates = sorted({p for _s, p, *_ in ROWS})
    fresh = (
        (s, p, o, 0.55, 1)
        for s in subjects
        for p in predicates
        for o in subjects
        if (s, p, o) not in held
    )
    return [row for row, _ in zip(fresh, range(count))]


class TestExtendedManifest:
    """A generation's manifest extends the loaded one; a full re-encode of
    every term and record is the oracle it must equal, byte for byte."""

    @pytest.mark.parametrize("parent", ["flat", "generation"])
    @pytest.mark.parametrize(
        "evidence", ["none", "for-a-materialised-record", "for-an-unread-record"]
    )
    @pytest.mark.parametrize("new_terms", [True, False])
    def test_extended_manifest_equals_the_full_re_encode(
        self, tmp_path, monkeypatch, parent, evidence, new_terms
    ):
        full_encodes = _counting(monkeypatch, snapshot_module, "record_metadata")
        provenance = Provenance("openie", "doc-3", "E1 is in E2", "reverb")
        written = {}
        for oracle in (False, True):
            root = tmp_path / f"oracle-{oracle}.snapd"
            store = TripleStore("XKG")
            _add(store, ROWS)
            store.add(_triples(ROWS[3:4])[0], provenance)
            save_snapshot(store.freeze(), root)
            store.close()
            live = load_snapshot(root)
            if parent == "generation":
                _add(live, [("G1", "type", "E0", 0.5, 2)])
                live.add(_triples([("G1", "type", "E0", 0, 0)])[0], provenance)
                compacted = compact_store(live)
                live.close()
                live = compacted
            _add(live, LIVE_ROWS if new_terms else _unused_rows(3))
            if evidence != "none":
                if evidence == "for-a-materialised-record":
                    list(live.records())
                live.add(_triples(ROWS[:1])[0], Provenance("kg", "dump-2"), count=2)
            if oracle:
                live._frozen_records_changed = True
            calls = len(full_encodes)
            gen_dir, _generation = write_generation(live)
            encoded_in_full = len(full_encodes) > calls
            assert encoded_in_full == (oracle or evidence != "none")
            written[oracle] = {
                path.name: path.read_bytes() for path in sorted(gen_dir.iterdir())
            }
            reopened = load_snapshot(root)
            assert len(reopened) == len(live)
            for tid in range(len(live)):
                got, want = reopened.record(tid), live.record(tid)
                assert (got.triple, got.count, got.confidence, got.provenances) == (
                    want.triple, want.count, want.confidence, want.provenances
                )
            reopened.close()
            live.close()
        assert written[False] == written[True]

