"""The engine's one thread pool: what runs on it, and its lifecycle.

A single query always executes in-line on its calling thread.  One engine
owns one worker pool (``EngineConfig.parallelism``) used only for
``ask_many`` fan-out and background compaction; it is shut down by
``close()``.  These tests pin what is (and is not) submitted to the pool,
the ``"serial"`` ≡ ``parallelism=1`` no-pool mode, the accepted
``executor_kind`` domain, the segment stats counters, and — the
concurrent-correctness stress — that interleaving ``stream().next_k`` with
``ask_many`` on one shared engine yields exactly the serial answers at
every segment count.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import TrinitError
from repro.kg.paper_example import paper_store
from repro.storage.sharded import DEFAULT_SEGMENTS, ShardedBackend
from repro.topk.processor import ProcessorConfig

QUERIES = [
    "?x bornIn ?y",
    "?x type ?y",
    "AlbertEinstein affiliation ?x",
    "?x 'lectured at' ?y",
    "?p bornIn ?c ; ?c locatedIn Germany",
]

LIVE = [
    Triple(Resource(f"Person{i}"), Resource("bornIn"), Resource("Ulm"))
    for i in range(3)
]


def _engine(
    segments: int = DEFAULT_SEGMENTS, parallelism: int | None = 4, **kwargs
) -> TriniT:
    config = EngineConfig(parallelism=parallelism, **kwargs)
    return TriniT(paper_store().convert(ShardedBackend(segments)), config=config)


def signature(answer_set):
    return [(a.binding, a.score) for a in answer_set]


def count_submits(engine: TriniT) -> list:
    """Wrap the engine pool's ``submit``; the returned list collects the
    future of every task handed to the pool (``Executor.map`` submits too)."""
    submitted = []
    original = engine._executor.submit

    def submit(fn, *args, **kwargs):
        future = original(fn, *args, **kwargs)
        submitted.append(future)
        return future

    engine._executor.submit = submit
    return submitted


class TestWhatRunsOnThePool:
    def test_single_queries_run_inline(self, segments):
        engine = _engine(segments, merge_batch=2)
        submitted = count_submits(engine)
        for text in QUERIES:
            engine.ask(text, k=8)
            stream = engine.stream(text)
            stream.next_k(3)
            stream.next_k(5)
        assert submitted == []

    def test_ask_many_fans_out(self, segments):
        engine = _engine(segments)
        submitted = count_submits(engine)
        engine.ask_many(QUERIES, k=3)
        assert len(submitted) == len(QUERIES)

    def test_threshold_compaction_runs_in_background(self, segments):
        engine = _engine(segments, compaction_threshold=2)
        submitted = count_submits(engine)
        engine.ingest(LIVE[:1])
        assert submitted == []  # below threshold
        engine.ingest(LIVE[1:])
        [compaction] = submitted
        compaction.result(timeout=30)
        assert engine.store.delta_size == 0
        assert engine.generation == 1


class TestPoolLifecycle:
    def test_engine_owns_one_executor(self):
        engine = _engine()
        before = engine._executor
        assert before is not None
        engine.ask_many(QUERIES, k=3)
        engine.ask_many(QUERIES, k=3)
        assert engine._executor is before  # reused, not rebuilt per call

    def test_close_shuts_executor_down(self):
        engine = _engine()
        pool = engine._executor
        engine.close()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)
        with pytest.raises(TrinitError):
            engine.ask_many(QUERIES, k=3)

    def test_close_during_ask_many_surfaces_trinit_error(self):
        # Two workers, both held busy: the rest of the batch is still
        # queued when close() cancels it, and ask_many reports the
        # cancellation as TrinitError.
        engine = _engine(parallelism=2)
        running, release = threading.Event(), threading.Event()
        original_query = engine.processor.query

        def held_query(query, k):
            running.set()
            assert release.wait(timeout=30)
            return original_query(query, k)

        engine.processor.query = held_query
        pool_shutdown = engine._executor.shutdown

        def shutdown(wait=True, *, cancel_futures=False):
            # Let the held workers go only after the queue was cancelled.
            pool_shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            pool_shutdown(wait=wait)

        engine._executor.shutdown = shutdown
        errors = []

        def batch():
            try:
                engine.ask_many(QUERIES, k=3)
            except TrinitError as exc:
                errors.append(exc)

        caller = threading.Thread(target=batch)
        caller.start()
        assert running.wait(timeout=30)
        engine.close()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert [str(exc) for exc in errors] == ["Engine is closed"]

    def test_variant_shares_executor(self):
        engine = _engine()
        variant = engine.variant(use_relaxation=False)
        assert variant._executor is engine._executor

    def test_max_workers_one_forces_sequential(self):
        engine = _engine()
        submitted = count_submits(engine)
        sequential = engine.ask_many(QUERIES, k=3, max_workers=1)
        assert submitted == []
        pooled = engine.ask_many(QUERIES, k=3)
        assert [signature(s) for s in sequential] == [
            signature(p) for p in pooled
        ]

    def test_ask_many_bounded_max_workers(self):
        engine = _engine()
        bounded = engine.ask_many(QUERIES, k=5, max_workers=2)
        unbounded = engine.ask_many(QUERIES, k=5)
        assert [signature(b) for b in bounded] == [
            signature(u) for u in unbounded
        ]

    def test_queries_survive_pool_shutdown(self):
        # The store is still open: single queries never needed the pool.
        engine = _engine(merge_batch=2)
        reference = signature(engine.ask(QUERIES[0], k=8))
        engine._executor.shutdown(wait=True, cancel_futures=True)
        assert signature(engine.ask(QUERIES[0], k=8)) == reference


class TestExecutorKind:
    @pytest.mark.parametrize(
        "kind, parallelism", [("serial", 4), ("thread", 1), ("thread", 0)]
    )
    def test_serial_means_no_pool(self, kind, parallelism):
        engine = _engine(
            parallelism=parallelism,
            executor_kind=kind,
            compaction_threshold=2,
        )
        assert engine._executor is None
        assert engine.executor_kind == "serial"
        # ask_many evaluates sequentially and still works ...
        results = engine.ask_many(QUERIES, k=3)
        assert [signature(r) for r in results] == [
            signature(engine.ask(text, k=3)) for text in QUERIES
        ]
        # ... and compaction runs inline the moment the threshold hits.
        engine.ingest(LIVE)
        assert engine.store.delta_size == 0
        assert engine.generation == 1

    def test_thread_is_the_default(self):
        engine = _engine()
        assert engine.config.executor_kind == "thread"
        assert engine.executor_kind == "thread"

    @pytest.mark.parametrize("kind", ["process", "fibers", ""])
    def test_other_kinds_rejected(self, kind):
        with pytest.raises(TrinitError, match="'thread' or 'serial'"):
            _engine(executor_kind=kind)

    def test_environment_override_is_ignored(self, monkeypatch):
        monkeypatch.setenv("TRINIT_EXECUTOR_KIND", "serial")
        assert EngineConfig().executor_kind == "thread"
        monkeypatch.setenv("TRINIT_EXECUTOR_KIND", "process")
        assert _engine().executor_kind == "thread"


class TestSegmentStats:
    def test_segment_counters_filled(self):
        engine = _engine(merge_batch=4)
        answers = engine.ask("?x bornIn ?y", k=5)
        assert answers.stats.segments_touched > 0
        assert answers.stats.postings_materialized > 0

    def test_stats_identical_with_and_without_pool(self):
        # A query never touches the pool, so every work counter agrees.
        pooled = _engine(parallelism=4).ask("?x bornIn ?y", k=5)
        serial = _engine(parallelism=1).ask("?x bornIn ?y", k=5)
        assert replace(pooled.stats, elapsed_seconds=0.0) == replace(
            serial.stats, elapsed_seconds=0.0
        )


class TestConcurrentStress:
    """Interleave stream pagination and batch queries on one shared engine."""

    def test_interleaved_streams_and_ask_many(self, segments):
        engine = _engine(segments, parallelism=4, merge_batch=3)
        reference = {
            text: signature(engine.ask(text, k=8)) for text in QUERIES
        }

        def paginate(text):
            stream = engine.stream(text)
            collected = list(stream.next_k(3))
            collected += stream.next_k(2)
            collected += stream.next_k(3)
            return text, [(a.binding, a.score) for a in collected]

        def batch(_round):
            return [signature(s) for s in engine.ask_many(QUERIES, k=8)]

        # Drive pagination and whole-batch calls from competing threads so
        # driver resumption on the callers' threads interleaves with the
        # fan-out on the one shared pool.
        with ThreadPoolExecutor(max_workers=6) as outer:
            stream_futures = [
                outer.submit(paginate, text) for text in QUERIES for _ in (0, 1)
            ]
            batch_futures = [outer.submit(batch, i) for i in range(3)]
            for future in stream_futures:
                text, collected = future.result()
                assert collected == reference[text][: len(collected)], text
            for future in batch_futures:
                assert future.result() == [reference[t] for t in QUERIES]

    def test_streams_resume_exactly_after_contention(self, segments):
        engine = _engine(segments, parallelism=4, merge_batch=2)
        eager = signature(engine.ask(QUERIES[0], k=8))
        stream = engine.stream(QUERIES[0])
        first = stream.next_k(4)
        engine.ask_many(QUERIES, k=5)  # contend on the shared pool
        rest = stream.next_k(4)
        assert [(a.binding, a.score) for a in [*first, *rest]] == eager[:8]


class TestExhaustive:
    def test_exhaustive_identical_to_per_item_reference(self):
        processor = ProcessorConfig(exhaustive=True)
        batched = _engine(parallelism=4, processor=processor)
        reference = _engine(parallelism=1, merge_batch=1, processor=processor)
        for text in QUERIES:
            assert signature(batched.ask(text, k=10)) == signature(
                reference.ask(text, k=10)
            )
