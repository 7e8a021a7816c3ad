"""Where engine work runs: queries on their callers' threads, folds on one worker.

A query — ``ask``, every ``stream().next_k`` and each query of an
``ask_many`` batch — always executes in-line on its calling thread.  The
engine's only thread of its own is the compaction worker: under
``executor_kind="thread"`` a threshold-triggered fold runs on it, under
``"serial"`` in-line in the ingest that crossed the threshold, and
``close()`` shuts it down.  These tests pin what is (and is not) submitted
to the worker, the accepted ``executor_kind`` domain, the segment stats
counters, and — the concurrent-correctness stress, driven from the test's
own threads — that interleaving ``stream().next_k`` with ``ask_many`` on
one shared engine yields exactly the serial answers on either store
layout.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import TrinitError
from repro.kg.paper_example import paper_store
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


def _engine(store=None, **kwargs) -> TriniT:
    return TriniT(store or paper_store(), config=EngineConfig(**kwargs))


def signature(answer_set):
    return [(a.binding, a.score) for a in answer_set]


def count_submits(engine: TriniT) -> list:
    """Wrap the fold worker's ``submit``; the returned list collects the
    future of every task handed to it."""
    submitted = []
    worker = engine._state.executor
    original = worker.submit

    def submit(fn, *args, **kwargs):
        future = original(fn, *args, **kwargs)
        submitted.append(future)
        return future

    worker.submit = submit
    return submitted


class TestWhatRunsOnTheWorker:
    def test_queries_run_inline(self, relayout):
        engine = _engine(relayout(paper_store()), merge_batch=2)
        submitted = count_submits(engine)
        for text in QUERIES:
            engine.ask(text, k=8)
            stream = engine.stream(text)
            stream.next_k(3)
            stream.next_k(5)
        engine.ask_many(QUERIES, k=3)
        assert submitted == []

    def test_threshold_compaction_runs_in_background(self, relayout):
        store = relayout(paper_store())
        generation = store.backend.generation
        engine = _engine(store, compaction_threshold=store.delta_size + 2)
        submitted = count_submits(engine)
        engine.ingest(LIVE[:1])
        assert submitted == []  # below threshold
        engine.ingest(LIVE[1:])
        [compaction] = submitted
        compaction.result(timeout=30)
        assert engine.store.delta_size == 0
        assert engine.generation == generation + 1

    def test_variant_shares_the_worker(self):
        engine = _engine(compaction_threshold=2)
        variant = engine.variant(use_relaxation=False)
        assert variant._state.executor is engine._state.executor
        submitted = count_submits(engine)
        variant.ingest(LIVE)
        [compaction] = submitted
        compaction.result(timeout=30)
        assert engine.generation == 1

    def test_close_shuts_the_worker_down(self):
        engine = _engine()
        worker = engine._state.executor
        engine.close()
        with pytest.raises(RuntimeError):
            worker.submit(lambda: None)
        with pytest.raises(TrinitError, match="Engine is closed"):
            engine.ingest(LIVE)

    def test_queries_survive_worker_shutdown(self):
        # The store is still open: queries never needed the worker.
        engine = _engine(merge_batch=2)
        reference = signature(engine.ask(QUERIES[0], k=8))
        engine._state.executor.shutdown(wait=True, cancel_futures=True)
        assert signature(engine.ask(QUERIES[0], k=8)) == reference
        assert [signature(s) for s in engine.ask_many(QUERIES[:1], k=8)] == [
            reference
        ]


class TestExecutorKind:
    def test_serial_folds_inline(self):
        engine = _engine(executor_kind="serial", compaction_threshold=2)
        assert engine._state.executor is None
        assert engine.executor_kind == "serial"
        # The fold runs the moment the threshold hits.
        engine.ingest(LIVE)
        assert engine.store.delta_size == 0
        assert engine.generation == 1

    def test_thread_is_the_default(self):
        engine = _engine()
        assert engine.config.executor_kind == "thread"
        assert engine.executor_kind == "thread"
        assert engine._state.executor._max_workers == 1

    @pytest.mark.parametrize("kind", ["thread", "serial"])
    def test_ask_many_answers_as_ask_does(self, kind):
        engine = _engine(executor_kind=kind)
        results = engine.ask_many(QUERIES, k=3)
        assert [signature(r) for r in results] == [
            signature(engine.ask(text, k=3)) for text in QUERIES
        ]

    def test_the_reference_configuration_constructs(self):
        engine = _engine(executor_kind="serial", merge_batch=1, block_size=1)
        assert engine.executor_kind == "serial"
        assert signature(engine.ask(QUERIES[0], k=5))

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

    def test_stats_identical_under_either_kind(self):
        # A query never touches the worker, so every work counter agrees.
        threaded = _engine().ask("?x bornIn ?y", k=5)
        serial = _engine(executor_kind="serial").ask("?x bornIn ?y", k=5)
        assert replace(threaded.stats, elapsed_seconds=0.0) == replace(
            serial.stats, elapsed_seconds=0.0
        )


class TestConcurrentStress:
    """Interleave stream pagination and batch queries on one shared engine."""

    def test_interleaved_streams_and_ask_many(self, relayout):
        engine = _engine(relayout(paper_store()), merge_batch=3)
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
        # driver resumption interleaves with batches on other callers.
        with ThreadPoolExecutor(max_workers=6) as callers:
            stream_futures = [
                callers.submit(paginate, text) for text in QUERIES for _ in (0, 1)
            ]
            batch_futures = [callers.submit(batch, i) for i in range(3)]
            for future in stream_futures:
                text, collected = future.result()
                assert collected == reference[text][: len(collected)], text
            for future in batch_futures:
                assert future.result() == [reference[t] for t in QUERIES]

    def test_streams_resume_exactly_after_contention(self, relayout):
        engine = _engine(relayout(paper_store()), merge_batch=2)
        eager = signature(engine.ask(QUERIES[0], k=8))
        stream = engine.stream(QUERIES[0])
        first = stream.next_k(4)
        # Batches on other threads contend with the stream's second page.
        with ThreadPoolExecutor(max_workers=4) as callers:
            batches = [
                callers.submit(engine.ask_many, QUERIES, 5) for _ in range(4)
            ]
            rest = stream.next_k(4)
            for future in batches:
                future.result()
        assert [(a.binding, a.score) for a in [*first, *rest]] == eager[:8]


class TestExhaustive:
    def test_exhaustive_identical_to_per_item_reference(self):
        processor = ProcessorConfig(exhaustive=True)
        batched = _engine(processor=processor)
        reference = _engine(
            executor_kind="serial", merge_batch=1, processor=processor
        )
        for text in QUERIES:
            assert signature(batched.ask(text, k=10)) == signature(
                reference.ask(text, k=10)
            )
