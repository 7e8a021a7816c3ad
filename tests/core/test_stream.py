"""The public streaming API: ``engine.stream`` and :class:`AnswerStream`."""

import itertools

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.results import QueryStats
from repro.errors import StorageError, TopKError, TrinitError
from repro.kg.paper_example import paper_engine


@pytest.fixture(scope="module")
def engine():
    return paper_engine()


def signature(answers):
    return [(a.binding, a.score) for a in answers]


class TestNextK:
    def test_batches_match_eager_ask(self, engine):
        query = "?x type ?y"
        eager = engine.ask(query, 10)
        stream = engine.stream(query)
        collected = stream.next_k(1) + stream.next_k(2) + stream.next_k(7)
        assert signature(collected) == signature(eager.answers)

    def test_short_batch_then_empty_on_exhaustion(self, engine):
        stream = engine.stream("AlbertEinstein bornIn ?x")
        first = stream.next_k(5)
        assert len(first) == 1
        assert stream.exhausted
        assert stream.next_k(3) == []

    def test_rejects_bad_n(self, engine):
        with pytest.raises(TopKError):
            engine.stream("?x type ?y").next_k(0)

    def test_len_counts_emitted(self, engine):
        stream = engine.stream("?x type ?y")
        stream.next_k(2)
        assert len(stream) == 2


class TestCollectedAndIteration:
    def test_collected_accumulates(self, engine):
        query = "?x type ?y"
        stream = engine.stream(query)
        stream.next_k(2)
        partial = stream.collected()
        assert len(partial) == 2 and partial.k == 2
        stream.next_k(8)
        full = stream.collected()
        assert signature(full.answers) == signature(engine.ask(query, 10).answers)
        assert full.k == 10

    def test_iteration_pulls_lazily_and_replays(self, engine):
        query = "?x type ?y"
        eager = engine.ask(query, 10)
        stream = engine.stream(query)
        first_pass = list(stream)
        assert signature(first_pass) == signature(eager.answers)
        # Re-iteration replays the already-emitted answers identically.
        assert signature(list(stream)) == signature(first_pass)

    def test_iterating_a_tied_run_costs_the_pages_not_the_run(self, monkeypatch):
        # A 1,000-way tie is settled whole on the first page; every further
        # ``next_k(1)`` of ``__iter__`` must then cost its page — not
        # another ranking of the thousand.  Counted, not timed: a tie key
        # is computed at most once per aggregated entry.
        from repro.core.terms import Resource
        from repro.core.triples import Triple
        from repro.storage.store import TripleStore
        from repro.topk import idspace

        store = TripleStore()
        for i in range(1000):
            store.add(Triple(Resource(f"S{i:04d}"), Resource("p"), Resource("O")))
        computed = []
        tie_key = idspace.tie_key

        def counting_tie_key(sort_key, ids, names=None):
            computed.append(ids)
            return tie_key(sort_key, ids, names)

        monkeypatch.setattr(idspace, "tie_key", counting_tie_key)
        with TriniT(store, config=EngineConfig(executor_kind="serial")) as engine:
            eager = engine.ask("?x p O", 200)
            assert len(computed) == len(set(computed)) == 1000
            del computed[:]
            answers = list(itertools.islice(engine.stream("?x p O"), 200))
        assert signature(answers) == signature(eager.answers)
        assert len(computed) == len(set(computed)) == 1000


class TestStreamStats:
    def test_per_call_deltas_merge_to_cumulative(self, engine):
        stream = engine.stream("?x type ?y")
        deltas = []
        stream.next_k(1)
        deltas.append(stream.last_stats)
        stream.next_k(2)
        deltas.append(stream.last_stats)
        merged = QueryStats().merge(*deltas)
        cumulative = stream.stats
        assert merged == cumulative
        assert cumulative.answers_emitted == 3
        assert cumulative.resumes == 1

    def test_resume_does_not_recompute(self, engine):
        query = "?x type ?y"
        ask3 = engine.ask(query, 3).stats.sorted_accesses
        ask10 = engine.ask(query, 10).stats.sorted_accesses
        stream = engine.stream(query)
        stream.next_k(3)
        stream.next_k(7)
        # Paging 3-then-7 must beat re-asking at 3 and again at 10; the
        # second call alone must not redo the first call's accesses.
        assert stream.stats.sorted_accesses <= ask3 + ask10
        assert stream.last_stats.sorted_accesses <= ask10

    def test_eager_ask_has_no_streaming_counters(self, engine):
        stats = engine.ask("?x type ?y", 5).stats
        assert stats.answers_emitted == 0
        assert stats.resumes == 0


class TestQueryStatsAlgebra:
    def test_merge_sums_fieldwise(self):
        a = QueryStats(sorted_accesses=3, elapsed_seconds=0.5, resumes=1)
        b = QueryStats(sorted_accesses=4, candidates_formed=2)
        merged = a.merge(b)
        assert merged.sorted_accesses == 7
        assert merged.candidates_formed == 2
        assert merged.elapsed_seconds == 0.5
        assert merged.resumes == 1
        # merge() never mutates its operands
        assert a.sorted_accesses == 3 and b.sorted_accesses == 4

    def test_diff_inverts_merge(self):
        before = QueryStats(sorted_accesses=3, answers_emitted=2)
        after = QueryStats(sorted_accesses=10, answers_emitted=5, resumes=1)
        delta = after.diff(before)
        assert before.merge(delta) == after


class TestCloseMidStream:
    def test_next_k_after_close_raises(self):
        engine = paper_engine()
        stream = engine.stream("?x type ?y")
        stream.next_k(1)
        engine.close()
        with pytest.raises(StorageError):
            stream.next_k(1)

    def test_emitted_answers_survive_close(self):
        engine = paper_engine()
        stream = engine.stream("?x type ?y")
        batch = stream.next_k(2)
        engine.close()
        assert len(stream.collected()) == 2
        assert all(a.render() for a in batch)  # decoded answers still render


class TestBaselineDriverStats:
    def test_qars_exposes_driver_stats(self, frozen_small_store):
        from repro.baselines.qars import QarsBaseline
        from repro.core.parser import parse_query
        from repro.core.terms import Variable

        baseline = QarsBaseline(frozen_small_store)
        assert baseline.last_stats == QueryStats()
        terms = baseline.rank(parse_query("?x bornIn ?y"), Variable("x"), 3)
        assert terms
        assert baseline.last_stats.sorted_accesses > 0
        assert baseline.last_stats.rewritings_processed >= 1


class TestDemoMore:
    def test_session_more_resumes(self, frozen_small_store):
        from repro.core.engine import TriniT
        from repro.demo.interface import DemoSession

        engine = TriniT(frozen_small_store)
        eager = engine.ask("?x 'lectured at' ?y", 10)
        session = DemoSession(engine, k=1)
        session.run("?x 'lectured at' ?y")
        assert len(session.last_answers) == 1
        batch = session.more(1)
        assert signature(session.last_answers.answers) == signature(
            eager.answers[: 1 + len(batch)]
        )

    def test_more_without_query_raises(self, frozen_small_store):
        from repro.core.engine import TriniT
        from repro.demo.interface import DemoSession

        with pytest.raises(TrinitError):
            DemoSession(TriniT(frozen_small_store)).more()

    def test_render_more_screen(self, frozen_small_store):
        from repro.core.engine import TriniT
        from repro.demo.interface import DemoSession

        session = DemoSession(TriniT(frozen_small_store), k=1)
        session.run("?x 'lectured at' ?y")
        screen = session.render_more_screen()
        assert "More Answers" in screen
        assert "2." in screen
        # Exhaust, then the screen reports it.
        while session.more():
            pass
        assert "exhausted" in session.render_more_screen()
