"""Prepared query plans: a view's processor plans each query once.

A :class:`~repro.topk.processor.PreparedQuery` keeps a query's rewritings
and their stream specs for every later driver on the same processor.  The
contract is that a driver reading a prepared plan is indistinguishable
from one planning from scratch — answers, order, scores, derivations
(fresh ``pv*`` / ``fv*`` variable names included) and every work counter —
and that a plan never serves a view it was not derived from.  A "cold"
engine below is one whose processor keeps no plan (``MAX_PREPARED`` 0), so
each of its drivers plans from scratch; the oracle is the serial per-item
reference configuration, also cold.  Synchronised with events only.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.kg.paper_example import (
    paper_kg,
    paper_rules,
    paper_store,
    paper_xkg_extension,
)
from repro.relax.rewriting import RewriteEngine
from repro.storage.snapshot import save_snapshot
from repro.topk.processor import TopKProcessor

ORACLE = dict(executor_kind="serial", merge_batch=1, block_size=1)

#: Caller threads racing into one cold plan.
CALLERS = 8

#: Translation rules for a predicate the store does not know: rewritings
#: at the query level, the lighter one reached only for a larger k.
WORKS_FOR = [
    "?x worksFor ?y => ?x affiliation ?y @ 0.9",
    "?x worksFor ?y => ?x 'lectured at' ?y @ 0.3",
]

QUERIES = [
    # A multi-pattern rule whose second original is a store condition;
    # its replacement brings a fresh fv* variable.
    "?x bornIn Germany",
    # Pattern-level relaxations, one a chain expansion with a fresh pv*.
    "AlbertEinstein affiliation ?x",
    # Later rewritings only a larger k reaches.
    "AlbertEinstein worksFor ?x",
    "?p affiliation ?u ; ?u 'housed in' ?c",
    "?x hasAdvisor ?y",
]

#: Counters that do not depend on block size or batching (the oracle's
#: others differ by design: it decodes no blocks).
ORACLE_COUNTERS = (
    "sorted_accesses",
    "candidates_formed",
    "cursors_opened",
    "relaxations_considered",
    "rewritings_enumerated",
    "rewritings_processed",
)


def make_engine(*, cold=False, **config):
    rules = paper_rules() + [parse_rule(text) for text in WORKS_FOR]
    engine = TriniT(paper_store(), config=EngineConfig(**config), rules=rules)
    if cold:
        engine.processor.MAX_PREPARED = 0
    return engine


def fingerprint(answers):
    return [
        (answer.binding, answer.score, answer.num_derivations, repr(answer.derivation))
        for answer in answers
    ]


def counters(stats, *names):
    values = asdict(stats)
    del values["elapsed_seconds"]
    return {name: values[name] for name in names} if names else values


def run_script(engine, script):
    """``script(engine)`` yields (answers, stats) pairs; fingerprint them."""
    return [(fingerprint(answers), stats) for answers, stats in script(engine)]


def assert_same_as_cold_and_oracle(script):
    warm, cold, oracle = make_engine(), make_engine(cold=True), make_engine(cold=True, **ORACLE)
    got = run_script(warm, script)
    want = run_script(cold, script)
    reference = run_script(oracle, script)
    assert [answers for answers, _ in got] == [answers for answers, _ in want]
    assert [counters(stats) for _, stats in got] == [counters(stats) for _, stats in want]
    assert [answers for answers, _ in got] == [answers for answers, _ in reference]
    assert [counters(stats, *ORACLE_COUNTERS) for _, stats in got] == [
        counters(stats, *ORACLE_COUNTERS) for _, stats in reference
    ]
    for engine in (warm, cold, oracle):
        engine.close()
    return got


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_second_ask_on_one_view_plans_nothing(monkeypatch):
    engine = make_engine()
    specs = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    rewrites = count_calls(monkeypatch, RewriteEngine, "iter_rewrites")
    for text in QUERIES:
        first = engine.ask(text)
        assert specs and rewrites
        specs.clear()
        rewrites.clear()
        second = engine.ask(text)
        assert (specs, rewrites) == ([], [])
        assert fingerprint(second) == fingerprint(first)
        assert counters(second.stats) == counters(first.stats)
    engine.close()


@pytest.mark.parametrize("text", QUERIES)
def test_a_larger_k_on_a_warm_plan(text):
    def script(engine):
        for k in (3, 12):
            answers = engine.ask(text, k=k)
            yield answers, answers.stats

    assert_same_as_cold_and_oracle(script)


def test_later_rewritings_only_a_larger_k_reaches():
    text = "AlbertEinstein worksFor ?x"

    def script(engine):
        for k in (1, 3, 1):
            answers = engine.ask(text, k=k)
            yield answers, answers.stats

    (_, small), (_, large), (_, again) = assert_same_as_cold_and_oracle(script)
    assert large.rewritings_processed > small.rewritings_processed
    assert counters(again) == counters(small)


@pytest.mark.parametrize("text", QUERIES)
def test_interleaved_streams_share_one_plan(text):
    def script(engine):
        first, second = engine.stream(text), engine.stream(text)
        assert (first._driver._plan is second._driver._plan) == (
            engine.processor.MAX_PREPARED > 0
        )
        for stream, n in ((first, 1), (second, 2), (first, 2), (second, 1), (first, 3)):
            yield stream.next_k(n), stream.last_stats
        yield [], first.stats
        yield [], second.stats

    assert_same_as_cold_and_oracle(script)


@pytest.mark.parametrize("text", QUERIES)
def test_caller_threads_race_into_one_cold_plan(text):
    """More caller threads than cores extend one empty plan at once; every
    result must be the single cold ask's, byte for byte."""
    engine = make_engine()
    reference = make_engine(cold=True)
    want = reference.ask(text)
    start = threading.Barrier(CALLERS)

    def ask():
        start.wait(timeout=30)
        return engine.ask(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=CALLERS) as callers:
            futures = [callers.submit(ask) for _ in range(CALLERS)]
            results = [future.result() for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # block_cache_hits is retired (always 0); the mask outlived the
    # cache whose hits depended on the callers' interleaving.
    for got in results:
        assert fingerprint(got) == fingerprint(want)
        assert counters(got.stats) | {"block_cache_hits": 0} == counters(want.stats) | {
            "block_cache_hits": 0
        }
    engine.close()
    reference.close()


def test_a_planning_step_that_raises_commits_nothing(monkeypatch):
    """An error while the plan grows — in a stream spec or in the rewriting
    enumeration — leaves it as it was: the next ask derives what a cold
    engine does, fresh variable names included."""
    texts = ["?p affiliation ?u ; ?u 'housed in' ?c", "?x bornIn Germany"]
    reference = make_engine(cold=True)
    want = [fingerprint(reference.ask(text)) for text in texts]
    engine = make_engine()
    processor = engine.processor
    build = TopKProcessor._stream_specs
    calls = []

    def fails_second(self, *args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("planning interrupted")
        return build(self, *args)

    monkeypatch.setattr(TopKProcessor, "_stream_specs", fails_second)
    with pytest.raises(RuntimeError):
        engine.ask(texts[0])
    assert fingerprint(engine.ask(texts[0])) == want[0]

    holds = processor._rewriter.condition_checker
    checks = []

    def fails_first(pattern):
        checks.append(pattern)
        if len(checks) == 1:
            raise RuntimeError("condition check interrupted")
        return holds(pattern)

    processor._rewriter.condition_checker = fails_first
    with pytest.raises(RuntimeError):
        engine.ask(texts[1])
    assert fingerprint(engine.ask(texts[1])) == want[1]
    assert len(checks) > 1
    engine.close()
    reference.close()


# -- invalidation: a plan dies with its view ---------------------------------


def test_an_added_rule_reaches_a_prepared_query():
    engine = make_engine()
    text = "AlbertEinstein 'met his teacher' ?x"
    before = engine.ask(text)
    processor = engine.processor
    engine.add_rule("?x 'met his teacher' ?y => ?y hasStudent ?x @ 0.6")
    assert engine.processor is not processor
    after = engine.ask(text)
    assert fingerprint(after) != fingerprint(before)
    fresh = TriniT(
        paper_store(),
        rules=engine.rules,
        config=EngineConfig(mine_arg_overlap=False, mine_chains=False, mine_inversions=False),
    )
    assert fingerprint(after) == fingerprint(fresh.ask(text))
    engine.close()
    fresh.close()


def test_an_ingest_that_makes_a_rule_condition_hold_reaches_a_prepared_query():
    # Figure 4 rule 1 applies to "?x bornIn Germany" only once the store
    # says "Germany type country": its condition, checked while planning.
    country = Triple(Resource("Germany"), Resource("type"), Resource("country"))
    triples = paper_kg() + [Triple(Resource("Ulm"), Resource("type"), Resource("city"))]
    engine = TriniT.from_triples(triples, paper_xkg_extension(), rules=paper_rules())
    text = "?x bornIn Germany"
    assert engine.ask(text).is_empty
    engine.ingest([country])
    answers = engine.ask(text)
    assert answers.top().value("x") == Resource("AlbertEinstein")
    assert answers.top().derivation.rewriting[0].conditions
    fresh = TriniT.from_triples(triples + [country], paper_xkg_extension(), rules=paper_rules())
    assert fingerprint(answers) == fingerprint(fresh.ask(text))
    engine.close()
    fresh.close()


def test_a_compaction_replans_on_the_compacted_store():
    engine = make_engine()
    text = "AlbertEinstein worksFor ?x"
    engine.ask(text)
    engine.ingest([Triple(Resource("AlbertEinstein"), Resource("affiliation"), Resource("ETH"))])
    processor = engine.processor
    plan = processor.prepared(parse_query(text))
    ingested = engine.ask(text)
    engine.compact()
    assert engine.processor is not processor
    assert engine.processor.prepared(parse_query(text)) is not plan
    compacted = engine.ask(text)
    assert Resource("ETH") in compacted.terms_for("x")
    assert fingerprint(compacted) == fingerprint(ingested)
    engine.close()


# -- carrying: a plan outlives an ingest that cannot change it --------------------

#: A batch in vocabulary no query below reads: no resource they miss, no
#: stem or norm of a token they expand, no condition, no translated rule.
UNRELATED = [Triple(Resource("Zurich"), Resource("twinnedWith"), Resource("Sydney"))]

#: Per read-set kind: a query whose plan reads it, and a batch that
#: changes what that read answers.
TOUCHING = {
    # NielsBohr is unknown: the plan expands it as the token 'niels bohr'.
    # It arrives as an object, so no subject's stems move.
    "unknown resource becomes known": (
        "NielsBohr affiliation ?x",
        [Triple(Resource("IAS"), Resource("director"), Resource("NielsBohr"))],
    ),
    # 'lectured at' expanded in the predicate slot: 'lectures at' shares
    # its stems.  'the' has no stems: only its very norm matches it.
    "token slot gains a stem": (
        "AlbertEinstein 'lectured at' ?x",
        [Triple(Resource("MaxPlanck"), TextToken("lectures at"), Resource("Berlin"))],
    ),
    "token slot gains the norm": (
        "?x 'the' ?y",
        [Triple(Resource("KWI"), TextToken("the"), Resource("Berlin"))],
    ),
    # Figure 4 rule 1 needs "Ulm type country" for this query's rewriting.
    "a false condition starts to hold": (
        "?x bornIn Ulm",
        [Triple(Resource("Ulm"), Resource("type"), Resource("country"))],
    ),
    # worksFor is unknown, so its rules route at the rewriting level.
    "a translated predicate becomes known": (
        "AlbertEinstein worksFor ?x",
        [Triple(Resource("MaxPlanck"), Resource("worksFor"), Resource("KWI"))],
    ),
}


def cold_answers(engine, text, k=None):
    """``text`` answered by a processor over the engine's current view that
    carries nothing: it plans from scratch."""
    view = engine._state.view
    cold = TopKProcessor(
        view.store,
        rules=view.rules,
        scorer=view.scorer,
        matcher=view.matcher,
        config=engine.config.processor,
    )
    return cold.query(parse_query(text), k)


def assert_answers_as_cold(engine, text, k=None):
    got, want = engine.ask(text, k), cold_answers(engine, text, k)
    assert fingerprint(got) == fingerprint(want)
    assert counters(got.stats) == counters(want.stats)
    return got


def test_a_batch_that_touches_no_read_carries_every_plan(monkeypatch):
    engine = make_engine()
    texts = QUERIES + [text for text, _batch in TOUCHING.values()]
    for text in texts:
        engine.ask(text)
    plans = {text: engine.processor.prepared(parse_query(text)) for text in texts}
    engine.ingest(UNRELATED)
    specs = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    rewrites = count_calls(monkeypatch, RewriteEngine, "iter_rewrites")
    carried = {text: engine.ask(text) for text in texts}
    assert (specs, rewrites) == ([], [])
    for text in texts:
        assert fingerprint(carried[text]) == fingerprint(cold_answers(engine, text))
        plan = engine.processor.prepared(parse_query(text))
        assert plan is not plans[text]
        assert plan._rewriter is engine.processor._rewriter
    engine.close()


@pytest.mark.parametrize("kind", list(TOUCHING))
def test_a_batch_that_touches_a_read_replans(kind, monkeypatch):
    text, batch = TOUCHING[kind]
    engine = make_engine()
    engine.ask(text)
    plan = engine.processor.prepared(parse_query(text))
    engine.ingest(batch)
    specs = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    got = engine.ask(text, k=12)
    assert specs  # planned again
    want = cold_answers(engine, text, k=12)
    assert fingerprint(got) == fingerprint(want)
    assert counters(got.stats) == counters(want.stats)
    assert engine.processor.prepared(parse_query(text)) is not plan
    engine.close()


def test_a_batch_that_touches_one_read_leaves_the_other_plans_carried(monkeypatch):
    engine = make_engine()
    text, batch = TOUCHING["unknown resource becomes known"]
    for query in QUERIES + [text]:
        engine.ask(query)
    engine.ingest(batch)
    planned = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    for query in QUERIES:
        engine.ask(query)
    assert planned == []
    engine.ask(text)
    assert planned
    engine.close()


def test_a_condition_that_starts_to_hold_reaches_the_carried_answers():
    country = Triple(Resource("Germany"), Resource("type"), Resource("country"))
    triples = paper_kg() + [Triple(Resource("Ulm"), Resource("type"), Resource("city"))]
    engine = TriniT.from_triples(triples, paper_xkg_extension(), rules=paper_rules())
    text = "?x bornIn Germany"
    assert engine.ask(text).is_empty
    plan = engine.processor.prepared(parse_query(text))
    assert country in {Triple(*p.terms()) for p in plan.reads.misses}
    engine.ingest(UNRELATED)
    assert engine.ask(text).is_empty  # carried: the condition still fails
    engine.ingest([country])
    assert_answers_as_cold(engine, text)
    assert not engine.ask(text).is_empty
    engine.close()


def test_a_stream_on_a_superseded_view_extends_a_private_copy():
    """A stream whose plan was sealed for the next view reads past it from
    a copy of its own; the next view's plan does not move."""
    text = "AlbertEinstein worksFor ?x"
    quiet = make_engine()
    quiet_stream = quiet.stream(text)
    want = [fingerprint(quiet_stream.next_k(1)) for _ in range(4)]
    engine = make_engine()
    stream = engine.stream(text)
    got = [fingerprint(stream.next_k(1))]
    sealed = stream._driver._plan
    read = len(sealed._rewritings)
    engine.ingest(UNRELATED)
    assert sealed._sealed
    got += [fingerprint(stream.next_k(1)) for _ in range(3)]
    assert got == want
    assert len(sealed._rewritings) == read
    assert_answers_as_cold(engine, text, k=12)
    engine.close()
    quiet.close()


@pytest.mark.parametrize("backing", ["memory", "snapshot"])
def test_carried_plans_after_a_compaction_keep_no_superseded_store(backing, tmp_path):
    engine = make_engine()
    if backing == "snapshot":
        save_snapshot(engine.store, tmp_path / "xkg.snapd")
        rules = engine.rules
        engine.close()
        engine = TriniT.open(tmp_path / "xkg.snapd", rules=rules)
    for text in QUERIES:
        engine.ask(text)
    engine.ingest(UNRELATED)
    old_store = engine.store
    engine.compact()
    processor = engine.processor
    assert processor._inherited == {}
    assert set(processor._plans) == {parse_query(text) for text in QUERIES}
    for plan in processor._plans.values():
        assert plan._rewriter is processor._rewriter
        assert plan._rewriter.condition_checker.store is engine.store is not old_store
    assert old_store.closed
    for text in QUERIES:
        assert_answers_as_cold(engine, text, k=12)
    engine.close()


def test_an_added_rule_starts_cold(monkeypatch):
    engine = make_engine()
    for text in QUERIES:
        engine.ask(text)
    engine.add_rule("?x 'met his teacher' ?y => ?y hasStudent ?x @ 0.6")
    assert engine.processor._inherited == {} and not engine.processor._plans
    planned = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    for text in QUERIES:
        assert_answers_as_cold(engine, text)
    assert planned
    engine.close()


# -- the cap ------------------------------------------------------------------------


def test_past_the_cap_the_least_recently_used_plan_goes(monkeypatch):
    engine = make_engine()
    processor = engine.processor
    processor.MAX_PREPARED = 2
    first = {text: fingerprint(engine.ask(text)) for text in QUERIES[:2]}
    engine.ask(QUERIES[0])  # now the most recently used
    engine.ask(QUERIES[2])
    assert list(processor._plans) == [parse_query(q) for q in (QUERIES[0], QUERIES[2])]
    specs = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    assert fingerprint(engine.ask(QUERIES[0])) == first[QUERIES[0]]
    assert specs == []
    assert fingerprint(engine.ask(QUERIES[1])) == first[QUERIES[1]]
    assert specs  # evicted: planned again, to the same answers
    assert len(processor._plans) == 2
    engine.close()
