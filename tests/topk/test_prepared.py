"""Prepared query plans: a view's processor plans each query once.

A :class:`~repro.topk.processor.PreparedQuery` keeps a query's rewritings
and their stream specs for every later driver on the same processor.  The
contract is that a driver reading a prepared plan is indistinguishable
from one planning from scratch — answers, order, scores, derivations
(fresh ``pv*`` / ``fv*`` variable names included) and every work counter —
and that a plan never serves a view it was not derived from.  The
differential harness holds every answer to two oracles over a fresh build
of the statements: the same configuration planning from scratch (every
counter agrees) and the serial per-item reference (every counter no
batching knob governs agrees).  Synchronised with events only.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import TriniT
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
from repro.storage.store import TripleStore
from repro.topk.processor import TopKProcessor

from harness.differential import (
    PER_ITEM,
    AddRule,
    Ask,
    Compact,
    Ingest,
    Oracle,
    Page,
    fingerprint,
    pages,
    run,
    work,
    world_of,
)

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

PAPER = world_of(
    paper_store(), paper_rules() + [parse_rule(text) for text in WORKS_FOR]
)

#: The subject's own configuration planning from scratch, and the per-item
#: reference: every counter but those a differing knob governs must agree.
COLD = Oracle("cold engine", overrides=())
ORACLES = (COLD, PER_ITEM)


def make_engine():
    return TriniT(PAPER.store(), rules=PAPER.rules)


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
        assert work(second.stats) == work(first.stats)
    engine.close()


@pytest.mark.parametrize("text", QUERIES)
def test_larger_k_and_interleaved_streams_on_a_warm_plan(text):
    schedule = (("first", 1), ("second", 2), ("first", 2), ("second", 1), ("first", 3))
    workload = [Ask(text, 3), Ask(text, 12)]
    workload += [Page(text, n, name) for name, n in schedule]
    run(PAPER, "fresh", workload, {}, ORACLES, counters=True)
    with make_engine() as engine:
        assert engine.stream(text)._driver._plan is engine.stream(text)._driver._plan


def test_later_rewritings_only_a_larger_k_reaches():
    workload = [Ask("AlbertEinstein worksFor ?x", k) for k in (1, 3, 1)]
    trace = run(PAPER, "fresh", workload, {}, ORACLES, counters=True)
    (_, small), (_, large), (_, again) = trace
    assert large["rewritings_processed"] > small["rewritings_processed"]
    assert again == small


@pytest.mark.parametrize("text", QUERIES)
def test_caller_threads_race_into_one_cold_plan(text):
    """More caller threads than cores extend one empty plan at once; every
    result must be the single cold ask's, byte for byte."""
    engine = make_engine()
    reference = make_engine()
    reference.processor.MAX_PREPARED = 0
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
    for got in results:
        assert fingerprint(got) == fingerprint(want)
        assert work(got.stats) == work(want.stats)
    engine.close()
    reference.close()


def test_a_planning_step_that_raises_commits_nothing(monkeypatch):
    """An error while the plan grows — in a stream spec or in the rewriting
    enumeration — leaves it as it was: the next ask derives what a cold
    engine does, fresh variable names included."""
    texts = ["?p affiliation ?u ; ?u 'housed in' ?c", "?x bornIn Germany"]
    reference = make_engine()
    reference.processor.MAX_PREPARED = 0
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


MET_HIS_TEACHER = "?x 'met his teacher' ?y => ?y hasStudent ?x @ 0.6"


def test_an_added_rule_reaches_a_prepared_query(layout):
    text = "AlbertEinstein 'met his teacher' ?x"
    processors = []

    def keep(engine):
        processors.append(engine.processor)

    workload = [Ask(text), keep, AddRule(MET_HIS_TEACHER), keep, Ask(text)]
    trace = run(PAPER, layout, workload, {}, ORACLES, counters=True)
    assert trace[0][0] != trace[4][0]
    assert processors[0] is not processors[1]


#: Figure 4 rule 1 applies to "?x bornIn Germany" only once the store says
#: "Germany type country": its condition, checked while planning.
COUNTRY = ("Germany", "type", "country")


def figure4():
    store = TripleStore()
    ulm = Triple(Resource("Ulm"), Resource("type"), Resource("city"))
    store.add_all(paper_kg() + [ulm])
    for triple, provenance, confidence in paper_xkg_extension():
        store.add(triple, provenance, confidence=confidence)
    return world_of(store, paper_rules())


def test_an_ingest_that_makes_a_rule_condition_hold_reaches_a_prepared_query(layout):
    def rewritten_by_a_condition(engine):
        top = engine.ask("?x bornIn Germany").top()
        assert top.value("x") == Resource("AlbertEinstein")
        assert top.derivation.rewriting[0].conditions

    workload = [Ask("?x bornIn Germany"), Ingest([COUNTRY]), Ask("?x bornIn Germany")]
    workload.append(rewritten_by_a_condition)
    trace = run(figure4(), layout, workload, {}, ORACLES, counters=True)
    assert trace[0][0] == []


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


#: Every kind of write a carried plan meets; the grid below holds the
#: answers after each to a fresh build.
WRITES = {
    **{kind: [Ingest(batch)] for kind, (_text, batch) in TOUCHING.items()},
    "unrelated batch": [Ingest(UNRELATED)],
    "compaction": [Ingest(UNRELATED), Compact()],
    "added rule": [AddRule(MET_HIS_TEACHER)],
}


@pytest.mark.parametrize(
    "kind, store_layout",
    [(kind, "fresh") for kind in WRITES] + [("compaction", "generational")],
)
def test_plans_after_a_write_answer_as_a_fresh_build(kind, store_layout):
    """Every query asked before the write (so each has a plan to carry or
    drop), then again at the default k and at 12: answers and counters as
    a cold engine's over a fresh build of the statements and rules."""
    texts = QUERIES + [text for text, _batch in TOUCHING.values()]
    after = [Ask(text, k) for text in texts for k in (10, 12)]
    workload = [*after[1::2], *WRITES[kind], *after]
    run(PAPER, store_layout, workload, {}, ORACLES, counters=True)


def test_a_batch_that_touches_no_read_carries_every_plan(monkeypatch):
    engine = make_engine()
    texts = QUERIES + [text for text, _batch in TOUCHING.values()]
    for text in texts:
        engine.ask(text)
    plans = {text: engine.processor.prepared(parse_query(text)) for text in texts}
    engine.ingest(UNRELATED)
    specs = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    rewrites = count_calls(monkeypatch, RewriteEngine, "iter_rewrites")
    for text in texts:
        engine.ask(text)
    assert (specs, rewrites) == ([], [])
    for text in texts:
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
    engine.ask(text, k=12)
    assert specs  # planned again
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


def test_a_condition_that_starts_to_hold_reaches_the_carried_answers(layout):
    text = "?x bornIn Germany"

    def misses_the_condition(engine):
        plan = engine.processor.prepared(parse_query(text))
        misses = {Triple(*p.terms()) for p in plan.reads.misses}
        assert Triple(*map(Resource, COUNTRY)) in misses

    workload = [
        Ask(text),
        misses_the_condition,
        Ingest(UNRELATED),
        Ask(text),
        Ingest([COUNTRY]),
        Ask(text),
    ]
    trace = run(figure4(), layout, workload, {}, ORACLES, counters=True)
    # Carried across the unrelated batch, the condition still fails.
    assert [bool(trace[i][0]) for i in (0, 3, 5)] == [False, False, True]


def test_a_stream_on_a_superseded_view_extends_a_private_copy(layout):
    """A stream whose plan was sealed for the next view reads past it from
    a copy of its own: its pages stay those of a stream over the statements
    it opened on, the sealed plan does not move, and the next view's plan
    answers as a fresh build does."""
    text = "AlbertEinstein worksFor ?x"
    plans = []

    def keep_the_plan(engine):
        plan = engine.processor.prepared(parse_query(text))
        plans.append((plan, len(plan._rewritings)))

    workload = [
        Page(text, 1, "s"),
        keep_the_plan,
        Ingest(UNRELATED),
        *pages(text, [1, 1, 1], "s"),
        Ask(text, 12),
    ]
    run(PAPER, layout, workload, {}, ORACLES, counters=True)
    [(sealed, read)] = plans
    assert sealed._sealed
    assert len(sealed._rewritings) == read


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
    engine.close()


def test_an_added_rule_starts_cold(monkeypatch):
    engine = make_engine()
    for text in QUERIES:
        engine.ask(text)
    engine.add_rule(MET_HIS_TEACHER)
    assert engine.processor._inherited == {} and not engine.processor._plans
    planned = count_calls(monkeypatch, TopKProcessor, "_stream_specs")
    for text in QUERIES:
        engine.ask(text)
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
