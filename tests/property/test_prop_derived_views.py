"""Property: a derived read view equals one built from scratch.

``TriniT.ingest`` / ``compact`` / ``add_rule`` publish a view whose token
matcher comes from the previous view — extended by the batch, carried
across the compaction, reused as it is — instead of sweeping the store
again; its statistics read the store's posting index.  Sweeps stay as the
oracles: after every step of a random write sequence, whatever the
engine's matcher has built is structurally equal to a fresh instance over
``engine.store`` (``by_norm`` with its insertion order, ``by_key`` with
its list order, ``by_stem``), every statistics read equals the id-order
sweep (:mod:`statistics_reference`: predicate order, masses bit for bit,
``args``, ``terms_in_slot``, ``context_pairs``), and ``matches`` /
``suggest`` agree.

The vocabulary is chosen to collide: phrases whose norms equal a
resource's surface (``'born in'`` / ``bornIn``), phrases that share a
match key (``'lectured at'`` / ``'lectures at'``), a term with an empty
match key (``'the'``), and the same term arriving in several slots.

The query plans a view's processor carries into the next view are held
to the same standard: after every write, each query answers from them
exactly as a processor over the new view that plans from scratch.  The
queries read what a write can change: a resource the store may not know
yet (``E3``), a predicate that may arrive under a translated rule
(``worksAt``), a rule condition that may start to hold (``Ulm type E0``)
and tokens whose slots gain phrases.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query
from repro.core.suggestion import QuerySuggester
from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.storage.snapshot import save_snapshot
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatcher
from repro.topk.processor import TopKProcessor

from layouts import as_layout, generational_copy
from statistics_reference import SweptStatistics, assert_reads_equal

ENTITIES = [
    Resource("AlbertEinstein"),
    TextToken("albert einstein"),
    TextToken("Einstein"),
    Resource("Ulm"),
    TextToken("ulm"),
    Resource("ETH"),
    TextToken("the"),
    Resource("bornIn"),  # a predicate's name in an argument slot
] + [Resource(f"E{i}") for i in range(4)]
PREDICATES = [
    Resource("bornIn"),
    TextToken("born in"),
    TextToken("was born in"),
    Resource("lecturedAt"),
    TextToken("lectured at"),
    TextToken("lectures at"),
    Resource("type"),
    TextToken("of the"),
    TextToken("ulm"),  # an entity's phrase in the predicate slot
    Resource("worksAt"),  # a translated rule's predicate, once it arrives
]
PROBES = [
    TextToken("born in"),
    TextToken("born"),
    TextToken("lecture at"),
    TextToken("albert einstein"),
    TextToken("einstein"),
    TextToken("ulm"),
    TextToken("the"),
    TextToken("unrelated words"),
]
QUERIES = ["?x 'born in' ?y", "'einstein' 'lectures at' ?y", "?x type 'ulm'"]
RULES = [
    "?x bornIn ?y => ?x 'born in' ?y @ 0.8",
    "?x lecturedAt ?y => ?x 'lectured at' ?y @ 0.7",
    "?x type ?y => ?x bornIn ?y @ 0.3",
    "?x worksAt ?y => ?x 'lectures at' ?y @ 0.6",
    "?x bornIn ?y ; ?y type E0 => ?x 'was born in' ?y @ 0.5",
]
#: Asked after every step, so each write finds plans to carry.
PLANNED = QUERIES + ["?x worksAt ?y", "E3 lecturedAt ?y", "?x bornIn Ulm"]

rows = st.tuples(
    st.builds(
        Triple,
        st.sampled_from(ENTITIES),
        st.sampled_from(PREDICATES),
        st.sampled_from(ENTITIES),
    ),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=3),
)
steps = st.one_of(
    st.tuples(st.just("ingest"), st.lists(rows, min_size=0, max_size=6)),
    st.tuples(st.just("rule"), st.sampled_from(RULES)),
    st.tuples(st.just("compact"), st.none()),
    st.tuples(st.just("warm"), st.sampled_from(["matcher", "statistics", "both"])),
)


def _frozen(entries):
    store = TripleStore()
    for triple, confidence, count in entries:
        store.add(triple, confidence=confidence, count=count)
    return store.freeze()


def _apply(engine, step):
    kind, argument = step
    if kind == "ingest":
        # One call per row: each carries its own confidence and count, and
        # a duplicate of a delta statement moves a weight already summed.
        for triple, confidence, count in argument:
            engine.ingest([triple], confidence=confidence, count=count)
        engine.ingest([triple for triple, _c, _n in argument])
    elif kind == "rule":
        engine.add_rule(argument)
    elif kind == "compact":
        engine.compact()
    else:
        if argument in ("matcher", "both"):
            engine.matcher.matches(PROBES[0], 1)
        if argument in ("statistics", "both"):
            engine.statistics.predicates()


def _assert_equals_a_sweep(engine, matcher_state, *, force=False):
    """What the current view has built equals a fresh matcher over its
    store, and its statistics read what the sweep does; ``force`` builds
    the matcher first if it is still lazy."""
    store = engine.store
    matcher, statistics = engine.matcher, engine.statistics
    assert matcher.store is store and statistics.store is store
    if force or matcher.is_built:
        fresh = TokenMatcher(store)
        assert matcher_state(matcher) == matcher_state(fresh)
        for slot in (0, 1, 2):
            assert matcher.phrases_in_slot(slot) == fresh.phrases_in_slot(slot)
            for probe in PROBES:
                assert matcher.matches(probe, slot) == fresh.matches(probe, slot)
    assert_reads_equal(statistics, ENTITIES + PREDICATES)
    if force or matcher.is_built:
        suggester = QuerySuggester(
            SweptStatistics(store),
            TokenMatcher(store),
            min_overlap=engine.config.suggestion_min_overlap,
        )
        for text in QUERIES:
            assert engine.suggest(text) == suggester.suggest(parse_query(text), None)


def _assert_plans_answer_as_cold(engine):
    """Every planned query answers from the current processor's plans —
    carried, or planned here to be carried by the next write — exactly as
    from a processor over the same view that plans from scratch."""
    view = engine._state.view
    cold = TopKProcessor(
        view.store,
        rules=view.rules,
        scorer=view.scorer,
        matcher=view.matcher,
        config=engine.config.processor,
    )
    for text in PLANNED:
        query = parse_query(text)
        got, want = engine.ask(query, 5), cold.query(query, 5)
        assert [(a.binding, a.score, repr(a.derivation)) for a in got] == [
            (a.binding, a.score, repr(a.derivation)) for a in want
        ], text


@settings(max_examples=40, deadline=None)
@given(
    base=st.lists(rows, min_size=0, max_size=12),
    sequence=st.lists(steps, min_size=1, max_size=10),
    threshold=st.sampled_from([None, 3]),
)
def test_carried_plans_answer_as_a_cold_processor(
    layout, tmp_path_factory, base, sequence, threshold
):
    engine = TriniT(
        as_layout(_frozen(base), layout, tmp_path_factory),
        config=EngineConfig(executor_kind="serial", compaction_threshold=threshold),
    )
    try:
        _assert_plans_answer_as_cold(engine)
        for step in sequence:
            _apply(engine, step)
            _assert_plans_answer_as_cold(engine)
    finally:
        engine.close()


@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(rows, min_size=0, max_size=12),
    warm=st.sampled_from([None, "matcher", "statistics", "both", "both"]),
    sequence=st.lists(steps, min_size=1, max_size=10),
    threshold=st.sampled_from([None, 3]),
)
def test_derived_views_equal_a_sweep(
    layout, tmp_path_factory, matcher_state, base, warm,
    sequence, threshold,
):
    engine = TriniT(
        as_layout(_frozen(base), layout, tmp_path_factory),
        config=EngineConfig(executor_kind="serial", compaction_threshold=threshold),
    )
    try:
        _apply(engine, ("warm", warm))
        for step in sequence:
            _apply(engine, step)
            _assert_equals_a_sweep(engine, matcher_state)
        _assert_equals_a_sweep(engine, matcher_state, force=True)
    finally:
        engine.close()


@settings(max_examples=10, deadline=None)
@given(
    base=st.lists(rows, min_size=1, max_size=12),
    sequence=st.lists(steps, min_size=1, max_size=6),
)
def test_derived_views_equal_a_sweep_across_snapshot_generations(
    layout, matcher_state, base, sequence
):
    """The same property where compaction writes a generation and reloads
    it (``write_generation``), instead of rebuilding in memory."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "xkg.snapd"
        config = EngineConfig(executor_kind="serial", compaction_threshold=4)
        if layout == "fresh":
            save_snapshot(_frozen(base), root)
            engine = TriniT.open(root, config=config)
        else:
            engine = TriniT(generational_copy(_frozen(base), root), config=config)
        try:
            _apply(engine, ("warm", "both"))
            for step in sequence:
                _apply(engine, step)
                _assert_equals_a_sweep(engine, matcher_state)
            engine.compact()
            _assert_equals_a_sweep(engine, matcher_state, force=True)
        finally:
            engine.close()
