"""Property: a derived read view equals one built from scratch.

``TriniT.ingest`` / ``compact`` / ``add_rule`` publish a view whose token
matcher and statistics come from the previous view — extended by the
batch, carried across the compaction, reused as they are — instead of
sweeping the store again.  The sweep stays as the oracle: after every
step of a random write sequence, whatever the engine's matcher and
statistics have built is structurally equal to fresh instances over
``engine.store`` (``by_norm`` with its insertion order, ``by_key`` with
its list order, ``by_stem``, the three context maps), predicate masses
are bit-equal, and ``matches`` / ``context_pairs`` / ``suggest`` agree.

The vocabulary is chosen to collide: phrases whose norms equal a
resource's surface (``'born in'`` / ``bornIn``), phrases that share a
match key (``'lectured at'`` / ``'lectures at'``), a term with an empty
match key (``'the'``), and the same term arriving in several slots.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query
from repro.core.suggestion import QuerySuggester
from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.storage.sharded import ShardedBackend
from repro.storage.snapshot import save_snapshot
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatcher

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
]

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


def _frozen(entries, segments):
    store = TripleStore(backend=ShardedBackend(segments))
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


def _assert_equals_a_sweep(engine, matcher_state, statistics_state, *, force=False):
    """What the current view has built equals fresh instances over its
    store; ``force`` builds what is still lazy first."""
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
    if force or statistics.is_built:
        fresh = StoreStatistics(store)
        assert statistics_state(statistics) == statistics_state(fresh)
        predicates = fresh.predicates()
        assert statistics.predicates() == predicates
        for predicate in predicates:
            # Bit-equal, not approximately: one id-ordered sum on both sides.
            assert statistics.predicate_mass(predicate) == fresh.predicate_mass(predicate)
            assert statistics.args(predicate) == fresh.args(predicate)
        for slot in (0, 1, 2):
            assert statistics.terms_in_slot(slot) == fresh.terms_in_slot(slot)
            for term in ENTITIES + PREDICATES:
                assert statistics.context_pairs(term, slot) == fresh.context_pairs(term, slot)
    if force or (matcher.is_built and statistics.is_built):
        suggester = QuerySuggester(
            StoreStatistics(store),
            TokenMatcher(store),
            min_overlap=engine.config.suggestion_min_overlap,
        )
        for text in QUERIES:
            assert engine.suggest(text) == suggester.suggest(parse_query(text), None)


@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(rows, min_size=0, max_size=12),
    warm=st.sampled_from([None, "matcher", "statistics", "both", "both"]),
    sequence=st.lists(steps, min_size=1, max_size=10),
    threshold=st.sampled_from([None, 3]),
)
def test_derived_views_equal_a_sweep(
    segments, matcher_state, statistics_state, base, warm, sequence, threshold
):
    engine = TriniT(
        _frozen(base, segments),
        config=EngineConfig(parallelism=1, compaction_threshold=threshold),
    )
    try:
        _apply(engine, ("warm", warm))
        for step in sequence:
            _apply(engine, step)
            _assert_equals_a_sweep(engine, matcher_state, statistics_state)
        _assert_equals_a_sweep(engine, matcher_state, statistics_state, force=True)
    finally:
        engine.close()


@settings(max_examples=10, deadline=None)
@given(
    base=st.lists(rows, min_size=1, max_size=12),
    sequence=st.lists(steps, min_size=1, max_size=6),
)
def test_derived_views_equal_a_sweep_across_snapshot_generations(
    segments, matcher_state, statistics_state, base, sequence
):
    """The same property where compaction writes a generation and reloads
    it (``write_generation``), instead of rebuilding in memory."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "xkg.snapd"
        save_snapshot(_frozen(base, segments), root)
        engine = TriniT.open(
            root, config=EngineConfig(parallelism=1, compaction_threshold=4)
        )
        try:
            _apply(engine, ("warm", "both"))
            for step in sequence:
                _apply(engine, step)
                _assert_equals_a_sweep(engine, matcher_state, statistics_state)
            engine.compact()
            _assert_equals_a_sweep(engine, matcher_state, statistics_state, force=True)
        finally:
            engine.close()
