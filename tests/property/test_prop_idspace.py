"""Property grids: random worlds × store layouts × configurations × oracles.

Random worlds (:func:`harness.differential.random_worlds`: triple soups
with weighted observations, token phrases and relaxation rules) and hand-
shaped ones — long tied runs, tied join bands — run through the
differential harness on both store layouts (``tests/layouts.py``): the
engine's answers — bindings, score bits, derivations — must be the term-
space reference core's in either termination mode, and with tied head
runs of any length its answers and work counters must be the per-item
oracle's, page by page.
"""

from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

from repro.core.parser import parse_query, parse_rule
from repro.relax.rules import RuleSet
from repro.scoring.language_model import ScoringConfig
from repro.topk.processor import ProcessorConfig, TopKProcessor
from repro.util.heap import TieFrontier

from harness.differential import (
    NO_MINING,
    PER_ITEM,
    RANDOM_QUERIES,
    TERMSPACE,
    Ask,
    fingerprint,
    pages,
    random_worlds,
    run,
    world,
)
from layouts import as_layout

SERIAL = dict(NO_MINING, executor_kind="serial")
PAGES = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(world=random_worlds(), query=RANDOM_QUERIES)
def test_idspace_equals_termspace_across_layouts(layout, settle_skip, world, query):
    # Adaptive termination may surface another equally-scored answer at the
    # k boundary than exhaustive evaluation: each mode has its own oracle.
    for exhaustive in (False, True):
        config = dict(NO_MINING, processor=ProcessorConfig(exhaustive=exhaustive))
        run(
            world, layout, [Ask(query, 5)], config, (TERMSPACE,),
            settle_skip=settle_skip,
        )


@settings(max_examples=30, deadline=None)
@given(
    world=random_worlds(),
    query=RANDOM_QUERIES,
    sizes=PAGES,
    batching=st.sampled_from(
        [{}, {"block_size": 2}, {"block_size": 3, "merge_batch": 2}]
    ),
)
def test_run_at_a_time_equals_per_item_oracle(
    layout, settle_skip, world, query, sizes, batching
):
    """The join advances by tied head runs; with ``block_size=1,
    merge_batch=1`` every run has length one.  Three confidences and small
    counts make most posting lists a handful of long ties, so runs span
    blocks, relaxation heads tie with the original's, and pages end inside
    runs — and answers, derivations and work counters must be those of
    the per-item oracle, page by page."""
    run(
        world, layout, pages(query, sizes), dict(SERIAL, **batching), (PER_ITEM,),
        counters=True, settle_skip=settle_skip,
    )


#: Confidences whose products round differently by multiplication order
#: (0.4 / 0.45 / 0.5 / 0.6 are the ones that once let a combination round
#: one ulp above its bound), plus the common ones.
CONFIDENCE_POOL = (0.4, 0.45, 0.5, 0.6, 0.8, 1.0)

pool_rows = st.lists(
    st.tuples(
        st.integers(0, 7).map("E{}".format),
        st.sampled_from(["p0", "p1", "p2"]),
        st.integers(0, 7).map("E{}".format),
        st.sampled_from(CONFIDENCE_POOL),
    ),
    min_size=1,
    max_size=30,
)

#: 2–3-pattern joins; ``worksFor`` exists only through a query-level
#: translation, so its rewriting's weight multiplies every score.
join_queries = st.sampled_from(
    [
        "?p worksFor ?u ; ?u p1 ?c",
        "?x p0 ?y ; ?y p1 ?z",
        "?x worksFor ?y ; ?y p1 ?z ; ?z p2 ?w",
        "?x p0 ?y ; ?y p2 ?z ; ?z p1 ?w",
    ]
)

ROUNDING_WORLD = [(f"P{i:02d}", "p0", f"U{i % 3}", 0.5) for i in range(12)] + [
    (f"U{i}", "p1", "C", 0.6) for i in range(3)
]


@settings(max_examples=30, deadline=None)
@given(
    rows=pool_rows,
    weight=st.sampled_from([0.4, 0.45, 0.6, 0.9]),
    query_text=join_queries,
    data=st.data(),
)
@example(
    rows=ROUNDING_WORLD,
    weight=0.4,
    query_text="?p worksFor ?u ; ?u p1 ?c",
    data=None,
).via("the twelve tied postings of the rounding world, reversed")
def test_prefix_stable_under_any_insertion_order(
    layout, tmp_path_factory, settle_skip, rows, weight, query_text, data
):
    """``ask(k)[:j] == ask(j)`` for every j, and the answers do not depend
    on the order the statements were inserted in: score and bound are
    multiplied in one order, so the bound dominates every score it covers
    whatever the confidences and the rewriting weight.  (Insertion order
    is compared without smoothing: the collection mass is a float sum in
    id order, so with smoothing the last bit of a score may follow it.)"""
    order = list(reversed(rows)) if data is None else data.draw(st.permutations(rows))
    rules = RuleSet([parse_rule(f"?x worksFor ?y => ?x p0 ?y @ {weight}")])
    query = parse_query(query_text)

    def answers(entries, smoothing):
        store = as_layout(world(entries).store(), layout, tmp_path_factory)
        processor = TopKProcessor(store, rules=rules, scoring=ScoringConfig(smoothing))
        total = len(processor.query(query, 1_000))
        prefixes = [fingerprint(processor.query(query, k)) for k in range(1, total + 1)]
        store.close()
        return prefixes

    with patch.object(TieFrontier, "MIN_SKIP", settle_skip):
        for entries in (rows, order):
            prefixes = answers(entries, ScoringConfig.smoothing)
            for k, page in enumerate(prefixes, 1):
                assert page == prefixes[-1][:k]
        assert answers(order, 0.0) == answers(rows, 0.0)


#: Two predicates, two confidences, twelve entities: long tied runs on
#: both sides of a relaxation, which ties with, beats or trails them.
relaxed_rows = st.lists(
    st.tuples(
        st.integers(0, 11).map("E{}".format),
        st.sampled_from(["p0", "p1"]),
        st.integers(0, 11).map("E{}".format),
        st.sampled_from((0.5, 1.0)),
    ),
    min_size=1,
    max_size=40,
)

#: Aligned (the projection is the pattern's variables in order),
#: unaligned, and one that drops a variable: a cursor settles only under a
#: projection keeping every variable of its pattern, or postings past the
#: stop would add derivations the reference counts.
single_queries = st.sampled_from(
    ["?x p0 ?y", "?y p0 ?x", "E1 p0 ?y", "?x p0 E2", "SELECT ?x WHERE ?x p0 ?y"]
)


def asks_and_pages(query, sizes):
    """``ask`` at 1, 3 and 8, then a stream's pages."""
    return [Ask(query, k) for k in (1, 3, 8)] + pages(query, sizes)


@settings(max_examples=40, deadline=None)
@given(
    rows=relaxed_rows,
    weight=st.sampled_from([0.25, 0.5, 1.0]),
    inverted=st.booleans(),
    query=single_queries,
    sizes=PAGES,
)
@example(
    rows=[("E0", "p0", f"E{i}", (1.0, 0.5)[i % 2]) for i in range(4)]
    + [("E0", "p1", "E0", 1.0), ("E0", "p1", "E1", 1.0), ("E0", "p1", "E2", 1.0)],
    weight=1.0,
    inverted=False,
    query="?x p0 ?y",
    sizes=[1, 1],
).via("page one settles on the first fresh binding of a run the merge trimmed")
def test_merge_settling_equals_reference(rows, weight, inverted, query, sizes):
    """A single pattern merged with one relaxation settles inside its head
    cursor's tied run wherever nothing else it merges can score as high;
    with no length bound on settling, every ``ask(k)`` — answers, scores,
    derivations — and every stream's pages must be the reference core's,
    which reads each tied run to its end."""
    shape = "?y p1 ?x" if inverted else "?x p1 ?y"
    rules = [f"?x p0 ?y => {shape} @ {weight}"]
    run(
        world(rows, rules), "fresh", asks_and_pages(query, sizes), SERIAL,
        (TERMSPACE,), settle_skip=0,
    )


@st.composite
def band_rows(draw):
    """8–60 statements over six entities, three predicates and a token
    phrase, at one to three distinct weights: joins whose tied bands fan
    out, tie across weights and leave lead values without a group."""
    weights = draw(
        st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=3, unique=True)
    )
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, 5).map("E{}".format),
                st.sampled_from(["p0", "p1", "p2", "'works at'"]),
                st.integers(0, 5).map("E{}".format),
                st.sampled_from(weights),
            ),
            min_size=8,
            max_size=60,
        )
    )


#: Led (the first name-sorted variable leads a pattern), unled, stars,
#: constants, a repeated variable, three-pattern chains, a token phrase
#: and — draining — a projection that drops a variable.
band_queries = st.sampled_from(
    [
        "?x p0 ?y . ?y p1 ?z",
        "?y p0 ?x . ?x p1 ?z",
        "?u p0 ?c . ?p p1 ?u",
        "?x p0 ?y . ?x p1 ?z",
        "?x p0 E1 . ?x p1 ?y",
        "?x p0 ?x . ?x p1 ?y",
        "?a p0 ?b . ?b p1 ?c . ?c p2 ?d",
        "?z p0 ?y . ?y p1 ?x . ?x p2 ?w",
        "?x 'works at' ?u . ?u p2 ?c",
        "SELECT ?x ?z WHERE ?x p0 ?y . ?y p1 ?z",
    ]
)


@settings(max_examples=100, deadline=None)
@given(
    rows=band_rows(),
    query=band_queries,
    relaxation=st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0])),
    sizes=PAGES,
)
def test_band_probe_equals_reference(layout, rows, query, relaxation, sizes):
    """With no length bound on settling, a join whose top tied band is
    enumerated by probes must give every ``ask(k)`` — answers, scores,
    derivations, token matches — and every stream's pages exactly as the
    reference core, which drains every tied run; ``relaxation`` merges a
    ``p2`` relaxation into the ``p1`` stream."""
    rules = [] if relaxation is None else [f"?x p1 ?y => ?x p2 ?y @ {relaxation}"]
    run(
        world(rows, rules), layout, asks_and_pages(query, sizes), SERIAL,
        (TERMSPACE,), settle_skip=0,
    )
