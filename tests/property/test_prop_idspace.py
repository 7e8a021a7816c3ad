"""Property-based equivalence: id-space × store layouts × termination modes.

Random worlds (triple soups with weighted observations and token phrases),
random single-pattern relaxation rules, and random conjunctive queries —
every combination of execution core (the engine / the term-space reference
core of ``tests/reference_core.py``), store layout (fresh / generational,
``tests/layouts.py``) and termination (adaptive/exhaustive) must
produce the *same* :class:`AnswerSet`: identical projection bindings,
identical scores, and identical explanation provenance (derivation triples,
rules applied, token expansions).  Equality is asserted within each
termination mode — across modes only the score profile is pinned, since
adaptive termination may surface a different equally-scored answer at the
k boundary.
"""

from dataclasses import fields
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken
from repro.core.triples import Provenance, Triple
from repro.relax.rules import RuleSet
from repro.scoring.language_model import ScoringConfig
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig, TopKProcessor
from repro.util.heap import TieFrontier

from layouts import LAYOUTS, as_layout
from reference_core import reference_query

resources = st.integers(0, 9).map(lambda i: Resource(f"E{i}"))
predicates = st.one_of(
    st.integers(0, 3).map(lambda i: Resource(f"p{i}")),
    st.just(TextToken("works at")),
    st.just(TextToken("lives in")),
)
observations = st.tuples(
    st.builds(Triple, resources, predicates, resources),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.integers(min_value=1, max_value=4),
)

rule_texts = st.lists(
    st.tuples(
        st.sampled_from(["p0", "p1", "p2", "p3", "'works at'"]),
        st.sampled_from(["p0", "p1", "p2", "p3", "'works at'", "'lives in'"]),
        st.sampled_from([0.4, 0.6, 0.9]),
        st.booleans(),
    ).filter(lambda r: r[0] != r[1]),
    max_size=4,
)

queries = st.sampled_from(
    [
        "?x p0 ?y",
        "E1 p1 ?y",
        "?x p2 E2",
        "?x 'works at' ?y",
        "?x p3 ?x",
        "?x p0 ?y ; ?y p1 ?z",
        "?x 'works at' ?u ; ?u p2 ?c",
    ]
)


def build(entries, rule_specs, layout, tmp_path_factory):
    store = TripleStore()
    provenance = Provenance("openie", "doc-prop", "", "reverb")
    for triple, confidence, count in entries:
        store.add(triple, provenance, confidence=confidence, count=count)
    store = as_layout(store.freeze(), layout, tmp_path_factory)
    rules = RuleSet()
    for source, target, weight, inverted in rule_specs:
        shape = "?y {t} ?x" if inverted else "?x {t} ?y"
        rules.add(
            parse_rule(f"?x {source} ?y => {shape.format(t=target)} @ {weight}")
        )
    return store, rules


def fingerprint(answers):
    return [
        (
            answer.binding,
            answer.score,
            answer.num_derivations,
            tuple(record.triple.n3() for record in answer.derivation.triples_used()),
            tuple(rule.n3() for rule in answer.derivation.rules_used()),
            tuple(
                (tm.token.n3(), tm.similarity)
                for tm in answer.derivation.token_matches_used()
            ),
        )
        for answer in answers
    ]


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(observations, min_size=1, max_size=35),
    rule_specs=rule_texts,
    query_text=queries,
)
def test_idspace_equals_termspace_across_layouts(
    tmp_path_factory, settle_skip, entries, rule_specs, query_text
):
    query = parse_query(query_text)
    results = {}
    with patch.object(TieFrontier, "MIN_SKIP", settle_skip):
        for layout in LAYOUTS:
            store, rules = build(entries, rule_specs, layout, tmp_path_factory)
            for exhaustive in (False, True):
                processor = TopKProcessor(
                    store, rules=rules, config=ProcessorConfig(exhaustive=exhaustive)
                )
                results[(layout, "idspace", exhaustive)] = fingerprint(
                    processor.query(query, 5)
                )
                results[(layout, "termspace", exhaustive)] = fingerprint(
                    reference_query(processor, query, 5)
                )
    # One reference per termination mode: adaptive termination may surface a
    # different *equally-scored* answer than exhaustive evaluation at the k
    # boundary (see test_idspace_adaptive_is_valid_topk_of_exhaustive), so
    # only combinations sharing the termination mode must be identical.
    for exhaustive in (False, True):
        reference = results[(LAYOUTS[0], "termspace", exhaustive)]
        for combination, observed in results.items():
            if combination[2] == exhaustive:
                assert observed == reference, combination


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(observations, min_size=1, max_size=35),
    rule_specs=rule_texts,
    query_text=queries,
)
def test_idspace_adaptive_is_valid_topk_of_exhaustive(
    layout, tmp_path_factory, entries, rule_specs, query_text
):
    """Adaptive id-space does less work yet yields a valid top-k.

    Score ties at the k boundary allow adaptive termination to surface a
    different (equally-scored) answer than exhaustive evaluation, so the
    invariant is the seed's: identical score profile, every answer present
    in the exhaustive set — not binding-for-binding equality.
    """
    store, rules = build(entries, rule_specs, layout, tmp_path_factory)
    query = parse_query(query_text)
    adaptive = TopKProcessor(store, rules=rules).query(query, 3)
    exhaustive = TopKProcessor(
        store, rules=rules, config=ProcessorConfig(exhaustive=True)
    ).query(query, 10_000)
    assert adaptive.stats.sorted_accesses <= exhaustive.stats.sorted_accesses
    adaptive_sig = [(a.binding, round(a.score, 9)) for a in adaptive]
    exhaustive_sig = [(a.binding, round(a.score, 9)) for a in exhaustive]
    assert len(adaptive_sig) == min(3, len(exhaustive_sig))
    assert [s for _b, s in adaptive_sig] == [
        s for _b, s in exhaustive_sig[: len(adaptive_sig)]
    ]
    exhaustive_set = set(exhaustive_sig)
    for entry in adaptive_sig:
        assert entry in exhaustive_set


#: Counters of how postings were staged and fetched ahead — they follow
#: ``block_size`` / ``merge_batch`` by definition; every other counter is
#: work the join did and must not depend on how long its runs are.
BATCHING_COUNTERS = {
    "blocks_decoded",
    "block_cache_hits",
    "posting_pulls",
    "postings_materialized",
    "delta_hits",
    "elapsed_seconds",
}


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(observations, min_size=1, max_size=35),
    rule_specs=rule_texts,
    query_text=queries,
    pages=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    batching=st.sampled_from(
        [{}, {"block_size": 2}, {"block_size": 3, "merge_batch": 2}]
    ),
)
def test_run_at_a_time_equals_per_item_oracle(
    layout, tmp_path_factory, settle_skip, entries, rule_specs, query_text,
    pages, batching,
):
    """The join advances by tied head runs; with ``block_size=1,
    merge_batch=1`` every run has length one.  Three confidences and small
    counts make most posting lists a handful of long ties, so runs span
    blocks, relaxation heads tie with the original's, and pages end inside
    runs — and answers, derivations and work counters must be those of
    the per-item oracle, page by page."""

    def observe(**config):
        store, rules = build(entries, rule_specs, layout, tmp_path_factory)
        engine = TriniT(
            store,
            rules=rules,
            config=EngineConfig(
                executor_kind="serial",
                mine_arg_overlap=False,
                mine_chains=False,
                mine_inversions=False,
                **config,
            ),
        )
        try:
            stream = engine.stream(query_text)
            return [
                (
                    fingerprint(stream.next_k(n)),
                    {
                        spec.name: getattr(stream.stats, spec.name)
                        for spec in fields(stream.stats)
                        if spec.name not in BATCHING_COUNTERS
                    },
                )
                for n in pages
            ]
        finally:
            engine.close()

    with patch.object(TieFrontier, "MIN_SKIP", settle_skip):
        assert observe(**batching) == observe(block_size=1, merge_batch=1)


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
    rules = RuleSet()
    rules.add(parse_rule(f"?x worksFor ?y => ?x p0 ?y @ {weight}"))
    query = parse_query(query_text)

    def answers(entries, smoothing):
        store = TripleStore()
        for s, p, o, confidence in entries:
            store.add(
                Triple(Resource(s), Resource(p), Resource(o)), confidence=confidence
            )
        store = as_layout(store.freeze(), layout, tmp_path_factory)
        processor = TopKProcessor(store, rules=rules, scoring=ScoringConfig(smoothing))
        total = len(processor.query(query, 1_000))
        return [
            [(a.binding, a.score) for a in processor.query(query, k)]
            for k in range(1, total + 1)
        ]

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


@settings(max_examples=40, deadline=None)
@given(
    rows=relaxed_rows,
    weight=st.sampled_from([0.25, 0.5, 1.0]),
    inverted=st.booleans(),
    query_text=single_queries,
    pages=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
)
@example(
    rows=[("E0", "p0", f"E{i}", (1.0, 0.5)[i % 2]) for i in range(4)]
    + [("E0", "p1", "E0", 1.0), ("E0", "p1", "E1", 1.0), ("E0", "p1", "E2", 1.0)],
    weight=1.0,
    inverted=False,
    query_text="?x p0 ?y",
    pages=[1, 1],
).via("page one settles on the first fresh binding of a run the merge trimmed")
def test_merge_settling_equals_reference(rows, weight, inverted, query_text, pages):
    """A single pattern merged with one relaxation settles inside its head
    cursor's tied run wherever nothing else it merges can score as high;
    with no length bound on settling, every ``ask(k)`` — answers, scores,
    derivations — and every stream's pages must be the reference core's,
    which reads each tied run to its end."""
    shape = "?y p1 ?x" if inverted else "?x p1 ?y"
    store = TripleStore()
    for s, p, o, confidence in rows:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=confidence)
    rules = RuleSet()
    rules.add(parse_rule(f"?x p0 ?y => {shape} @ {weight}"))
    query = parse_query(query_text)
    engine = TriniT(
        store.freeze(),
        rules=rules,
        config=EngineConfig(
            executor_kind="serial",
            mine_arg_overlap=False,
            mine_chains=False,
            mine_inversions=False,
        ),
    )
    with engine, patch.object(TieFrontier, "MIN_SKIP", 0):
        for k in (1, 3, 8):
            assert fingerprint(engine.ask(query, k=k)) == fingerprint(
                reference_query(engine.processor, query, k)
            )
        stream = engine.stream(query)
        shown = 0
        for n in pages:
            page = fingerprint(stream.next_k(n))
            reference = reference_query(engine.processor, query, shown + n)
            assert page == fingerprint(reference)[shown:]
            shown += len(page)


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
                st.sampled_from(["p0", "p1", "p2", "works at"]),
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
join_queries = st.sampled_from(
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
    query_text=join_queries,
    relaxation=st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0])),
    pages=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
)
def test_band_probe_equals_reference(
    layout, tmp_path_factory, rows, query_text, relaxation, pages
):
    """With no length bound on settling, a join whose top tied band is
    enumerated by probes must give every ``ask(k)`` — answers, scores,
    derivations, token matches — and every stream's pages exactly as the
    reference core, which drains every tied run; ``relaxation`` merges a
    ``p2`` relaxation into the ``p1`` stream."""
    store = TripleStore()
    for s, p, o, confidence in rows:
        predicate = TextToken(p) if " " in p else Resource(p)
        store.add(Triple(Resource(s), predicate, Resource(o)), confidence=confidence)
    store = as_layout(store.freeze(), layout, tmp_path_factory)
    rules = RuleSet()
    if relaxation is not None:
        rules.add(parse_rule(f"?x p1 ?y => ?x p2 ?y @ {relaxation}"))
    query = parse_query(query_text)
    engine = TriniT(
        store,
        rules=rules,
        config=EngineConfig(
            executor_kind="serial",
            mine_arg_overlap=False,
            mine_chains=False,
            mine_inversions=False,
        ),
    )
    with engine, patch.object(TieFrontier, "MIN_SKIP", 0):
        for k in (1, 3, 8):
            assert fingerprint(engine.ask(query, k=k)) == fingerprint(
                reference_query(engine.processor, query, k)
            )
        stream = engine.stream(query)
        shown = 0
        for n in pages:
            page = fingerprint(stream.next_k(n))
            reference = reference_query(engine.processor, query, shown + n)
            assert page == fingerprint(reference)[shown:]
            shown += len(page)
