"""Property-based equivalence: id-space × segment counts × termination modes.

Random worlds (triple soups with weighted observations and token phrases),
random single-pattern relaxation rules, and random conjunctive queries —
every combination of execution core ("idspace"/"termspace"), segment count
(1 / the default) and termination (adaptive/exhaustive) must
produce the *same* :class:`AnswerSet`: identical projection bindings,
identical scores, and identical explanation provenance (derivation triples,
rules applied, token expansions).  Equality is asserted within each
termination mode — across modes only the score profile is pinned, since
adaptive termination may surface a different equally-scored answer at the
k boundary.
"""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken
from repro.core.triples import Provenance, Triple
from repro.relax.rules import RuleSet
from repro.storage.sharded import ShardedBackend
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig, TopKProcessor

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


def build(entries, rule_specs, segments):
    store = TripleStore(backend=ShardedBackend(segments))
    provenance = Provenance("openie", "doc-prop", "", "reverb")
    for triple, confidence, count in entries:
        store.add(triple, provenance, confidence=confidence, count=count)
    store.freeze()
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
def test_idspace_equals_termspace_across_segment_counts(
    segment_counts, entries, rule_specs, query_text
):
    query = parse_query(query_text)
    results = {}
    for segments in segment_counts:
        store, rules = build(entries, rule_specs, segments)
        for execution in ("idspace", "termspace"):
            for exhaustive in (False, True):
                processor = TopKProcessor(
                    store,
                    rules=rules,
                    config=ProcessorConfig(
                        execution=execution, exhaustive=exhaustive
                    ),
                )
                results[(segments, execution, exhaustive)] = fingerprint(
                    processor.query(query, 5)
                )
    # One reference per termination mode: adaptive termination may surface a
    # different *equally-scored* answer than exhaustive evaluation at the k
    # boundary (see test_idspace_adaptive_is_valid_topk_of_exhaustive), so
    # only combinations sharing the termination mode must be identical.
    for exhaustive in (False, True):
        reference = results[(segment_counts[0], "termspace", exhaustive)]
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
    segments, entries, rule_specs, query_text
):
    """Adaptive id-space does less work yet yields a valid top-k.

    Score ties at the k boundary allow adaptive termination to surface a
    different (equally-scored) answer than exhaustive evaluation, so the
    invariant is the seed's: identical score profile, every answer present
    in the exhaustive set — not binding-for-binding equality.
    """
    store, rules = build(entries, rule_specs, segments)
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
    segments, entries, rule_specs, query_text, pages, batching
):
    """The join advances by tied head runs; with ``block_size=1,
    merge_batch=1`` every run has length one.  Three confidences and small
    counts make most posting lists a handful of long ties, so runs span
    blocks, relaxation heads tie with the original's, and pages end inside
    runs — and answers, derivations and work counters must be those of
    the per-item oracle, page by page."""

    def observe(**config):
        store, rules = build(entries, rule_specs, segments)
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

    assert observe(**batching) == observe(block_size=1, merge_batch=1)
