"""Property-based tests: top-k invariants under random stores and rules.

The central invariant: for any store, rule set, and query, the adaptive
processor's answer list is a valid top-k of the exhaustive evaluation —
identical descending score profile, every answer individually correct.
"""

from hypothesis import given, settings, strategies as st

from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.relax.rules import RuleSet
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig, TopKProcessor

resources = st.integers(0, 10).map(lambda i: Resource(f"E{i}"))
predicates = st.one_of(
    st.integers(0, 3).map(lambda i: Resource(f"p{i}")),
    st.just(TextToken("works at")),
)
observations = st.tuples(
    st.builds(Triple, resources, predicates, resources),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.integers(min_value=1, max_value=3),
)

rule_texts = st.lists(
    st.tuples(
        st.sampled_from(["p0", "p1", "p2", "p3", "'works at'"]),
        st.sampled_from(["p0", "p1", "p2", "p3", "'works at'"]),
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
        "?x p0 ?y ; ?y p1 ?z",
    ]
)


def build(entries, rule_specs):
    store = TripleStore()
    for triple, confidence, count in entries:
        store.add(triple, confidence=confidence, count=count)
    store.freeze()
    rules = RuleSet()
    for source, target, weight, inverted in rule_specs:
        shape = "?y {t} ?x" if inverted else "?x {t} ?y"
        rules.add(
            parse_rule(f"?x {source} ?y => {shape.format(t=target)} @ {weight}")
        )
    return store, rules


@settings(max_examples=50, deadline=None)
@given(st.lists(observations, min_size=1, max_size=40), rule_texts, queries)
def test_adaptive_is_valid_topk_of_exhaustive(entries, rule_specs, query_text):
    store, rules = build(entries, rule_specs)
    query = parse_query(query_text)
    k = 4
    fast = TopKProcessor(store, rules=rules).query(query, k)
    slow = TopKProcessor(
        store, rules=rules, config=ProcessorConfig(exhaustive=True)
    ).query(query, 10_000)
    fast_sig = [(a.binding, round(a.score, 9)) for a in fast]
    slow_sig = [(a.binding, round(a.score, 9)) for a in slow]
    assert len(fast_sig) == min(k, len(slow_sig))
    assert [s for _b, s in fast_sig] == [s for _b, s in slow_sig[: len(fast_sig)]]
    slow_set = set(slow_sig)
    for entry in fast_sig:
        assert entry in slow_set


@settings(max_examples=50, deadline=None)
@given(st.lists(observations, min_size=1, max_size=40), rule_texts, queries)
def test_scores_bounded_and_descending(entries, rule_specs, query_text):
    store, rules = build(entries, rule_specs)
    answers = TopKProcessor(store, rules=rules).query(parse_query(query_text), 10)
    scores = [a.score for a in answers]
    assert all(0.0 < s <= 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)


@settings(max_examples=50, deadline=None)
@given(st.lists(observations, min_size=1, max_size=40), rule_texts, queries)
def test_bindings_unique(entries, rule_specs, query_text):
    store, rules = build(entries, rule_specs)
    answers = TopKProcessor(store, rules=rules).query(parse_query(query_text), 10)
    bindings = [a.binding for a in answers]
    assert len(set(bindings)) == len(bindings)


@settings(max_examples=30, deadline=None)
@given(st.lists(observations, min_size=1, max_size=40), rule_texts, queries)
def test_relaxation_never_loses_exact_answers(entries, rule_specs, query_text):
    """Adding rules may add answers but must keep every strict answer."""
    store, rules = build(entries, rule_specs)
    query = parse_query(query_text)
    strict = TopKProcessor(
        store,
        config=ProcessorConfig(use_relaxation=False),
    ).query(query, 10_000)
    relaxed = TopKProcessor(store, rules=rules).query(query, 10_000)
    relaxed_bindings = {a.binding for a in relaxed}
    for answer in strict:
        assert answer.binding in relaxed_bindings


@settings(max_examples=30, deadline=None)
@given(st.lists(observations, min_size=1, max_size=30), queries)
def test_determinism(entries, query_text):
    store, rules = build(entries, [])
    query = parse_query(query_text)
    a = TopKProcessor(store, rules=rules).query(query, 5)
    b = TopKProcessor(store, rules=rules).query(query, 5)
    assert [(x.binding, x.score) for x in a] == [(x.binding, x.score) for x in b]


# -- the id-space aggregator ranks exactly, whatever the history -------------

aggregator_steps = st.lists(
    st.one_of(
        # add(key, score): keys over two projection slots, some partial
        st.tuples(
            st.just("add"),
            st.tuples(st.integers(-1, 5), st.integers(0, 5)),
            st.sampled_from([0.25, 0.5, 0.5, 0.75, 1.0]),
        ),
        st.tuples(st.just("rank"), st.integers(1, 12)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps=aggregator_steps)
def test_aggregator_ranks_exactly_across_interleaved_adds(steps):
    """:class:`IdAggregator` keeps its ranking across pages and
    extends it as answers arrive; whatever the interleaving of adds and
    rank windows, a window equals a fresh sort by (score desc, tie key asc,
    key asc) — named tie keys for partial answers, which compare with
    complete ones by their bound (variable, sort key) pairs."""
    from repro.core.terms import Variable
    from repro.topk.idspace import IdAggregator, tie_key

    def sort_key(term_id):
        return (term_id % 2, f"t{term_id}")

    projection = (Variable("a"), Variable("b"))
    aggregator = IdAggregator(projection, sort_key)
    best: dict = {}
    names = ["a", "b"]
    for step in steps:
        if step[0] == "add":
            _op, key, score = step
            aggregator.add(key, score, (), ((), 1.0))
            best[key] = max(best.get(key, score), score)
            continue
        cut = min(step[1], len(best))
        expected = sorted(
            best.items(),
            key=lambda kv: (-kv[1], tie_key(sort_key, kv[0], names), kv[0]),
        )
        assert aggregator._rank(cut)[:cut] == expected[:cut]
