"""Property-based tests: top-k invariants under random stores and rules.

The central invariant: for any store (in either layout), rule set, and
query, the adaptive processor's answer list is a valid top-k of the
exhaustive evaluation — identical descending score profile, every answer
individually correct.  The worlds are the differential harness's
(:func:`harness.differential.random_worlds`).
"""

from hypothesis import given, settings, strategies as st

from repro.core.parser import parse_query
from repro.topk.processor import ProcessorConfig, TopKProcessor

from harness.differential import RANDOM_QUERIES, fingerprint, random_worlds
from layouts import as_layout


def processor(world, store, **config) -> TopKProcessor:
    return TopKProcessor(store, rules=world.rules, config=ProcessorConfig(**config))


@settings(max_examples=50, deadline=None)
@given(world=random_worlds(max_rows=40), query_text=RANDOM_QUERIES)
def test_adaptive_is_valid_topk_of_exhaustive(
    layout, tmp_path_factory, world, query_text
):
    """Adaptive termination does less work yet yields a valid top-k.

    It may surface another equally-scored answer than exhaustive evaluation
    at the k boundary, so this compares bindings and scores (to 9 places,
    as the two modes may combine a score's factors in another order) as a
    profile and a membership, not answer for answer."""
    store = as_layout(world.store(), layout, tmp_path_factory)
    query = parse_query(query_text)
    slow = processor(world, store, exhaustive=True).query(query, 10_000)
    slow_sig = [(b, round(s, 9)) for b, s, *_ in fingerprint(slow)]
    for k in (3, 4):
        fast = processor(world, store).query(query, k)
        assert fast.stats.sorted_accesses <= slow.stats.sorted_accesses
        fast_sig = [(b, round(s, 9)) for b, s, *_ in fingerprint(fast)]
        assert len(fast_sig) == min(k, len(slow_sig))
        assert [s for _b, s in fast_sig] == [s for _b, s in slow_sig[:k]]
        assert set(fast_sig) <= set(slow_sig)
    store.close()


@settings(max_examples=50, deadline=None)
@given(world=random_worlds(max_rows=40), query_text=RANDOM_QUERIES)
def test_scores_bounded_and_descending(world, query_text):
    answers = processor(world, world.store()).query(parse_query(query_text), 10)
    scores = [a.score for a in answers]
    assert all(0.0 < s <= 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)


@settings(max_examples=50, deadline=None)
@given(world=random_worlds(max_rows=40), query_text=RANDOM_QUERIES)
def test_bindings_unique(world, query_text):
    answers = processor(world, world.store()).query(parse_query(query_text), 10)
    bindings = [a.binding for a in answers]
    assert len(set(bindings)) == len(bindings)


@settings(max_examples=30, deadline=None)
@given(world=random_worlds(max_rows=40), query_text=RANDOM_QUERIES)
def test_relaxation_never_loses_exact_answers(world, query_text):
    """Adding rules may add answers but must keep every strict answer."""
    store = world.store()
    query = parse_query(query_text)
    strict = processor(world, store, use_relaxation=False).query(query, 10_000)
    relaxed = processor(world, store).query(query, 10_000)
    relaxed_bindings = {a.binding for a in relaxed}
    for answer in strict:
        assert answer.binding in relaxed_bindings


@settings(max_examples=30, deadline=None)
@given(world=random_worlds(max_rows=30), query_text=RANDOM_QUERIES)
def test_determinism(world, query_text):
    store, query = world.store(), parse_query(query_text)
    assert fingerprint(processor(world, store).query(query, 5)) == fingerprint(
        processor(world, store).query(query, 5)
    )


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
