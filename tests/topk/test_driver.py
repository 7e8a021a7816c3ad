"""The resumable execution driver: prefix stability and resumption.

The driver's contract is *split invariance*: however a top-k computation is
chopped into ``advance`` calls, the settled prefix is byte-identical —
bindings, scores, order, derivations — to the eager ``query()`` answer list
(which is itself the driver drained in one go).  The property test hammers
this across random worlds, rules, store layouts, execution cores (the
engine and the term-space reference core) and split patterns, including
the score-tie-at-the-boundary cases that make naive pagination diverge.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken
from repro.core.triples import Provenance, Triple
from repro.errors import TopKError
from repro.relax.rules import RuleSet
from repro.storage.store import TripleStore
from repro.topk.processor import ProcessorConfig, TopKProcessor
from repro.util.heap import TieFrontier

from layouts import as_layout
from reference_core import TermSpaceProcessor

#: The engine's processor and the reference core's.
PROCESSORS = {"idspace": TopKProcessor, "termspace": TermSpaceProcessor}


def fingerprint(answers):
    return [
        (
            answer.binding,
            answer.score,
            answer.num_derivations,
            tuple(record.triple.n3() for record in answer.derivation.triples_used()),
            tuple(rule.n3() for rule in answer.derivation.rules_used()),
        )
        for answer in answers
    ]


def stream_in_batches(processor, query, batch_sizes):
    """Advance one driver through ``batch_sizes``, collecting each window."""
    driver = processor.driver(query)
    collected = []
    for n in batch_sizes:
        target = len(collected) + n
        driver.advance(target)
        collected.extend(driver.ranked(target)[len(collected):target])
    return driver, collected


class TestDriverBasics:
    def test_eager_query_is_driver_drain(self, frozen_small_store):
        processor = TopKProcessor(frozen_small_store)
        query = parse_query("?x 'lectured at' ?y")
        eager = processor.query(query, 10)
        driver = processor.driver(query)
        drained = driver.advance(10).ranked(10)
        assert fingerprint(drained) == fingerprint(eager.answers)

    def test_advance_rejects_bad_k(self, frozen_small_store):
        processor = TopKProcessor(frozen_small_store)
        driver = processor.driver(parse_query("?x bornIn ?y"))
        with pytest.raises(TopKError):
            driver.advance(0)

    def test_advance_is_idempotent_at_same_k(self, frozen_small_store):
        processor = TopKProcessor(frozen_small_store)
        driver = processor.driver(parse_query("?x affiliation ?y"))
        first = fingerprint(driver.advance(2).ranked(2))
        accesses = driver.stats.sorted_accesses
        again = fingerprint(driver.advance(2).ranked(2))
        assert again == first
        assert driver.stats.sorted_accesses == accesses  # no extra work
        assert driver.stats.resumes == 1

    def test_exhaustion_is_reported(self, frozen_small_store):
        processor = TopKProcessor(frozen_small_store)
        driver = processor.driver(parse_query("AlbertEinstein bornIn ?x"))
        driver.advance(50)
        assert len(driver.ranked(50)) == 1
        assert driver.is_exhausted

    def test_resume_grows_the_prefix(self, frozen_small_store):
        processor = TopKProcessor(frozen_small_store)
        query = parse_query("?x 'lectured at' ?y")
        eager = processor.query(query, 10)
        _driver, collected = stream_in_batches(processor, query, [1, 1, 8])
        assert fingerprint(collected) == fingerprint(eager.answers)

    def test_exhaustive_mode_streams_identically(self, frozen_small_store):
        processor = TopKProcessor(
            frozen_small_store, config=ProcessorConfig(exhaustive=True)
        )
        query = parse_query("?x 'lectured at' ?y")
        eager = processor.query(query, 10)
        _driver, collected = stream_in_batches(processor, query, [1, 9])
        assert fingerprint(collected) == fingerprint(eager.answers)


class TestTiedBoundaries:
    """Score ties straddling a batch boundary must not reorder the prefix."""

    @staticmethod
    def _tied_store(relayout):
        store = TripleStore()
        p = Resource("p")
        # Ten subjects with identical weights -> ten answers at one score.
        for i in range(10):
            store.add(Triple(Resource(f"E{i}"), p, Resource("T")))
        # Two heavier, also mutually tied.
        for name in ("A", "B"):
            store.add(Triple(Resource(name), p, Resource("T")), count=3)
        return relayout(store.freeze())

    @pytest.mark.parametrize("execution", list(PROCESSORS))
    def test_splits_through_tie_runs(self, relayout, execution):
        store = self._tied_store(relayout)
        processor = PROCESSORS[execution](store)
        query = parse_query("?x p T")
        eager = processor.query(query, 12)
        for batches in ([1, 11], [3, 9], [5, 5, 2], [2, 2, 2, 2, 2, 2]):
            _driver, collected = stream_in_batches(processor, query, batches)
            assert fingerprint(collected) == fingerprint(eager.answers), batches


    @pytest.mark.parametrize("execution", list(PROCESSORS))
    def test_lower_answers_after_a_split_tie_keep_their_rank(
        self, relayout, execution
    ):
        # The first page ends inside the heavy tie {A, B}; the next page adds
        # lower answers whose names sort the other way round than their
        # scores.  They rank after the tie's rest, each at its own score.
        store = TripleStore()
        p, t = Resource("p"), Resource("T")
        for name, count in (("A", 4), ("B", 4), ("Zed", 3), ("Mid", 2), ("Ann", 1)):
            store.add(Triple(Resource(name), p, t), count=count)
        processor = PROCESSORS[execution](relayout(store.freeze()))
        query = parse_query("?x p T")
        eager = processor.query(query, 5)
        assert [a.binding[0][1].name for a in eager] == ["A", "B", "Zed", "Mid", "Ann"]
        for batches in ([1, 4], [1, 2, 2], [1, 1, 1, 1, 1], [2, 3]):
            _driver, collected = stream_in_batches(processor, query, batches)
            assert fingerprint(collected) == fingerprint(eager.answers), batches


# -- property: split invariance across the full configuration matrix --------

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
    max_size=3,
)
queries = st.sampled_from(
    [
        "?x p0 ?y",
        "E1 p1 ?y",
        "?x 'works at' ?y",
        "?x p0 ?y ; ?y p1 ?z",
        "?x 'works at' ?u ; ?u p2 ?c",
    ]
)
splits = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)


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


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(observations, min_size=1, max_size=30),
    rule_specs=rule_texts,
    query_text=queries,
    batch_sizes=splits,
    execution=st.sampled_from(list(PROCESSORS)),
    block_size=st.sampled_from([None, 2, 1]),
)
def test_stream_batches_equal_eager_topk(
    layout,
    tmp_path_factory,
    settle_skip,
    entries,
    rule_specs,
    query_text,
    batch_sizes,
    execution,
    block_size,
):
    store, rules = build(entries, rule_specs, layout, tmp_path_factory)
    # How long the tied head runs are that the id-space join advances by
    # (1: the per-item oracle) must not show in where a split may fall.
    store.configure_blocks(block_size)
    processor = PROCESSORS[execution](store, rules=rules)
    query = parse_query(query_text)
    total = sum(batch_sizes)
    with patch.object(TieFrontier, "MIN_SKIP", settle_skip):
        eager = processor.query(query, total)
        _driver, collected = stream_in_batches(processor, query, batch_sizes)
    assert fingerprint(collected) == fingerprint(eager.answers)
