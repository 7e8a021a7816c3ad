"""The resumable execution driver: prefix stability and resumption.

The driver's contract is *split invariance*: however a top-k computation is
chopped into ``advance`` calls, the settled prefix is byte-identical —
bindings, scores, order, derivations — to the eager ``query()`` answer list
(which is itself the driver drained in one go).  Stream pages are held to
the eager answer lists of the per-item engine and of the term-space
reference core by the differential harness, across random worlds, rules,
store layouts and splits, including the score-tie-at-the-boundary cases
that make naive pagination diverge.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parser import parse_query
from repro.errors import TopKError
from repro.topk.processor import ProcessorConfig, TopKProcessor

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
    world_of,
)

BOTH = (PER_ITEM, TERMSPACE)


def splits(query, batches):
    """One stream per split of ``batches``."""
    return [
        page
        for i, sizes in enumerate(batches)
        for page in pages(query, sizes, f"split{i}")
    ]


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

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_resume_grows_the_prefix(self, small_store, exhaustive):
        config = {"processor": ProcessorConfig(exhaustive=exhaustive)}
        batches = [[1, 1, 8], [1, 9]]
        workload = splits("?x 'lectured at' ?y", batches)
        run(world_of(small_store), "fresh", workload, config, BOTH)


class TestTiedBoundaries:
    """Score ties straddling a batch boundary must not reorder the prefix."""

    def test_splits_through_tie_runs(self, layout):
        # Ten subjects at one weight, and two heavier ones, also tied.
        rows = [(f"E{i}", "p", "T") for i in range(10)]
        rows += [(n, "p", "T", 1.0, 3) for n in "AB"]
        batches = [[1, 11], [3, 9], [5, 5, 2], [2, 2, 2, 2, 2, 2]]
        workload = [Ask("?x p T", 12), *splits("?x p T", batches)]
        run(world(rows), layout, workload, NO_MINING, BOTH)

    def test_lower_answers_after_a_split_tie_keep_their_rank(self, layout):
        # The first page ends inside the heavy tie {A, B}; the next page adds
        # lower answers whose names sort the other way round than their
        # scores.  They rank after the tie's rest, each at its own score.
        counts = (("A", 4), ("B", 4), ("Zed", 3), ("Mid", 2), ("Ann", 1))
        rows = [(n, "p", "T", 1.0, c) for n, c in counts]
        batches = [[1, 4], [1, 2, 2], [1, 1, 1, 1, 1], [2, 3]]
        workload = [Ask("?x p T", 5), *splits("?x p T", batches)]
        (eager, _counters), *_ = run(world(rows), layout, workload, NO_MINING, BOTH)
        assert [b[0][1].name for b, *_ in eager] == ["A", "B", "Zed", "Mid", "Ann"]


# -- property: split invariance across the full configuration matrix --------


@settings(max_examples=30, deadline=None)
@given(
    world=random_worlds(max_rows=30),
    query=RANDOM_QUERIES,
    sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    block_size=st.sampled_from([None, 2, 1]),
)
def test_stream_batches_equal_eager_topk(
    layout, settle_skip, world, query, sizes, block_size
):
    # How long the tied head runs are that the id-space join advances by
    # (1: the per-item oracle) must not show in where a split may fall.
    config = dict(NO_MINING, block_size=block_size)
    run(
        world, layout, pages(query, sizes), config, (TERMSPACE,),
        settle_skip=settle_skip,
    )
