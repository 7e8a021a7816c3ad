"""Edge cases of the block-at-a-time execution path.

The property suite pins block execution against the per-item reference in
bulk; these tests nail the corners individually — empty posting lists,
score ties straddling a block boundary exactly at the k-threshold, the
delta segment's postings merged into a lookup, stale handles after a
backend closes, the observability counters (``blocks_decoded``), a fresh
store's lookups skipping the merge — and the rank join advancing by tied
head runs: small worlds, each built around one way a run can go wrong,
held against the per-item oracle page by page on both store layouts, and
their work counters pinned to the figures the lookups gave when a fresh
store's lookup was still copied into a merge object.
"""

import math
from dataclasses import fields

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query, parse_rule
from repro.core.results import QueryStats
from repro.core.terms import Resource, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import StorageError
from repro.relax.rules import RuleSet
from repro.scoring.language_model import PatternScorer
from repro.storage.sharded import MergedPostings
from repro.storage.store import TripleStore
from repro.topk import kernels
from repro.topk.idspace import IdExecutionContext, IdPostingCursor
from repro.topk.processor import ProcessorConfig
from repro.util.heap import TieFrontier

from reference_core import reference_query


def _engine(rows, relayout=None, rules=(), **config):
    """An engine over ``rows``: a fresh store, or ``relayout(store)``."""
    config.setdefault("executor_kind", "serial")
    store = TripleStore()
    for s, p, o, conf in rows:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    store.freeze()
    if relayout is not None:
        store = relayout(store)
    ruleset = RuleSet()
    for text in rules:
        ruleset.add(parse_rule(text))
    return TriniT(store, rules=ruleset, config=EngineConfig(**config))


def signature(answers):
    return [(a.binding, a.score) for a in answers]


ROWS = [
    (f"E{i % 11}", ("bornIn", "livesIn", "type")[i % 3], f"E{(i * 7) % 13}",
     0.05 + (i % 17) / 20)
    for i in range(120)
]


def test_empty_posting_list_scores_no_blocks():
    engine = _engine(ROWS)
    try:
        stream = engine.stream("?x hasNoSuchPredicate ?y")
        assert list(stream.next_k(5)) == []
        assert stream.stats.blocks_decoded == 0
    finally:
        engine.close()


def test_tie_straddling_block_boundary_at_threshold(relayout):
    # Every statement carries the same confidence, so the whole posting
    # list is one score tie; with block_size=2 the k-threshold falls inside
    # a tie run that straddles block boundaries.  The block path must cut
    # the identical top-k the per-item reference does.
    rows = [(f"A{i}", "knows", f"B{i}", 0.5) for i in range(9)]
    reference = _engine(rows, relayout, merge_batch=1, block_size=1)
    blocked = _engine(rows, relayout, block_size=2)
    try:
        for k in (1, 3, 4, 8, 9):
            assert signature(blocked.ask("?x knows ?y", k=k)) == signature(
                reference.ask("?x knows ?y", k=k)
            )
    finally:
        reference.close()
        blocked.close()


def test_delta_postings_merge_into_the_lookup():
    engine = _engine(ROWS)
    try:
        engine.ingest(
            [Triple(Resource("Fresh"), Resource("bornIn"), Resource("E1"))],
            confidence=0.9,
        )
        answers = engine.ask("?x bornIn ?y", k=50)
        assert ("Fresh", "E1") in {
            tuple(term.name for _v, term in a.binding) for a in answers
        }
        assert answers.stats.delta_hits > 0
    finally:
        engine.close()


def test_fresh_store_lookups_skip_the_merge(monkeypatch):
    # One part per lookup: the cursors read the base segment's slice, and
    # no head is keyed.
    def unreachable(*args):
        raise AssertionError("a fresh store keyed a merge head")

    monkeypatch.setattr(kernels, "prepare_head_block", unreachable)
    engine = _engine(ROWS)
    try:
        answers = engine.ask("?x bornIn ?y", k=30)
        assert len(answers.answers) == 30
        assert answers.stats.block_cache_hits == 0
    finally:
        engine.close()


def test_blocks_decoded_counter_observable():
    engine = _engine(ROWS)
    try:
        stream = engine.stream("?x bornIn ?y")
        stream.next_k(10)
        assert stream.stats.blocks_decoded > 0
    finally:
        engine.close()


def test_per_item_path_decodes_no_blocks():
    engine = _engine(ROWS, block_size=1)
    try:
        stream = engine.stream("?x bornIn ?y")
        assert len(list(stream.next_k(10))) == 10
        assert stream.stats.blocks_decoded == 0
        assert stream.stats.block_cache_hits == 0
    finally:
        engine.close()


def test_posting_block_after_close_raises_storage_error():
    engine = _engine(ROWS)
    backend = engine.store.backend
    segment = backend._segment(0)
    engine.close()
    with pytest.raises(StorageError):
        backend.posting_block(0, (False, False, False), (), 0, 4)
    with pytest.raises(StorageError):
        segment.posting_block((False, False, False), (), 0, 4)


def test_block_size_validation():
    engine = _engine(ROWS[:5])
    try:
        with pytest.raises(StorageError):
            engine.store.configure_blocks(0)
    finally:
        engine.close()


# -- the rank join advances by tied head runs ---------------------------------
#
# The per-item oracle (``block_size=1, merge_batch=1``) yields runs of length
# one; every other setting hands the join whole tied runs.  Answers, order,
# scores, derivations and the work counters must not tell them apart.

ORACLE = dict(block_size=1, merge_batch=1)
RUN_CONFIGS = (dict(), dict(block_size=3), dict(block_size=3, merge_batch=2))

#: Counters of how postings were *staged* (block kernels; the retired
#: ``block_cache_hits`` is always 0)…
STAGING = {"blocks_decoded", "block_cache_hits", "elapsed_seconds"}
#: …and of how far the pulls fetched ahead of consumption, which
#: follows ``merge_batch`` whatever the join does with what was fetched.
FETCHING = STAGING | {"posting_pulls", "postings_materialized", "delta_hits"}


def _fingerprint(answers):
    return [
        (
            answer.binding,
            answer.score,
            answer.num_derivations,
            tuple(r.triple.n3() for r in answer.derivation.triples_used()),
            tuple(rule.n3() for rule in answer.derivation.rules_used()),
        )
        for answer in answers
    ]


def _counters(stats, ignored):
    return {
        spec.name: getattr(stats, spec.name)
        for spec in fields(stats)
        if spec.name not in ignored
    }


def _tied(subject, predicate, obj, n, confidence=0.5, start=0):
    return [
        (subject.format(i), predicate, obj.format(i), confidence)
        for i in range(start, start + n)
    ]


def _tie_across_blocks(**config):
    """(i) One tied run longer than a block (over several segments in the
    generational layout)."""
    rows = _tied("A{:02d}", "knows", "B{:02d}", 40) + _tied(
        "H{}", "knows", "B{}", 5, confidence=0.9
    )
    return _engine(rows, **config), "?x knows ?y", (3, 10, 40)


#: Only the rules a world states: mined ones would add cursors of their own.
NO_MINING = dict(mine_arg_overlap=False, mine_chains=False, mine_inversions=False)


def _rounding_join(config, weight, extra_rows=(), extra_rules=(), reverse=False):
    """Twelve tied ``affiliation`` postings that each join one of three
    tied ``locatedIn`` ones, reached through a query-level translation of
    weight ``weight`` (``reverse``: inserted in reverse name order).  For
    these confidences a combination multiplied in stream order rounds one
    ulp above the same factors multiplied bound-first — the ulp that once
    let a strict-ties join settle *inside* a tied run.
    """
    rows = [(f"P{i:02d}", "affiliation", f"U{i % 3}", 0.5) for i in range(12)]
    if reverse:
        rows.reverse()
    rows += _tied("U{}", "locatedIn", "C", 3, confidence=0.6)
    return _engine(
        rows + list(extra_rows),
        rules=[f"?x worksFor ?y => ?x affiliation ?y @ {weight}", *extra_rules],
        processor=ProcessorConfig(use_token_expansion=False),
        **NO_MINING,
        **config,
    )


def _threshold_inside_run(reverse=False, **config):
    """(ii) A two-stream join whose pages end inside the tied
    ``affiliation`` run: k = 3 of twelve tying combinations, then three
    more — the next page must resume where the first one stopped."""
    engine = _rounding_join(config, 0.4, reverse=reverse)
    return engine, "?p worksFor ?u . ?u locatedIn ?c", (3, 3, 10)


def _optimistic_head(reverse=False, **config):
    """An unrefined relaxation's optimistic bound picks the stream; refined
    (the sub-join is empty) its head is the tied ``affiliation`` run,
    which scores *below* the other stream's head — so one posting is
    taken, not the run, and the other stream's turn settles k = 1."""
    engine = _rounding_join(
        config,
        0.45,
        extra_rows=[("Q", "memberOf", "G1", 1.0), ("G2", "partOf", "U9", 1.0)],
        extra_rules=["?x affiliation ?y => ?x memberOf ?g . ?g partOf ?y @ 0.9"],
        reverse=reverse,
    )
    return engine, "?p worksFor ?u . ?u locatedIn ?c", (1, 2, 12)


def _relaxation_ties_head(**config):
    """(iii) A relaxation cursor whose head ties with the original's run:
    the original cursor was opened first, so its whole run comes first —
    across block boundaries too — and the bindings both lists hold are
    derived from the original."""
    rows = _tied("X{}", "p", "Y{}", 8) + _tied("X{}", "q", "Y{}", 8, start=4)
    engine = _engine(rows, rules=["?x p ?y => ?x q ?y @ 1.0"], **NO_MINING, **config)
    return engine, "?x p ?y", (3, 5, 12)


def _delta_inside_run(**config):
    """(iv) Ingested statements that tie with the frozen run."""
    engine, query, pages = _tie_across_blocks(**config)
    engine.ingest(
        [
            Triple(Resource(f"A{i:02d}x"), Resource("knows"), Resource(f"N{i}"))
            for i in range(0, 12, 2)
        ],
        confidence=0.5,
    )
    return engine, query, pages


def _compacted_delta(**config):
    """(iv) …and the same statements after ``compact()`` folded them in."""
    engine, query, pages = _delta_inside_run(**config)
    engine.compact()
    return engine, query, pages


def _repeated_variable(**config):
    """(v) ``?x knows ?x`` filters the block before the run is cut."""
    rows = [
        (f"A{i:02d}", "knows", f"A{i:02d}" if i % 3 else f"B{i:02d}", 0.5)
        for i in range(30)
    ]
    return _engine(rows, **config), "?x knows ?x", (2, 7, 30)


WORLDS = {
    "tie-across-blocks": _tie_across_blocks,
    "threshold-inside-run": _threshold_inside_run,
    "optimistic-head": _optimistic_head,
    "relaxation-ties-head": _relaxation_ties_head,
    "delta-inside-run": _delta_inside_run,
    "compacted-delta": _compacted_delta,
    "repeated-variable": _repeated_variable,
}


def _observe(world, ignored, **config):
    """Every page of the world's stream, then one eager ask, as
    (answers with derivations, cumulative counters) pairs."""
    engine, query, pages = WORLDS[world](**config)
    try:
        stream = engine.stream(query)
        seen = [
            (_fingerprint(stream.next_k(n)), _counters(stream.stats, ignored))
            for n in pages
        ]
        eager = engine.ask(query, k=sum(pages))
        seen.append((_fingerprint(eager.answers), _counters(eager.stats, ignored)))
        return seen
    finally:
        engine.close()


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
@pytest.mark.parametrize("world", WORLDS)
def test_run_at_a_time_matches_per_item_oracle(world, config, relayout):
    config = dict(config, relayout=relayout)
    assert _observe(world, FETCHING, **config) == _observe(
        world, FETCHING, **ORACLE, relayout=relayout
    )
    # Same merge batching, nothing staged: every counter but the staging
    # ones must agree — the run loop read what the per-item loop reads.
    per_item = dict(config, block_size=1)
    assert _observe(world, STAGING, **config) == _observe(
        world, STAGING, **per_item
    )


#: Work counters per (world, layout, configuration): ``WORK_COUNTERS``
#: after each page of the world's stream and after the eager ask, as the
#: lookups gave them when every lookup still built a merge object (a fresh
#: store's copied its one range into it).  A lookup that is the base
#: segment's own slice is read through the same pulls, so none may move.
WORK_COUNTERS = (
    "sorted_accesses",
    "blocks_decoded",
    "postings_materialized",
    "posting_pulls",
    "segments_touched",
)
WORK_CONFIGS = {"oracle": ORACLE, "default": {}, "block3": RUN_CONFIGS[1],
                "block3-batch2": RUN_CONFIGS[2]}
PINNED_WORK = {
    "tie-across-blocks/fresh/oracle": [(5, 0, 6, 6, 1), (45, 0, 45, 45, 1), (45, 0, 45, 45, 1), (45, 0, 45, 45, 1)],
    "tie-across-blocks/fresh/default": [(5, 1, 8, 1, 1), (45, 4, 45, 4, 1), (45, 4, 45, 4, 1), (45, 4, 45, 4, 1)],
    "tie-across-blocks/fresh/block3": [(5, 2, 8, 1, 1), (45, 17, 45, 4, 1), (45, 17, 45, 4, 1), (45, 17, 45, 4, 1)],
    "tie-across-blocks/fresh/block3-batch2": [(5, 3, 6, 3, 1), (45, 23, 45, 23, 1), (45, 23, 45, 23, 1), (45, 23, 45, 23, 1)],
    "tie-across-blocks/generational/oracle": [(5, 0, 6, 6, 4), (45, 0, 45, 45, 4), (45, 0, 45, 45, 4), (45, 0, 45, 45, 4)],
    "tie-across-blocks/generational/default": [(5, 1, 8, 1, 4), (45, 4, 45, 4, 4), (45, 4, 45, 4, 4), (45, 4, 45, 4, 4)],
    "tie-across-blocks/generational/block3": [(5, 2, 8, 1, 4), (45, 17, 45, 4, 4), (45, 17, 45, 4, 4), (45, 17, 45, 4, 4)],
    "tie-across-blocks/generational/block3-batch2": [(5, 3, 6, 3, 4), (45, 23, 45, 23, 4), (45, 23, 45, 23, 4), (45, 23, 45, 23, 4)],
    "threshold-inside-run/fresh/oracle": [(15, 0, 16, 16, 3), (15, 0, 16, 16, 3), (15, 0, 16, 16, 3), (15, 0, 16, 16, 3)],
    "threshold-inside-run/fresh/default": [(15, 4, 18, 4, 3), (15, 4, 18, 4, 3), (15, 4, 18, 4, 3), (15, 4, 18, 4, 3)],
    "threshold-inside-run/fresh/block3": [(15, 7, 18, 4, 3), (15, 7, 18, 4, 3), (15, 7, 18, 4, 3), (15, 7, 18, 4, 3)],
    "threshold-inside-run/fresh/block3-batch2": [(15, 9, 17, 9, 3), (15, 9, 17, 9, 3), (15, 9, 17, 9, 3), (15, 9, 17, 9, 3)],
    "threshold-inside-run/generational/oracle": [(15, 0, 16, 16, 5), (15, 0, 16, 16, 5), (15, 0, 16, 16, 5), (15, 0, 16, 16, 5)],
    "threshold-inside-run/generational/default": [(15, 4, 18, 4, 5), (15, 4, 18, 4, 5), (15, 4, 18, 4, 5), (15, 4, 18, 4, 5)],
    "threshold-inside-run/generational/block3": [(15, 7, 18, 4, 5), (15, 7, 18, 4, 5), (15, 7, 18, 4, 5), (15, 7, 18, 4, 5)],
    "threshold-inside-run/generational/block3-batch2": [(15, 9, 17, 9, 5), (15, 9, 17, 9, 5), (15, 9, 17, 9, 5), (15, 9, 17, 9, 5)],
    "optimistic-head/fresh/oracle": [(16, 0, 16, 16, 3), (16, 0, 16, 16, 3), (16, 0, 16, 16, 3), (16, 0, 16, 16, 3)],
    "optimistic-head/fresh/default": [(16, 4, 18, 4, 3), (16, 4, 18, 4, 3), (16, 4, 18, 4, 3), (16, 4, 18, 4, 3)],
    "optimistic-head/fresh/block3": [(16, 7, 18, 4, 3), (16, 7, 18, 4, 3), (16, 7, 18, 4, 3), (16, 7, 18, 4, 3)],
    "optimistic-head/fresh/block3-batch2": [(16, 9, 17, 9, 3), (16, 9, 17, 9, 3), (16, 9, 17, 9, 3), (16, 9, 17, 9, 3)],
    "optimistic-head/generational/oracle": [(16, 0, 16, 16, 7), (16, 0, 16, 16, 7), (16, 0, 16, 16, 7), (16, 0, 16, 16, 7)],
    "optimistic-head/generational/default": [(16, 4, 18, 4, 7), (16, 4, 18, 4, 7), (16, 4, 18, 4, 7), (16, 4, 18, 4, 7)],
    "optimistic-head/generational/block3": [(16, 7, 18, 4, 7), (16, 7, 18, 4, 7), (16, 7, 18, 4, 7), (16, 7, 18, 4, 7)],
    "optimistic-head/generational/block3-batch2": [(16, 9, 17, 9, 7), (16, 9, 17, 9, 7), (16, 9, 17, 9, 7), (16, 9, 17, 9, 7)],
    "relaxation-ties-head/fresh/oracle": [(16, 0, 16, 16, 2), (16, 0, 16, 16, 2), (16, 0, 16, 16, 2), (16, 0, 16, 16, 2)],
    "relaxation-ties-head/fresh/default": [(16, 2, 16, 2, 2), (16, 2, 16, 2, 2), (16, 2, 16, 2, 2), (16, 2, 16, 2, 2)],
    "relaxation-ties-head/fresh/block3": [(16, 6, 16, 2, 2), (16, 6, 16, 2, 2), (16, 6, 16, 2, 2), (16, 6, 16, 2, 2)],
    "relaxation-ties-head/fresh/block3-batch2": [(16, 8, 16, 8, 2), (16, 8, 16, 8, 2), (16, 8, 16, 8, 2), (16, 8, 16, 8, 2)],
    "relaxation-ties-head/generational/oracle": [(16, 0, 16, 16, 4), (16, 0, 16, 16, 4), (16, 0, 16, 16, 4), (16, 0, 16, 16, 4)],
    "relaxation-ties-head/generational/default": [(16, 2, 16, 2, 4), (16, 2, 16, 2, 4), (16, 2, 16, 2, 4), (16, 2, 16, 2, 4)],
    "relaxation-ties-head/generational/block3": [(16, 6, 16, 2, 4), (16, 6, 16, 2, 4), (16, 6, 16, 2, 4), (16, 6, 16, 2, 4)],
    "relaxation-ties-head/generational/block3-batch2": [(16, 8, 16, 8, 4), (16, 8, 16, 8, 4), (16, 8, 16, 8, 4), (16, 8, 16, 8, 4)],
    "delta-inside-run/fresh/oracle": [(5, 0, 6, 6, 2), (51, 0, 51, 51, 2), (51, 0, 51, 51, 2), (51, 0, 51, 51, 2)],
    "delta-inside-run/fresh/default": [(5, 1, 8, 1, 2), (51, 4, 51, 4, 2), (51, 4, 51, 4, 2), (51, 4, 51, 4, 2)],
    "delta-inside-run/fresh/block3": [(5, 2, 8, 1, 2), (51, 19, 51, 4, 2), (51, 19, 51, 4, 2), (51, 19, 51, 4, 2)],
    "delta-inside-run/fresh/block3-batch2": [(5, 3, 6, 3, 2), (51, 26, 51, 26, 2), (51, 26, 51, 26, 2), (51, 26, 51, 26, 2)],
    "delta-inside-run/generational/oracle": [(5, 0, 6, 6, 4), (51, 0, 51, 51, 4), (51, 0, 51, 51, 4), (51, 0, 51, 51, 4)],
    "delta-inside-run/generational/default": [(5, 1, 8, 1, 4), (51, 4, 51, 4, 4), (51, 4, 51, 4, 4), (51, 4, 51, 4, 4)],
    "delta-inside-run/generational/block3": [(5, 2, 8, 1, 4), (51, 19, 51, 4, 4), (51, 19, 51, 4, 4), (51, 19, 51, 4, 4)],
    "delta-inside-run/generational/block3-batch2": [(5, 3, 6, 3, 4), (51, 26, 51, 26, 4), (51, 26, 51, 26, 4), (51, 26, 51, 26, 4)],
    "compacted-delta/fresh/oracle": [(5, 0, 6, 6, 1), (51, 0, 51, 51, 1), (51, 0, 51, 51, 1), (51, 0, 51, 51, 1)],
    "compacted-delta/fresh/default": [(5, 1, 8, 1, 1), (51, 4, 51, 4, 1), (51, 4, 51, 4, 1), (51, 4, 51, 4, 1)],
    "compacted-delta/fresh/block3": [(5, 2, 8, 1, 1), (51, 19, 51, 4, 1), (51, 19, 51, 4, 1), (51, 19, 51, 4, 1)],
    "compacted-delta/fresh/block3-batch2": [(5, 3, 6, 3, 1), (51, 26, 51, 26, 1), (51, 26, 51, 26, 1), (51, 26, 51, 26, 1)],
    "compacted-delta/generational/oracle": [(5, 0, 6, 6, 4), (51, 0, 51, 51, 4), (51, 0, 51, 51, 4), (51, 0, 51, 51, 4)],
    "compacted-delta/generational/default": [(5, 1, 8, 1, 4), (51, 4, 51, 4, 4), (51, 4, 51, 4, 4), (51, 4, 51, 4, 4)],
    "compacted-delta/generational/block3": [(5, 2, 8, 1, 4), (51, 19, 51, 4, 4), (51, 19, 51, 4, 4), (51, 19, 51, 4, 4)],
    "compacted-delta/generational/block3-batch2": [(5, 3, 6, 3, 4), (51, 26, 51, 26, 4), (51, 26, 51, 26, 4), (51, 26, 51, 26, 4)],
    "repeated-variable/fresh/oracle": [(20, 0, 30, 30, 1), (20, 0, 30, 30, 1), (20, 0, 30, 30, 1), (20, 0, 30, 30, 1)],
    "repeated-variable/fresh/default": [(20, 3, 30, 3, 1), (20, 3, 30, 3, 1), (20, 3, 30, 3, 1), (20, 3, 30, 3, 1)],
    "repeated-variable/fresh/block3": [(20, 11, 30, 3, 1), (20, 11, 30, 3, 1), (20, 11, 30, 3, 1), (20, 11, 30, 3, 1)],
    "repeated-variable/fresh/block3-batch2": [(20, 15, 30, 15, 1), (20, 15, 30, 15, 1), (20, 15, 30, 15, 1), (20, 15, 30, 15, 1)],
    "repeated-variable/generational/oracle": [(20, 0, 30, 30, 4), (20, 0, 30, 30, 4), (20, 0, 30, 30, 4), (20, 0, 30, 30, 4)],
    "repeated-variable/generational/default": [(20, 3, 30, 3, 4), (20, 3, 30, 3, 4), (20, 3, 30, 3, 4), (20, 3, 30, 3, 4)],
    "repeated-variable/generational/block3": [(20, 11, 30, 3, 4), (20, 11, 30, 3, 4), (20, 11, 30, 3, 4), (20, 11, 30, 3, 4)],
    "repeated-variable/generational/block3-batch2": [(20, 15, 30, 15, 4), (20, 15, 30, 15, 4), (20, 15, 30, 15, 4), (20, 15, 30, 15, 4)],
}


@pytest.mark.parametrize("config", WORK_CONFIGS)
@pytest.mark.parametrize("world", WORLDS)
def test_work_counters_are_pinned(world, config, layout, relayout):
    engine, query, pages = WORLDS[world](relayout=relayout, **WORK_CONFIGS[config])
    try:
        stream = engine.stream(query)
        seen = []
        for n in pages:
            stream.next_k(n)
            seen.append(tuple(getattr(stream.stats, name) for name in WORK_COUNTERS))
        eager = engine.ask(query, k=sum(pages)).stats
        seen.append(tuple(getattr(eager, name) for name in WORK_COUNTERS))
    finally:
        engine.close()
    assert seen == PINNED_WORK[f"{world}/{layout}/{config}"]


#: 8, 8, 16, … 1024, 1024, then the rest of the 3,000 postings.
ADAPTIVE_PULLS = [8, 8, 16, 32, 64, 128, 256, 512, 1024, 952]


@pytest.mark.parametrize(
    "merge_batch, pulls",
    [(None, ADAPTIVE_PULLS), (700, [700] * 4 + [200]), (1, [1] * 3000)],
)
def test_pull_policy_is_the_cursors_on_a_slice_and_a_merge(
    merge_batch, pulls, layout, relayout
):
    rows = [(f"S{i:04d}", "p", f"O{i % 7}", 0.5 + i % 5 / 10) for i in range(3000)]
    store = TripleStore()
    for s, p, o, conf in rows:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    store = relayout(store.freeze())
    store.configure_pulls(merge_batch)
    stats = QueryStats()
    ctx = IdExecutionContext(store, PatternScorer(store), stats)
    pattern = TriplePattern(Variable("x"), Resource("p"), Variable("y"))
    cursor = IdPostingCursor(ctx, pattern)
    assert cursor.list_length == 3000
    kind = memoryview if layout == "fresh" else MergedPostings
    assert isinstance(cursor._ids, kind)
    sizes = []
    while stats.postings_materialized < 3000:
        before = stats.postings_materialized
        cursor._pull()
        sizes.append(stats.postings_materialized - before)
    assert sizes == pulls
    assert stats.posting_pulls == len(pulls)
    store.close()


@pytest.mark.parametrize("world", ["threshold-inside-run", "optimistic-head"])
def test_rounding_worlds_read_the_whole_run(world):
    # Score and bound are multiplied in one order, so no combination of the
    # tied run rounds above the bound that covers it: strict ties form the
    # whole run before k settles, ask(k)[:j] == ask(j), and the answers do
    # not depend on the order the tied postings were inserted in.
    def observe(reverse):
        engine, query, pages = WORLDS[world](reverse=reverse)
        try:
            stream = engine.stream(query)
            seen = [
                (_fingerprint(stream.next_k(n)), stream.stats.sorted_accesses)
                for n in pages
            ]
            prefixes = [
                signature(engine.ask(query, k=k).answers)
                for k in range(1, sum(pages) + 1)
            ]
            return seen, prefixes
        finally:
            engine.close()

    forward = observe(False)
    assert forward == observe(True)
    (_answers, first_page_reads), *_pages = forward[0]
    assert first_page_reads >= 15  # every one of the 12 + 3 postings
    prefixes = forward[1]
    for k, answers in enumerate(prefixes, 1):
        assert answers == prefixes[-1][:k]


# -- a run in answer order settles at rank k ------------------------------------
#
# Postings are ordered (weight desc, tie key asc): a single-pattern query
# whose name-sorted projection leads the pattern's variables in s→p→o order
# reads a tied run in the order its answers rank, and stops at rank k.


#: One 1,000-way ``p`` tie, inserted out of name order.
TIE_ROWS = [
    (f"S{i * 389 % 1000:04d}", "p", f"O{i * 7 % 13:02d}", 0.5) for i in range(1000)
]


def _thousand_way_tie(**config):
    return _engine(TIE_ROWS, **NO_MINING, **config)


@pytest.mark.parametrize("query", ["?x p ?y"])
@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_single_pattern_tie_reads_k_postings(config, query):
    def observe(**config):
        engine = _thousand_way_tie(**config)
        try:
            eager = engine.ask(query, k=80)
            stream = engine.stream(query)
            pages = [
                (_fingerprint(stream.next_k(n)), _counters(stream.stats, FETCHING))
                for n in (25, 50)
            ]
            return (_fingerprint(eager.answers), _counters(eager.stats, FETCHING)), pages
        finally:
            engine.close()

    (eager, eager_counts), pages = observed = observe(**config)
    assert observed == observe(**ORACLE)
    # k postings, not one more: the (k+1)-th posting is what settles rank k.
    assert eager_counts["sorted_accesses"] == 80
    assert [counts["sorted_accesses"] for _answers, counts in pages] == [25, 75]
    subjects = [binding[0][1].name for binding, *_rest in eager]
    assert subjects == [f"S{i:04d}" for i in range(80)]
    assert pages[0][0] + pages[1][0] == eager[:75]


# A projection that drops a pattern variable reads the run too: postings
# past rank k could add derivations to answers already ranked.
@pytest.mark.parametrize(
    "query", ["?y p ?x", "SELECT ?y WHERE ?x p ?y", "SELECT ?x WHERE ?x p ?y"]
)
def test_unaligned_projection_still_reads_the_run(query):
    engine = _thousand_way_tie()
    try:
        assert engine.ask(query, k=80).stats.sorted_accesses == 1000
    finally:
        engine.close()


# -- …and so does a merge, while everything else it merges scores lower --------
#
# The tie relaxed to ``q``: a merge of the ``p`` cursor with a ``q`` cursor
# settles inside its head cursor's run only while the other cursor's peek
# scores strictly below that run.


def _relaxed_tie(extra, weight, **config):
    """The thousand-way ``p`` tie, plus ``extra`` rows that a rule of
    ``weight`` relaxes ``p`` to."""
    return _engine(
        TIE_ROWS + extra,
        rules=[f"?x p ?y => ?x q ?y @ {weight}"],
        **NO_MINING,
        **config,
    )


RELAXED_TIES = {
    # Twenty q postings at 0.01 of the rule: strictly below the p run.
    "lower": ([(f"T{i:03d}", "q", "O", 0.5) for i in range(20)], 0.01),
    # A second 1,000-way tie whose scaled score equals the p run's, on
    # subjects that interleave with it in name order.
    "equal": ([(f"{s}q", "q", o, c) for s, _p, o, c in TIE_ROWS], 1.0),
    # Ten of the p bindings, emitted through q at a higher score before the
    # p run starts, then 300 q postings below the run.
    "emitted-above": (
        [(s, "q", o, 1.0) for s, _p, o, _c in TIE_ROWS[:40:4]]
        + [(f"T{i:03d}", "q", "O", 0.01) for i in range(300)],
        0.5,
    ),
    # Ten of the p run's subjects, last in name order, bound through q to
    # another object at a higher score: under ``SELECT ?x`` their p
    # postings, past rank 80 of the run, are second derivations.
    "derived-above": ([(f"S{999 - i:04d}", "q", "Z", 1.0) for i in range(10)], 0.5),
    # A 400-way q tie above the p run: the relaxation heads the merge.
    "relaxation-heads": ([(f"T{i:03d}", "q", "O", 0.5) for i in range(400)], 1.0),
}


def _observe_relaxed(world, query, **config):
    """``ask(k=80)``, then a stream's pages of 25 and 50, as (answers with
    derivations, counters) pairs, and the reference core's 80 answers."""
    engine = _relaxed_tie(*RELAXED_TIES[world], **config)
    try:
        eager = engine.ask(query, k=80)
        stream = engine.stream(query)
        pages = [
            (_fingerprint(stream.next_k(n)), _counters(stream.stats, FETCHING))
            for n in (25, 50)
        ]
        reference = reference_query(engine.processor, parse_query(query), 80)
        eager = (_fingerprint(eager.answers), _counters(eager.stats, FETCHING))
        return eager, pages, _fingerprint(reference)
    finally:
        engine.close()


def _relaxed_reads(world, query, config):
    """The sorted accesses of ``ask(k=80)`` and of each page, once the
    answers and every counter matched the per-item oracle and the answers
    matched the reference core, which reads every tied run to its end."""
    observed = _observe_relaxed(world, query, **config)
    assert observed == _observe_relaxed(world, query, **ORACLE)
    (eager, eager_counts), pages, reference = observed
    assert eager == reference
    assert pages[0][0] + pages[1][0] == reference[:75]
    return eager_counts["sorted_accesses"], [
        counts["sorted_accesses"] for _answers, counts in pages
    ]


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_merge_settles_inside_run_over_a_lower_relaxation(config):
    assert _relaxed_reads("lower", "?x p ?y", config) == (80, [25, 75])


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_relaxation_tying_the_run_reads_it_to_the_end(config):
    # The whole p run, then the q run settles where its 40 answers have
    # interleaved with p's first 40.
    eager, _pages = _relaxed_reads("equal", "?x p ?y", config)
    assert eager == 1000 + 40


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_bindings_emitted_above_the_run_are_skipped_in_it(config):
    # Ten q postings first, then p's postings up to rank 80 — two of
    # them the already-emitted bindings the merge drops from the run.
    assert _relaxed_reads("emitted-above", "?x p ?y", config)[0] == 10 + 72


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_relaxation_heading_the_merge_settles_in_its_own_run(config):
    assert _relaxed_reads("relaxation-heads", "?x p ?y", config) == (80, [25, 75])


@pytest.mark.parametrize(
    "world, reads",
    [
        ("lower", 1000),
        ("equal", 2000),
        ("emitted-above", 1010),
        ("derived-above", 1010),
        ("relaxation-heads", 400),
    ],
)
@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_projection_dropping_a_variable_under_a_merge_reads_the_run(
    config, world, reads
):
    # Answer order holds, but the merge's other cursors could still add
    # derivations of ranked answers below the run: every run is read whole.
    query = "SELECT ?x WHERE ?x p ?y"
    assert _relaxed_reads(world, query, config) == (reads, [reads, reads])


@pytest.mark.parametrize("query", ["?y p ?x", "SELECT ?x ?z WHERE ?z p ?x"])
def test_unaligned_projection_under_a_merge_reads_the_run(query):
    assert _relaxed_reads("lower", query, {})[0] == 1000


# -- a lone cursor under a projection that drops a variable --------------------


def test_dropped_variable_keeps_every_derivation(monkeypatch):
    # E1's second posting sits in the 0.5 run past rank 2: settling inside
    # that run would rank E1 with one derivation; the reference counts two.
    monkeypatch.setattr(TieFrontier, "MIN_SKIP", 0)
    rows = [
        ("E1", "p0", "E1", 1.0),
        ("E1", "p0", "E0", 0.5),
        ("E0", "p0", "E0", 0.5),
        ("E2", "p0", "E0", 0.5),
    ]
    query = "SELECT ?x WHERE ?x p0 ?y"
    engine = _engine(rows, **NO_MINING)
    try:
        answers = engine.ask(query, k=2)
        reference = reference_query(engine.processor, parse_query(query), 2)
        assert _fingerprint(answers) == _fingerprint(reference)
        assert [a.num_derivations for a in answers] == [2, 1]
    finally:
        engine.close()


# -- a multi-pattern join settles its top tied band by probes ------------------
#
# Every statement weighs the same, so each join below is one tied band.
# Without the probe the join reads both lists to their end (800 postings)
# whatever k is; with it, the band is enumerated in answer order by random
# access and stops at rank k.  Each world holds the engine against the
# per-item oracle (answers, derivations, every counter) and the reference
# core, which reads every tied run to its end.


def _band_world(extra=(), rules=(), born=0.5, low=None, **config):
    """400 people born in eight cities and affiliated with twenty
    universities in five countries; 100 advisors with four students each.
    ``low``: P000 is born at that weight instead."""
    rows = [
        (f"P{i:03d}", "bornIn", f"C{i % 8}", born if i or low is None else low)
        for i in range(400)
    ]
    rows += [
        (f"A{i:02d}", "hasStudent", f"P{(i * 4 + j) * 7 % 400:03d}", 0.5)
        for i in range(100)
        for j in range(4)
    ]
    rows += [(f"P{i:03d}", "affiliation", f"U{i * 3 % 20:02d}", 0.5) for i in range(400)]
    rows += [(f"U{i:02d}", "locatedIn", f"N{i % 5}", 0.5) for i in range(20)]
    return _engine(rows + list(extra), rules=rules, **NO_MINING, **config)


#: Led: ``?a`` is the first variable of ``hasStudent``.  Unled: ``?c`` is
#: no list's first variable; its values come off the index's key table.
LED = "?a hasStudent ?b . ?b bornIn ?c"
UNLED = "?p affiliation ?u . ?u locatedIn ?c"


def _band_reads(query, config, **world):
    """(sorted, random) accesses of ``ask(k=80)`` and of each page of 25 +
    50, once answers and counters matched the per-item oracle and the
    answers the reference core."""

    def observe(**config):
        engine = _band_world(**world, **config)
        try:
            eager = engine.ask(query, k=80)
            stream = engine.stream(query)
            pages = [
                (_fingerprint(stream.next_k(n)), _counters(stream.stats, FETCHING))
                for n in (25, 50)
            ]
            reference = reference_query(engine.processor, parse_query(query), 80)
            eager = (_fingerprint(eager.answers), _counters(eager.stats, FETCHING))
            return eager, pages, _fingerprint(reference)
        finally:
            engine.close()

    observed = observe(**config)
    assert observed == observe(**ORACLE)
    (eager, counts), pages, reference = observed
    assert eager == reference
    assert pages[0][0] + pages[1][0] == reference[:75]
    reads = [counts] + [page_counts for _answers, page_counts in pages]
    return [(c["sorted_accesses"], c["random_accesses"]) for c in reads]


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_led_join_settles_its_band_by_probes(config):
    # Twenty advisors' four students, each probed once in bornIn.
    assert _band_reads(LED, config) == [(80, 80), (28, 28), (76, 76)]


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_unled_join_settles_its_band_by_probes(config):
    # N0's four universities, then their twenty people each.
    assert _band_reads(UNLED, config) == [(0, 84), (0, 84), (0, 84)]


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_band_shorter_than_k_drains_on_without_forming_it_twice(config):
    # Ten advisors' three students at a higher weight: a 30-answer band,
    # then the drain reads both lists, and the band's combinations must
    # not come back as second derivations.
    extra = [(f"B{i}", "hasStudent", f"P{i * 3 + j:03d}", 1.0) for i in range(10) for j in range(3)]
    reads = _band_reads(LED, config, extra=extra)
    assert reads[0] == (30 + 30 + 400 + 400, 30)


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_relaxation_tying_the_band_blocks_the_probe(config):
    # A rule relaxes bornIn to birthPlace, whose list scores the same: the
    # merge's other cursor ties the band, so the join drains.
    extra = [(f"P{i:03d}", "birthPlace", f"D{i % 8}", 0.5) for i in range(400)]
    rules = ["?x bornIn ?y => ?x birthPlace ?y @ 1.0"]
    reads = _band_reads(LED, config, extra=extra, rules=rules)
    assert {random for _sorted, random in reads} == {0}


@pytest.mark.parametrize("config", RUN_CONFIGS, ids=repr)
def test_lighter_weight_rounding_to_the_band_blocks_the_probe(config):
    # One ulp below 0.345 scores P000's combination exactly the band's
    # score: the band is not the weight prefix, so the join drains.
    low = math.nextafter(0.345, 0.0)
    reads = _band_reads(LED, config, born=0.345, low=low)
    assert {random for _sorted, random in reads} == {0}


def test_probe_reading_more_than_the_drain_gives_way_to_it():
    # Every ?a reaches forty ?c through its ?b, and only one of them has a
    # ?d: probing costs 42 postings an answer, draining the three lists
    # 810 in all — the probe stops sampling once it passed that and drains.
    rows = [(f"A{i:03d}", "p", f"B{i % 10}", 0.5) for i in range(400)]
    rows += [(f"B{j}", "q", f"C{j * 40 + m:03d}", 0.5) for j in range(10) for m in range(40)]
    rows += [(f"C{j * 40:03d}", "r", "D", 0.5) for j in range(10)]
    query = "?a p ?b . ?b q ?c . ?c r ?d"
    engine = _engine(rows, **NO_MINING)
    try:
        answers = engine.ask(query, k=80)
        reference = reference_query(engine.processor, parse_query(query), 80)
        assert _fingerprint(answers) == _fingerprint(reference)
        # Twenty groups sampled (20 ?a, 800 + 20 probed), then the drain.
        stats = answers.stats
        assert (stats.sorted_accesses, stats.random_accesses) == (20 + 810, 820)
    finally:
        engine.close()
