"""Edge cases of the block-at-a-time execution path.

The property suite pins block execution against the per-item reference in
bulk; these tests nail the corners individually — empty posting lists,
score ties straddling a block boundary exactly at the k-threshold, the
delta segment's thread-side-only (and never cached) preparation, stale
cached handles after a backend closes, the observability counters
(``blocks_decoded`` / ``block_cache_hits``), a fresh store's lookups
skipping the merge — and the rank join advancing by tied head runs: small
worlds, each built around one way a run can go wrong, held against the
per-item oracle page by page on both store layouts.
"""

import math
from dataclasses import fields

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import StorageError
from repro.relax.rules import RuleSet
from repro.storage.store import TripleStore
from repro.topk import kernels
from repro.topk.kernels import HotBlockCache
from repro.topk.processor import ProcessorConfig
from repro.util.heap import TieFrontier

from layouts import generational_copy
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


@pytest.fixture()
def generational(tmp_path):
    """Puts a store in the generational layout: the one whose lookups
    merge several streams, and so the hot-block cache's domain."""
    return lambda store: generational_copy(store, tmp_path / "store.snapd")


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


def test_delta_blocks_thread_side_and_never_cached():
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
        # The delta stream uses segment_index -1; no cache key may carry it.
        cached_segments = {
            key[1] for key in engine._block_cache._entries
        }
        assert -1 not in cached_segments
        # Frozen segment blocks of the same lookup did get cached.
        assert len(engine._block_cache) > 0
    finally:
        engine.close()


def test_fresh_store_lookups_skip_the_merge(monkeypatch):
    # One stream per lookup: its posting range is copied, no head is keyed
    # and nothing is cached.
    def unreachable(*args):
        raise AssertionError("a fresh store keyed a merge head")

    monkeypatch.setattr(kernels, "prepare_head_block", unreachable)
    engine = _engine(ROWS)
    try:
        answers = engine.ask("?x bornIn ?y", k=30)
        assert len(answers.answers) == 30
        assert answers.stats.block_cache_hits == 0
        assert len(engine._block_cache) == 0
    finally:
        engine.close()


def test_repeat_query_hits_block_cache(generational):
    engine = _engine(ROWS, generational)
    try:
        first = engine.stream("?x bornIn ?y")
        reference = signature(first.next_k(30))
        # Rewritings of one query re-probe the same lookup, so even the
        # first query may hit blocks its own cursors cached.
        first_hits = engine._block_cache.hits
        second = engine.stream("?x bornIn ?y")
        assert signature(second.next_k(30)) == reference
        assert second.stats.block_cache_hits > 0
        assert engine._block_cache.hits > first_hits
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


def test_cached_blocks_survive_backend_close(generational):
    # Cached blocks are self-owned arrays, not views over the backend's
    # buffers: a consumer holding the cache may read them after the
    # producing backend is gone.
    engine = _engine(ROWS, generational)
    cache: HotBlockCache = engine._block_cache
    engine.ask("?x bornIn ?y", k=30)
    entries = list(cache._entries.items())
    assert entries
    engine.close()  # closes the store; engine.close also clears its cache
    for key, (kw, kg) in entries:
        assert len(kw) == len(kg)
        assert list(kw)  # reading the arrays cannot touch released views


def test_swap_quiet_point_clears_cache(generational):
    engine = _engine(ROWS, generational)
    try:
        engine.ask("?x bornIn ?y", k=30)
        assert len(engine._block_cache) > 0
        engine.ingest(
            [Triple(Resource("New"), Resource("type"), Resource("E2"))]
        )
        engine.compact()
        assert len(engine._block_cache) == 0
    finally:
        engine.close()


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

#: Counters of how postings were *staged* (block kernels, hot-block cache)…
STAGING = {"blocks_decoded", "block_cache_hits", "elapsed_seconds"}
#: …and of how far the segment merge fetched ahead of consumption, which
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
