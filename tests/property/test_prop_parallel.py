"""Property: batched execution is byte-identical to the per-item reference.

Batched pulls, adaptive pull sizing and the block kernels are only
allowed to change *when* posting heads materialise, never *what* a query
answers.  The property pins that: for
random stores and random queries, a default-shaped engine on either store
layout (fresh / generational, ``tests/layouts.py``), any merge batch
policy (fixed sizes or
adaptive ``None``) and any posting-block policy (fixed block sizes or
adaptive ``None``) produces bindings, scores and order bit-identical to
the degenerate serial reference over a fresh build
(``executor_kind="serial"``, ``merge_batch=1``, ``block_size=1`` —
item-at-a-time pulls *and* per-item scoring), across eager
``ask``, random stream splits and ``ask_many`` batches — and so does a
store that froze part of its statements and ingests the rest live.
Both are grids over the differential harness (``tests/harness``).  The block
dimension pins the execution kernels (:mod:`repro.topk.kernels`): block
decode and batched scoring may only change how many heads are staged per
step, never a single emitted bit.
"""

from hypothesis import example, given, settings, strategies as st

from harness.differential import (
    NO_MINING,
    AddRule,
    Ask,
    AskMany,
    Compact,
    Ingest,
    Storage,
    pages,
    run,
    world,
)

#: Quoted names are TextToken phrases: ``'born in'`` normalises to
#: ``bornIn``'s surface and ``'lived in'`` shares ``'lives in'``'s match key,
#: so token queries exercise the text index the ingested suffix extends.
PREDICATES = [
    "bornIn", "livesIn", "affiliation", "type",
    "'born in'", "'lives in'", "'lived in'",
]
ENTITIES = [f"E{i}" for i in range(12)]

triples = st.lists(
    st.tuples(
        st.sampled_from(ENTITIES),
        st.sampled_from(PREDICATES),
        st.sampled_from(ENTITIES),
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=4,
    max_size=40,
)

queries = st.lists(
    st.sampled_from(
        [
            "?x bornIn ?y",
            "?x affiliation ?y",
            "?x ?p ?y",
            "?x bornIn ?y ; ?y type ?z",
            f"{ENTITIES[0]} ?p ?y",
            "?x 'born in' ?y",
            "?x 'lives in' ?y ; ?y 'type' ?z",
        ]
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(
    rows=triples,
    texts=queries,
    k=st.integers(min_value=1, max_value=12),
    batch=st.sampled_from([None, 1, 2, 7]),
    block=st.sampled_from([None, 1, 3, 16]),
    split=st.integers(min_value=1, max_value=6),
)
def test_batched_byte_identical_to_serial(layout, rows, texts, k, batch, block, split):
    workload = []
    for text in texts:
        # Eager ask, then stream pages that concatenate to the eager prefix.
        sizes = [min(split, k - i) for i in range(0, k, split)]
        workload += [Ask(text, k), *pages(text, sizes)]
    # A batch over one read view.
    workload.append(AskMany(tuple(texts), k))
    run(world(rows), layout, workload, {"merge_batch": batch, "block_size": block})


#: The examples' defaults: the suffix ingested a row at a time, in order.
ONE_ROW_BATCHES = dict(
    k=10, batch=None, block=None, repeats=[], shuffle=None, sizes=[1], compactions=set()
)


@settings(max_examples=20, deadline=None)
@given(
    rows=triples,
    texts=queries,
    k=st.integers(min_value=1, max_value=12),
    batch=st.sampled_from([None, 1, 2, 7]),
    block=st.sampled_from([None, 1, 3, 16]),
    cut=st.integers(min_value=0, max_value=40),
    rule_target=st.one_of(st.none(), st.sampled_from(PREDICATES)),
    repeats=st.lists(st.integers(min_value=0, max_value=39), max_size=8),
    shuffle=st.one_of(st.none(), st.randoms(use_true_random=False)),
    sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    compactions=st.sets(st.integers(min_value=0, max_value=8), max_size=3),
)
@example(
    # A rule added (and its index warmed) while its original predicate is
    # still unknown must be re-classified once an ingest introduces it.
    rows=[
        ("A", "affiliation", "U1", 1.0, 1),
        ("B", "affiliation", "U2", 1.0, 1),
        ("A", "type", "person", 1.0, 1),
        ("C", "worksFor", "U3", 1.0, 1),
    ],
    texts=["?x affiliation ?y"],
    cut=3,
    rule_target="affiliation",
    **ONE_ROW_BATCHES,
)
@example(
    # The live engine expands 'born in' (its text index is built: bornIn's
    # surface owns the norm) before the suffix brings the phrase itself,
    # a phrase sharing its match key, and one sharing 'lives in''s.
    rows=[
        ("E0", "bornIn", "E1", 1.0, 1),
        ("E2", "'lives in'", "E1", 0.5, 2),
        ("E1", "type", "E3", 1.0, 1),
        ("E4", "'born in'", "E1", 0.7, 2),
        ("E5", "'lived in'", "E1", 0.9, 1),
        ("E0", "'born in'", "E6", 0.4, 1),
    ],
    texts=["?x 'born in' ?y", "?x 'lives in' ?y ; ?y 'type' ?z"],
    cut=3,
    rule_target="bornIn",
    **ONE_ROW_BATCHES,
)
@example(
    # A frozen statement gains evidence past a delta statement's weight,
    # then a compaction: an in-memory one re-sorts it, a generation write
    # keeps the weight it was frozen with.
    rows=[
        ("E0", "bornIn", "E1", 0.5, 1),
        ("E2", "bornIn", "E3", 1.0, 1),
        ("E0", "bornIn", "E1", 0.9, 3),
        ("E4", "bornIn", "E5", 0.7, 1),
    ],
    texts=["?x bornIn ?y", "?x ?p ?y"],
    cut=2,
    rule_target=None,
    **dict(ONE_ROW_BATCHES, repeats=[2], sizes=[2], compactions={0}),
)
def test_live_ingestion_byte_identical_to_fresh_build(
    layout, rows, texts, k, batch, block, cut, rule_target, repeats, shuffle,
    sizes, compactions,
):
    """(frozen + delta) == fresh build, after every batch and every
    compaction.

    A statement multiset — ``rows`` plus the ``repeats``, in ``shuffle``'d
    order — is frozen up to ``cut`` (in the test's layout) and the rest
    live-ingested in batches of ``sizes``, with ``compact()`` after the
    batches ``compactions`` names and at the end (the in-memory rebuild on
    a fresh prefix, a generation write on a generational one).  After each,
    every answer — and after each compaction and before the last, the whole
    storage — must be the harness's fresh build,
    which sorts a frozen statement by the evidence it was frozen with:
    exactly where the documented deviation shows, and nowhere else.  Rule
    miners are disabled: they run once at construction, so a prefix-built
    engine may legitimately mine different rules than a union-built one.
    With ``rule_target``, one rule rewrites a predicate only the ingested
    suffix introduces, and the live engine answers through it once before
    ingesting.
    """
    arrivals = rows + [rows[i % len(rows)] for i in repeats]
    if shuffle is not None:
        shuffle.shuffle(arrivals)
    cut = min(cut, len(arrivals))
    prefix, suffix = arrivals[:cut], arrivals[cut:]
    workload = []
    new_predicates = sorted({p for _, p, *_ in suffix} - {p for _, p, *_ in prefix})
    if rule_target is not None and new_predicates:
        texts = texts + [f"?x {new_predicates[0]} ?y"]
        rule = f"?x {new_predicates[0]} ?y => ?x {rule_target} ?y @ 0.8"
        workload += [AddRule(rule), Ask(texts[-1], k)]
    asks = [Ask(text, k) for text in texts]
    start, batches = 0, 0
    while start < len(suffix):
        size = sizes[batches % len(sizes)]
        workload += [Ingest(suffix[start : start + size]), *asks]
        if batches in compactions:
            workload += [Compact(), Storage(), *asks]
        start, batches = start + size, batches + 1
    workload += [Storage(), Compact(), Storage(), *asks]
    config = dict(NO_MINING, merge_batch=batch, block_size=block)
    run(world(prefix), layout, workload, config)
