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
``ask``, random stream splits and ``ask_many`` batches.  The block
dimension pins the execution kernels (:mod:`repro.topk.kernels`): block
decode and batched scoring may only change how many heads are staged per
step, never a single emitted bit.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple
from repro.storage.store import TripleStore

from layouts import as_layout

X, Y = Variable("x"), Variable("y")

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


def _predicate(name):
    return TextToken(name.strip("'")) if name.startswith("'") else Resource(name)


def _build(rows, layout=None, tmp_path_factory=None, **config):
    """An engine over ``rows``; a fresh build unless ``layout`` says
    otherwise."""
    store = TripleStore()
    for s, p, o, conf, count in rows:
        for _ in range(count):
            store.add(Triple(Resource(s), _predicate(p), Resource(o)), confidence=conf)
    store.freeze()
    if layout is not None:
        store = as_layout(store, layout, tmp_path_factory)
    return TriniT(store, config=EngineConfig(**config))


def signature(answers):
    return [(a.binding, a.score) for a in answers]


@settings(max_examples=25, deadline=None)
@given(
    rows=triples,
    texts=queries,
    k=st.integers(min_value=1, max_value=12),
    batch=st.sampled_from([None, 1, 2, 7]),
    block=st.sampled_from([None, 1, 3, 16]),
    split=st.integers(min_value=1, max_value=6),
)
def test_batched_byte_identical_to_serial(
    layout, tmp_path_factory, rows, texts, k, batch, block, split
):
    serial = _build(
        rows,
        executor_kind="serial",
        merge_batch=1,
        block_size=1,
    )
    batched = _build(
        rows,
        layout,
        tmp_path_factory,
        merge_batch=batch,
        block_size=block,
    )
    try:
        for text in texts:
            reference = signature(serial.ask(text, k=k))
            # Eager ask under the batched configuration.
            assert signature(batched.ask(text, k=k)) == reference
            # Stream pagination: batches concatenate to the eager prefix.
            stream = batched.stream(text)
            collected = list(stream.next_k(min(split, k)))
            while len(collected) < k:
                got = stream.next_k(min(split, k - len(collected)))
                if not got:
                    break
                collected.extend(got)
            assert signature(collected) == reference[: len(collected)]
        # A batch over one read view.
        batch_results = batched.ask_many(texts, k=k)
        assert [signature(r) for r in batch_results] == [
            signature(serial.ask(text, k=k)) for text in texts
        ]
    finally:
        serial.close()
        batched.close()


@settings(max_examples=20, deadline=None)
@given(
    rows=triples,
    texts=queries,
    k=st.integers(min_value=1, max_value=12),
    batch=st.sampled_from([None, 1, 2, 7]),
    block=st.sampled_from([None, 1, 3, 16]),
    cut=st.integers(min_value=0, max_value=40),
    rule_target=st.one_of(st.none(), st.sampled_from(PREDICATES)),
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
    k=10,
    batch=None,
    block=None,
    cut=3,
    rule_target="affiliation",
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
    k=10,
    batch=None,
    block=None,
    cut=3,
    rule_target="bornIn",
)
def test_live_ingestion_byte_identical_to_fresh_build(
    layout, tmp_path_factory, rows, texts, k, batch, block, cut, rule_target
):
    """(frozen + delta) == fresh build, and still after compaction.

    Freeze a prefix of the statements (in the test's layout), live-ingest
    the rest through ``engine.ingest()``, and compare every answer bit for
    bit against a serial engine freshly built from the union — then
    compact (the in-memory rebuild path on a fresh prefix, a generation
    write on a generational one) and compare again.
    Rule miners are disabled: they run once at construction, so a
    prefix-built engine may legitimately mine different rules than a
    union-built one; the property pins the storage/merge contract.
    With ``rule_target``, both engines also get one rule rewriting a
    predicate that only the ingested suffix introduces, and the live
    engine answers through it once before ingesting.
    """
    no_mining = dict(
        mine_arg_overlap=False, mine_chains=False, mine_inversions=False
    )
    cut = min(cut, len(rows))
    prefix = rows[:cut]
    frozen_keys = {(s, p, o) for s, p, o, _, _ in prefix}
    # Duplicate evidence for a *frozen* statement keeps its frozen sort
    # weight until compaction (documented eventual consistency), so the
    # byte-identity property quantifies over genuinely new statements.
    suffix = [row for row in rows[cut:] if (row[0], row[1], row[2]) not in frozen_keys]
    reference = _build(
        prefix + suffix,
        executor_kind="serial",
        merge_batch=1,
        block_size=1,
        **no_mining,
    )
    live = _build(
        prefix,
        layout,
        tmp_path_factory,
        merge_batch=batch,
        block_size=block,
        **no_mining,
    )
    try:
        new_predicates = sorted(
            {p for _, p, _, _, _ in suffix} - {p for _, p, _, _, _ in prefix}
        )
        if rule_target is not None and new_predicates:
            rule = f"?x {new_predicates[0]} ?y => ?x {rule_target} ?y @ 0.8"
            texts = texts + [f"?x {new_predicates[0]} ?y"]
            reference.add_rule(rule)
            live.add_rule(rule)
            live.ask(texts[-1], k=k)
        before = live.store.delta_size
        for s, p, o, conf, count in suffix:
            for _ in range(count):
                live.ingest(
                    [Triple(Resource(s), _predicate(p), Resource(o))],
                    confidence=conf,
                )
        assert live.store.delta_size == before + len(
            {(s, p, o) for s, p, o, _, _ in suffix}
        )
        for text in texts:
            assert signature(live.ask(text, k=k)) == signature(
                reference.ask(text, k=k)
            )
        live.compact()
        assert not live.store.has_delta
        for text in texts:
            assert signature(live.ask(text, k=k)) == signature(
                reference.ask(text, k=k)
            )
    finally:
        reference.close()
        live.close()
