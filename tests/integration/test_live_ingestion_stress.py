"""Ingest-while-query stress: live ingestion under concurrent load.

Several threads pour new statements through :meth:`TriniT.ingest` while
query threads hammer ``ask`` and ``stream`` on the same engine — with a
compaction threshold low enough that the engine compacts (and swaps
stores) repeatedly mid-flight.

Invariants under fire:

* no query or ingest ever raises;
* every answer batch is internally sane (scores descending);
* after the dust settles (threads joined, final compact), the engine
  holds exactly the union of the seeded and ingested statements, and its
  answers match a fresh-built per-item engine rank by rank, derivations
  included: scores are a function of the statement set, not of the order
  the feeds' statements arrived in (every weight total is an exact sum).

The sequential cases — a stream pinned across ingests and a compaction,
and the feeds ingested in many interleavings — are cells of the
differential harness.
"""

import random
import threading

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.storage.snapshot import save_snapshot

from harness.differential import (
    NO_MINING,
    ORACLE,
    Ask,
    Compact,
    Ingest,
    Page,
    fingerprint,
    pages,
    run,
    world,
)

PREDICATES = ["bornIn", "livesIn", "locatedIn", "type"]

SEED_ROWS = [
    (f"E{i % 11}", PREDICATES[i % 4], f"E{(i * 7 + 3) % 11}", 0.05 + (i % 18) / 20)
    for i in range(150)
]

#: Three disjoint ingest feeds (distinct subjects per feed, all new keys).
FEEDS = [
    [
        (f"N{feed}_{i}", PREDICATES[(feed + i) % 4], f"E{(i * 3 + feed) % 11}",
         0.1 + ((feed * 13 + i) % 16) / 20)
        for i in range(40)
    ]
    for feed in range(3)
]

QUERIES = ["?x bornIn ?y", "?x ?p ?y", "?x locatedIn ?y", "E1 ?p ?y"]

SEED = world(SEED_ROWS)


def test_ingest_while_query_stress(tmp_path):
    save_snapshot(SEED.store(), tmp_path / "stress.snapd")
    config = EngineConfig(compaction_threshold=25, **NO_MINING)
    engine = TriniT.open(tmp_path / "stress.snapd", config=config)
    errors: list[BaseException] = []
    stop = threading.Event()

    def ingester(feed):
        try:
            for s, p, o, conf in feed:
                engine.ingest(
                    [Triple(Resource(s), Resource(p), Resource(o))],
                    confidence=conf,
                )
        except BaseException as exc:  # noqa: BLE001 - collected for the report
            errors.append(exc)

    def querier(index):
        try:
            while not stop.is_set():
                text = QUERIES[index % len(QUERIES)]
                answers = engine.ask(text, k=10)
                scores = [a.score for a in answers]
                assert scores == sorted(scores, reverse=True)
                stream = engine.stream(text)
                first = list(stream.next_k(4))
                first.extend(stream.next_k(4))
                scores = [a.score for a in first]
                assert scores == sorted(scores, reverse=True)
                index += 1
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    ingesters = [threading.Thread(target=ingester, args=(feed,)) for feed in FEEDS]
    queriers = [threading.Thread(target=querier, args=(i,)) for i in range(2)]
    try:
        for thread in ingesters + queriers:
            thread.start()
        for thread in ingesters:
            thread.join(timeout=120)
        stop.set()
        for thread in queriers:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in ingesters + queriers)
        assert not errors, errors

        engine.compact()
        assert not engine.store.has_delta
        # Threshold 25 with 120 ingested statements: compaction must have
        # fired at least once (background or the final explicit call).
        assert engine.generation >= 1

        expected = len(SEED.records) + sum(len(f) for f in FEEDS)
        assert len(engine.store) == expected

        union = world(SEED_ROWS + [row for feed in FEEDS for row in feed])
        config = EngineConfig(**ORACLE, **NO_MINING)
        with TriniT(union.store(), config=config) as reference:
            for text in QUERIES:
                got, want = engine.ask(text, 500), reference.ask(text, 500)
                assert fingerprint(got) == fingerprint(want)
    finally:
        stop.set()
        engine.close()


def test_stream_opened_mid_ingest_completes():
    """A stream opened between ingests survives the store swaps under it:
    pinned on its generation, it answers exactly the seeded statements, to
    exhaustion, byte for byte."""
    workload = [Page("?x ?p ?y", 5, "pinned")]
    workload += [Ingest(feed[:15]) for feed in FEEDS]
    workload += [Compact(), *pages("?x ?p ?y", [50] * 4, "pinned")]
    config = dict(NO_MINING, compaction_threshold=25, executor_kind="serial")
    run(SEED, "snapshot", workload, config)


def _interleaving(rng):
    """The three feeds merged in a random order, each feed's own kept."""
    pending = [list(feed) for feed in FEEDS]
    merged = []
    while any(pending):
        feed = rng.choice([f for f in pending if f])
        merged.append(feed.pop(0))
    return merged


def test_interleavings_give_one_mass_and_one_answer_list():
    """The stress test's feeds, ingested in 30 interleavings: one
    collection mass and one ``?x ?p ?y`` answer list, live and compacted —
    the order statements arrive in moves no score by an ulp."""
    masses, answers = set(), set()

    def mass(engine):
        masses.add(engine.store.total_observations())

    for seed in range(30):
        ops = [Ingest(_interleaving(random.Random(seed))), Ask("?x ?p ?y", 500), mass]
        trace = run(SEED, "fresh", [*ops, Compact(), *ops[1:]], NO_MINING)
        answers |= {tuple(trace[1][0]), tuple(trace[4][0])}
    assert len(masses) == 1
    assert len(answers) == 1
