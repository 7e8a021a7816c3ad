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
  answers match a fresh-built reference engine rank by rank, scores
  included: scores are a function of the statement set, not of the order
  the feeds' statements arrived in (every weight total is an exact sum).
"""

import random
import threading

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.storage.snapshot import save_snapshot
from repro.storage.store import TripleStore

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

NO_MINING = dict(mine_arg_overlap=False, mine_chains=False, mine_inversions=False)


def _seed_engine(tmp_path):
    store = TripleStore("stress")
    for s, p, o, conf in SEED_ROWS:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    store.freeze()
    path = tmp_path / "stress.snapd"
    save_snapshot(store, path)
    store.close()
    return TriniT.open(
        path, config=EngineConfig(compaction_threshold=25, **NO_MINING)
    )


def _signature(answers):
    return [(a.binding, a.score) for a in answers]


def test_ingest_while_query_stress(tmp_path):
    engine = _seed_engine(tmp_path)
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

        expected = len(SEED_ROWS) - _seed_duplicates() + sum(len(f) for f in FEEDS)
        assert len(engine.store) == expected

        reference = _reference_engine()
        try:
            for text in QUERIES:
                live = engine.ask(text, k=500)
                fresh = reference.ask(text, k=500)
                assert _signature(live) == _signature(fresh)
        finally:
            reference.close()
    finally:
        stop.set()
        engine.close()


def _seed_duplicates():
    seen = set()
    duplicates = 0
    for s, p, o, _conf in SEED_ROWS:
        if (s, p, o) in seen:
            duplicates += 1
        seen.add((s, p, o))
    return duplicates


def _reference_engine():
    store = TripleStore("stress")
    for s, p, o, conf in SEED_ROWS:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    for feed in FEEDS:
        for s, p, o, conf in feed:
            store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    store.freeze()
    return TriniT(
        store,
        config=EngineConfig(executor_kind="serial", merge_batch=1, **NO_MINING),
    )


def test_stream_opened_mid_ingest_completes(tmp_path):
    """A stream opened between ingests survives the store swap under it."""
    engine = _seed_engine(tmp_path)
    try:
        stream = engine.stream("?x ?p ?y")
        head = list(stream.next_k(5))
        assert len(head) == 5
        for feed in FEEDS:
            for s, p, o, conf in feed[:15]:
                engine.ingest(
                    [Triple(Resource(s), Resource(p), Resource(o))],
                    confidence=conf,
                )
        engine.compact()
        # The pinned stream keeps answering from its generation, to
        # exhaustion, with scores still descending across the swap.
        collected = head
        while True:
            batch = list(stream.next_k(50))
            if not batch:
                break
            collected.extend(batch)
        scores = [a.score for a in collected]
        assert scores == sorted(scores, reverse=True)
        # Opened before the first ingest, the stream answers exactly the
        # seeded statements — the post-swap store never leaks in.
        assert len(collected) == len(SEED_ROWS) - _seed_duplicates()
    finally:
        engine.close()


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
    for seed in range(30):
        store = TripleStore("stress")
        for s, p, o, conf in SEED_ROWS:
            store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
        store.freeze()
        for s, p, o, conf in _interleaving(random.Random(seed)):
            store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
        for view in (store, store.rebuild()):
            masses.add(view.total_observations())
            engine = TriniT(view, config=EngineConfig(executor_kind="serial", **NO_MINING))
            answers.add(tuple(_signature(engine.ask("?x ?p ?y", k=500))))
    assert len(masses) == 1
    assert len(answers) == 1
