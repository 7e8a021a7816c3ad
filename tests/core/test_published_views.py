"""A published read view's index never changes.

The next view's token matcher and statistics are derived from this one's
containers copy-on-write, so a query in flight on view N — and a stream
opened on it — read exactly what they started with, whatever is ingested
meanwhile, and no view keeps the one before it alive.  Synchronised with
events only: no sleeps, no timing.
"""

import gc
import sys
import threading
import weakref

from repro.core.engine import EngineConfig, TriniT, _View
from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatcher

QUERY = "?x 'born in' ?y"

#: Phrases the *next* index matches to 'born in' (same match key, or a
#: super-sequence of it) over statements no pattern of view N's expansion
#: of QUERY can reach: only a changed index could bring them into an answer.
BATCHES = [
    [Triple(Resource("NielsBohr"), TextToken("was born in"), Resource("Copenhagen"))],
    [Triple(Resource("MaxPlanck"), TextToken("borns in"), Resource("Kiel"))],
    [
        Triple(Resource("LiseMeitner"), TextToken("was born in"), Resource("Vienna")),
        Triple(Resource("LiseMeitner"), TextToken("lectured at"), Resource("Berlin")),
    ],
]

BASE = [
    Triple(Resource("AlbertEinstein"), Resource("bornIn"), Resource("Ulm")),
    Triple(Resource("MarieCurie"), Resource("bornIn"), Resource("Warsaw")),
    Triple(Resource("MaxBorn"), Resource("bornIn"), Resource("Breslau")),
    Triple(Resource("EnricoFermi"), TextToken("born in"), Resource("Rome")),
    Triple(Resource("PaulDirac"), TextToken("born in"), Resource("Bristol")),
    Triple(Resource("PaulDirac"), Resource("diedIn"), Resource("Tallahassee")),
    Triple(Resource("Ulm"), Resource("locatedIn"), Resource("Germany")),
]


def _engine():
    engine = TriniT.from_triples(BASE, config=EngineConfig(parallelism=1))
    engine.ask(QUERY)
    engine.suggest(QUERY)
    assert engine.matcher.is_built and engine.statistics.is_built
    return engine


def _signature(answers):
    return [(a.binding, a.score) for a in answers]


def _reachable_views(root):
    """Every ``_View`` reachable from ``root`` through ``gc`` referents."""
    seen, stack, views = {id(root)}, [root], []
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) in seen or isinstance(referent, type):
                continue
            seen.add(id(referent))
            if isinstance(referent, _View):
                views.append(referent)
            stack.append(referent)
    return views


def test_reader_and_stream_on_a_superseded_view_see_what_they_started_with(
    matcher_state, statistics_state
):
    # The run without the writes.
    quiet = _engine()
    expected_answer = _signature(quiet.ask(QUERY))
    quiet_stream = quiet.stream(QUERY)
    expected_pages = [_signature(quiet_stream.next_k(1)) for _ in range(4)]
    assert expected_pages[0] and expected_pages[1]

    engine = _engine()
    view = engine._state.view
    matcher, statistics = view.matcher, view.statistics
    matcher_before, statistics_before = matcher_state(matcher), statistics_state(statistics)

    stream = engine.stream(QUERY)
    pages = [_signature(stream.next_k(1))]

    # Reader A: parked inside TokenMatcher.matches on view N.
    inside, resume = threading.Event(), threading.Event()
    key_for = matcher._key_for

    def parked_key_for(term, slot):
        inside.set()
        assert resume.wait(30)
        return key_for(term, slot)

    matcher._key_for = parked_key_for
    answers = []
    reader = threading.Thread(target=lambda: answers.append(_signature(engine.ask(QUERY))))
    reader.start()
    assert inside.wait(30)
    del matcher._key_for  # the next call — nobody's, by now — is the class's

    for batch in BATCHES:
        engine.ingest(batch)
    engine.add_rule("?x diedIn ?y => ?x bornIn ?y @ 0.2")
    current = engine._state.view
    assert current.version == view.version + 4

    # The writers are done; view N's index is what it was ...
    assert matcher_state(matcher) == matcher_before
    assert statistics_state(statistics) == statistics_before
    # ... while the current one has moved on, and knows the new phrases.
    assert current.matcher is not matcher and current.statistics is not statistics
    assert matcher_state(current.matcher) != matcher_before
    assert TextToken("was born in") in [
        match.token for match in current.matcher.matches(TextToken("born in"), 1)
    ]
    assert len(engine.ask(QUERY)) > len(expected_answer)

    resume.set()
    reader.join(30)
    assert not reader.is_alive()
    assert answers == [expected_answer]
    pages += [_signature(stream.next_k(1)) for _ in range(3)]
    assert pages == expected_pages
    assert matcher_state(matcher) == matcher_before

    # Nothing chains the views: the current one reaches no other, and
    # view N goes once its reader and its stream have let go.
    assert _reachable_views(current) == []
    gone = weakref.ref(view)
    old_matcher = weakref.ref(matcher)
    del view, matcher, statistics, stream, reader, key_for, parked_key_for
    gc.collect()
    assert gone() is None
    assert old_matcher() is None
    engine.close()
    quiet.close()


def test_background_compaction_carries_the_index_without_touching_it(
    matcher_state, statistics_state
):
    """A compaction publish (here inline, the same code as the pool's)
    hands the built index on: equal before and after, under a new store."""
    engine = _engine()
    for batch in BATCHES:
        engine.ingest(batch)
    view = engine._state.view
    before = matcher_state(view.matcher), statistics_state(view.statistics)
    engine.compact()
    current = engine._state.view
    assert current.store is not view.store
    assert current.matcher.is_built and current.statistics.is_built
    assert current.matcher.store is current.store
    assert (matcher_state(current.matcher), statistics_state(current.statistics)) == before
    assert (matcher_state(view.matcher), statistics_state(view.statistics)) == before
    assert _reachable_views(current) == []
    engine.close()


def test_compaction_that_renumbers_terms_falls_back_to_the_sweep():
    """Carrying across a compaction is conditional on every term keeping
    its id; a store whose dictionary was numbered out of statement order
    is rebuilt in statement order by the in-memory fold, and then the next
    view starts lazy instead of trusting ids that moved."""
    store = TripleStore()
    store.dictionary.encode(Resource("Zurich"))  # id 0, no statement yet
    store.add(Triple(Resource("AlbertEinstein"), Resource("bornIn"), Resource("Ulm")))
    store.add(Triple(Resource("AlbertEinstein"), Resource("livedIn"), Resource("Zurich")))
    engine = TriniT(store, config=EngineConfig(parallelism=1))
    reference = TriniT(store.convert(None), config=EngineConfig(parallelism=1))
    engine.ask(QUERY)
    engine.suggest(QUERY)
    batch = [Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen"))]
    engine.ingest(batch)
    reference.ingest(batch)
    assert engine.matcher.is_built and engine.statistics.is_built
    engine.compact()
    assert not engine.matcher.is_built and not engine.statistics.is_built
    assert _signature(engine.ask(QUERY)) == _signature(reference.ask(QUERY))
    assert engine.suggest(QUERY) == reference.suggest(QUERY)
    engine.close()
    reference.close()


def test_readers_never_see_a_view_change_under_them(matcher_state, statistics_state):
    """Stress: more readers than cores re-check the view they hold while
    the writer ingests — a lost copy (a container shared with the next
    view and then written to) would show as a changed index."""
    engine = _engine()
    stop, failures = threading.Event(), []

    def read():
        try:
            while not stop.is_set():
                view = engine._state.view
                before = matcher_state(view.matcher), statistics_state(view.statistics)
                view.matcher.matches(TextToken("born in"), 1)
                view.statistics.context_pairs(Resource("bornIn"), 1)
                after = matcher_state(view.matcher), statistics_state(view.statistics)
                if after != before:
                    failures.append(view.version)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(6)]
    try:
        for reader in readers:
            reader.start()
        for number in range(150):
            person = Resource(f"Person{number}")
            engine.ingest(
                [
                    Triple(person, TextToken("was born in"), Resource(f"Town{number % 7}")),
                    Triple(person, TextToken(f"born in {number}"), Resource("Ulm")),
                    Triple(person, Resource("bornIn"), Resource(f"Town{number % 5}")),
                ]
            )
            if number % 25 == 24:
                engine.compact()
    finally:
        stop.set()
        for reader in readers:
            reader.join(30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    current = engine._state.view
    assert matcher_state(current.matcher) == matcher_state(TokenMatcher(current.store))
    assert statistics_state(current.statistics) == statistics_state(
        StoreStatistics(current.store)
    )
    engine.close()
