"""A published read view's index never changes.

The next view's token matcher is derived from this one's containers
copy-on-write, so a query in flight on view N — and a stream opened on it
— read exactly what they started with, whatever is ingested meanwhile,
and no view keeps the one before it alive.  (Statistics keep no index of
their own: they read the store's.)  Synchronised with
events only: no sleeps, no timing.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.core.engine import TriniT, _View
from repro.core.parser import parse_query
from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatcher

from statistics_reference import assert_reads_equal

QUERY = "?x 'born in' ?y"

#: Expands the same token as QUERY, but ``_engine()`` never plans it: a
#: reader asking it on view N consults view N's index while it plans.
UNPLANNED_QUERY = "SELECT ?x WHERE ?x 'born in' ?y"

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
    engine = TriniT.from_triples(BASE)
    engine.ask(QUERY)
    engine.suggest(QUERY)
    assert engine.matcher.is_built
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
    matcher_state,
):
    # The run without the writes.
    quiet = _engine()
    expected_answer = _signature(quiet.ask(UNPLANNED_QUERY))
    quiet_stream = quiet.stream(QUERY)
    expected_pages = [_signature(quiet_stream.next_k(1)) for _ in range(4)]
    assert expected_pages[0] and expected_pages[1]

    engine = _engine()
    view = engine._state.view
    matcher, statistics = view.matcher, view.statistics
    matcher_before = matcher_state(matcher)

    # The stream resumes on the plan view N prepared for the warm-up ask.
    processor = view.processor(engine.config.processor)
    warm_plan = processor.prepared(parse_query(QUERY))
    stream = engine.stream(QUERY)
    assert stream._driver._plan is warm_plan
    pages = [_signature(stream.next_k(1))]

    # Reader A: parked inside TokenMatcher.matches, in the first planning
    # of a query on view N.
    inside, resume = threading.Event(), threading.Event()
    key_for = matcher._key_for

    def parked_key_for(term, slot):
        inside.set()
        assert resume.wait(30)
        return key_for(term, slot)

    matcher._key_for = parked_key_for
    answers = []
    reader = threading.Thread(
        target=lambda: answers.append(_signature(engine.ask(UNPLANNED_QUERY)))
    )
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
    # ... while the current one has moved on, and knows the new phrases.
    assert current.matcher is not matcher and current.statistics is not statistics
    assert matcher_state(current.matcher) != matcher_before
    assert TextToken("was born in") in [
        match.token for match in current.matcher.matches(TextToken("born in"), 1)
    ]
    assert len(engine.ask(UNPLANNED_QUERY)) > len(expected_answer)

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
    del processor, warm_plan
    gc.collect()
    assert gone() is None
    assert old_matcher() is None
    engine.close()
    quiet.close()


def test_an_ask_many_batch_reads_one_view(monkeypatch):
    """An ingest published while a batch's first query is parked reaches
    none of the batch's later queries: they run on the view it started on."""
    engine = _engine()
    before = _signature(engine.ask(QUERY))
    parked, resume = threading.Event(), threading.Event()
    emission_model = PatternScorer.emission_model

    def parking_emission_model(scorer, pattern):
        if threading.current_thread().name == "batch" and not parked.is_set():
            parked.set()
            assert resume.wait(30)
        return emission_model(scorer, pattern)

    monkeypatch.setattr(PatternScorer, "emission_model", parking_emission_model)
    results = []
    batch = threading.Thread(
        name="batch",
        target=lambda: results.append(engine.ask_many(["?x diedIn ?y", QUERY])),
    )
    batch.start()
    try:
        assert parked.wait(30)
        engine.ingest(BATCHES[0])
        after = _signature(engine.ask(QUERY))
        assert len(after) > len(before)  # the new view matches 'was born in'
    finally:
        resume.set()
        batch.join(30)
    assert not batch.is_alive()
    [[_, batched]] = results
    assert _signature(batched) == before
    assert _signature(engine.ask_many([QUERY])[0]) == after
    engine.close()


@pytest.mark.parametrize("write", ["ingest", "add_rule", "compact"])
def test_a_superseded_view_goes_by_reference_counting_alone(write):
    """A view, its processor and the plans the processor prepared hold no
    reference cycle: the view is freed the moment its last reader lets go,
    not at the cyclic collector's next pass — which, for an engine that
    publishes a view per ingest, is what keeps memory flat."""
    engine = TriniT.from_triples(BASE)
    if write == "compact":
        engine.ingest(BATCHES[0])  # something to fold
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text in (QUERY, UNPLANNED_QUERY, "?x bornIn ?y ; ?y locatedIn ?z"):
            engine.ask(text)
        engine.ask_many([QUERY, "?x diedIn ?y"] * 2)
        stream = engine.stream(QUERY)
        stream.next_k(1)
        view = engine._state.view
        processor = view.processor(engine.config.processor)
        plan = processor.prepared(parse_query(QUERY))
        refs = [weakref.ref(view), weakref.ref(processor), weakref.ref(plan)]
        del view, processor, plan
        if write == "ingest":
            engine.ingest(BATCHES[1])
        elif write == "add_rule":
            engine.add_rule("?x diedIn ?y => ?x bornIn ?y @ 0.2")
        else:
            engine.compact()
        engine.ask(QUERY)
        stream.next_k(1)
        # The stream still reads view N's processor and its plan.
        assert refs[1]() is not None and refs[2]() is not None
        del stream
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()
    engine.close()


def test_background_compaction_carries_the_index_without_touching_it(
    matcher_state,
):
    """A compaction publish (here inline, the same code as the worker's)
    hands the built index on: equal before and after, under a new store."""
    engine = _engine()
    for batch in BATCHES:
        engine.ingest(batch)
    view = engine._state.view
    before = matcher_state(view.matcher)
    engine.compact()
    current = engine._state.view
    assert current.store is not view.store
    assert current.matcher.is_built
    assert current.matcher.store is current.store
    assert current.statistics.store is current.store
    assert matcher_state(current.matcher) == before
    assert matcher_state(view.matcher) == before
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
    engine = TriniT(store)
    reference = TriniT(store.rebuild())
    engine.ask(QUERY)
    engine.suggest(QUERY)
    batch = [Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen"))]
    engine.ingest(batch)
    reference.ingest(batch)
    assert engine.matcher.is_built
    engine.compact()
    assert not engine.matcher.is_built
    assert _signature(engine.ask(QUERY)) == _signature(reference.ask(QUERY))
    assert engine.suggest(QUERY) == reference.suggest(QUERY)
    engine.close()
    reference.close()


def test_readers_never_see_a_view_change_under_them(matcher_state):
    """Stress: more readers than cores re-check the view they hold while
    the writer ingests — a lost copy (a container shared with the next
    view and then written to) would show as a changed index."""
    engine = _engine()
    stop, failures = threading.Event(), []

    def read():
        try:
            while not stop.is_set():
                # Held as a query holds it: statistics read the view's
                # store, which must stay open meanwhile.
                with engine._state.reading() as view:
                    before = matcher_state(view.matcher)
                    view.matcher.matches(TextToken("born in"), 1)
                    view.statistics.context_pairs(Resource("bornIn"), 1)
                    after = matcher_state(view.matcher)
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
    assert_reads_equal(current.statistics)
    engine.close()
