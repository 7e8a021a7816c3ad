"""Property-based tests for the triple store and its indexes."""

from hypothesis import given, settings, strategies as st

from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.storage.store import TripleStore

X, Y, P = Variable("x"), Variable("y"), Variable("p")

resources = st.integers(0, 15).map(lambda i: Resource(f"E{i}"))
predicates = st.one_of(
    st.integers(0, 4).map(lambda i: Resource(f"p{i}")),
    st.sampled_from([TextToken("works at"), TextToken("born in")]),
)
triples = st.builds(Triple, resources, predicates, resources)
observations = st.tuples(
    triples,
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=1, max_value=5),
)


def build_store(entries) -> TripleStore:
    store = TripleStore()
    for triple, confidence, count in entries:
        store.add(triple, confidence=confidence, count=count)
    return store.freeze()


@settings(max_examples=60, deadline=None)
@given(st.lists(observations, min_size=1, max_size=60))
def test_distinct_triples_deduplicated(entries):
    store = build_store(entries)
    assert len(store) == len({t for t, _c, _n in entries})


@settings(max_examples=60, deadline=None)
@given(st.lists(observations, min_size=1, max_size=60))
def test_counts_accumulate(entries):
    store = build_store(entries)
    totals: dict = {}
    for triple, _conf, count in entries:
        totals[triple] = totals.get(triple, 0) + count
    for triple, expected in totals.items():
        assert store.lookup(triple).count == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(observations, min_size=1, max_size=60))
def test_posting_lists_sorted_for_every_pattern(entries):
    store = build_store(entries)
    patterns = [TriplePattern(X, P, Y)]
    patterns += [
        TriplePattern(X, Resource(f"p{i}"), Y) for i in range(5)
    ]
    for triple, _c, _n in entries[:5]:
        patterns.append(TriplePattern(triple.s, P, Y))
        patterns.append(TriplePattern(X, P, triple.o))
        patterns.append(TriplePattern(triple.s, triple.p, Y))
    for pattern in patterns:
        weights = [store.weight(i) for i in store.sorted_ids(pattern)]
        assert weights == sorted(weights, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(observations, min_size=1, max_size=60))
def test_pattern_matches_consistent_with_scan(entries):
    """Index lookups agree with a brute-force scan for every signature."""
    store = build_store(entries)
    all_records = list(store.records())
    sample = entries[0][0]
    patterns = [
        TriplePattern(sample.s, P, Y),
        TriplePattern(X, sample.p, Y),
        TriplePattern(X, P, sample.o),
        TriplePattern(sample.s, sample.p, Y),
        TriplePattern(sample.s, P, sample.o),
        TriplePattern(X, sample.p, sample.o),
        TriplePattern(sample.s, sample.p, sample.o),
    ]
    for pattern in patterns:
        via_index = {id(r) for r in store.matches(pattern)}
        via_scan = {
            id(r) for r in all_records if pattern.matches(r.triple)
        }
        assert via_index == via_scan


@settings(max_examples=40, deadline=None)
@given(st.lists(observations, min_size=1, max_size=40))
def test_observation_mass_additive(entries):
    store = build_store(entries)
    pattern = TriplePattern(X, P, Y)
    assert abs(
        store.observation_mass(pattern) - store.total_observations()
    ) < 1e-9


def _probe_patterns(entries):
    sample = entries[0][0]
    return [
        TriplePattern(X, P, Y),
        TriplePattern(sample.s, P, Y),
        TriplePattern(X, sample.p, Y),
        TriplePattern(X, P, sample.o),
        TriplePattern(sample.s, sample.p, Y),
        TriplePattern(sample.s, sample.p, sample.o),
    ]


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(observations, min_size=1, max_size=40))
def test_snapshot_round_trip_byte_identical(tmp_path_factory, entries):
    """freeze → snapshot → mmap-load preserves postings, weights, records."""
    from repro.storage.snapshot import load_snapshot, save_snapshot

    store = build_store(entries)
    path = tmp_path_factory.mktemp("snap") / "store.snapd"
    save_snapshot(store, path)
    loaded = load_snapshot(path)
    assert len(loaded) == len(store)
    assert list(loaded.weights()) == list(store.weights())
    for pattern in _probe_patterns(entries):
        assert bytes(loaded.sorted_ids(pattern)) == bytes(store.sorted_ids(pattern))
    for tid in range(len(store)):
        assert loaded.record(tid).triple == store.record(tid).triple
        assert loaded.record(tid).confidence == store.record(tid).confidence
        assert loaded.record(tid).count == store.record(tid).count


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(observations, min_size=1, max_size=40),
    batch=st.sampled_from([1, None]),
)
def test_generational_postings_equal_the_fresh_build(tmp_path_factory, entries, batch):
    """Base segment + two compacted generations + live delta merge back to
    the exact posting lists of one fresh segment: every signature, every
    key, item-at-a-time and adaptively pulled."""
    from layouts import distinct_keys, generational_copy
    from repro.storage.index import SIGNATURES

    fresh = build_store(entries)
    weights = fresh.weights()
    assert list(fresh.sorted_ids(TriplePattern(X, P, Y))) == sorted(
        range(len(fresh)),
        key=lambda tid: (-weights[tid], fresh.triple(tid).sort_key(), tid),
    )
    root = tmp_path_factory.mktemp("generational") / "store.snapd"
    generational = generational_copy(fresh, root)
    if len(fresh) >= 4:
        assert generational.backend.segment_count() == 3
        assert generational.has_delta
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        keys = distinct_keys(fresh.backend, bound) if sig else [()]
        if sig:
            assert distinct_keys(generational.backend, bound) == keys
        for key in keys:
            merged = generational.backend.postings(bound, key)
            if batch == 1:
                # Index item at a time: a merge then pulls one per read.
                merged = [merged[i] for i in range(len(merged))]
            assert list(merged) == list(
                fresh.backend.postings(bound, key)
            ), (sig, key)
    generational.close()


#: Frozen terms are even-numbered, live ones odd: an ingested term sorts
#: *between* frozen ones, so only a tie-key sort puts it in place.
frozen_rows = st.lists(
    st.tuples(
        st.integers(0, 6).map(lambda i: f"E{2 * i}"),
        st.sampled_from(["p0", "p1"]),
        st.integers(0, 6).map(lambda i: f"E{2 * i}"),
        st.sampled_from([0.5, 1.0]),
    ),
    min_size=1,
    max_size=25,
)
live_rows = st.lists(
    st.tuples(
        st.integers(0, 13).map("E{}".format),
        st.sampled_from(["p0", "p1", "p2"]),
        st.integers(0, 13).map("E{}".format),
        st.sampled_from([0.5, 1.0]),
    ),
    min_size=1,
    max_size=15,
)


def _add_rows(store, rows):
    for s, p, o, confidence in rows:
        store.add(
            Triple(Resource(s), Resource(p), Resource(o)), confidence=confidence
        )


def assert_canonical_order(store) -> None:
    """Every posting list of every signature, and the scan, in (weight desc,
    tie key asc, id asc) order — the tie key being the terms' sort keys."""
    from layouts import distinct_keys
    from repro.storage.index import SIGNATURES

    sort_key = store.dictionary.sort_key
    spo = [store.spo_ids(tid) for tid in range(len(store))]

    def canonical(tids):
        return sorted(
            tids,
            key=lambda tid: (-store.weight(tid), tuple(map(sort_key, spo[tid])), tid),
        )

    backend = store.backend
    assert list(backend.postings([False] * 3, ())) == canonical(range(len(store)))
    for sig in SIGNATURES:
        bound = [slot in sig for slot in range(3)]
        for key in distinct_keys(backend, bound):
            matching = [
                tid for tid in range(len(store))
                if tuple(spo[tid][slot] for slot in sig) == key
            ]
            assert list(backend.postings(bound, key)) == canonical(matching), (sig, key)


@settings(max_examples=30, deadline=None)
@given(frozen=frozen_rows, live=live_rows)
def test_every_store_serves_postings_in_canonical_order(
    tmp_path_factory, frozen, live
):
    """Fresh build, reopened snapshot, live delta (new terms sorting between
    frozen ones), ``write_generation`` result and in-memory ``rebuild`` all
    hand out the one canonical posting order."""
    from repro.storage.compaction import compact_store, write_generation
    from repro.storage.snapshot import load_snapshot, save_snapshot

    fresh = TripleStore()
    _add_rows(fresh, frozen + live)
    assert_canonical_order(fresh.freeze())

    root = tmp_path_factory.mktemp("order") / "store.snapd"
    base = TripleStore()
    _add_rows(base, frozen)
    save_snapshot(base.freeze(), root)
    reopened = load_snapshot(root)
    assert_canonical_order(reopened)

    _add_rows(reopened, live)  # the live delta
    assert_canonical_order(reopened)
    assert_canonical_order(reopened.rebuild())
    if reopened.has_delta:
        write_generation(reopened)
        generation = load_snapshot(root)
        assert_canonical_order(generation)
        generation.close()
    reopened.close()

    live_in_memory = TripleStore()
    _add_rows(live_in_memory, frozen)
    live_in_memory.freeze()
    _add_rows(live_in_memory, live)
    assert_canonical_order(live_in_memory)
    assert_canonical_order(compact_store(live_in_memory))
