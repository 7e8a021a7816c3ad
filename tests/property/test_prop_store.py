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
@given(entries=st.lists(observations, min_size=1, max_size=40))
def test_postings_identical_at_every_segment_count(segment_counts, entries):
    """Hash-partitioned segments merge back to the exact global order."""
    from repro.storage.sharded import ShardedBackend

    single = build_store(entries).convert(ShardedBackend(1))
    weights = single.weights()
    assert list(single.sorted_ids(TriplePattern(X, P, Y))) == sorted(
        range(len(single)), key=lambda tid: (-weights[tid], tid)
    )
    for segments in segment_counts + (7,):
        sharded = TripleStore(backend=ShardedBackend(segments))
        for triple, confidence, count in entries:
            sharded.add(triple, confidence=confidence, count=count)
        sharded.freeze()
        for pattern in _probe_patterns(entries):
            assert list(sharded.sorted_ids(pattern)) == list(
                single.sorted_ids(pattern)
            )
