"""ShardedBackend specifics: partitioning, lazy merged postings, id maps.

Conformance at every segment count lives in test_backends.py and the
id-space equivalence/property suites; this module covers the hash
partitioning itself, the laziness of the k-way merge, and the global/local
id translation.
"""

import pytest

from repro.core.terms import Resource, Variable
from repro.core.triples import Triple, TriplePattern
from repro.errors import StorageError
from repro.storage.sharded import DEFAULT_SEGMENTS, MergedPostings, ShardedBackend
from repro.storage.store import TripleStore

X, Y, P = Variable("x"), Variable("y"), Variable("p")


def _store(num_people: int = 40, backend=None) -> TripleStore:
    store = TripleStore(
        "sharded-test", backend=backend if backend is not None else "sharded"
    )
    aff = Resource("affiliation")
    for i in range(num_people):
        person = Resource(f"Person{i}")
        store.add(
            Triple(person, aff, Resource(f"Uni{i % 5}")),
            confidence=0.5 + 0.5 * ((i * 7) % 10) / 10,
            count=1 + i % 3,
        )
        store.add(Triple(person, Resource("type"), Resource("person")))
    return store.freeze()


class TestPartitioning:
    def test_default_segment_count(self):
        assert DEFAULT_SEGMENTS >= 4
        assert ShardedBackend().num_segments == DEFAULT_SEGMENTS

    def test_segments_all_used(self):
        store = _store()
        sizes = store.backend.segment_sizes()
        assert sum(sizes) == len(store)
        assert all(size > 0 for size in sizes)

    def test_partitioning_is_deterministic(self):
        first, second = _store(), _store()
        assert first.backend.segment_sizes() == second.backend.segment_sizes()

    def test_configurable_segment_count(self):
        store = _store(backend=ShardedBackend(8))
        assert store.backend.num_segments == 8
        assert sum(store.backend.segment_sizes()) == len(store)

    def test_at_least_one_segment_required(self):
        with pytest.raises(StorageError):
            ShardedBackend(0)

    def test_segment_count_does_not_change_order(self):
        single = _store(backend=ShardedBackend(1))
        for count in (DEFAULT_SEGMENTS, 8):
            sharded = _store(backend=ShardedBackend(count))
            for pattern in (TriplePattern(X, Resource("affiliation"), Y),
                            TriplePattern(X, P, Y)):
                assert list(sharded.sorted_ids(pattern)) == list(
                    single.sorted_ids(pattern)
                )


class TestIdTranslation:
    def test_slot_ids_and_weights_globally_indexed(self):
        sharded = _store()
        encode = sharded.dictionary.id_of
        for tid, record in enumerate(sharded.records()):
            assert sharded.backend.slot_ids(tid) == tuple(
                encode(term) for term in record.triple.terms()
            )
            assert sharded.backend.weight(tid) == record.weight
            assert sharded.backend.count(tid) == record.count


class TestLazyMerge:
    def test_length_known_without_materialisation(self):
        store = _store()
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        assert isinstance(postings, MergedPostings)
        assert len(postings) == 40
        assert postings.materialized == 0

    def test_prefix_access_materialises_prefix_only(self):
        store = _store()
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        _ = postings[0], postings[1], postings[2]
        assert 3 <= postings.materialized < len(postings)

    def test_full_iteration_matches_indexing(self):
        store = _store()
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        iterated = list(postings)
        assert iterated == [postings[i] for i in range(len(postings))]
        assert postings.materialized == len(postings)

    def test_negative_index_and_slice(self):
        store = _store()
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        full = list(postings)
        assert postings[-1] == full[-1]
        assert postings[2:5] == tuple(full[2:5])
        assert postings[-3:] == tuple(full[-3:])
        with pytest.raises(IndexError):
            postings[len(postings)]

    def test_merged_order_is_global_score_order(self):
        store = _store()
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        weights = store.weights()
        keys = [(-weights[tid], tid) for tid in postings]
        assert keys == sorted(keys)

    def test_scan_is_merged_across_segments(self):
        sharded = _store()
        weights = sharded.weights()
        assert list(sharded.sorted_ids(TriplePattern(X, P, Y))) == sorted(
            range(len(sharded)), key=lambda tid: (-weights[tid], tid)
        )

    def test_merged_postings_are_stable_across_lookups(self):
        store = _store()
        pattern = TriplePattern(X, Resource("affiliation"), Y)
        assert list(store.sorted_ids(pattern)) == list(store.sorted_ids(pattern))
