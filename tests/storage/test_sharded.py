"""ShardedBackend specifics: the segment layout and lazy merged postings.

Conformance on both store layouts lives in test_backends.py and the
id-space equivalence/property suites; this module covers the layout itself
(one base segment, generations appended as contiguous id ranges) and the
laziness of :class:`MergedPostings` — a copied range on a fresh store, a
merge on a generational one.
"""

import pytest

from repro.core.terms import Resource, Variable
from repro.core.triples import Triple, TriplePattern
from repro.storage.sharded import MergedPostings
from repro.storage.store import TripleStore

X, Y, P = Variable("x"), Variable("y"), Variable("p")


def _store(num_people: int = 40) -> TripleStore:
    store = TripleStore("sharded-test")
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


class TestLayout:
    def test_fresh_store_is_one_base_segment(self):
        store = _store()
        assert store.backend.segment_count() == 1
        assert store.backend.segment_sizes() == [len(store)]

    def test_generations_append_contiguous_id_ranges(self, relayout):
        store = relayout(_store())
        sizes = store.backend.segment_sizes()
        assert sum(sizes) + store.delta_size == len(store)
        if store.backend.segment_count() > 1:  # the generational layout
            assert len(sizes) == 3 and store.delta_size > 0
            # gid = start + local: each segment's rows are the next ids.
            start = 0
            for index, size in enumerate(sizes):
                segment = store.backend._segment(index)
                for local in range(size):
                    assert segment.slot_ids(local) == store.spo_ids(start + local)
                start += size

    def test_slot_ids_and_weights_globally_indexed(self, relayout):
        store = relayout(_store())
        encode = store.dictionary.id_of
        for tid, record in enumerate(store.records()):
            assert store.backend.slot_ids(tid) == tuple(
                encode(term) for term in record.triple.terms()
            )
            assert store.backend.weight(tid) == record.weight
            assert store.backend.count(tid) == record.count


class TestLazyMerge:
    def test_length_known_without_materialisation(self, relayout):
        store = relayout(_store())
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        assert isinstance(postings, MergedPostings)
        assert len(postings) == 40
        assert postings.materialized == 0

    def test_prefix_access_materialises_prefix_only(self, relayout):
        store = relayout(_store())
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        _ = postings[0], postings[1], postings[2]
        assert 3 <= postings.materialized < len(postings)

    def test_full_iteration_matches_indexing(self, relayout):
        store = relayout(_store())
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        iterated = list(postings)
        assert iterated == [postings[i] for i in range(len(postings))]
        assert postings.materialized == len(postings)

    def test_negative_index_and_slice(self, relayout):
        store = relayout(_store())
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        full = list(postings)
        assert postings[-1] == full[-1]
        assert postings[2:5] == tuple(full[2:5])
        assert postings[-3:] == tuple(full[-3:])
        with pytest.raises(IndexError):
            postings[len(postings)]

    def test_merged_order_is_global_score_order(self, relayout):
        store = relayout(_store())
        postings = store.sorted_ids(TriplePattern(X, Resource("affiliation"), Y))
        weights = store.weights()
        keys = [
            (-weights[tid], store.triple(tid).sort_key(), tid) for tid in postings
        ]
        assert keys == sorted(keys)

    def test_scan_in_global_score_order(self, relayout):
        sharded = relayout(_store())
        weights = sharded.weights()
        assert list(sharded.sorted_ids(TriplePattern(X, P, Y))) == sorted(
            range(len(sharded)),
            key=lambda tid: (-weights[tid], sharded.triple(tid).sort_key(), tid),
        )

    def test_merged_postings_are_stable_across_lookups(self, relayout):
        store = relayout(_store())
        pattern = TriplePattern(X, Resource("affiliation"), Y)
        assert list(store.sorted_ids(pattern)) == list(store.sorted_ids(pattern))
