"""ShardedBackend specifics: the segment layout, the one lookup, lazy merges.

Conformance on both store layouts lives in test_backends.py and the
id-space equivalence/property suites; this module covers the layout itself
(one base segment, generations appended as contiguous id ranges), what a
lookup returns — the base segment's own slice while no other part holds
the key, else a :class:`MergedPostings` — and the laziness of that merge.
"""

import pytest

from repro.core.terms import Resource, Variable
from repro.core.triples import Triple, TriplePattern
from repro.storage.sharded import MergedPostings
from repro.storage.store import TripleStore

from layouts import generational_copy

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


@pytest.fixture()
def generational(tmp_path):
    """A store in the generational layout: base segment, two compacted
    generations, live delta."""
    return lambda store: generational_copy(store, tmp_path / "store.snapd")


AFFILIATION = TriplePattern(X, Resource("affiliation"), Y)


class TestOneLookup:
    def test_fresh_lookup_is_the_base_segments_own_slice(self):
        store = _store()
        base = store.backend._segment(0)
        affiliation = store.dictionary.id_of(Resource("affiliation"))
        for postings in (
            store.sorted_ids(AFFILIATION),
            store.postings_ids(None, affiliation, None),
        ):
            assert isinstance(postings, memoryview)
            # A view over the base segment's own permutation array: no copy.
            assert postings.obj is base._perm_views[(1,)].obj
            assert list(postings) == list(
                base.postings((False, True, False), (affiliation,))
            )

    def test_key_only_in_the_base_segment_is_its_slice(self, generational):
        # Person0's statements went into the base segment, none later.
        store = generational(_store())
        person = store.dictionary.id_of(Resource("Person0"))
        postings = store.postings_ids(person, None, None)
        assert isinstance(postings, memoryview)
        assert len(postings) == 2

    def test_key_in_a_later_segment_or_the_delta_merges(self, generational):
        fresh = _store()
        store = generational(fresh)
        assert store.backend.segment_count() == 3 and store.delta_size > 0
        merged = store.sorted_ids(AFFILIATION)
        assert isinstance(merged, MergedPostings)
        # Base segment, two generations and the delta hold the key.
        assert merged.segments == 4
        assert list(merged) == list(fresh.sorted_ids(AFFILIATION))
        # A key held by one generation only, or by the delta only, merges
        # too: those parts' local ids are not the global ids.
        for tid in (store.backend.segment_sizes()[0], len(store) - 1):
            subject = store.spo_ids(tid)[0]
            postings = store.postings_ids(subject, None, None)
            assert isinstance(postings, MergedPostings)
            assert postings.segments == 1
            assert list(postings) == list(fresh.postings_ids(subject, None, None))


class TestLazyMerge:
    def test_length_known_without_materialisation(self, generational):
        store = generational(_store())
        postings = store.sorted_ids(AFFILIATION)
        assert isinstance(postings, MergedPostings)
        assert len(postings) == 40
        assert postings.materialized == 0

    def test_prefix_access_materialises_prefix_only(self, generational):
        store = generational(_store())
        postings = store.sorted_ids(AFFILIATION)
        _ = postings[0], postings[1], postings[2]
        assert 3 <= postings.materialized < len(postings)

    def test_pull_materialises_exactly_n(self, generational):
        store = generational(_store())
        postings = store.sorted_ids(AFFILIATION)
        assert [postings.pull(n) for n in (1, 1, 5, 30, 30)] == [1, 1, 5, 30, 3]
        assert postings.materialized == len(postings)

    def test_full_iteration_matches_indexing(self, generational):
        store = generational(_store())
        postings = store.sorted_ids(AFFILIATION)
        iterated = list(postings)
        assert iterated == [postings[i] for i in range(len(postings))]
        assert postings.materialized == len(postings)

    def test_negative_index_and_slice(self, generational):
        store = generational(_store())
        postings = store.sorted_ids(AFFILIATION)
        full = list(postings)
        assert postings[-1] == full[-1]
        assert list(postings[2:5]) == full[2:5]
        assert list(postings[-3:]) == full[-3:]
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
