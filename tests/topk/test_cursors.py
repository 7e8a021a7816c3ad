"""Unit tests for the reference core's posting and materialised-join cursors."""

import pytest

from repro.core.results import QueryStats
from repro.core.terms import Resource, TextToken, Variable
from repro.core.triples import Triple, TriplePattern
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore

from reference_core import MaterializedJoinCursor, PostingCursor

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture()
def scorer(frozen_small_store):
    return PatternScorer(frozen_small_store)


class TestPostingCursor:
    def test_descending_scores(self, frozen_small_store, scorer):
        pattern = TriplePattern(X, Variable("p"), Y)
        cursor = PostingCursor(frozen_small_store, scorer, pattern)
        scores = []
        while (item := cursor.pop()) is not None:
            scores.append(item.score)
        assert scores == sorted(scores, reverse=True)
        assert len(scores) == len(frozen_small_store)

    def test_peek_matches_next_pop(self, frozen_small_store, scorer):
        pattern = TriplePattern(X, Resource("bornIn"), Y)
        cursor = PostingCursor(frozen_small_store, scorer, pattern)
        peeked = cursor.peek()
        assert cursor.pop().score == pytest.approx(peeked)

    def test_exhaustion(self, frozen_small_store, scorer):
        pattern = TriplePattern(X, Resource("bornIn"), Y)
        cursor = PostingCursor(frozen_small_store, scorer, pattern)
        while cursor.pop() is not None:
            pass
        assert cursor.peek() is None
        assert cursor.pop() is None

    def test_multiplier_applied(self, frozen_small_store, scorer):
        pattern = TriplePattern(X, Resource("bornIn"), Y)
        plain = PostingCursor(frozen_small_store, scorer, pattern)
        halved = PostingCursor(
            frozen_small_store, scorer, pattern, multiplier=0.5
        )
        assert halved.peek() == pytest.approx(plain.peek() * 0.5)

    def test_repeated_variable_filtered(self, scorer):
        store = TripleStore()
        knows = Resource("knows")
        a = Resource("A")
        store.add(Triple(a, knows, a))
        store.add(Triple(a, knows, Resource("B")))
        store.freeze()
        cursor = PostingCursor(store, PatternScorer(store), TriplePattern(X, knows, X))
        items = []
        while (item := cursor.pop()) is not None:
            items.append(item)
        assert len(items) == 1
        assert dict(items[0].binding)[X] == a

    def test_binding_contents(self, frozen_small_store, scorer):
        pattern = TriplePattern(Resource("AlbertEinstein"), Resource("bornIn"), Y)
        cursor = PostingCursor(frozen_small_store, scorer, pattern)
        item = cursor.pop()
        assert dict(item.binding) == {Y: Resource("Ulm")}
        assert item.info.records[0].triple.o == Resource("Ulm")

    def test_stats_counted(self, frozen_small_store, scorer):
        stats = QueryStats()
        pattern = TriplePattern(X, Resource("bornIn"), Y)
        cursor = PostingCursor(frozen_small_store, scorer, pattern, stats=stats)
        cursor.pop()
        cursor.pop()
        assert stats.sorted_accesses == 2
        assert stats.cursors_opened == 1

    def test_lazy_open(self, frozen_small_store, scorer):
        stats = QueryStats()
        PostingCursor(
            frozen_small_store,
            scorer,
            TriplePattern(X, Resource("bornIn"), Y),
            stats=stats,
        )
        assert stats.cursors_opened == 0  # construction does not open

    def test_ensure_exact_true(self, frozen_small_store, scorer):
        cursor = PostingCursor(
            frozen_small_store, scorer, TriplePattern(X, Resource("bornIn"), Y)
        )
        assert cursor.ensure_exact()


class TestMaterializedJoinCursor:
    def _cursor(self, store, scorer, multiplier=0.8, stats=None):
        """The Figure 4 rule 3 sub-join: affiliation ∘ 'housed in'."""
        patterns = (
            TriplePattern(Resource("AlbertEinstein"), Resource("affiliation"), Z),
            TriplePattern(Z, TextToken("housed in"), Y),
        )
        return MaterializedJoinCursor(
            store, scorer, patterns, (Y,), multiplier=multiplier, stats=stats
        )

    def _paper_store(self):
        store = TripleStore()
        ae = Resource("AlbertEinstein")
        store.add(Triple(ae, Resource("affiliation"), Resource("IAS")))
        store.add(
            Triple(
                Resource("IAS"),
                TextToken("housed in"),
                Resource("PrincetonUniversity"),
            )
        )
        return store.freeze()

    def test_lazy_until_pop(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        cursor = self._cursor(store, scorer)
        assert not cursor.is_materialized
        assert cursor.peek() is not None  # optimistic bound, still lazy
        assert not cursor.is_materialized
        cursor.pop()
        assert cursor.is_materialized

    def test_peek_is_upper_bound(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        cursor = self._cursor(store, scorer)
        bound = cursor.peek()
        item = cursor.pop()
        assert item.score <= bound + 1e-12

    def test_projection_onto_interface(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        item = self._cursor(store, scorer).pop()
        assert set(dict(item.binding)) == {Y}
        assert dict(item.binding)[Y] == Resource("PrincetonUniversity")

    def test_multiplier_and_score_product(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        item = self._cursor(store, scorer, multiplier=0.8).pop()
        # Both sub-patterns have exactly one match: scores near 1.
        assert 0.5 < item.score <= 0.8

    def test_records_for_explanation(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        item = self._cursor(store, scorer).pop()
        assert len(item.info.records) == 2

    def test_ensure_exact_materializes(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        cursor = self._cursor(store, scorer)
        assert not cursor.ensure_exact()  # had to refine
        assert cursor.is_materialized
        assert cursor.ensure_exact()

    def test_empty_join(self):
        store = self._paper_store()
        scorer = PatternScorer(store)
        patterns = (
            TriplePattern(Resource("Nobody"), Resource("affiliation"), Z),
            TriplePattern(Z, TextToken("housed in"), Y),
        )
        cursor = MaterializedJoinCursor(store, scorer, patterns, (Y,))
        assert cursor.pop() is None

    def test_dedup_keeps_best_per_interface_binding(self):
        store = TripleStore()
        ae = Resource("AlbertEinstein")
        # Two institutes, both housed in Princeton → one projected binding.
        for name, count in (("IAS", 3), ("OtherInst", 1)):
            store.add(Triple(ae, Resource("affiliation"), Resource(name)))
            store.add(
                Triple(
                    Resource(name),
                    TextToken("housed in"),
                    Resource("PrincetonUniversity"),
                ),
                count=count,
            )
        store.freeze()
        scorer = PatternScorer(store)
        cursor = self._cursor(store, scorer)
        items = []
        while (item := cursor.pop()) is not None:
            items.append(item)
        assert len(items) == 1  # deduplicated on ?y
