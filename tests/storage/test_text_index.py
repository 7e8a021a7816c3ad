"""Unit tests for fuzzy token matching (TokenMatcher)."""

import pytest

from repro.core.terms import Resource, TextToken
from repro.core.triples import Triple
from repro.errors import StorageError
from repro.storage.store import TripleStore
from repro.storage.text_index import PREDICATE, SUBJECT, TokenMatcher


@pytest.fixture()
def matcher(frozen_small_store):
    return TokenMatcher(frozen_small_store)


class TestConstruction:
    def test_requires_frozen(self, small_store):
        with pytest.raises(StorageError):
            TokenMatcher(small_store)

    def test_phrases_in_slot(self, matcher):
        phrases = [p.norm for p in matcher.phrases_in_slot(PREDICATE)]
        assert "lectured at" in phrases
        assert "won a nobel for" in phrases


class TestExactAndKeyMatches:
    def test_exact_match_scores_one(self, matcher):
        matches = matcher.matches(TextToken("lectured at"), PREDICATE)
        assert matches[0].token == TextToken("lectured at")
        assert matches[0].similarity == 1.0

    def test_same_key_different_surface(self, matcher):
        # 'lectures at' stems to the same key as 'lectured at'.
        matches = matcher.matches(TextToken("lectures at"), PREDICATE)
        assert any(
            m.token == TextToken("lectured at") and m.similarity == pytest.approx(0.95)
            for m in matches
        )

    def test_subsequence_match_attenuated(self, matcher):
        # 'nobel for' ⊂ 'won a nobel for' (key: win nobel for).
        matches = matcher.matches(TextToken("nobel for"), PREDICATE)
        found = [m for m in matches if m.token == TextToken("won a nobel for")]
        assert found
        assert 0.6 <= found[0].similarity < 0.95

    def test_non_contiguous_no_match(self, matcher):
        matches = matcher.matches(TextToken("won for"), PREDICATE)
        assert not any(m.token == TextToken("won a nobel for") for m in matches)

    def test_no_match_returns_empty(self, matcher):
        assert matcher.matches(TextToken("completely unrelated"), PREDICATE) == []

    def test_bad_slot_rejected(self, matcher):
        with pytest.raises(StorageError):
            matcher.matches(TextToken("x"), 5)

    def test_results_sorted_by_similarity(self, matcher):
        matches = matcher.matches(TextToken("lectured at"), PREDICATE)
        sims = [m.similarity for m in matches]
        assert sims == sorted(sims, reverse=True)


class TestResourceMatching:
    def test_token_matches_resource_surface(self, matcher):
        # 'born in' equals bornIn's camel-split surface exactly, so the
        # only attenuation is the resource factor.
        matches = matcher.matches(TextToken("born in"), PREDICATE)
        resource_matches = [m for m in matches if m.token == Resource("bornIn")]
        assert resource_matches
        assert resource_matches[0].similarity == pytest.approx(0.95)

    def test_subject_entity_by_surface(self, matcher):
        matches = matcher.matches(TextToken("albert einstein"), SUBJECT)
        assert any(m.token == Resource("AlbertEinstein") for m in matches)

    def test_resources_disabled(self, frozen_small_store):
        matcher = TokenMatcher(frozen_small_store, include_resources=False)
        matches = matcher.matches(TextToken("born in"), PREDICATE)
        assert not any(isinstance(m.token, Resource) for m in matches)

    def test_phrase_preferred_over_resource_on_tie(self, matcher):
        matches = matcher.matches(TextToken("lectured at"), PREDICATE)
        assert isinstance(matches[0].token, TextToken)


def _live_store():
    """A frozen store whose predicate slot already holds ``bornIn``."""
    store = TripleStore()
    store.add(Triple(Resource("AlbertEinstein"), Resource("bornIn"), Resource("Ulm")))
    store.add(Triple(Resource("MarieCurie"), TextToken("lectured at"), Resource("Sorbonne")))
    return store.freeze()


def _built(store, **options):
    matcher = TokenMatcher(store, **options)
    matcher._ensure()
    return matcher


class TestExtension:
    """``previous=``: extending a built matcher equals sweeping the store."""

    def test_first_seen_norm_wins_across_the_batch_boundary(self, matcher_state):
        store = _live_store()
        base = _built(store)
        assert base.matches(TextToken("born in"), PREDICATE)[0].token == Resource("bornIn")
        # The phrase normalises to the resource's surface, but arrives later.
        store.add(Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen")))
        grown = TokenMatcher(store, previous=base)
        assert grown.is_built
        assert grown._by_norm[PREDICATE]["born in"] == Resource("bornIn")
        assert matcher_state(grown) == matcher_state(TokenMatcher(store))
        # ... and the other way round: the phrase was there first.
        store.add(Triple(Resource("NielsBohr"), Resource("lecturedAt"), Resource("Copenhagen")))
        again = TokenMatcher(store, previous=grown)
        assert again._by_norm[PREDICATE]["lectured at"] == TextToken("lectured at")
        assert matcher_state(again) == matcher_state(TokenMatcher(store))

    def test_phrases_before_resources_inside_one_key(self, matcher_state):
        store = _live_store()
        base = _built(store)
        key = base._key_for(Resource("bornIn"), PREDICATE)
        assert base._by_key[PREDICATE][key] == [Resource("bornIn")]
        store.add(Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen")))
        grown = TokenMatcher(store, previous=base)
        assert grown._by_key[PREDICATE][key] == [TextToken("born in"), Resource("bornIn")]
        assert matcher_state(grown) == matcher_state(TokenMatcher(store))
        assert grown.matches(TextToken("born in"), PREDICATE) == TokenMatcher(
            store
        ).matches(TextToken("born in"), PREDICATE)

    def test_predecessor_is_left_exactly_as_it_was(self, matcher_state):
        store = _live_store()
        base = _built(store)
        before = matcher_state(base)
        untouched = base._by_key[PREDICATE][base._key_for(TextToken("lectured at"), PREDICATE)]
        store.add(Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen")))
        grown = TokenMatcher(store, previous=base)
        assert matcher_state(base) == before
        # Copy-on-write: what the batch did not land in is shared, not copied.
        assert grown._by_key[PREDICATE][base._key_for(TextToken("lectured at"), PREDICATE)] is untouched
        assert grown._by_norm[PREDICATE] is not base._by_norm[PREDICATE]

    def test_nothing_new_shares_every_container(self):
        store = _live_store()
        base = _built(store)
        # Fresh evidence for a statement already indexed: no new term.
        store.add(Triple(Resource("AlbertEinstein"), Resource("bornIn"), Resource("Ulm")))
        grown = TokenMatcher(store, previous=base)
        assert grown.is_built
        for slot in (SUBJECT, PREDICATE, 2):
            assert grown._by_norm[slot] is base._by_norm[slot]
            assert grown._by_key[slot] is base._by_key[slot]
            assert grown._by_stem[slot] is base._by_stem[slot]

    def test_resources_disabled_extends_too(self, matcher_state):
        store = _live_store()
        base = _built(store, include_resources=False)
        store.add(Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen")))
        store.add(Triple(Resource("NielsBohr"), Resource("diedIn"), Resource("Copenhagen")))
        grown = TokenMatcher(store, include_resources=False, previous=base)
        assert grown.is_built
        assert matcher_state(grown) == matcher_state(
            TokenMatcher(store, include_resources=False)
        )
        assert not any(
            isinstance(term, Resource)
            for norms in grown._by_norm
            for term in norms.values()
        )
        # A predecessor indexed under the other setting cannot be extended.
        assert not TokenMatcher(store, previous=base).is_built

    def test_terms_with_empty_match_keys(self, matcher_state):
        store = _live_store()
        base = _built(store)
        # A stop word only: a norm, but no match key.
        store.add(Triple(Resource("NielsBohr"), TextToken("of the"), TextToken("the")))
        grown = TokenMatcher(store, previous=base)
        assert grown._key_for(TextToken("the"), 2) == ()
        assert matcher_state(grown) == matcher_state(TokenMatcher(store))
        assert "the" in grown._by_norm[2]
        assert all(() not in keys for keys in grown._by_key)

    def test_unbuilt_predecessor_yields_an_unbuilt_unchained_successor(self):
        store = _live_store()
        base = TokenMatcher(store)
        store.add(Triple(Resource("NielsBohr"), TextToken("born in"), Resource("Copenhagen")))
        successor = TokenMatcher(store, previous=base)
        assert not successor.is_built and not base.is_built
        assert all(value is not base for value in vars(successor).values())
        assert successor.matches(TextToken("born in"), PREDICATE)
        assert successor.is_built and not base.is_built
