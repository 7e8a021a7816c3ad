"""Unit tests for the term dictionary."""

import pytest

from repro.core.terms import Resource, TextToken
from repro.errors import DictionaryError
from repro.storage.dictionary import TermDictionary


class TestTermDictionary:
    def test_encode_is_dense_and_stable(self):
        d = TermDictionary()
        a = d.encode(Resource("A"))
        b = d.encode(Resource("B"))
        assert (a, b) == (0, 1)
        assert d.encode(Resource("A")) == 0

    def test_decode_roundtrip(self):
        d = TermDictionary()
        term = TextToken("housed in")
        term_id = d.encode(term)
        assert d.decode(term_id) == term

    def test_id_of_missing_is_none(self):
        d = TermDictionary()
        assert d.id_of(Resource("Missing")) is None

    def test_require_id_raises(self):
        d = TermDictionary()
        with pytest.raises(DictionaryError):
            d.require_id(Resource("Missing"))

    def test_decode_out_of_range(self):
        d = TermDictionary()
        with pytest.raises(DictionaryError):
            d.decode(0)
        d.encode(Resource("A"))
        with pytest.raises(DictionaryError):
            d.decode(1)
        with pytest.raises(DictionaryError):
            d.decode(-1)

    def test_contains_and_len(self):
        d = TermDictionary()
        assert len(d) == 0
        d.encode(Resource("A"))
        assert Resource("A") in d
        assert Resource("B") not in d
        assert len(d) == 1

    def test_token_identity_by_normalisation(self):
        d = TermDictionary()
        first = d.encode(TextToken("Housed In"))
        second = d.encode(TextToken("housed  in"))
        assert first == second

    def test_iteration_order(self):
        d = TermDictionary()
        terms = [Resource("C"), Resource("A"), Resource("B")]
        for term in terms:
            d.encode(term)
        assert list(d) == terms

    def test_sort_key_is_the_terms_and_kept_per_id(self):
        d = TermDictionary()
        terms = [Resource("B"), TextToken("a phrase"), Resource("A")]
        ids = [d.encode(term) for term in terms]
        assert [d.sort_key(i) for i in ids] == [t.sort_key() for t in terms]
        assert d.sort_key(ids[0]) is d.sort_key(ids[0])  # computed once
        assert sorted(ids, key=d.sort_key) == [ids[2], ids[0], ids[1]]
        with pytest.raises(DictionaryError):
            d.sort_key(len(terms))

    def test_adopted_sort_keys_survive_growth(self):
        # A compaction that kept every id hands the computed keys on; ids
        # the new dictionary assigns afterwards extend its own column.
        old, new = TermDictionary(), TermDictionary()
        for d in (old, new):
            d.encode(Resource("A"))
        key = old.sort_key(0)
        new.adopt_sort_keys(old)
        assert new.sort_key(0) is key
        fresh = new.encode(Resource("C"))
        assert new.sort_key(fresh) == Resource("C").sort_key()
        with pytest.raises(DictionaryError):
            old.sort_key(fresh)
