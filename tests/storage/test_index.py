"""Unit tests for the bound-slot signature helpers.

Posting order per signature (by subject, by predicate, tie-break by id, …)
is checked on the store layout in test_backends.py::TestPostingOrder.
"""

from repro.storage.index import SIGNATURES, signature_of


class TestSignatureOf:
    def test_all_bound(self):
        assert signature_of([True, True, True]) == (0, 1, 2)

    def test_none_bound(self):
        assert signature_of([False, False, False]) == ()

    def test_mixed(self):
        assert signature_of([True, False, True]) == (0, 2)

    def test_all_signatures_covered(self):
        assert len(SIGNATURES) == 7
