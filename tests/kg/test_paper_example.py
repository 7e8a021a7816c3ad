"""Tests that the paper's running example is reproduced verbatim."""

from repro.core.terms import Resource, TextToken
from repro.kg.paper_example import (
    paper_kg,
    paper_rules,
    paper_store,
    paper_xkg_extension,
)


class TestFigure1:
    def test_six_triples(self):
        assert len(paper_kg()) == 6

    def test_exact_content(self):
        rendered = {t.n3() for t in paper_kg()}
        assert rendered == {
            "AlbertEinstein bornIn Ulm",
            "Ulm locatedIn Germany",
            'AlbertEinstein bornOn "1879-03-14"',
            "AlfredKleiner hasStudent AlbertEinstein",
            "AlbertEinstein affiliation IAS",
            "PrincetonUniversity member IvyLeague",
        }


class TestFigure3:
    def test_four_extension_triples(self):
        assert len(paper_xkg_extension()) == 4

    def test_exact_content(self):
        rendered = {t.n3() for t, _p, _c in paper_xkg_extension()}
        assert (
            "AlbertEinstein 'won nobel for' "
            "'discovery of the photoelectric effect'"
        ) in rendered
        assert "IAS 'housed in' PrincetonUniversity" in rendered
        assert "AlbertEinstein 'lectured at' PrincetonUniversity" in rendered

    def test_extension_has_provenance_and_confidence(self):
        for triple, provenance, confidence in paper_xkg_extension():
            assert provenance.is_extraction
            assert provenance.source
            assert 0 < confidence < 1


class TestFigure4:
    def test_four_rules_with_paper_weights(self):
        rules = paper_rules()
        assert [r.weight for r in rules] == [1.0, 1.0, 0.8, 0.7]

    def test_rule2_is_inversion(self):
        rule = paper_rules()[1]
        assert rule.n3() == "?x hasAdvisor ?y => ?y hasStudent ?x @ 1"

    def test_rule3_expands_via_token(self):
        rule = paper_rules()[2]
        assert len(rule.replacement) == 2
        assert rule.replacement[1].p == TextToken("housed in")

    def test_rule1_granularity_shape(self):
        rule = paper_rules()[0]
        assert len(rule.original) == 2
        assert len(rule.replacement) == 3


class TestPaperStore:
    def test_sizes(self):
        store = paper_store()
        assert sum(r.triple.is_token_triple for r in store.records()) == 4
        assert len(store) == 6 + 3 + 4  # Figure 1 + type assertions + tokens

    def test_queryable(self):
        store = paper_store()
        assert (
            store.lookup(
                __import__("repro.core.triples", fromlist=["Triple"]).Triple(
                    Resource("AlbertEinstein"),
                    Resource("affiliation"),
                    Resource("IAS"),
                )
            )
            is not None
        )
