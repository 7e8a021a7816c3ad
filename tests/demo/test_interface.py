"""Unit tests for the Figure 5/6 screen renderings."""

import pytest

from repro.demo.interface import DemoSession
from repro.kg.paper_example import paper_engine


@pytest.fixture()
def session():
    return DemoSession(paper_engine())


class TestQueryScreen:
    def test_renders_patterns_and_answers(self, session):
        screen = session.render_query_screen(
            "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        )
        assert "Query Interface" in screen
        assert "affiliation" in screen
        assert "PrincetonUniversity" in screen

    def test_relaxed_answers_marked(self, session):
        screen = session.render_query_screen(
            "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        )
        assert "1.*" in screen  # the relaxation marker

    def test_empty_results_rendered(self, session):
        screen = session.render_query_screen("?x bornIn Atlantis")
        assert "(no answers)" in screen

    def test_user_rules_listed(self, session):
        session.add_user_rule("?x worksAt ?y => ?x affiliation ?y @ 0.5")
        screen = session.render_query_screen("AlbertEinstein worksAt ?x")
        assert "worksAt" in screen
        assert "IAS" in screen

    def test_deterministic(self, session):
        q = "AlbertEinstein affiliation ?x ; ?x member IvyLeague"
        assert session.render_query_screen(q) == session.render_query_screen(q)


class TestExplanationScreen:
    def test_renders_provenance(self, session):
        answers = session.run("AlbertEinstein affiliation ?x ; ?x member IvyLeague")
        screen = session.render_explanation_screen(answers.top(), answers.query)
        assert "Answer Explanation" in screen
        assert "housed in" in screen


class TestSuggestionScreen:
    def test_renders(self, session):
        session.run("?x 'born in' Ulm")
        screen = session.render_suggestion_screen("?x 'born in' Ulm")
        assert "Query Suggestions" in screen
        assert "bornIn" in screen


class TestStatsScreen:
    def test_requires_a_query_first(self, session):
        from repro.errors import TrinitError

        with pytest.raises(TrinitError):
            session.render_stats_screen()

    def test_renders_counters(self, session):
        session.run("?x bornIn ?y")
        screen = session.render_stats_screen()
        assert "Query Statistics" in screen
        assert "sorted accesses" in screen
        assert "random accesses" in screen
        assert "segments touched" in screen
        assert "postings materialized" in screen

    def test_segment_counters_filled(self):
        from repro.core.engine import EngineConfig, TriniT
        from repro.kg.paper_example import paper_store

        engine = TriniT(
            paper_store(),
            config=EngineConfig(merge_batch=4),
        )
        sharded = DemoSession(engine)
        sharded.run("?x bornIn ?y")
        screen = sharded.render_stats_screen()
        assert "sharded backend" in screen
        # counters are non-zero on a segmented store
        for line in screen.splitlines():
            if "segments touched" in line:
                assert line.split()[-2] != "0"

    def test_cumulative_over_more(self, session):
        session.run("?x bornIn ?y", k=1)
        first = session.render_stats_screen()
        session.more(1)
        second = session.render_stats_screen()
        assert first != second  # resumes counter advanced

    def test_delta_and_generation_lines(self, session):
        session.ingest("NewPerson bornIn Ulm", 0.8)
        session.run("?x bornIn Ulm")
        screen = session.render_stats_screen()
        assert "delta hits" in screen
        assert "live delta" in screen
        assert "generation" in screen


class TestIngest:
    def test_ingest_visible_to_next_query(self, session):
        message = session.ingest("NewPerson bornIn Ulm", 0.8)
        assert "ingested" in message
        assert "NewPerson" in message
        assert "delta 1 statements" in message
        screen = session.render_query_screen("?x bornIn Ulm")
        assert "NewPerson" in screen

    def test_ingest_rejects_variables(self, session):
        from repro.errors import TrinitError

        with pytest.raises(TrinitError, match="ground"):
            session.ingest("?x bornIn Ulm")
