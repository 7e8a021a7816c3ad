"""Property-based tests for metrics, heaps, parsing, and text utilities."""

from hypothesis import given, settings, strategies as st

from repro.core.parser import parse_query
from repro.core.terms import Resource, TextToken, Variable
from repro.eval.metrics import dcg, ndcg_at_k, precision_at_k, reciprocal_rank
from repro.util.heap import DistinctTopKTracker
from repro.util.text import is_subsequence, normalize_phrase, stem

gains = st.lists(st.sampled_from([0.0, 1.0, 3.0]), max_size=12)


class TestMetricsProperties:
    @settings(max_examples=100, deadline=None)
    @given(gains, st.integers(1, 10))
    def test_ndcg_bounded(self, ranking, k):
        ideal = [g for g in ranking if g > 0]
        value = ndcg_at_k(ranking, ideal, k)
        assert 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(gains, st.integers(1, 10))
    def test_ideal_ranking_scores_one(self, ranking, k):
        positives = sorted((g for g in ranking if g > 0), reverse=True)
        if not positives:
            return
        assert ndcg_at_k(positives, positives, k) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(gains)
    def test_dcg_monotone_under_swap_to_front(self, ranking):
        """Moving the best gain to the front never lowers DCG."""
        if not ranking:
            return
        best = max(ranking)
        index = ranking.index(best)
        promoted = [best] + ranking[:index] + ranking[index + 1 :]
        assert dcg(promoted) >= dcg(ranking) - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(gains, st.integers(1, 10))
    def test_precision_bounds(self, ranking, k):
        assert 0.0 <= precision_at_k(ranking, k) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(gains)
    def test_mrr_bounds(self, ranking):
        assert 0.0 <= reciprocal_rank(ranking) <= 1.0


class TestHeapProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.floats(0.01, 1, allow_nan=False)),
            max_size=60,
        ),
        st.integers(1, 6),
    )
    def test_tracker_matches_bruteforce(self, offers, k):
        tracker = DistinctTopKTracker(k)
        best: dict[int, float] = {}
        for key, score in offers:
            score = max(score, best.get(key, 0.0))  # scores only improve
            best[key] = score
            tracker.offer(key, score)
        ranked = sorted(best.values(), reverse=True)
        expected = ranked[k - 1] if len(ranked) >= k else 0.0
        assert abs(tracker.threshold - expected) < 1e-12


class TestTextProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)))
    def test_normalize_idempotent(self, text):
        once = normalize_phrase(text)
        assert normalize_phrase(once) == once

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=12))
    def test_stem_shrinks_or_keeps(self, token):
        assert len(stem(token)) <= len(token) + 2  # irregulars may map freely

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
        st.lists(st.sampled_from("abcd"), max_size=6).map(tuple),
    )
    def test_subsequence_via_join(self, needle, haystack):
        expected = "".join(needle) in "".join(haystack) if needle else True
        # String containment equals contiguous-subsequence for 1-char tokens.
        assert is_subsequence(needle, haystack) == expected


class TestParserProperties:
    names = st.sampled_from(["alpha", "beta", "gamma", "p0", "q1"])

    @settings(max_examples=100, deadline=None)
    @given(names, names, names)
    def test_parse_render_roundtrip(self, a, b, c):
        text = f"?{a} {b.capitalize()} ?{c}"
        if a == c:
            return
        query = parse_query(text)
        assert parse_query(query.n3()).n3() == query.n3()
