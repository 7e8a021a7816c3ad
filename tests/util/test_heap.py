"""Unit tests for DistinctTopKTracker."""

import pytest

from repro.util.heap import DistinctTopKTracker


class TestDistinctTopKTracker:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            DistinctTopKTracker(0)

    def test_threshold_zero_until_k_distinct(self):
        tracker = DistinctTopKTracker(2)
        tracker.offer("a", 0.9)
        assert tracker.threshold == 0.0
        tracker.offer("a", 0.95)  # same key, still one distinct
        assert tracker.threshold == 0.0
        tracker.offer("b", 0.5)
        assert tracker.threshold == 0.5

    def test_improving_a_key_updates_threshold(self):
        tracker = DistinctTopKTracker(2)
        tracker.offer("a", 0.9)
        tracker.offer("b", 0.5)
        tracker.offer("b", 0.8)  # b improves
        assert tracker.threshold == 0.8

    def test_eviction_of_weakest(self):
        tracker = DistinctTopKTracker(2)
        tracker.offer("a", 0.3)
        tracker.offer("b", 0.5)
        tracker.offer("c", 0.7)  # evicts a
        assert tracker.threshold == 0.5
        tracker.offer("d", 0.6)  # evicts b
        assert tracker.threshold == 0.6

    def test_low_offer_ignored_when_full(self):
        tracker = DistinctTopKTracker(2)
        tracker.offer("a", 0.8)
        tracker.offer("b", 0.9)
        tracker.offer("c", 0.1)
        assert tracker.threshold == 0.8

    def test_lower_score_for_known_key_ignored(self):
        tracker = DistinctTopKTracker(1)
        tracker.offer("a", 0.8)
        tracker.offer("a", 0.3)
        assert tracker.threshold == 0.8

    def test_reofferring_evicted_key(self):
        tracker = DistinctTopKTracker(1)
        tracker.offer("a", 0.5)
        tracker.offer("b", 0.9)  # evicts a
        tracker.offer("a", 1.0)  # a comes back stronger
        assert tracker.threshold == 1.0

    def test_matches_brute_force(self):
        import heapq
        import random

        rng = random.Random(13)
        tracker = DistinctTopKTracker(5)
        best: dict[int, float] = {}
        for _ in range(500):
            key = rng.randint(0, 30)
            score = max(best.get(key, 0.0), rng.random())
            best[key] = score
            before = (tracker.is_full, tracker.threshold)
            moved = tracker.offer(key, score)
            expected = sorted(best.values(), reverse=True)
            expected_threshold = expected[4] if len(expected) >= 5 else 0.0
            assert tracker.threshold == pytest.approx(expected_threshold)
            # An offer that reports "nothing moved" left the polled state be.
            assert moved or (tracker.is_full, tracker.threshold) == before
