"""Unit tests for the admission controller (threads, no HTTP)."""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.serve import admission
from repro.serve.admission import AdmissionController, Overloaded


def wait_until(predicate, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestAcquire:
    def test_admits_up_to_concurrency(self):
        controller = AdmissionController(2, 0, timeout=None)
        controller.acquire(None)
        controller.acquire(None)
        assert controller.executing == 2
        controller.release()
        controller.release()
        assert controller.executing == 0

    def test_sheds_429_when_queue_full(self):
        controller = AdmissionController(1, 0, timeout=None)
        controller.acquire(None)  # slot taken, queue_depth=0
        with pytest.raises(Overloaded) as info:
            controller.acquire(None)
        assert info.value.status == 429
        assert info.value.reason == "queue_full"
        assert controller.shed_queue_full == 1
        controller.release()

    def test_sheds_503_on_queue_timeout(self):
        controller = AdmissionController(1, 4, timeout=None)
        controller.acquire(None)
        with pytest.raises(Overloaded) as info:
            controller.acquire(0.05)
        assert info.value.status == 503
        assert info.value.reason == "timeout"
        assert controller.shed_timeout == 1
        assert controller.waiting == 0  # bookkeeping restored
        controller.release()

    def test_waiter_proceeds_when_slot_frees(self):
        controller = AdmissionController(1, 4, timeout=None)
        controller.acquire(None)
        outcome = []

        def waiter():
            controller.acquire(5.0)
            controller.release()
            outcome.append("ran")

        thread = threading.Thread(target=waiter)
        thread.start()
        wait_until(lambda: controller.waiting == 1)
        controller.release()
        thread.join(timeout=10)
        assert outcome == ["ran"]
        assert controller.executing == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 1)
        with pytest.raises(ValueError):
            AdmissionController(1, -1)
        with pytest.raises(ValueError):
            AdmissionController(1, 1, timeout=0)


class TestRun:
    def test_runs_on_caller_thread_and_releases(self):
        controller = AdmissionController(2, 2, timeout=5.0)
        result = controller.run(lambda: (threading.get_ident(), 40 + 2))
        assert result == (threading.get_ident(), 42)
        assert controller.executing == 0
        assert controller.admitted == 1

    def test_propagates_work_exceptions(self):
        controller = AdmissionController(1, 1, timeout=5.0)

        def boom():
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError):
            controller.run(boom)
        assert controller.executing == 0

    def test_timeout_orphan_keeps_slot_until_thread_finishes(self):
        """The concurrency bound must count timed-out-but-running work."""
        controller = AdmissionController(1, 0, timeout=None)
        release_worker = threading.Event()
        outcome = {}

        def worker():
            try:
                controller.run(release_worker.wait, timeout=0.05)
            except Overloaded as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=worker)
        thread.start()
        wait_until(lambda: controller.executing == 1)
        time.sleep(0.1)  # past the budget, the work still runs
        # Its slot is still held, so the next arrival sheds 429 instead
        # of overcommitting.
        assert controller.executing == 1
        with pytest.raises(Overloaded) as second:
            controller.acquire(None)
        assert second.value.status == 429
        release_worker.set()
        thread.join(timeout=10)
        # The 503 comes when the work returns, with the slot.
        assert outcome["error"].status == 503
        assert outcome["error"].reason == "timeout"
        assert controller.orphaned == 1
        assert controller.executing == 0

    def test_budget_spent_in_queue_is_not_granted_again(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(
            admission, "time", SimpleNamespace(monotonic=lambda: clock[0])
        )
        controller = AdmissionController(1, 2, timeout=None)
        acquire = controller.acquire

        def slow_acquire(timeout):
            acquire(timeout)
            clock[0] += 1.0  # the wait for the slot used the whole budget

        controller.acquire = slow_acquire
        ran = []
        with pytest.raises(Overloaded) as info:
            controller.run(lambda: ran.append("never"), timeout=0.5)
        assert info.value.status == 503
        assert ran == []
        assert controller.executing == 0
        assert controller.orphaned == 0  # no work ran, none overran

    def test_bound_holds_under_contention(self):
        # More threads than cores, switching often: a lost update to the
        # counters would let ``executing`` pass the bound or not return to 0.
        controller = AdmissionController(3, 64, timeout=None)
        peak, lock = [0], threading.Lock()

        def work():
            with lock:
                peak[0] = max(peak[0], controller.executing)
            time.sleep(0.0005)

        def client():
            for _ in range(50):
                controller.run(work)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert 1 <= peak[0] <= 3
        assert controller.admitted == 12 * 50
        assert (controller.executing, controller.waiting) == (0, 0)

    def test_stats_document(self):
        controller = AdmissionController(3, 7, timeout=1.0)
        stats = controller.stats()
        assert stats["max_concurrency"] == 3
        assert stats["queue_depth"] == 7
        assert stats["executing"] == 0
