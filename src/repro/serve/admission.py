"""Admission control: bounded concurrency + bounded queue over the engine.

Every piece of engine work a request triggers (an eager ``ask``, one
``next_k`` resume of a stream session, an ``ingest``) is blocking Python
that runs on the request's connection thread.  Without a bound, a
traffic burst runs arbitrarily many queries against the engine at once.
The admission controller is that bound:

* at most ``max_concurrency`` requests hold an execution slot at once;
* at most ``queue_depth`` further requests may *wait* for a slot; a
  request arriving beyond that is shed instantly with **429** — the
  client should back off, nothing was queued on its behalf;
* a request that cannot get a slot within its timeout is answered
  **503**; so is one whose engine work overruns it — when that work
  returns, since Python threads cannot be cancelled.  The slot is held
  until the work returns either way, so the concurrency bound holds
  even under timeout storms.

The controller is a :class:`threading.Condition` over its counters; the
counters feed the metrics surface.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, TypeVar

from repro.errors import TrinitError

_T = TypeVar("_T")


class Overloaded(TrinitError):
    """The admission controller shed this request.

    ``status`` is the HTTP status the service maps the shed to: 429 for
    queue-full (instant rejection), 503 for a timeout (the request
    waited or ran, and its budget lapsed).
    """

    def __init__(self, message: str, status: int, reason: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason


def overran(deadline: float | None) -> bool:
    """Whether a :func:`time.monotonic` ``deadline`` (``None``: none) passed."""
    return deadline is not None and time.monotonic() > deadline


class AdmissionController:
    """Slot admission with a bounded wait queue.

    Wrap engine work in :meth:`run` (admit, run, release), or pair
    :meth:`acquire` with :meth:`release` around work that checks its own
    deadline (an SSE batch checks it between ranks).
    """

    def __init__(
        self,
        max_concurrency: int = 8,
        queue_depth: int = 16,
        timeout: float | None = 30.0,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.timeout = timeout
        self._cond = threading.Condition()
        self.waiting = 0
        self.executing = 0
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_timeout = 0
        self.orphaned = 0

    def acquire(self, timeout: float | None) -> None:
        """Take an execution slot or raise :class:`Overloaded`."""
        with self._cond:
            full = self.executing >= self.max_concurrency
            # The queue bound only applies to requests that would actually
            # wait: a free slot admits immediately even with queue_depth=0.
            if full and self.waiting >= self.queue_depth:
                self.shed_queue_full += 1
                raise Overloaded(
                    f"admission queue full ({self.waiting} waiting, "
                    f"{self.executing} executing)",
                    status=429,
                    reason="queue_full",
                )
            self.waiting += 1
            try:
                free = self._cond.wait_for(
                    lambda: self.executing < self.max_concurrency, timeout
                )
            finally:
                self.waiting -= 1
            if not free:
                self.shed_timeout += 1
                raise Overloaded(
                    f"no execution slot within {timeout:g}s",
                    status=503,
                    reason="timeout",
                )
            self.executing += 1
            self.admitted += 1

    def release(self, *, orphaned: bool = False) -> None:
        """Give a slot back; ``orphaned`` when its work overran the budget."""
        with self._cond:
            self.executing -= 1
            if orphaned:
                self.orphaned += 1
                self.shed_timeout += 1
            self._cond.notify()

    def run(self, fn: Callable[[], _T], *, timeout: float | None = None) -> _T:
        """Admit, then run ``fn()`` here, bounded by one budget.

        ``timeout`` (default: the controller's) covers queue wait *and*
        execution together — a request that spent its budget queueing is
        not granted a fresh budget to run.  Work that overruns the budget
        keeps its slot until it returns; then the caller gets
        :class:`Overloaded` (503), ``orphaned`` counts it, and its result
        or exception is discarded.
        """
        budget = self.timeout if timeout is None else timeout
        deadline = None if budget is None else time.monotonic() + budget
        self.acquire(budget)
        late = False
        try:
            if overran(deadline):
                with self._cond:
                    self.shed_timeout += 1
                raise Overloaded(
                    f"request budget {budget:g}s spent in the queue",
                    status=503,
                    reason="timeout",
                )
            try:
                result = fn()
            except Exception:
                if not overran(deadline):
                    raise
            late = overran(deadline)
        finally:
            self.release(orphaned=late)
        if late:
            raise Overloaded(
                f"engine work exceeded the {budget:g}s budget",
                status=503,
                reason="timeout",
            )
        return result

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the metrics surface."""
        with self._cond:
            return {
                "max_concurrency": self.max_concurrency,
                "queue_depth": self.queue_depth,
                "executing": self.executing,
                "waiting": self.waiting,
                "admitted": self.admitted,
                "shed_queue_full": self.shed_queue_full,
                "shed_timeout": self.shed_timeout,
                "orphaned": self.orphaned,
            }
