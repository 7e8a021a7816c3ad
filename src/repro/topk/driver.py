"""The resumable top-k execution driver.

The rewriting → merge → rank-join loop of :class:`~repro.topk.processor.
TopKProcessor` used to live inside one eager ``query()`` call; this module
restructures it as a suspendable state machine so the same computation can
be *continued* — the anytime surface interactive exploration needs ("show me
ten more") and the substrate of the public :class:`~repro.core.results.
AnswerStream` API.

State the driver persists between :meth:`TopKDriver.advance` calls:

* the lazy rewriting enumeration (weight-descending, one pending rewriting
  buffered so its weight can bound everything not yet enumerated),
* every rank join started so far, with all of its cursor and probe state —
  the joins are naturally resumable (their loops keep state on ``self``),
  split into an *active* list and a *parked* list of settled joins tagged
  with their frozen upper bounds,
* the shared answer aggregator and a :class:`~repro.util.heap.
  GrowableTopKTracker` whose ``k`` grows as the consumer asks for more.

**Settlement, and why the prefix is stable.**  The driver stops a drain for
target ``k`` only when the k-th best distinct score *strictly* exceeds every
remaining upper bound (``strict_ties`` in the joins) — or when everything is
exhausted.  Strictness means every combination that could still *tie* into
the top-k has been formed, so the ranked prefix is the true ranking with
ties fully resolved, independent of the trajectory that produced it and of
where the computation was split.  That is the prefix-stability guarantee:
``next_k(3)`` then ``next_k(7)`` is byte-identical to an eager ``ask(k=10)``
(which since this refactor is itself the driver drained in one go).

A parked join whose frozen bound falls strictly below the current threshold
can never contribute again *at this k*; when ``advance`` is called with a
larger ``k`` the threshold drops and such joins are re-activated — resumed,
never rebuilt.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING

from repro.core.query import Query
from repro.core.results import Answer, AnswerSet, QueryStats
from repro.errors import TopKError
from repro.scoring.answer_scoring import AnswerAggregator
from repro.topk.idspace import (
    IdAnswerAggregator,
    IdExecutionContext,
    IdRankJoin,
)
from repro.topk.rank_join import NaryRankJoin
from repro.util.heap import GrowableTopKTracker

if TYPE_CHECKING:  # pragma: no cover - cycle guard (processor imports us)
    from repro.topk.processor import TopKProcessor


class TopKDriver:
    """Suspendable top-k execution over one query.

    Construct via :meth:`TopKProcessor.driver`.  :meth:`advance` drains
    until the top-``k`` answer prefix is settled (or the search space is
    exhausted); :meth:`ranked` decodes it.  Calling :meth:`advance` again
    with a larger ``k`` resumes every suspended join and the rewriting
    enumeration from exactly where they stopped.
    """

    def __init__(
        self,
        processor: "TopKProcessor",
        query: Query,
        *,
        stats: QueryStats | None = None,
    ):
        self.processor = processor
        self.query = query
        self.stats = stats if stats is not None else QueryStats()
        config = processor.config
        self._exhaustive = config.exhaustive
        self._id_space = config.execution == "idspace"
        if self._id_space:
            self._aggregator = IdAnswerAggregator(
                tuple(sorted(query.projection, key=lambda v: v.name))
            )
        else:
            self._aggregator = AnswerAggregator()
        self._tracker = GrowableTopKTracker(1)
        self._fresh_names = (f"pv{i}" for i in itertools.count())
        self._rewrites = processor._make_rewriter().iter_rewrites(query)
        self._rewriter_done = False
        self._pending = None
        self._active: list = []
        self._parked: list[tuple[object, float]] = []
        self._started = False

    # -- introspection ------------------------------------------------------

    @property
    def store(self):
        return self.processor.store

    @property
    def is_exhausted(self) -> bool:
        """True once every rewriting and join has been fully consumed."""
        return (
            self._rewriter_done
            and self._pending is None
            and not self._active
            and not self._parked
        )

    def __len__(self) -> int:
        """Distinct answers aggregated so far (not all necessarily settled)."""
        return len(self._aggregator)

    # -- driving ------------------------------------------------------------

    def advance(self, k: int) -> "TopKDriver":
        """Drain until the top-``k`` prefix is settled or nothing remains.

        Settled means: at least ``k`` distinct answers exist and the k-th
        best score strictly exceeds every remaining upper bound — no future
        combination can enter *or tie into* the prefix, so
        ``ranked(k)`` is final for every smaller limit too.
        """
        if k < 1:
            raise TopKError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        if self._started:
            self.stats.resumes += 1
        else:
            self._started = True
        if k != self._tracker.k:
            self._tracker.set_k(k, self._aggregator.best_scores(k))
            self._reactivate()
        try:
            self._drain()
        finally:
            self.stats.elapsed_seconds += time.perf_counter() - started
        return self

    def _reactivate(self) -> None:
        """Move parked joins the retargeted threshold no longer settles."""
        tracker = self._tracker
        still_parked: list[tuple[object, float]] = []
        for join, bound in self._parked:
            if tracker.is_full and tracker.threshold > bound:
                still_parked.append((join, bound))
            else:
                self._active.append(join)
        self._parked = still_parked

    def _drain(self) -> None:
        tracker = self._tracker
        while True:
            # Run every active join to settlement or exhaustion.  Bounds
            # only fall and the threshold only rises within a drain, so a
            # join settled here stays settled for the rest of the drain.
            while self._active:
                join = self._active.pop(0)
                if not join.run():
                    self._parked.append((join, join.upper_bound()))
            if self._pending is None and not self._rewriter_done:
                self._pending = next(self._rewrites, None)
                if self._pending is None:
                    self._rewriter_done = True
                else:
                    self.stats.rewritings_enumerated += 1
            if self._pending is not None:
                # Rewritings come weight-descending, and combination scores
                # never exceed the rewriting weight, so the pending weight
                # bounds everything not yet enumerated: once the threshold
                # strictly beats it, the enumeration itself is settled.
                if self._exhaustive or not (
                    tracker.is_full and tracker.threshold > self._pending.weight
                ):
                    rewriting = self._pending
                    self._pending = None
                    self.stats.rewritings_processed += 1
                    self._active.append(self._build_join(rewriting))
                    continue
            return

    def _build_join(self, rewriting):
        """Lower one rewriting into a (resumable) rank join over its streams."""
        processor = self.processor
        stats = self.stats
        spec_lists = [
            processor._stream_specs(pattern, rewriting.query, self._fresh_names)
            for pattern in rewriting.query.patterns
        ]
        if self._id_space:
            ctx = IdExecutionContext(processor.store, processor.scorer, stats)
            streams = [
                processor._merge(
                    [processor._id_cursor(spec, ctx) for spec in specs], stats
                )
                for specs in spec_lists
            ]
            return IdRankJoin(
                rewriting.query,
                streams,
                ctx,
                rewriting_weight=rewriting.weight,
                rewriting=rewriting.applications,
                aggregator=self._aggregator,
                tracker=self._tracker,
                exhaustive=self._exhaustive,
                strict_ties=True,
            )
        streams = [
            processor._merge(
                [processor._term_cursor(spec, stats) for spec in specs], stats
            )
            for specs in spec_lists
        ]
        return NaryRankJoin(
            rewriting.query,
            streams,
            rewriting_weight=rewriting.weight,
            rewriting=rewriting.applications,
            aggregator=self._aggregator,
            tracker=self._tracker,
            stats=stats,
            exhaustive=self._exhaustive,
            strict_ties=True,
        )

    # -- results ------------------------------------------------------------

    def ranked(self, limit: int | None = None) -> list[Answer]:
        """The current ranked answers, decoded; final up to the settled k."""
        return self.ranked_window(0, limit)

    def ranked_window(self, start: int, stop: int | None = None) -> list[Answer]:
        """Ranks ``[start:stop]`` only — the settled prefix before ``start``
        is neither re-decoded nor re-materialised (streaming pagination)."""
        if self._id_space:
            return self._aggregator.ranked_answers(
                self.processor.store, stop, start
            )
        return self._aggregator.ranked_answers(stop, start)

    def answer_set(self, k: int) -> AnswerSet:
        """The top-``k`` answers as an :class:`AnswerSet` (after advancing).

        Stats are a snapshot: continuing to advance this driver does not
        mutate the returned set's counters.
        """
        return AnswerSet(
            query=self.query, answers=self.ranked(k), k=k, stats=self.stats.copy()
        )
