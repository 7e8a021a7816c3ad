"""Top-k query processing with incremental merging of relaxations.

This package implements the paper's extension of the incremental top-k
algorithm of Theobald, Schenkel & Weikum (SIGIR 2005), as one execution
core:

* :mod:`idspace` — cursors, rank join and answer aggregation operating on
  dictionary-encoded integer ids end to end, advancing by tied head runs
  (:class:`IdRun`, the one cursor protocol :class:`RunCursor`), with
  provenance and decode-to-:class:`Term` deferred to answer
  materialisation;
* :mod:`incremental_merge` — merges a pattern's cursor with its relaxed
  forms' cursors, invoking a relaxation only when its upper bound reaches
  the head of the merged stream;
* :mod:`processor` — the :class:`TopKProcessor` tying rewriting enumeration,
  cursor specs, joins, scoring and answer aggregation together;
* :mod:`driver` — the resumable :class:`TopKDriver` state machine the
  processor's eager ``query()`` and the public ``AnswerStream`` both drain:
  suspended joins and the rewriting frontier persist between ``advance``
  calls, and strict tie settlement makes every emitted prefix final.

The term-space reference core the equivalence suites check this one
against lives with the tests (``tests/reference_core.py``); the naive
exact-match join lives with the baselines that answer with it
(:mod:`repro.baselines.exhaustive`).
"""

from repro.topk.idspace import (
    IdAggregator,
    IdExecutionContext,
    IdPostingCursor,
    IdRankJoin,
    IdRun,
    IdSubJoinCursor,
    PatternPlan,
    RunCursor,
    SlotTable,
    UNBOUND,
)
from repro.topk.incremental_merge import IncrementalMergeCursor
from repro.topk.processor import TopKProcessor, ProcessorConfig
from repro.topk.driver import TopKDriver

__all__ = [
    "IdAggregator",
    "IdExecutionContext",
    "IdPostingCursor",
    "IdRankJoin",
    "IdRun",
    "IdSubJoinCursor",
    "PatternPlan",
    "RunCursor",
    "SlotTable",
    "UNBOUND",
    "IncrementalMergeCursor",
    "TopKDriver",
    "TopKProcessor",
    "ProcessorConfig",
]
