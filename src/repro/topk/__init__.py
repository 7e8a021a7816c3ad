"""Top-k query processing with incremental merging of relaxations.

This package implements the paper's extension of the incremental top-k
algorithm of Theobald, Schenkel & Weikum (SIGIR 2005):

* :mod:`idspace` — the default execution core: cursors, rank join and
  answer aggregation operating on dictionary-encoded integer ids end to
  end, advancing by tied head runs (:class:`IdRun`), with provenance and
  decode-to-:class:`Term` deferred to answer materialisation;
* :mod:`cursors` — the original term-space sorted access
  (:class:`PostingCursor`, :class:`MaterializedJoinCursor`), retained as
  the executable reference semantics;
* :mod:`incremental_merge` — merges a pattern's cursor with its relaxed
  forms' cursors (representation-agnostic: serves both cores), invoking a
  relaxation only when its upper bound reaches the head of the merged
  stream;
* :mod:`rank_join` — term-space n-ary rank join with HRJN-style upper
  bounds and threshold termination (id-space twin lives in
  :mod:`idspace`);
* :mod:`processor` — the :class:`TopKProcessor` tying rewriting enumeration,
  cursor specs, joins, scoring and answer aggregation together, selecting
  the execution core via ``ProcessorConfig.execution``;
* :mod:`driver` — the resumable :class:`TopKDriver` state machine the
  processor's eager ``query()`` and the public ``AnswerStream`` both drain:
  suspended joins and the rewriting frontier persist between ``advance``
  calls, and strict tie settlement makes every emitted prefix final;
* :mod:`exhaustive` — the same semantics without early termination, used as
  the correctness reference and the efficiency-bench baseline.
"""

from repro.topk.cursors import Cursor, PostingCursor, MaterializedJoinCursor, ScoredMatch
from repro.topk.idspace import (
    IdAnswerAggregator,
    IdExecutionContext,
    IdMatch,
    IdPostingCursor,
    IdRankJoin,
    IdRun,
    IdSubJoinCursor,
    PatternPlan,
    SlotTable,
    UNBOUND,
)
from repro.topk.incremental_merge import IncrementalMergeCursor
from repro.topk.rank_join import NaryRankJoin
from repro.topk.processor import TopKProcessor, ProcessorConfig
from repro.topk.driver import TopKDriver
from repro.topk.exhaustive import naive_join

__all__ = [
    "Cursor",
    "PostingCursor",
    "MaterializedJoinCursor",
    "ScoredMatch",
    "IdAnswerAggregator",
    "IdExecutionContext",
    "IdMatch",
    "IdPostingCursor",
    "IdRankJoin",
    "IdRun",
    "IdSubJoinCursor",
    "PatternPlan",
    "SlotTable",
    "UNBOUND",
    "IncrementalMergeCursor",
    "NaryRankJoin",
    "TopKDriver",
    "TopKProcessor",
    "ProcessorConfig",
    "naive_join",
]
