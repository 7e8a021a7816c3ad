"""The term-space reference core: the oracle the id-space engine is checked by.

The engine runs the paper's top-k pipeline once, in integer id-space
(:mod:`repro.topk.idspace`).  This module is the same algorithm over
:class:`~repro.core.terms.Term` objects, one item at a time, kept beside
the tests as executable reference semantics:

* :class:`PostingCursor` / :class:`MaterializedJoinCursor` — per-item
  sorted access (``peek`` / ``pop`` / ``ensure_exact``) over a posting
  list and over a lazily materialised multi-pattern sub-join;
* :class:`PerItemMergeCursor` — the engine's
  :class:`~repro.topk.incremental_merge.IncrementalMergeCursor` with the
  per-item ``pop`` its heap supports besides ``head_run`` / ``advance``;
* :class:`NaryRankJoin` — the HRJN-style rank join over per-item streams;
* :class:`AnswerAggregator` — max-score answer dedup over term bindings;
* :class:`TermSpaceDriver` — the engine's :class:`~repro.topk.driver.
  TopKDriver` (rewriting enumeration, parking, strict settlement) lowering
  each rewriting of the processor's own :class:`~repro.topk.processor.
  PreparedQuery` onto the classes above, so the planning it checks is the
  engine's.

The reference never settles inside a tied run and never probes: where
the id-space join stops once the k-th answer strictly precedes the next
posting, or enumerates a join's tied band by random access, this one
reads every run to its end.  The answers, scores and derivation counts
are the same; the shortcuts are checked, not copied.

Import it as ``from reference_core import ...`` (``tests/`` is on
``sys.path`` through its ``conftest.py``).  The byte-identity suites reach
it through the differential harness (``tests/harness/differential.py``),
whose ``TERMSPACE`` oracle drives :func:`reference_query` over a fresh
build of the statements the engine under test holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.query import Query
from repro.core.results import (
    Answer,
    AnswerSet,
    BindingKey,
    Derivation,
    PatternMatchInfo,
    QueryStats,
    binding_key,
)
from repro.core.terms import Term, Variable
from repro.core.triples import TriplePattern
from repro.relax.rules import RelaxationRule, RuleApplication
from repro.scoring.answer_scoring import score_product
from repro.scoring.language_model import PatternScorer
from repro.storage.store import StoredTriple, TripleStore
from repro.storage.text_index import TokenMatch
from repro.topk.driver import TopKDriver
from repro.topk.incremental_merge import IncrementalMergeCursor
from repro.topk.processor import PostingSpec, StreamSpec, TopKProcessor
from repro.util.heap import DistinctTopKTracker


@dataclass(frozen=True)
class ScoredMatch:
    """One match emitted by a cursor: a binding, its score, and provenance."""

    binding: object
    score: float
    info: object


def pop_item(cursor) -> ScoredMatch | None:
    """Per-item access to a run cursor (``head_run`` / ``advance``): a run
    of one, consumed whole."""
    run = cursor.head_run(1)
    if run is None:
        return None
    cursor.advance(1)
    score = run.score
    return ScoredMatch(
        run.bindings[0], score, run.source.match_info(run.refs[0], score)
    )


# -- cursors ----------------------------------------------------------------


class PostingCursor:
    """Sorted access over one pattern's posting list.

    ``multiplier`` is the attenuation from relaxation weight × token-match
    similarity: every emitted score is ``multiplier × P(t | pattern)``.
    ``rule`` and ``token_matches`` are carried into each match's provenance.
    """

    def __init__(
        self,
        store: TripleStore,
        scorer: PatternScorer,
        pattern: TriplePattern,
        *,
        multiplier: float = 1.0,
        rule: RelaxationRule | None = None,
        token_matches: tuple[TokenMatch, ...] = (),
        stats: QueryStats | None = None,
    ):
        self.store = store
        self.scorer = scorer
        self.pattern = pattern
        self.multiplier = multiplier
        self.rule = rule
        self.token_matches = token_matches
        self.stats = stats
        self._ids: Sequence[int] | None = None
        self._position = 0
        variables = [t for t in pattern.terms() if t.is_variable]
        self._needs_filter = len(variables) != len(set(variables))

    def _open(self) -> None:
        if self._ids is None:
            self._ids = self.store.sorted_ids(self.pattern)
            if self.stats is not None:
                self.stats.cursors_opened += 1

    def _current_record(self) -> StoredTriple | None:
        """Advance past filtered-out entries; return the record at position."""
        self._open()
        while self._position < len(self._ids):
            record = self.store.record(self._ids[self._position])
            if not self._needs_filter or self.pattern.bind(record.triple) is not None:
                return record
            self._position += 1
        return None

    def peek(self) -> float | None:
        record = self._current_record()
        if record is None:
            return None
        return self.multiplier * self.scorer.score(self.pattern, record)

    def ensure_exact(self) -> bool:
        """Posting peeks are exact (peeking opens the list); always True."""
        return True

    def pop(self) -> ScoredMatch | None:
        record = self._current_record()
        if record is None:
            return None
        self._position += 1
        if self.stats is not None:
            self.stats.sorted_accesses += 1
        binding = self.pattern.bind(record.triple)
        score = self.multiplier * self.scorer.score(self.pattern, record)
        info = PatternMatchInfo(
            pattern=self.pattern,
            records=(record,),
            score=score,
            rule=self.rule,
            token_matches=self.token_matches,
        )
        return ScoredMatch(binding_key(binding), score, info)


class MaterializedJoinCursor:
    """Sorted access over a multi-pattern relaxation's sub-join.

    The replacement patterns are joined exhaustively on the first ``pop``
    (or ``ensure_exact``); results are projected onto ``interface_vars``,
    deduplicated keeping the best score, sorted descending, then served
    like a posting list.  Until then ``peek`` is the optimistic bound
    ``multiplier × min_i max_score(pattern_i)`` — every per-pattern score
    is ≤ 1 and the sub-join score is their product.
    """

    def __init__(
        self,
        store: TripleStore,
        scorer: PatternScorer,
        patterns: tuple[TriplePattern, ...],
        interface_vars: tuple[Variable, ...],
        *,
        multiplier: float = 1.0,
        rule: RelaxationRule | None = None,
        token_matches: tuple[TokenMatch, ...] = (),
        stats: QueryStats | None = None,
        max_results: int = 50_000,
    ):
        self.store = store
        self.scorer = scorer
        self.patterns = patterns
        self.interface_vars = interface_vars
        self.multiplier = multiplier
        self.rule = rule
        self.token_matches = token_matches
        self.stats = stats
        self.max_results = max_results
        self._items: list[ScoredMatch] | None = None
        self._position = 0
        self._bound: float | None = None

    def _upper_bound(self) -> float:
        if self._bound is None:
            bounds = [self.scorer.max_score(p) for p in self.patterns]
            self._bound = self.multiplier * (min(bounds) if bounds else 0.0)
        return self._bound

    def _materialize(self) -> None:
        if self._items is not None:
            return
        if self.stats is not None:
            self.stats.cursors_opened += 1
        best: dict[BindingKey, tuple[float, tuple[StoredTriple, ...]]] = {}

        def backtrack(
            index: int,
            binding: dict[Variable, Term],
            score: float,
            used: tuple[StoredTriple, ...],
        ) -> None:
            if len(best) > self.max_results:
                return
            if index == len(self.patterns):
                key = binding_key(
                    {v: binding[v] for v in self.interface_vars if v in binding}
                )
                entry = best.get(key)
                if entry is None or score > entry[0]:
                    best[key] = (score, used)
                return
            # Match with the binding substituted in, but score against the
            # original pattern: a pattern's emission mass must not depend on
            # the evaluation order of the sub-join.
            original = self.patterns[index]
            pattern = original.substitute(binding)
            for record in self.store.matches(pattern):
                if self.stats is not None:
                    self.stats.sorted_accesses += 1
                local = pattern.bind(record.triple)
                if local is None:
                    continue
                pattern_score = self.scorer.score(original, record)
                extended = dict(binding)
                extended.update(local)
                backtrack(index + 1, extended, score * pattern_score, used + (record,))

        # Evaluate most-selective-first to keep intermediate results small.
        order = sorted(
            range(len(self.patterns)),
            key=lambda i: self.store.cardinality(self.patterns[i]),
        )
        self.patterns = tuple(self.patterns[i] for i in order)
        backtrack(0, {}, 1.0, ())

        items = [
            ScoredMatch(
                key,
                self.multiplier * score,
                PatternMatchInfo(
                    # The first replacement pattern stands for the whole
                    # sub-join in explanations; all matched records are kept.
                    pattern=self.patterns[0],
                    records=records,
                    score=self.multiplier * score,
                    rule=self.rule,
                    token_matches=self.token_matches,
                ),
            )
            for key, (score, records) in best.items()
        ]
        items.sort(key=lambda m: (-m.score, m.binding))
        self._items = items

    @property
    def is_materialized(self) -> bool:
        return self._items is not None

    def ensure_exact(self) -> bool:
        """Materialise the sub-join if needed; True when already exact."""
        if self._items is not None:
            return True
        self._materialize()
        return False

    def peek(self) -> float | None:
        if self._items is None:
            bound = self._upper_bound()
            return bound if bound > 0.0 else None
        if self._position < len(self._items):
            return self._items[self._position].score
        return None

    def pop(self) -> ScoredMatch | None:
        self._materialize()
        if self._position >= len(self._items):
            return None
        item = self._items[self._position]
        self._position += 1
        return item


class PerItemMergeCursor(IncrementalMergeCursor):
    """The engine's merge, consumed one item at a time over per-item
    cursors (anything with ``peek`` / ``pop`` / ``ensure_exact``)."""

    def pop(self) -> ScoredMatch | None:
        """Next item in globally descending score order, deduped by binding."""
        while (cursor := self.exact_head()) is not None:
            item = cursor.pop()
            self._reseat_head()
            if item is None:
                continue
            self._note_invoked(cursor)
            if item.binding in self._emitted:
                continue
            self._emitted.add(item.binding)
            return item
        return None


# -- join and aggregation ---------------------------------------------------


def binding_tie(key: BindingKey) -> tuple:
    """The lexical tie-break of one answer: its ``(variable name, term
    sort key)`` pairs — answers of equal score rank by it."""
    return tuple((var.name, term.sort_key()) for var, term in key)


class AnswerAggregator:
    """Collects derivations, keeping the best score per answer binding.

    ``add`` returns the answer's current best score so callers can feed the
    top-k tracker; ``num_derivations`` counts the derivations of each
    binding.
    """

    def __init__(self):
        self._best: dict[BindingKey, tuple[float, Derivation]] = {}
        self._counts: dict[BindingKey, int] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: BindingKey) -> bool:
        return key in self._best

    def add(self, key: BindingKey, score: float, derivation: Derivation) -> float:
        """Record one derivation; return the binding's best known score."""
        self._counts[key] = self._counts.get(key, 0) + 1
        existing = self._best.get(key)
        if existing is None or score > existing[0]:
            self._best[key] = (score, derivation)
            return score
        return existing[0]

    def best_score(self, key: BindingKey) -> float | None:
        entry = self._best.get(key)
        return None if entry is None else entry[0]

    def best_scores(self, limit: int | None = None) -> list[tuple[BindingKey, float]]:
        """Every distinct binding with its best score (tracker rebuilds;
        a superset of the ``limit`` best serves a tracker equally)."""
        return [(key, entry[0]) for key, entry in self._best.items()]

    def ranked_answers(self, limit: int | None = None, start: int = 0) -> list[Answer]:
        """Answers sorted by (score desc, binding lexical), ranks
        ``[start:limit]``."""
        items = [
            Answer(key, score, derivation, self._counts[key])
            for key, (score, derivation) in self._best.items()
        ]
        items.sort(key=lambda a: (-a.score, binding_tie(a.binding)))
        return items[start:] if limit is None else items[start:limit]


class NaryRankJoin:
    """Joins one rewriting's per-item pattern streams into scored answers.

    HRJN-style: streams are consumed in descending score order; every new
    item is probed against the items already seen on the other streams;
    complete, variable-compatible combinations become candidate answers.
    The bound on any answer not yet formed is
    ``max_i (rewriting_weight · c_0 · c_1 ⋯)`` with ``c_i = peek_i`` and
    ``c_j`` stream j's best item (its peek until it emitted), and it and
    every combination score are multiplied left to right in stream order
    (:func:`~repro.scoring.answer_scoring.score_product`).  ``run`` has the
    engine join's resumable contract, ``strict_ties`` included;
    ``exhaustive`` disables termination.
    """

    def __init__(
        self,
        query: Query,
        streams: list,
        *,
        rewriting_weight: float = 1.0,
        rewriting: tuple[RuleApplication, ...] = (),
        aggregator: AnswerAggregator,
        tracker: DistinctTopKTracker,
        stats: QueryStats | None = None,
        exhaustive: bool = False,
        strict_ties: bool = False,
    ):
        if len(streams) != len(query.patterns):
            raise ValueError(
                f"{len(query.patterns)} patterns but {len(streams)} streams"
            )
        self.query = query
        self.streams = streams
        self.rewriting_weight = rewriting_weight
        self.rewriting = rewriting
        self.aggregator = aggregator
        self.tracker = tracker
        self.stats = stats
        self.exhaustive = exhaustive
        self.strict_ties = strict_ties
        self._seen: list[dict[BindingKey, ScoredMatch]] = [{} for _ in streams]
        self._best: list[float | None] = [None] * len(streams)
        self._projection = tuple(query.projection)
        # Join-variable signatures: vars of pattern j shared with any other
        # pattern.  Items are indexed by their values on these vars so probes
        # are hash lookups whenever the partial binding determines them.
        all_vars = [set(p.variables()) for p in query.patterns]
        self._join_vars: list[tuple[Variable, ...]] = []
        for j, own in enumerate(all_vars):
            shared = set()
            for i, other in enumerate(all_vars):
                if i != j:
                    shared |= own & other
            self._join_vars.append(tuple(sorted(shared, key=lambda v: v.name)))
        self._join_index: list[dict[tuple, list[ScoredMatch]]] = [
            {} for _ in streams
        ]

    # -- bounds ------------------------------------------------------------

    def _caps(self, peeks: list[float | None]) -> list[float]:
        caps = []
        for i in range(len(self.streams)):
            if self._best[i] is not None:
                caps.append(self._best[i])
            elif peeks[i] is not None:
                caps.append(peeks[i])
            else:
                caps.append(0.0)
        return caps

    def upper_bound(self, peeks: list[float | None] | None = None) -> float:
        """Best score any not-yet-formed combination could still reach."""
        if peeks is None:
            peeks = [stream.peek() for stream in self.streams]
        caps = self._caps(peeks)
        bound = 0.0
        for i, peek in enumerate(peeks):
            if peek is None:
                continue
            factors = caps.copy()
            factors[i] = peek
            bound = max(bound, score_product(self.rewriting_weight, factors))
        return bound

    # -- combination formation ------------------------------------------------

    def _emit(self, items: list[ScoredMatch]) -> None:
        """Form the answer from one complete combination and record it."""
        full_binding: dict[Variable, Term] = {}
        score = score_product(self.rewriting_weight, [item.score for item in items])
        for item in items:
            for var, term in item.binding:
                full_binding[var] = term
        projected = binding_key(
            {v: full_binding[v] for v in self._projection if v in full_binding}
        )
        derivation = Derivation(
            matches=tuple(item.info for item in items),
            rewriting=self.rewriting,
            rewriting_weight=self.rewriting_weight,
        )
        if self.stats is not None:
            self.stats.candidates_formed += 1
        best = self.aggregator.add(projected, score, derivation)
        self.tracker.offer(projected, best)

    def _index_key(self, item: ScoredMatch, stream_index: int) -> tuple:
        values = dict(item.binding)
        return tuple(values.get(v) for v in self._join_vars[stream_index])

    def _probe(self, new_item: ScoredMatch, stream_index: int) -> None:
        """Enumerate all combinations of the new item with seen items."""
        others = [j for j in range(len(self.streams)) if j != stream_index]
        # Visit scarcer streams first: fails fast on empty/selective ones.
        others.sort(key=lambda j: len(self._seen[j]))
        if any(not self._seen[j] for j in others):
            return

        combo: list[ScoredMatch | None] = [None] * len(self.streams)
        combo[stream_index] = new_item

        def compatible(binding: BindingKey, assigned: dict[Variable, Term]) -> bool:
            return all(assigned.get(var, term) == term for var, term in binding)

        def candidates(j: int, assigned: dict[Variable, Term]) -> list[ScoredMatch]:
            join_vars = self._join_vars[j]
            if join_vars and all(v in assigned for v in join_vars):
                key = tuple(assigned[v] for v in join_vars)
                return self._join_index[j].get(key, [])
            return list(self._seen[j].values())

        def backtrack(position: int, assigned: dict[Variable, Term]) -> None:
            if position == len(others):
                self._emit([item for item in combo if item is not None])
                return
            j = others[position]
            for item in candidates(j, assigned):
                if not compatible(item.binding, assigned):
                    continue
                extended = dict(assigned)
                extended.update(dict(item.binding))
                combo[j] = item
                backtrack(position + 1, extended)
            combo[j] = None

        backtrack(0, dict(new_item.binding))

    # -- main loop ------------------------------------------------------------

    def run(self, should_stop: Callable[[], bool] | None = None) -> bool:
        """Consume streams until exhaustion (True) or until suspended by
        threshold termination or ``should_stop`` (False)."""
        while True:
            peeks = [stream.peek() for stream in self.streams]
            live = [i for i, p in enumerate(peeks) if p is not None]
            if not live:
                return True
            # A stream that is exhausted without ever emitting can never be
            # part of a combination — the whole join is empty-handed.
            if any(
                peeks[i] is None and not self._seen[i]
                for i in range(len(self.streams))
            ):
                return True
            if not self.exhaustive:
                bound = self.upper_bound(peeks)
                if self.tracker.is_full and (
                    self.tracker.threshold > bound
                    if self.strict_ties
                    else self.tracker.threshold >= bound
                ):
                    return False
            if should_stop is not None and should_stop():
                return False
            # Advance the stream with the highest head (ties: lowest index).
            index = max(live, key=lambda i: (peeks[i], -i))
            item = self.streams[index].pop()
            if item is None:
                continue
            if self._best[index] is None:
                self._best[index] = item.score
            if item.binding in self._seen[index]:
                continue  # merged streams dedupe already; double guard
            self._seen[index][item.binding] = item
            self._join_index[index].setdefault(
                self._index_key(item, index), []
            ).append(item)
            self._probe(item, index)


# -- driving the processor's plans ------------------------------------------


def term_cursor(processor: TopKProcessor, spec: StreamSpec, stats: QueryStats):
    """One stream spec of ``processor``'s plan, lowered onto a term-space
    cursor."""
    if isinstance(spec, PostingSpec):
        return PostingCursor(
            processor.store,
            processor.scorer,
            spec.pattern,
            multiplier=spec.multiplier,
            rule=spec.rule,
            token_matches=spec.token_matches,
            stats=stats,
        )
    return MaterializedJoinCursor(
        processor.store,
        processor.scorer,
        spec.patterns,
        spec.interface_vars,
        multiplier=spec.multiplier,
        rule=spec.rule,
        stats=stats,
    )


def merge(cursors: list, stats: QueryStats):
    if len(cursors) == 1:
        return cursors[0]
    return PerItemMergeCursor(cursors, stats)


class TermSpaceDriver(TopKDriver):
    """The engine's driver with each rewriting lowered onto the reference
    core: same plan, same rewriting order and settlement, term-space
    cursors, join and aggregation."""

    def __init__(self, processor: TopKProcessor, query: Query):
        super().__init__(processor, query)
        self._aggregator = AnswerAggregator()

    def _build_join(self, rewriting):
        processor = self.processor
        stats = self.stats
        spec_lists = self._plan.spec_lists(self._read - 1, processor._stream_specs)
        streams = [
            merge([term_cursor(processor, spec, stats) for spec in specs], stats)
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

    def ranked_window(self, start: int, stop: int | None = None) -> list[Answer]:
        return self._aggregator.ranked_answers(stop, start)


def reference_query(processor: TopKProcessor, query: Query, k: int) -> AnswerSet:
    """``processor.query(query, k)`` answered by the reference core from
    ``processor``'s own plan."""
    return TermSpaceDriver(processor, query).advance(k).answer_set(k)

