"""The id-space execution core: top-k processing on integer term ids.

The store dictionary-encodes every term at ``add()`` time, yet the original
execution path immediately decoded triples back into :class:`Term` objects
and re-bound patterns object-by-object — hashing dataclasses, building
per-match dicts, and sorting (Variable, Term) pairs inside every inner loop.
This module keeps the *whole* hot path in integer id-space:

* a per-rewriting :class:`SlotTable` assigns each variable a dense slot;
  a binding is a plain ``tuple[int, ...]`` of term ids (``UNBOUND`` = -1),
* :class:`PatternPlan` compiles a :class:`TriplePattern` into constant ids
  and variable slots once, so matching a posting is integer comparisons,
* :class:`IdPostingCursor` / :class:`IdSubJoinCursor` stream id-space
  matches with scores computed straight off the store's weight column,
  and hand them out a **tied head run** (:class:`IdRun`) at a time,
* :class:`IdRankJoin` advances by those runs and probes and merges
  bindings as int tuples,
* :class:`IdAnswerAggregator` keeps each answer's provenance as
  ``(cursor, posting)`` references and builds derivations and decodes to
  :class:`~repro.core.results.Answer` objects only for an emitted window.

Semantics are *identical* to the term-space reference path
(:mod:`repro.topk.cursors` / :mod:`repro.topk.rank_join`): same enumeration
orders, same float arithmetic, same tie-breaks — which the equivalence suite
(`tests/topk/test_idspace_equivalence.py`) asserts answer-by-answer.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from operator import itemgetter, neg
from typing import Callable, Sequence

from repro.core.query import Query
from repro.core.results import Answer, Derivation, PatternMatchInfo, QueryStats
from repro.core.terms import Variable
from repro.core.triples import TriplePattern
from repro.errors import TopKError
from repro.relax.rules import RelaxationRule, RuleApplication
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatch
from repro.topk import kernels
from repro.util.heap import DistinctTopKTracker

#: Sentinel id for "this slot is not bound".  Term ids are non-negative.
UNBOUND = -1


class SlotTable:
    """Dense variable → slot numbering for one rewriting's execution.

    Slots are assigned on demand while streams are built; the table is
    frozen before the rank join runs, fixing the binding-tuple width.
    """

    __slots__ = ("_slots", "_variables", "_frozen")

    def __init__(self):
        self._slots: dict[Variable, int] = {}
        self._variables: list[Variable] = []
        self._frozen = False

    @property
    def width(self) -> int:
        return len(self._variables)

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        self._frozen = True

    def slot(self, variable: Variable) -> int:
        """The slot of ``variable``, assigning a fresh one if unseen."""
        existing = self._slots.get(variable)
        if existing is not None:
            return existing
        if self._frozen:
            raise KeyError(f"Unknown variable after freeze: {variable}")
        index = len(self._variables)
        self._slots[variable] = index
        self._variables.append(variable)
        return index

    def slots_for(self, variables: Sequence[Variable]) -> tuple[int, ...]:
        return tuple(self.slot(v) for v in variables)

    def variable(self, slot: int) -> Variable:
        return self._variables[slot]


class PatternPlan:
    """A :class:`TriplePattern` compiled against a dictionary + slot table.

    Per S/P/O position: either a constant term id (or ``None`` when the
    constant is unknown to the store — the pattern then matches nothing) or
    the variable's slot.  ``repeat_pairs`` lists position pairs that share a
    variable (``?x knows ?x``) and must carry equal ids.
    """

    __slots__ = (
        "pattern",
        "const_ids",
        "var_positions",
        "bound_slots",
        "repeat_pairs",
        "missing_constant",
    )

    def __init__(self, pattern: TriplePattern, store: TripleStore, table: SlotTable):
        self.pattern = pattern
        const_ids: list[int | None] = [None, None, None]
        var_positions: list[tuple[int, int]] = []
        first_position: dict[int, int] = {}
        repeat_pairs: list[tuple[int, int]] = []
        missing = False
        for position, term in enumerate(pattern.terms()):
            if term.is_variable:
                slot = table.slot(term)
                var_positions.append((position, slot))
                seen_at = first_position.get(slot)
                if seen_at is None:
                    first_position[slot] = position
                else:
                    repeat_pairs.append((seen_at, position))
            else:
                term_id = store.dictionary.id_of(term)
                if term_id is None:
                    missing = True
                const_ids[position] = term_id
        self.const_ids: tuple[int | None, int | None, int | None] = tuple(const_ids)
        self.var_positions = tuple(var_positions)
        self.bound_slots = tuple(dict.fromkeys(slot for _pos, slot in var_positions))
        self.repeat_pairs = tuple(repeat_pairs)
        self.missing_constant = missing

    @property
    def has_repeated_variable(self) -> bool:
        return bool(self.repeat_pairs)

    def consistent(self, spo: tuple[int, int, int]) -> bool:
        """Repeated-variable consistency of one triple's slot ids."""
        for a, b in self.repeat_pairs:
            if spo[a] != spo[b]:
                return False
        return True

    def bind_into(self, spo: tuple[int, int, int], out: list[int]) -> bool:
        """Write the triple's variable ids into ``out``; False on conflict."""
        for position, slot in self.var_positions:
            value = spo[position]
            current = out[slot]
            if current != UNBOUND:
                if current != value:
                    return False
            else:
                out[slot] = value
        return True

    def consistent_block(self, tids: Sequence[int], slot_ids) -> list[int]:
        """Block variant of :meth:`consistent`: one call filters a whole
        decoded posting block to the repeated-variable-consistent ids,
        preserving order (:func:`repro.topk.kernels.
        filter_consistent_block`)."""
        return kernels.filter_consistent_block(
            tids, slot_ids, self.repeat_pairs
        )

    def bind_block(
        self, tids: Sequence[int], slot_ids, template: Sequence[int]
    ) -> list[tuple[int, ...]]:
        """Block variant of :meth:`bind_into` for an already
        consistency-filtered block: full-width binding tuples over
        ``template`` (conflicts cannot arise — a single pattern binds into
        an otherwise-unbound template)."""
        return kernels.bind_block(
            tids, slot_ids, self.var_positions, template
        )


class IdMatchInfo:
    """Id-space provenance of one pattern match (decoded lazily)."""

    __slots__ = ("pattern", "triple_ids", "score", "rule", "token_matches")

    def __init__(
        self,
        pattern: TriplePattern,
        triple_ids: tuple[int, ...],
        score: float,
        rule: RelaxationRule | None = None,
        token_matches: tuple[TokenMatch, ...] = (),
    ):
        self.pattern = pattern
        self.triple_ids = triple_ids
        self.score = score
        self.rule = rule
        self.token_matches = token_matches

    def decode(self, store: TripleStore) -> PatternMatchInfo:
        return PatternMatchInfo(
            pattern=self.pattern,
            records=tuple(store.record(t) for t in self.triple_ids),
            score=self.score,
            rule=self.rule,
            token_matches=self.token_matches,
        )


class IdDerivation:
    """Id-space analogue of :class:`~repro.core.results.Derivation`."""

    __slots__ = ("matches", "rewriting", "rewriting_weight")

    def __init__(
        self,
        matches: tuple[IdMatchInfo, ...],
        rewriting: tuple[RuleApplication, ...] = (),
        rewriting_weight: float = 1.0,
    ):
        self.matches = matches
        self.rewriting = rewriting
        self.rewriting_weight = rewriting_weight

    @classmethod
    def of_items(
        cls,
        items: tuple,
        rewriting: tuple[RuleApplication, ...],
        rewriting_weight: float,
    ) -> "IdDerivation":
        """The provenance of one combination: ``items`` are the consumed
        run items a join combined (one per stream, each ``(binding, score,
        slots, source, ref)``) under ``rewriting``."""
        return cls(
            tuple(
                source.match_info(ref, score)
                for _binding, score, _slots, source, ref in items
            ),
            rewriting,
            rewriting_weight,
        )

    def decode(self, store: TripleStore) -> Derivation:
        return Derivation(
            matches=tuple(m.decode(store) for m in self.matches),
            rewriting=self.rewriting,
            rewriting_weight=self.rewriting_weight,
        )


class IdMatch:
    """One match emitted by an id-space cursor.

    ``binding`` is a full-width tuple over the rewriting's slot table with
    ``UNBOUND`` in slots this match does not constrain — hashable, cheap to
    compare, and merge-compatible across patterns by slot position.
    ``slots`` names the bound positions (a tuple shared with the emitting
    cursor's plan, not allocated per match), so probes and merges touch
    only the slots that matter.
    """

    __slots__ = ("binding", "score", "info", "slots")

    def __init__(
        self,
        binding: tuple[int, ...],
        score: float,
        info: IdMatchInfo,
        slots: tuple[int, ...] = (),
    ):
        self.binding = binding
        self.score = score
        self.info = info
        self.slots = slots


class IdRun:
    """A tied head run: the next matches of one cursor that share one score.

    The unit sorted access advances by.  ``bindings`` are full-width
    binding tuples in stream order, all scoring exactly ``score``;
    ``refs[i]`` is the posting behind ``bindings[i]`` (a triple id, or a
    sub-join's tuple of them) and ``source`` the cursor that read it —
    ``source.match_info(ref, score)`` builds the provenance, which nobody
    needs before an answer is shown.  ``slots`` names the bound positions
    of every binding in the run.  A run is a *view* of the cursor's head:
    nothing is consumed until the consumer says how many items it took
    (``advance(n)``), so a join that suspends mid-run leaves the tail
    staged where it was.
    """

    __slots__ = ("score", "bindings", "refs", "source", "slots")

    def __init__(
        self,
        score: float,
        bindings: Sequence[tuple[int, ...]],
        refs: Sequence,
        source,
        slots: tuple[int, ...],
    ):
        self.score = score
        self.bindings = bindings
        self.refs = refs
        self.source = source
        self.slots = slots

    def select(self, positions: Sequence[int]) -> "IdRun":
        """The run restricted to ``positions`` (ascending)."""
        bindings, refs = self.bindings, self.refs
        return IdRun(
            self.score,
            [bindings[i] for i in positions],
            [refs[i] for i in positions],
            self.source,
            self.slots,
        )


def _pop_one(cursor) -> IdMatch | None:
    """Per-item access to a run cursor: a run of one, consumed whole."""
    run = cursor.head_run(1)
    if run is None:
        return None
    cursor.advance(1)
    score = run.score
    return IdMatch(
        run.bindings[0], score, run.source.match_info(run.refs[0], score), run.slots
    )


def tie_key(
    sort_key: Callable[[int], tuple[int, str]],
    ids: Sequence[int],
    names: Sequence[str] | None = None,
) -> tuple:
    """The lexical tie-break of one answer: the sort keys of its terms,
    looked up by id (:meth:`~repro.storage.dictionary.TermDictionary.
    sort_key`) — equal to sorting the decoded binding, without decoding it.

    Answers that may leave a variable unbound compare as their bound
    ``(variable name, sort key)`` pairs, so pass the variables' ``names``;
    among answers that bind every variable the names cancel out.
    """
    if names is None:
        return tuple(map(sort_key, ids))
    return tuple(
        (name, sort_key(tid)) for name, tid in zip(names, ids) if tid != UNBOUND
    )


class IdExecutionContext:
    """Shared per-rewriting state: store, scorer, stats, and the slot table."""

    __slots__ = ("store", "scorer", "stats", "table")

    def __init__(
        self, store: TripleStore, scorer: PatternScorer, stats: QueryStats | None
    ):
        self.store = store
        self.scorer = scorer
        self.stats = stats
        self.table = SlotTable()

    def plan(self, pattern: TriplePattern) -> PatternPlan:
        return PatternPlan(pattern, self.store, self.table)


class IdPostingCursor:
    """Sorted access over one pattern's posting list, entirely in id-space.

    Consumption is **block-at-a-time** by default: the cursor decodes a
    whole posting block, filters repeated-variable mismatches over the
    block, and scores it in one :func:`repro.topk.kernels.score_block`
    call — ``peek`` then reads a precomputed score, and :meth:`head_run`
    hands out every staged head that shares it as one :class:`IdRun`,
    bound by a single :func:`repro.topk.kernels.bind_block` call;
    :meth:`advance` says how many the consumer took (:meth:`pop` is a run
    of one).  Block granularity follows ``TripleStore.block_size``
    (``EngineConfig.block_size``): ``None`` adapts — the cursor scores
    exactly what each batched pull of the segment merge materialised —
    while ``1`` stages nothing and scores one head at a time, so every run
    has length one: the per-item oracle the property suite pins the block
    path against.  Emitted matches and scores are identical in both modes;
    only the ``blocks_decoded`` counter differs.
    """

    __slots__ = (
        "ctx",
        "pattern",
        "plan",
        "multiplier",
        "rule",
        "token_matches",
        "_ids",
        "_position",
        "_head_score",
        "_lam",
        "_mass",
        "_cmass",
        "_weights",
        "_slot_ids",
        "_template",
        "_merged",
        "_delta_seen",
        "_cache_seen",
        "_use_blocks",
        "_block_limit",
        "_block_tids",
        "_block_scores",
        "_block_pos",
    )

    def __init__(
        self,
        ctx: IdExecutionContext,
        pattern: TriplePattern,
        *,
        multiplier: float = 1.0,
        rule: RelaxationRule | None = None,
        token_matches: tuple[TokenMatch, ...] = (),
    ):
        self.ctx = ctx
        self.pattern = pattern
        self.plan = ctx.plan(pattern)
        self.multiplier = multiplier
        self.rule = rule
        self.token_matches = token_matches
        self._ids: Sequence[int] | None = None
        self._position = 0
        self._head_score: float | None = None
        self._template: list[int] | None = None
        self._merged = None
        self._delta_seen = 0
        self._cache_seen = 0
        self._use_blocks = True
        self._block_limit: int | None = None
        self._block_tids: Sequence[int] = ()
        self._block_scores: Sequence[float] = ()
        self._block_pos = 0

    def _open(self) -> None:
        if self._ids is None:
            store = self.ctx.store
            ids = self._ids = store.sorted_ids(self.pattern)
            # Lazily-merged segment postings support batched pulls; an
            # empty lookup is a plain empty tuple.
            self._merged = ids if hasattr(ids, "pull") else None
            self._lam, self._mass, self._cmass = self.ctx.scorer.emission_model(
                self.pattern
            )
            # Posting ids are trusted; read the columns without per-id
            # validation (the public store.weight/spo_ids validate).
            self._weights = store.weights()
            self._slot_ids = store.backend.slot_ids
            limit = store.block_size
            self._block_limit = limit
            self._use_blocks = limit != 1
            if self.ctx.stats is not None:
                self.ctx.stats.cursors_opened += 1
                if self._merged is not None:
                    self.ctx.stats.segments_touched += self._merged.segments

    def _score_weight(self, weight: float) -> float:
        # Same float ops, same order, as PatternScorer.score_weight.
        mass = self._mass
        foreground = weight / mass if mass > 0 else 0.0
        lam = self._lam
        if lam == 0.0:
            return self.multiplier * foreground
        cmass = self._cmass
        background = weight / cmass if cmass > 0 else 0.0
        return self.multiplier * ((1.0 - lam) * foreground + lam * background)

    def _current(self) -> int | None:
        """Triple id at the cursor head, skipping repeated-var mismatches."""
        self._open()
        ids = self._ids
        merged = self._merged
        plan = self.plan
        needs_filter = plan.has_repeated_variable
        while self._position < len(ids):
            if merged is not None and self._position >= merged.materialized:
                # Batched sorted access: pull a whole batch of merged heads
                # at once instead of paying the per-item merge hand-off on
                # every index.
                pulled = merged.pull(merged.batch_size)
                if self.ctx.stats is not None:
                    self.ctx.stats.postings_materialized += pulled
                    self.ctx.stats.posting_pulls += 1
                    emitted = merged.delta_emitted
                    if emitted != self._delta_seen:
                        self.ctx.stats.delta_hits += emitted - self._delta_seen
                        self._delta_seen = emitted
            tid = ids[self._position]
            if not needs_filter or plan.consistent(self._slot_ids(tid)):
                return tid
            self._position += 1
            self._head_score = None
        return None

    def _refill_block(self) -> bool:
        """Decode, filter and score the next non-empty posting block.

        Advances ``_position`` in block strides, pulling merged batches
        exactly as the per-item path would (same pull sizes, same stats),
        and leaves the surviving ids with their scores staged for
        :meth:`peek`/:meth:`pop`.  Returns False once the list is spent.
        """
        ids = self._ids
        merged = self._merged
        plan = self.plan
        slot_ids = self._slot_ids
        stats = self.ctx.stats
        needs_filter = plan.has_repeated_variable
        n = len(ids)
        # A non-empty posting list is always a lazy segment merge.
        while self._position < n:
            position = self._position
            if position >= merged.materialized:
                pulled = merged.pull(merged.batch_size)
                if stats is not None:
                    stats.postings_materialized += pulled
                    stats.posting_pulls += 1
                    emitted = merged.delta_emitted
                    if emitted != self._delta_seen:
                        stats.delta_hits += emitted - self._delta_seen
                        self._delta_seen = emitted
                    hits = merged.cache_hits
                    if hits != self._cache_seen:
                        stats.block_cache_hits += hits - self._cache_seen
                        self._cache_seen = hits
            # Score only what is already merged: slicing past the
            # materialized frontier would force an eager full fill.
            stop = merged.materialized
            if self._block_limit is not None:
                stop = min(stop, position + self._block_limit)
            raw = ids[position:stop]
            self._position = stop
            tids = plan.consistent_block(raw, slot_ids) if needs_filter else raw
            if not len(tids):
                continue
            scores = kernels.score_block(
                kernels.gather_weights(self._weights, tids),
                self._lam,
                self._mass,
                self._cmass,
                self.multiplier,
            )
            if stats is not None:
                stats.blocks_decoded += 1
            self._block_tids = tids
            self._block_scores = scores
            self._block_pos = 0
            return True
        return False

    def peek(self) -> float | None:
        self._open()
        if self._use_blocks:
            if self._block_pos >= len(self._block_scores):
                if not self._refill_block():
                    return None
            return self._block_scores[self._block_pos]
        tid = self._current()
        if tid is None:
            return None
        if self._head_score is None:
            self._head_score = self._score_weight(self._weights[tid])
        return self._head_score

    def ensure_exact(self) -> bool:
        """Posting peeks are exact (peeking opens the list); always True."""
        return True

    def head_run(self, limit: int | None = None) -> IdRun | None:
        """The staged heads that share the head score, bound in one call.

        The run never reaches past the staged block (a tie that continues
        in the next block is the next run) nor past ``limit`` items; with
        ``block_size=1`` nothing is staged and every run has length one.
        Consumes nothing — see :meth:`advance`.
        """
        score = self.peek()
        if score is None:
            return None
        if self._use_blocks:
            scores = self._block_scores
            start = self._block_pos
            # Scores descend, so the tie ends where ``-score`` stops being
            # the largest key; the common KG list is one tie to the end.
            stop = len(scores)
            if scores[stop - 1] != score:
                stop = bisect_right(scores, -score, start, stop, key=neg)
            if limit is not None:
                stop = min(stop, start + limit)
            tids = self._block_tids[start:stop]
        else:
            tids = (self._ids[self._position],)
        if self._template is None:
            self._template = [UNBOUND] * self.ctx.table.width
        plan = self.plan
        bindings = plan.bind_block(tids, self._slot_ids, self._template)
        return IdRun(score, bindings, tids, self, plan.bound_slots)

    def advance(self, n: int) -> None:
        """Consume the first ``n`` items of the current head run."""
        if self._use_blocks:
            self._block_pos += n
        else:
            self._position += n
            self._head_score = None
        if self.ctx.stats is not None:
            self.ctx.stats.sorted_accesses += n

    def match_info(self, tid: int, score: float) -> IdMatchInfo:
        """Provenance of the match this cursor read from posting ``tid``."""
        return IdMatchInfo(
            self.pattern, (tid,), score, self.rule, self.token_matches
        )

    def pop(self) -> IdMatch | None:
        return _pop_one(self)


class IdSubJoinCursor:
    """Sorted access over a multi-pattern relaxation's sub-join, in id-space.

    Mirrors :class:`~repro.topk.cursors.MaterializedJoinCursor`: lazy
    materialisation on first pop, projection onto the interface variables,
    best-score dedup, then descending serve.  Until materialisation,
    ``peek`` is the optimistic bound ``multiplier × min_i max_score(p_i)``.
    """

    __slots__ = (
        "ctx",
        "patterns",
        "interface_vars",
        "interface_slots",
        "multiplier",
        "rule",
        "token_matches",
        "max_results",
        "_bindings",
        "_scores",
        "_used",
        "_position",
        "_bound",
    )

    def __init__(
        self,
        ctx: IdExecutionContext,
        patterns: tuple[TriplePattern, ...],
        interface_vars: tuple[Variable, ...],
        *,
        multiplier: float = 1.0,
        rule: RelaxationRule | None = None,
        token_matches: tuple[TokenMatch, ...] = (),
        max_results: int = 50_000,
    ):
        self.ctx = ctx
        self.patterns = patterns
        self.interface_vars = interface_vars
        # Every interface variable must be bindable by the sub-join, or the
        # emitted matches would carry UNBOUND in slots the rank join treats
        # as concrete values.  The processor's replacement filter guarantees
        # this; direct constructions must honour it too.
        replacement_vars = {v for p in patterns for v in p.variables()}
        missing = [v for v in interface_vars if v not in replacement_vars]
        if missing:
            names = ", ".join(str(v) for v in missing)
            raise TopKError(
                f"Sub-join patterns do not bind interface variable(s): {names}"
            )
        # Register every replacement variable now — plans are compiled
        # lazily, after the slot table has frozen.
        for pattern in patterns:
            ctx.table.slots_for(pattern.variables())
        # Interface vars arrive name-sorted (the processor guarantees it),
        # so this slot order matches term-space BindingKey order.
        self.interface_slots = ctx.table.slots_for(interface_vars)
        self.multiplier = multiplier
        self.rule = rule
        self.token_matches = token_matches
        self.max_results = max_results
        # The materialised result, score-descending, as parallel columns.
        self._bindings: list[tuple[int, ...]] | None = None
        self._scores: list[float] | None = None
        self._used: list[tuple[int, ...]] | None = None
        self._position = 0
        self._bound: float | None = None

    def _upper_bound(self) -> float:
        if self._bound is None:
            bounds = [self.ctx.scorer.max_score(p) for p in self.patterns]
            self._bound = self.multiplier * (min(bounds) if bounds else 0.0)
        return self._bound

    def _materialize(self) -> None:
        if self._scores is not None:
            return
        ctx = self.ctx
        store = ctx.store
        stats = ctx.stats
        if stats is not None:
            stats.cursors_opened += 1
        # Evaluate most-selective-first to keep intermediate results small
        # (same stable order as the term-space reference).
        order = sorted(
            range(len(self.patterns)),
            key=lambda i: store.cardinality(self.patterns[i]),
        )
        self.patterns = tuple(self.patterns[i] for i in order)
        plans = [ctx.plan(p) for p in self.patterns]
        models = [ctx.scorer.emission_model(p) for p in self.patterns]
        weights = store.weights()
        slot_ids = store.backend.slot_ids
        width = ctx.table.width
        best: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {}
        interface_slots = self.interface_slots

        def score_pattern(index: int, weight: float) -> float:
            lam, mass, cmass = models[index]
            foreground = weight / mass if mass > 0 else 0.0
            if lam == 0.0:
                return foreground
            background = weight / cmass if cmass > 0 else 0.0
            return (1.0 - lam) * foreground + lam * background

        def backtrack(
            index: int, binding: list[int], score: float, used: tuple[int, ...]
        ) -> None:
            if len(best) > self.max_results:
                return
            if index == len(plans):
                key = tuple(binding[s] for s in interface_slots)
                entry = best.get(key)
                if entry is None or score > entry[0]:
                    best[key] = (score, used)
                return
            plan = plans[index]
            if plan.missing_constant:
                return
            const_ids = plan.const_ids
            requirements: list[int | None] = list(const_ids)
            for position, slot in plan.var_positions:
                value = binding[slot]
                if value != UNBOUND:
                    requirements[position] = value
            ids = store.postings_ids(*requirements)
            check_repeats = plan.has_repeated_variable
            for tid in ids:
                spo = slot_ids(tid)
                if check_repeats and not plan.consistent(spo):
                    continue
                if stats is not None:
                    stats.sorted_accesses += 1
                extended = binding.copy()
                if not plan.bind_into(spo, extended):
                    continue
                pattern_score = score_pattern(index, weights[tid])
                backtrack(index + 1, extended, score * pattern_score, used + (tid,))

        backtrack(0, [UNBOUND] * width, 1.0, ())

        template = [UNBOUND] * width
        items: list[tuple[tuple[int, ...], float, tuple[int, ...]]] = []
        for key, (score, used) in best.items():
            out = template.copy()
            for slot, value in zip(interface_slots, key):
                out[slot] = value
            items.append((tuple(out), self.multiplier * score, used))
        # Ties break on the bound terms' lexical order — identical to the
        # term-space reference, which sorts BindingKey pairs (a sub-join
        # binds every interface variable, so their names cancel out).
        sort_key = store.dictionary.sort_key
        bound = kernels.tuple_getter(interface_slots)
        sort_descending_with_ties(
            items, itemgetter(1), lambda item: tie_key(sort_key, bound(item[0]))
        )
        self._bindings = [item[0] for item in items]
        self._scores = [item[1] for item in items]
        self._used = [item[2] for item in items]

    @property
    def is_materialized(self) -> bool:
        return self._scores is not None

    def ensure_exact(self) -> bool:
        """Materialise the sub-join if needed; True when already exact."""
        if self._scores is not None:
            return True
        self._materialize()
        return False

    def peek(self) -> float | None:
        if self._scores is None:
            bound = self._upper_bound()
            return bound if bound > 0.0 else None
        if self._position < len(self._scores):
            return self._scores[self._position]
        return None

    def head_run(self, limit: int | None = None) -> IdRun | None:
        """The materialised items that share the head score (at most
        ``limit``); materialises first, so the run's score may be lower
        than an optimistic :meth:`peek` promised."""
        self._materialize()
        scores = self._scores
        start = self._position
        if start >= len(scores):
            return None
        score = scores[start]
        stop = bisect_right(scores, -score, start, key=neg)
        if limit is not None:
            stop = min(stop, start + limit)
        return IdRun(
            score,
            self._bindings[start:stop],
            self._used[start:stop],
            self,
            self.interface_slots,
        )

    def advance(self, n: int) -> None:
        """Consume the first ``n`` items of the current head run (the
        sorted accesses behind them were counted at materialisation)."""
        self._position += n

    def match_info(self, used: tuple[int, ...], score: float) -> IdMatchInfo:
        """Provenance of one sub-join result: the first replacement
        pattern stands for the whole sub-join in explanations; all
        matched triple ids are kept."""
        return IdMatchInfo(
            self.patterns[0], used, score, self.rule, self.token_matches
        )

    def pop(self) -> IdMatch | None:
        return _pop_one(self)


def sort_descending_with_ties(items: list, score_of, key_of) -> None:
    """Sort ``items`` by (score desc, ``key_of`` asc), computing ``key_of``
    only inside runs of equal score (scores rarely tie outside KG lists)
    — the byte-identical order of a full ``sort(key=(-score, key))``."""
    # (a reversed sort keeps equal scores in their original order)
    items.sort(key=score_of, reverse=True)
    n = len(items)
    start = 0
    while start < n:
        stop = start + 1
        score = score_of(items[start])
        while stop < n and score_of(items[stop]) == score:
            stop += 1
        if stop - start > 1:
            items[start:stop] = sorted(items[start:stop], key=key_of)
        start = stop


class IdAnswerAggregator:
    """Max-score answer dedup over id-space projection keys.

    Keys are tuples of term ids aligned to the query's name-sorted
    projection variables (``UNBOUND`` where a rewriting left a projection
    variable unbound), so keys from different rewritings of the same query
    always agree.  An answer's provenance is kept as the consumed run items
    that were combined plus the rewriting they were combined under;
    derivations are built and terms decoded only for the window
    :meth:`ranked_answers` returns.

    The ranked order is kept until :meth:`add` changes a best score, and a
    tied run is ordered only as far as it is shown: its entries go into a
    heap on their tie keys (each computed once) and leave it rank by rank.
    A page over a settled aggregator costs the page, not a re-sort of
    everything aggregated.
    """

    def __init__(self, projection: tuple[Variable, ...]):
        self.projection = projection
        self._names = [variable.name for variable in projection]
        self._best: dict[tuple[int, ...], tuple[float, tuple, tuple]] = {}
        self._counts: dict[tuple[int, ...], int] = {}
        # ``_order``: (key, score) by score descending, ``None`` after
        # ``_best`` moved.  ``_ranked``: its prefix in final order, as far
        # as anyone asked.  ``_run``: a heap of (tie key, key) over the not
        # yet ranked rest of the tied run ``_ranked`` ends inside.
        self._order: list[tuple[tuple[int, ...], float]] | None = None
        self._ranked: list[tuple[tuple[int, ...], float]] = []
        self._run: list[tuple[tuple, tuple[int, ...]]] = []

    def __len__(self) -> int:
        return len(self._best)

    def add(
        self, key: tuple[int, ...], score: float, items: tuple, rewriting: tuple
    ) -> float:
        """Record one derivation — ``items`` combined under ``rewriting``,
        the ``(applications, weight)`` pair — and return the key's best
        known score."""
        self._counts[key] = self._counts.get(key, 0) + 1
        existing = self._best.get(key)
        if existing is None or score > existing[0]:
            self._best[key] = (score, items, rewriting)
            self._order = None
            return score
        return existing[0]

    def _by_score(self) -> list[tuple[tuple[int, ...], float]]:
        order = self._order
        if order is None:
            order = self._order = [
                (key, entry[0]) for key, entry in self._best.items()
            ]
            order.sort(key=itemgetter(1), reverse=True)
            self._ranked = []
            self._run = []
        return order

    def _rank(
        self, store: TripleStore, cut: int
    ) -> list[tuple[tuple[int, ...], float]]:
        """The first ``cut`` entries in final order: (score desc, tie key
        asc).  Continues where the last call stopped."""
        order = self._by_score()
        ranked = self._ranked
        run = self._run
        while len(ranked) < cut:
            position = len(ranked)
            score = order[position][1]
            if not run:
                stop = position + 1
                while stop < len(order) and order[stop][1] == score:
                    stop += 1
                if stop - position == 1:
                    ranked.append(order[position])
                    continue
                keys = [key for key, _score in order[position:stop]]
                partial = any(UNBOUND in key for key in keys)
                names = self._names if partial else None
                sort_key = store.dictionary.sort_key
                run[:] = [(tie_key(sort_key, key, names), key) for key in keys]
                heapq.heapify(run)
            ranked.append((heapq.heappop(run)[1], score))
        return ranked

    def best_scores(self, limit: int) -> list[tuple[tuple[int, ...], float]]:
        """The ``limit`` best distinct keys with their scores (tracker
        rebuilds: the k-th best score is all a retargeted tracker needs)."""
        return self._by_score()[:limit]

    def ranked_answers(
        self, store: TripleStore, limit: int | None = None, start: int = 0
    ) -> list[Answer]:
        """Decode and rank: (score desc, binding lexical) — deterministic.

        Only the answers that make the cut are decoded: entries are ranked
        by score first (pure float/int work), equal-score runs intersecting
        the top-``limit`` are tie-broken on the id-indexed term sort keys,
        and derivations materialise for the returned answers alone.
        ``start`` skips a settled prefix (streaming pagination returns only
        the window ``[start:limit]`` — ranks the caller already holds are
        neither re-ranked nor re-decoded).
        """
        cut = len(self._best) if limit is None else min(limit, len(self._best))
        ranked = self._rank(store, cut)
        decode = store.dictionary.decode
        projection = self.projection
        answers = []
        for key, score in ranked[start:cut]:
            _score, items, rewriting = self._best[key]
            binding = tuple(
                (var, decode(tid))
                for var, tid in zip(projection, key)
                if tid != UNBOUND
            )
            answers.append(
                Answer(
                    binding,
                    score,
                    IdDerivation.of_items(items, *rewriting).decode(store),
                    self._counts[key],
                )
            )
        return answers


class IdRankJoin:
    """N-ary HRJN-style rank join over id-space streams.

    The algorithm — stream advance order, probe enumeration, upper bound,
    threshold termination — is the same as the term-space
    :class:`~repro.topk.rank_join.NaryRankJoin`; only the binding
    representation changed, so probes hash int tuples instead of
    (Variable, Term) pair tuples.
    """

    def __init__(
        self,
        query: Query,
        streams: list,
        ctx: IdExecutionContext,
        *,
        rewriting_weight: float = 1.0,
        rewriting: tuple[RuleApplication, ...] = (),
        aggregator: IdAnswerAggregator,
        tracker: DistinctTopKTracker,
        exhaustive: bool = False,
        strict_ties: bool = False,
    ):
        if len(streams) != len(query.patterns):
            raise ValueError(
                f"{len(query.patterns)} patterns but {len(streams)} streams"
            )
        self.query = query
        self.streams = streams
        self.ctx = ctx
        self.rewriting_weight = rewriting_weight
        self.rewriting = rewriting
        # Shared by every answer this join forms (and nothing of the join
        # itself: an aggregated answer must not keep a finished join alive).
        self._rewriting = (rewriting, rewriting_weight)
        self.aggregator = aggregator
        self.tracker = tracker
        self.exhaustive = exhaustive
        self.strict_ties = strict_ties
        table = ctx.table
        # Projection keys align with the aggregator's name-sorted projection.
        self._projection_slots = table.slots_for(
            tuple(sorted(query.projection, key=lambda v: v.name))
        )
        all_vars = [set(p.variables()) for p in query.patterns]
        self._join_slots: list[tuple[int, ...]] = []
        for j, own in enumerate(all_vars):
            shared = set()
            for i, other in enumerate(all_vars):
                if i != j:
                    shared |= own & other
            self._join_slots.append(
                table.slots_for(tuple(sorted(shared, key=lambda v: v.name)))
            )
        table.freeze()
        self._project = kernels.tuple_getter(self._projection_slots)
        self._key_of = [kernels.tuple_getter(slots) for slots in self._join_slots]
        # A consumed run item is ``(binding, score, slots, source, ref)``:
        # what a probe compares, plus the ``(cursor, posting)`` reference
        # its provenance is built from if an answer it formed is shown.
        self._seen: list[dict[tuple[int, ...], tuple]] = [{} for _ in streams]
        self._best: list[float | None] = [None] * len(streams)
        self._join_index: list[dict[tuple[int, ...], list[tuple]]] = [
            {} for _ in streams
        ]
        # Whether an offer moved the tracker since _consume last looked.
        self._moved = False

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
            product = peek
            for j, cap in enumerate(caps):
                if j != i:
                    product *= cap
            bound = max(bound, product)
        return bound * self.rewriting_weight

    def _settled(self, bound: float) -> bool:
        """Whether the k-th best score already rules out ``bound``."""
        tracker = self.tracker
        if not tracker.is_full:
            return False
        if self.strict_ties:
            return tracker.threshold > bound
        return tracker.threshold >= bound

    # -- combination formation ------------------------------------------------

    def _emit(self, merged: Sequence[int], items: tuple) -> None:
        """Record the answer of one complete combination: ``items`` in
        stream order, ``merged`` their bindings merged."""
        score = self.rewriting_weight
        for item in items:
            score *= item[1]
        projected = self._project(merged)
        if self.ctx.stats is not None:
            self.ctx.stats.candidates_formed += 1
        best = self.aggregator.add(projected, score, items, self._rewriting)
        if self.tracker.offer(projected, best):
            self._moved = True

    def _extend(
        self, others: list[int], position: int, assigned: list[int], combo: list
    ) -> None:
        """Enumerate the seen items of streams ``others[position:]`` that
        are compatible with ``assigned``; emit each complete combination."""
        if position == len(others):
            self._emit(assigned, tuple(combo))
            return
        j = others[position]
        candidates = None
        if self._join_slots[j]:
            key = self._key_of[j](assigned)
            if UNBOUND not in key:
                candidates = self._join_index[j].get(key, ())
        if candidates is None:
            candidates = list(self._seen[j].values())
        for item in candidates:
            binding = item[0]
            slots = item[2]
            for slot in slots:
                current = assigned[slot]
                if current != UNBOUND and current != binding[slot]:
                    break
            else:
                extended = assigned.copy()
                for slot in slots:
                    extended[slot] = binding[slot]
                combo[j] = item
                self._extend(others, position + 1, extended, combo)
        combo[j] = None

    def _consume(
        self,
        run: IdRun,
        index: int,
        limit: int,
        bound: float,
        should_stop: Callable[[], bool] | None,
    ) -> int:
        """Take up to ``limit`` items of stream ``index``'s head run;
        return how many.

        The caller has decided that the first item is to be consumed, and
        that decision extends over the ``limit`` items: heads, liveness and
        upper bound stay what they were, so only the threshold (and
        ``should_stop``) is read again before each further item, and the
        run is cut where the per-item loop would have suspended.
        """
        streams = self.streams
        bindings = run.bindings
        score = run.score
        slots = run.slots
        source = run.source
        refs = run.refs
        seen = self._seen[index]
        check = not self.exhaustive
        self._moved = False
        # Visit scarcer streams first: fails fast on selective ones.
        # Their sizes cannot change while this stream's run is taken.
        others = [j for j in range(len(streams)) if j != index]
        others.sort(key=lambda j: len(self._seen[j]))
        joinable = all(self._seen[j] for j in others)
        combo: list = [None] * len(streams)
        key_of = self._key_of[index]
        index_map = self._join_index[index]
        for position in range(limit):
            if position:
                # The threshold is where the run's first item left it
                # unless an offer since moved the tracked top-k.
                if check and self._moved:
                    self._moved = False
                    if self._settled(bound):
                        return position
                if should_stop is not None and should_stop():
                    return position
            binding = bindings[position]
            if binding in seen:
                continue  # merged streams dedupe already; double guard
            item = (binding, score, slots, source, refs[position])
            seen[binding] = item
            if not others:
                # One stream: the item is the combination.
                self._emit(binding, (item,))
                continue
            index_map.setdefault(key_of(binding), []).append(item)
            if joinable:
                combo[index] = item
                self._extend(others, 0, list(binding), combo)
        return limit

    # -- main loop ------------------------------------------------------------

    def run(self, should_stop: Callable[[], bool] | None = None) -> bool:
        """Consume streams until exhaustion or threshold termination.

        Returns True when the join is *exhausted* — it can never emit
        another combination — and False when it merely suspended (threshold
        termination or ``should_stop``).  A suspended join is resumable:
        all state lives on the instance and the cursors, so calling
        :meth:`run` again continues at the very posting it stopped before
        (the driver does this when a stream's consumer asks for more
        answers and the threshold drops).

        The loop advances by **tied head runs**: which stream to advance,
        liveness and the upper bound are decided once per run from the
        stream heads, then :meth:`_consume` takes the run's items.  A run
        of length one (``block_size=1`` / ``merge_batch=1``, or simply
        distinct scores) is the classic per-item HRJN step.

        With ``strict_ties`` termination requires the k-th best score to
        *strictly* beat the upper bound: combinations tying the threshold
        are still formed, which makes the surviving top-k independent of
        where the computation was split — the invariant resumable streams
        are built on.  The default (``>=``) is the seed's eager rule.
        """
        streams = self.streams
        while True:
            peeks = [stream.peek() for stream in streams]
            live = [i for i, p in enumerate(peeks) if p is not None]
            if not live:
                return True
            # A stream that is exhausted without ever emitting can never be
            # part of a combination — the whole join is empty-handed.
            if any(
                peeks[i] is None and not self._seen[i]
                for i in range(len(streams))
            ):
                return True
            bound = 0.0
            if not self.exhaustive:
                bound = self.upper_bound(peeks)
                if self._settled(bound):
                    return False
            if should_stop is not None and should_stop():
                return False
            # Advance the stream with the highest head (ties: lowest index).
            index = max(live, key=lambda i: (peeks[i], -i))
            stream = streams[index]
            run = stream.head_run()
            if run is None:
                continue
            if self._best[index] is None:
                self._best[index] = run.score
            # An optimistic head (an unrefined relaxation) was refined by
            # head_run: the run scores lower than the peek the decisions
            # above rest on, so they hold for its first item only.
            limit = len(run.bindings) if run.score == peeks[index] else 1
            taken = self._consume(run, index, limit, bound, should_stop)
            stream.advance(taken)
            if taken < limit:
                return False
