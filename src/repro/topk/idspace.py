"""The execution core: top-k processing on integer term ids.

The store dictionary-encodes every term at ``add()`` time, and this module
keeps the *whole* hot path in that integer id-space — no :class:`Term`
object is hashed, bound or sorted before an answer is shown:

* a per-rewriting :class:`SlotTable` assigns each variable a dense slot;
  a binding is a plain ``tuple[int, ...]`` of term ids (``UNBOUND`` = -1),
* :class:`PatternPlan` compiles a :class:`TriplePattern` into constant ids
  and variable slots once, so matching a posting is integer comparisons,
* :class:`IdPostingCursor` / :class:`IdSubJoinCursor` stream id-space
  matches with scores computed straight off the store's weight column,
  and hand them out a **tied head run** (:class:`IdRun`) at a time — the
  one cursor protocol (:class:`RunCursor`),
* :class:`IdRankJoin` advances by those runs and probes and merges
  bindings as int tuples,
* :class:`IdAggregator` keeps each answer's provenance as
  ``(cursor, posting)`` references and builds derivations and decodes to
  :class:`~repro.core.results.Answer` objects only for an emitted window,
  ranking a tied run as far as it is shown.

Semantics are *identical* to the term-space reference core the tests keep
(``tests/reference_core.py``: per-item cursors, join and aggregation over
:class:`Term` bindings): same enumeration orders, same float
arithmetic, same tie-breaks — which the equivalence suites
(``tests/topk/test_idspace_equivalence.py``,
``tests/property/test_prop_idspace.py``) assert answer by answer.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from operator import itemgetter, neg
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.query import Query
from repro.core.results import Answer, Derivation, PatternMatchInfo, QueryStats
from repro.core.terms import Variable
from repro.core.triples import TriplePattern
from repro.errors import TopKError
from repro.relax.rules import RelaxationRule, RuleApplication
from repro.scoring.answer_scoring import score_product
from repro.scoring.language_model import PatternScorer
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatch
from repro.topk import kernels
from repro.util.heap import DistinctTopKTracker, TieFrontier

#: Sentinel id for "this slot is not bound".  Term ids are non-negative.
UNBOUND = -1

#: What :meth:`IdRankJoin._tie_settled` answers when the k-th answer
#: strictly precedes the next posting.
_SETTLED = object()

#: The score of a consumed run item ``(binding, score, slots, source, ref)``.
_SCORE = itemgetter(1)

#: Adaptive pulls (``merge_batch=None``) slow-start: a cursor's first pull
#: takes this many postings and each later one as many as it has read so
#: far — 8, 8, 16, 32, … — up to the ceiling, so a rewriting probe that
#: peeks one head stays cheap while a deep drain converges to bulk pulls.
FIRST_PULL = 8
MAX_PULL = 1024


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
            self.pattern,
            tuple(map(store.record, self.triple_ids)),
            self.score,
            self.rule,
            self.token_matches,
        )


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


class RunCursor(Protocol):
    """Sorted access by tied head runs: what the merge and the rank join
    read, and what :class:`IdPostingCursor`, :class:`IdSubJoinCursor` and
    :class:`~repro.topk.incremental_merge.IncrementalMergeCursor` serve."""

    def peek(self) -> float | None:
        """An upper bound on the next item's score (``None``: spent); exact
        once :meth:`ensure_exact` returned."""
        ...

    def ensure_exact(self) -> bool:
        """Make :meth:`peek` exact; return True if it already was.

        Cursors with optimistic bounds (unmaterialised sub-joins) do their
        expensive work here; the merged stream calls this only when the
        cursor's bound has reached the head — the adaptive-invocation point.
        """
        ...

    def head_run(self, limit: int | None = None) -> IdRun | None:
        """The next items that share the head score, at most ``limit``,
        consuming nothing (``None``: spent)."""
        ...

    def advance(self, n: int) -> None:
        """Consume the first ``n`` items of the run :meth:`head_run` gave."""
        ...


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
    if UNBOUND not in ids:
        return tuple(zip(names, map(sort_key, ids)))
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
    :meth:`advance` says how many the consumer took.  Block granularity
    follows ``TripleStore.block_size`` (``EngineConfig.block_size``):
    ``None`` adapts — the cursor scores exactly what each pull made
    readable — while ``1`` stages nothing and scores one head at a time,
    so every run has length one: the per-item oracle the property suite
    pins the block path against.  Emitted matches and scores are
    identical in both modes; only the ``blocks_decoded`` counter differs.

    The lookup is the base segment's own slice or a lazy segment merge;
    either is read through one *read frontier*: :meth:`_pull` moves it by
    ``merge_batch`` postings (``EngineConfig.merge_batch``), or by the
    adaptive slow start of :data:`FIRST_PULL` … :data:`MAX_PULL`, and
    nothing past it is read.
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
        "_frontier",
        "_batch",
        "_delta_seen",
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
        self._frontier = 0
        self._batch: int | None = None
        self._delta_seen = 0
        self._use_blocks = True
        self._block_limit: int | None = None
        self._block_tids: Sequence[int] = ()
        self._block_scores: Sequence[float] = ()
        self._block_pos = 0

    def _open(self) -> None:
        if self._ids is None:
            store = self.ctx.store
            ids = self._ids = store.sorted_ids(self.pattern)
            # A merge materialises what a pull asks for; a slice is all
            # there already.
            self._merged = ids if hasattr(ids, "pull") else None
            self._batch = store.merge_batch
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
                elif len(ids):
                    self.ctx.stats.segments_touched += 1

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
        plan = self.plan
        needs_filter = plan.has_repeated_variable
        while self._position < len(ids):
            if self._position >= self._frontier:
                self._pull()
            tid = ids[self._position]
            if not needs_filter or plan.consistent(self._slot_ids(tid)):
                return tid
            self._position += 1
            self._head_score = None
        return None

    def _pull(self) -> None:
        """Move the read frontier by one pull: ``merge_batch`` postings, or
        as many as read so far (from :data:`FIRST_PULL` up to
        :data:`MAX_PULL`) when adaptive.  A merge materialises them."""
        start = self._frontier
        batch = self._batch or min(max(start, FIRST_PULL), MAX_PULL)
        merged = self._merged
        if merged is None:
            self._frontier = min(start + batch, len(self._ids))
        else:
            merged.pull(batch)
            self._frontier = merged.materialized
        stats = self.ctx.stats
        if stats is not None:
            stats.postings_materialized += self._frontier - start
            stats.posting_pulls += 1
            if merged is not None and merged.delta_emitted != self._delta_seen:
                stats.delta_hits += merged.delta_emitted - self._delta_seen
                self._delta_seen = merged.delta_emitted

    def _refill_block(self) -> bool:
        """Decode, filter and score the next non-empty posting block.

        Advances ``_position`` in block strides, pulling exactly as the
        per-item path would (same pull sizes, same stats), and leaves the
        surviving ids with their scores staged for :meth:`peek` /
        :meth:`head_run`.  Returns False once the list is spent.
        """
        ids = self._ids
        plan = self.plan
        slot_ids = self._slot_ids
        stats = self.ctx.stats
        needs_filter = plan.has_repeated_variable
        n = len(ids)
        while self._position < n:
            position = self._position
            if position >= self._frontier:
                self._pull()
            # Score only what was pulled: a merge's slice past its frontier
            # would force an eager full fill.
            stop = self._frontier
            if self._block_limit is not None:
                stop = min(stop, position + self._block_limit)
            raw = ids[position:stop]
            if self._merged is None:
                raw = raw.tolist()  # a memoryview: index it as a list
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

    @property
    def list_length(self) -> int:
        """How many postings the pattern's list holds."""
        self._open()
        return len(self._ids)

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

    def score_below(self, tid: int) -> float | None:
        """The best score a posting weighing less than ``tid`` can reach
        (``None``: no statement does) — below ``tid``'s own unless rounding
        merges two weights into one score."""
        below = self.ctx.store.weight_below(self._weights[tid])
        return None if below is None else self._score_weight(below)

    def match_info(self, tid: int, score: float) -> IdMatchInfo:
        """Provenance of the match this cursor read from posting ``tid``."""
        return IdMatchInfo(
            self.pattern, (tid,), score, self.rule, self.token_matches
        )

    def matched(self, tid: int, score: float, store: TripleStore) -> PatternMatchInfo:
        """``match_info(tid, score)`` decoded, for an answer being shown."""
        return PatternMatchInfo(
            self.pattern, (store.record(tid),), score, self.rule, self.token_matches
        )


class IdSubJoinCursor:
    """Sorted access over a multi-pattern relaxation's sub-join, in id-space.

    Lazy materialisation on the first :meth:`head_run` (or
    :meth:`ensure_exact`), projection onto the interface variables,
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
        # so this slot order is the order of a decoded binding's pairs.
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
        # (a stable sort: equal cardinalities keep the rule's order).
        order = sorted(
            range(len(self.patterns)),
            key=lambda i: store.cardinality(self.patterns[i]),
        )
        self.patterns = tuple(self.patterns[i] for i in order)
        plans = [ctx.plan(p) for p in self.patterns]
        models = [ctx.scorer.emission_model(p) for p in self.patterns]
        weights = store.weights()
        width = ctx.table.width
        best: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {}
        interface_slots = self.interface_slots
        max_results = self.max_results

        def score_pattern(index: int, weight: float) -> float:
            lam, mass, cmass = models[index]
            foreground = weight / mass if mass > 0 else 0.0
            if lam == 0.0:
                return foreground
            background = weight / cmass if cmass > 0 else 0.0
            return (1.0 - lam) * foreground + lam * background

        def keep(binding: list[int], used: tuple[int, ...]) -> None:
            # The pattern scores multiply in plan order, as they did when
            # the backtracking carried the running product.
            score = 1.0
            for index, tid in enumerate(used):
                score = score * score_pattern(index, weights[tid])
            key = tuple(binding[s] for s in interface_slots)
            entry = best.get(key)
            if entry is None or score > entry[0]:
                best[key] = (score, used)

        reads = probe_combinations(
            plans,
            lambda _index, requirements: store.postings_ids(*requirements),
            store.backend.slot_ids,
            [([UNBOUND] * width, ())],
            keep,
            lambda: len(best) > max_results,
        )
        if stats is not None:
            stats.sorted_accesses += reads

        template = [UNBOUND] * width
        items: list[tuple[tuple[int, ...], float, tuple[int, ...]]] = []
        for key, (score, used) in best.items():
            out = template.copy()
            for slot, value in zip(interface_slots, key):
                out[slot] = value
            items.append((tuple(out), self.multiplier * score, used))
        # Ties break on the bound terms' lexical order — the order of the
        # decoded (variable, term) pairs (a sub-join binds every interface
        # variable, so their names cancel out).
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

    def matched(
        self, used: tuple[int, ...], score: float, store: TripleStore
    ) -> PatternMatchInfo:
        """``match_info(used, score)`` decoded, for an answer being shown."""
        return self.match_info(used, score).decode(store)


def probe_combinations(
    plans: Sequence[PatternPlan],
    lookup: Callable[[int, list[int | None]], Sequence[int]],
    slot_ids: Callable[[int], tuple[int, int, int]],
    seeds: Iterable[tuple[list[int], tuple[int, ...]]],
    visit: Callable[[list[int], tuple[int, ...]], None],
    halted: Callable[[], bool] | None = None,
) -> int:
    """Backtracking bound-slot probes: extend each seed ``(binding,
    used)`` by one posting of each of ``plans`` in turn, each looked up
    with the slots bound so far (``lookup(index, (s, p, o) ids or
    None)``), and hand every complete combination to ``visit(binding,
    used + triple ids)``.  ``halted`` is asked before each step.  Returns
    how many postings were read — the repeated-variable-consistent ones."""
    depth = len(plans)
    reads = 0

    def extend(index: int, binding: list[int], used: tuple[int, ...]) -> None:
        nonlocal reads
        if halted is not None and halted():
            return
        if index == depth:
            visit(binding, used)
            return
        plan = plans[index]
        if plan.missing_constant:
            return
        requirements: list[int | None] = list(plan.const_ids)
        for position, slot in plan.var_positions:
            value = binding[slot]
            if value != UNBOUND:
                requirements[position] = value
        check_repeats = plan.has_repeated_variable
        for tid in lookup(index, requirements):
            spo = slot_ids(tid)
            if check_repeats and not plan.consistent(spo):
                continue
            reads += 1
            extended = binding.copy()
            if plan.bind_into(spo, extended):
                extend(index + 1, extended, used + (tid,))

    for binding, used in seeds:
        extend(0, binding, used)
    return reads


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


class IdAggregator:
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
    An answer that ranks after everything ranked so far — a tied run read
    in answer order, page after page — extends the order instead of
    resetting it.  A page over a settled aggregator costs the page, not a
    re-sort of everything aggregated.
    """

    def __init__(
        self,
        projection: tuple[Variable, ...],
        sort_key: Callable[[int], tuple[int, str]],
    ):
        self.projection = projection
        self._names = [variable.name for variable in projection]
        self._sort_key = sort_key
        #: Bumped whenever a best score changes.
        self.version = 0
        self._best: dict[tuple[int, ...], tuple[float, tuple, tuple]] = {}
        self._counts: dict[tuple[int, ...], int] = {}
        self._ties: dict[tuple[int, ...], tuple] = {}
        # ``_order``: (key, score) by score descending, ``None`` after a
        # best score moved out of order.  ``_ranked``: its prefix in final
        # order, as far as anyone asked.  ``_run``: a heap of (tie key, key)
        # over the not yet ranked rest of the tied run ``_ranked`` ends
        # inside, named when the run holds a partial answer.
        self._order: list[tuple[tuple[int, ...], float]] | None = None
        self._ranked: list[tuple[tuple[int, ...], float]] = []
        self._run: list[tuple[tuple, tuple[int, ...]]] = []
        self._run_named = False

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
            self.version += 1
            if existing is None and self._extends(key, score):
                self._order.append((key, score))
                if self._run and score == self._ranked[-1][1]:
                    heapq.heappush(self._run, (self.tie(key), key))
            else:
                self._order = None
            return score
        return existing[0]

    def _extends(self, key: tuple[int, ...], score: float) -> bool:
        """Whether a new complete answer can extend the kept order: it
        sorts last by score and ranks after every answer already ranked
        (before any is, a reset costs only the sort nobody paid for yet)."""
        order = self._order
        if (
            order is None
            or not self._ranked
            or score > order[-1][1]
            or UNBOUND in key
            or self._run_named
        ):
            return False
        last_key, last_score = self._ranked[-1]
        return score < last_score or (
            UNBOUND not in last_key
            and (self.tie(key), key) > (self.tie(last_key), last_key)
        )

    def _by_score(self) -> list[tuple[tuple[int, ...], float]]:
        order = self._order
        if order is None:
            order = self._order = [
                (key, entry[0]) for key, entry in self._best.items()
            ]
            order.sort(key=itemgetter(1), reverse=True)
            self._ranked = []
            self._run = []
            self._run_named = False
        return order

    def _rank(self, cut: int) -> list[tuple[tuple[int, ...], float]]:
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
                ties, self._run_named = self._comparable(keys)
                run[:] = zip(ties, keys)
                heapq.heapify(run)
            ranked.append((heapq.heappop(run)[1], score))
        return ranked

    def tie(self, key: tuple[int, ...], named: bool = False) -> tuple:
        """``key``'s tie key, computed once per key: its terms' sort keys,
        or — ``named``, and always for a partial answer — its bound
        ``(variable name, sort key)`` pairs, the form in which partial and
        complete answers compare (among complete ones the names cancel)."""
        tie = self._ties.get(key)
        if tie is None:
            names = self._names if UNBOUND in key else None
            tie = self._ties[key] = tie_key(self._sort_key, key, names)
        if named and UNBOUND not in key:
            return tuple(zip(self._names, tie))
        return tie

    def _comparable(self, keys: Sequence[tuple[int, ...]]) -> tuple[list, bool]:
        """The tie keys of ``keys`` in one form — named as soon as one key
        is partial — and whether it is the named one."""
        if any(UNBOUND in key for key in keys):
            return [self.tie(key, True) for key in keys], True
        ties, sort_key = self._ties, self._sort_key
        return [
            ties.get(key) or ties.setdefault(key, tie_key(sort_key, key))
            for key in keys
        ], False

    def tied_frontier(self, score: float) -> tuple[int, list, bool]:
        """How many answers score above ``score``, and the ascending tie
        keys of those scoring exactly ``score`` with whether they are in
        named form (a :class:`TieFrontier` rebuild)."""
        above = 0
        tied = []
        for key, entry in self._best.items():
            if entry[0] > score:
                above += 1
            elif entry[0] == score:
                tied.append(key)
        ties, named = self._comparable(tied)
        ties.sort()
        return above, ties, named

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
        ranked = self._rank(cut)
        decode = store.dictionary.decoder()
        projection = self.projection
        answers = []
        for key, score in ranked[start:cut]:
            _score, items, (applications, weight) = self._best[key]
            if UNBOUND in key:
                binding = tuple(
                    (var, decode(tid))
                    for var, tid in zip(projection, key)
                    if tid != UNBOUND
                )
            else:
                binding = tuple(zip(projection, map(decode, key)))
            # The provenance of the combination: one match per consumed run
            # item ``(binding, score, slots, source, posting)``.
            matches = tuple(
                source.matched(ref, item_score, store)
                for _binding, item_score, _slots, source, ref in items
            )
            answers.append(
                Answer(
                    binding,
                    score,
                    Derivation(matches, applications, weight),
                    self._counts[key],
                )
            )
        return answers


def _weight_prefix(ids: Sequence[int], weights, weight: float) -> Sequence[int]:
    """The prefix of ``ids`` — weight-descending, none above ``weight`` —
    that weighs ``weight``."""
    n = len(ids)
    if not n or weights[ids[n - 1]] == weight:
        return ids
    return ids[: bisect_right(ids, -weight, key=lambda tid: -weights[tid])]


class BandProbe:
    """A join's top tied band, enumerated in answer order by random access.

    The band is every combination whose postings all score their stream's
    head score — in a list ordered by weight, its *weight prefix* — so
    each scores the join's bound, :attr:`score`.  Answers rank by (score
    desc, tie key asc) and the tie key leads with the name-sorted
    projection's first variable, so the band is walked one *lead value* at
    a time, in sort-key order:

    * **led** — the lead variable is the first variable slot of a stream's
      pattern: that list's band is already in lead order and is streamed
      (sorted access; the shortest such list);
    * **unled** — otherwise the distinct lead values of the shortest list
      that binds it are read off the index's key groups
      (:meth:`~repro.storage.store.TripleStore.slot_values`) and sorted.

    A lead value's *group* is completed by :func:`probe_combinations` over
    the other patterns — the unled lead pattern first — most-bound first,
    each probed list cut to its weight prefix (random access), and sorted
    by tie key.  A group is computed only once everything before it was
    handed out, except while :meth:`fill` decides whether to probe at all.
    """

    def __init__(
        self,
        join: "IdRankJoin",
        heads: list["IdPostingCursor"],
        scores: list[float],
        lead: int,
        led: bool,
    ):
        ctx = join.ctx
        store = self._store = ctx.store
        self._stats = ctx.stats
        sort_key = self._sort_key = store.dictionary.sort_key
        weights = store.weights()
        self.scores = scores
        self.score = score_product(join.rewriting_weight, scores)
        #: Per stream, what a consumed item carries besides its binding
        #: and posting: ``(score, slots, source)``.
        self.sources = [
            (score, head.plan.bound_slots, head) for score, head in zip(scores, heads)
        ]
        cuts = [weights[head.head_run(1).refs[0]] for head in heads]
        bands = [
            _weight_prefix(store.postings_ids(*head.plan.const_ids), weights, cut)
            for head, cut in zip(heads, cuts)
        ]
        #: What draining the band reads: every stream's band.
        self.drain_reads = sum(map(len, bands))
        #: Whether the band is all the join can form: lone cursors whose
        #: lists are all band.
        self.whole = all(
            stream is head and len(band) == head.list_length
            for stream, head, band in zip(join.streams, heads, bands)
        )
        #: Postings read so far, by sorted and by random access.
        self.reads = 0
        lead_slot = self._lead_slot = join._projection_slots[0]
        plan = self._lead_plan = heads[lead].plan
        self._lead_position = next(
            position for position, slot in plan.var_positions if slot == lead_slot
        )
        order = self._probe_order(
            heads, bands, lead, plan.bound_slots if led else (lead_slot,)
        )
        if led:
            self._lead_ids = bands[lead]
            self._values = None
            probed = order[1:]
        else:
            self._lead_ids = None
            self._values = sorted(
                store.slot_values(*plan.const_ids, self._lead_position),
                key=lambda tid: (sort_key(tid), tid),
            )
            probed = order
        self._plans = [heads[i].plan for i in probed]
        self._width = ctx.table.width
        probe_cuts = [cuts[i] for i in probed]
        postings_ids = store.postings_ids

        def lookup(index: int, requirements: list[int | None]) -> Sequence[int]:
            return _weight_prefix(
                postings_ids(*requirements), weights, probe_cuts[index]
            )

        combos: list[tuple] = []
        project = join._project
        streams = len(heads)

        def visit(binding: list[int], used: tuple[int, ...]) -> None:
            # ``used`` holds one triple id per pattern in probe order.
            refs = [0] * streams
            for stream, tid in zip(order, used):
                refs[stream] = tid
            merged = tuple(binding)
            combos.append((project(merged), merged, refs))

        self._lookup = lookup
        self._visit = visit
        self._combos = combos
        self._tie = join.aggregator.tie
        self._next = 0
        self._ready: list[tuple] = []
        self._position = 0

    @staticmethod
    def _probe_order(heads, bands, lead: int, bound) -> list[int]:
        """The lead pattern, then greedily the pattern with the most
        positions bound so far (ties: the shorter band, stream order)."""
        bound = set(bound)
        rest = [i for i in range(len(heads)) if i != lead]
        order = [lead]

        def rank(i: int) -> tuple[int, int, int]:
            plan = heads[i].plan
            fixed = sum(1 for c in plan.const_ids if c is not None) + sum(
                1 for _position, slot in plan.var_positions if slot in bound
            )
            return (-fixed, len(bands[i]), i)

        while rest:
            chosen = min(rest, key=rank)
            rest.remove(chosen)
            order.append(chosen)
            bound.update(heads[chosen].plan.bound_slots)
        return order

    # -- handing out ---------------------------------------------------------

    def pending(self) -> tuple | None:
        """The band's next combination in answer order, ``(key, binding,
        triple id per stream)`` — its group computed if need be — or
        ``None`` once the band is spent."""
        while self._position >= len(self._ready):
            if not self._group():
                return None
        return self._ready[self._position]

    def take(self) -> None:
        """Consume :meth:`pending`'s combination."""
        self._position += 1

    def at_boundary(self) -> bool:
        """Whether every computed group has been handed out."""
        return self._position >= len(self._ready)

    def lead_key(self):
        """A lower bound on the next group's lead sort key (``None``: the
        band is spent)."""
        if self._values is not None:
            if self._next >= len(self._values):
                return None
            return self._sort_key(self._values[self._next])
        if self._next >= len(self._lead_ids):
            return None
        spo = self._store.backend.slot_ids(self._lead_ids[self._next])
        return self._sort_key(spo[self._lead_position])

    def fill(self, wanted: int) -> bool:
        """Compute groups until ``wanted`` combinations are ready or the
        band is spent; False — nothing handed out yet, so the join can
        still drain — once that reads more postings than draining the band
        would (:attr:`drain_reads`)."""
        while len(self._ready) - self._position < wanted:
            if self.reads > self.drain_reads or not self._group():
                break
        return self.reads <= self.drain_reads

    # -- groups ----------------------------------------------------------------

    def _group(self) -> bool:
        """Compute the next lead value's group; False when none is left."""
        sort_key = self._sort_key
        slot_ids = self._store.backend.slot_ids
        plans, lookup, visit = self._plans, self._lookup, self._visit
        position = self._lead_position
        start = self._next
        sorted_reads = 0
        seeds: list[tuple[list[int], tuple[int, ...]]] = []
        if self._values is not None:
            values = self._values
            if start >= len(values):
                return False
            lead = sort_key(values[start])
            stop = start + 1
            while stop < len(values) and sort_key(values[stop]) == lead:
                stop += 1
            for value in values[start:stop]:
                binding = [UNBOUND] * self._width
                binding[self._lead_slot] = value
                seeds.append((binding, ()))
        else:
            ids = self._lead_ids
            if start >= len(ids):
                return False
            plan = self._lead_plan
            check_repeats = plan.has_repeated_variable
            lead = sort_key(slot_ids(ids[start])[position])
            stop = start
            while stop < len(ids):
                tid = ids[stop]
                spo = slot_ids(tid)
                if sort_key(spo[position]) != lead:
                    break
                stop += 1
                if check_repeats and not plan.consistent(spo):
                    continue
                sorted_reads += 1
                binding = [UNBOUND] * self._width
                plan.bind_into(spo, binding)
                seeds.append((binding, (tid,)))
        random_reads = probe_combinations(plans, lookup, slot_ids, seeds, visit)
        self._next = stop
        self.reads += sorted_reads + random_reads
        stats = self._stats
        if stats is not None:
            stats.sorted_accesses += sorted_reads
            stats.random_accesses += random_reads
        combos = self._combos
        tie = self._tie
        # Every combination of the band scores the same: answer order is
        # tie-key order, ids breaking equal tie keys as the aggregator does.
        combos.sort(key=lambda combo: (tie(combo[0]), combo[0]))
        del self._ready[: self._position]
        self._position = 0
        self._ready.extend(combos)
        combos.clear()
        return True


class IdRankJoin:
    """N-ary HRJN-style rank join over id-space streams.

    Streams are consumed in descending score order; every new item is
    probed against the items already seen on the other streams, and
    complete, variable-compatible combinations become candidate answers.
    The upper bound on any answer not yet formed is::

        U = max_i ( rewriting_weight · c_0 · c_1 ⋯ ),  c_i = peek_i, c_j = cap_j (j ≠ i)

    where ``cap_j`` is stream j's best item score (its peek until it has
    emitted).  U and every combination score are multiplied left to right
    in stream order (:func:`~repro.scoring.answer_scoring.score_product`),
    so rounding never lifts a score above the bound that covers it.  Once
    the k-th best distinct answer beats U, no future combination can change
    the top-k and the join suspends — this, with lazy relaxation cursors,
    is what keeps TriniT from exploring the whole rewriting space.  Probes
    hash int tuples.

    **Settling inside a tied run.**  Posting lists are in (weight desc, tie
    key asc) order.  When the join has one stream, its next run comes from
    a posting cursor, and the query's name-sorted projection is that
    cursor's pattern variables in s→p→o order, a single-weight run arrives
    in exactly the order its answers rank — so the join also stops once
    the k-th answer strictly precedes the next posting in (score desc, tie
    key asc) order (:meth:`_tie_settled`), not only once the k-th score
    beats the bound, wherever that skips at least
    :attr:`TieFrontier.MIN_SKIP` postings of the list.  A projection that
    drops a variable does not settle: postings past the stop could add
    derivations to answers already ranked.  The stream may be a relaxation
    merge: the run is then its head cursor's, and every other cursor's
    cached peek must score strictly below it (:meth:`~repro.topk.
    incremental_merge.IncrementalMergeCursor.runner_up`).  :meth:`_settler`
    checks all of it once per run.

    **Settling a tied band by probes.**  A join over several streams that
    starts with every stream head at its weight has one *top band*: every
    combination of postings at those weights scores the product of the
    heads, the best any combination can.  Where the band is exactly the
    streams' weight prefixes (:meth:`_open_band`: lone posting cursors or
    merges headed strictly, no lighter weight rounding into the band, a
    projection keeping every variable, a list long enough to be worth it
    and a probe cheaper than the drain), :class:`BandProbe` enumerates it
    in answer order by random access, and the join stops once the k-th
    answer strictly precedes the next combination; a page resumes it
    mid-group.  A band spent before rank k settles is consumed from the
    streams as seen items (:meth:`_absorb`) and the join drains on below
    it.  Every other join reads a tied run to its end.
    """

    def __init__(
        self,
        query: Query,
        streams: list,
        ctx: IdExecutionContext,
        *,
        rewriting_weight: float = 1.0,
        rewriting: tuple[RuleApplication, ...] = (),
        aggregator: IdAggregator,
        tracker: DistinctTopKTracker,
        exhaustive: bool = False,
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
        self._frontier = TieFrontier()
        # Only a join over one stream may settle inside a tied run; a join
        # over several whose projection keeps every variable may settle its
        # top tied band by probes (BandProbe): ``None`` until the first run
        # decides, then the probe or False.
        self._may_settle = not exhaustive and len(streams) == 1
        self._band: BandProbe | bool | None = (
            None
            if not exhaustive
            and len(streams) > 1
            and set(query.projection) == set().union(*all_vars)
            else False
        )

    @staticmethod
    def _head_of(stream) -> IdPostingCursor | None:
        """The posting cursor ``stream``'s next run comes from (``None``:
        a sub-join, or spent); for a relaxation merge, its exact head."""
        if isinstance(stream, IdSubJoinCursor):
            return None
        if isinstance(stream, IdPostingCursor):
            return stream
        # Not a cursor of this module: a relaxation merge.
        head = stream.exact_head()
        return head if isinstance(head, IdPostingCursor) else None

    def _settler(self, stream) -> tuple[IdPostingCursor, float] | None:
        """The posting cursor, with its head score, whose next tied run in
        ``stream`` this drain may stop inside; ``None`` if it may not.

        The run must arrive in answer order — the cursor's variables, in
        s→p→o order, are the name-sorted projection, so the projection
        keeps every one of them — and the stop must skip enough of the
        list.  A dropped variable would let postings past the stop add
        derivations to answers already ranked.  When the stream merges
        relaxations, the run must also be the last thing that scores its
        score: every other cursor's peek scores strictly lower.
        """
        if not self._may_settle:
            return None
        head = self._head_of(stream)
        if not (
            head is not None
            and head.plan.bound_slots == self._projection_slots
            and self._frontier.worth(head.list_length, self.tracker.k)
        ):
            return None
        score = head.peek()
        weight = self.rewriting_weight
        runner_up = None if stream is head else stream.runner_up()
        if runner_up is not None and score_product(
            weight, (runner_up,)
        ) >= score_product(weight, (score,)):
            return None
        return head, score

    def _open_band(self) -> "BandProbe | bool":
        """The probe over this join's top tied band, or False where it
        would not give the drain's answers or would read more.

        Before anything is consumed, every unseen combination scores at
        most the product of the stream heads, ``s``.  The probe applies
        when the projection keeps every pattern variable (one combination
        per answer), every stream's next run comes from a posting cursor
        with nothing else in the stream scoring as high, no lighter
        posting's score can round a combination to ``s`` (the guard of
        :meth:`_tie_settled`), the longest list passes
        :meth:`TieFrontier.worth`, and the band's first ``k`` answers cost
        no more reads than draining the band (:meth:`BandProbe.fill`).
        """
        heads = []
        for stream in self.streams:
            head = self._head_of(stream)
            if head is None or head.peek() is None:
                return False
            heads.append(head)
        projection = self._projection_slots
        if set(projection) != {slot for head in heads for slot in head.plan.bound_slots}:
            return False
        if not self._frontier.worth(
            max(head.list_length for head in heads), self.tracker.k
        ):
            return False
        weight = self.rewriting_weight
        scores = [head.peek() for head in heads]
        band_score = score_product(weight, scores)
        for index, (stream, head) in enumerate(zip(self.streams, heads)):
            lower = head.score_below(head.head_run(1).refs[0])
            runner_up = None if stream is head else stream.runner_up()
            if runner_up is not None and (lower is None or runner_up > lower):
                lower = runner_up
            if lower is not None:
                factors = scores.copy()
                factors[index] = lower
                if score_product(weight, factors) >= band_score:
                    return False
        lead_slot = projection[0]
        led = [i for i, head in enumerate(heads) if head.plan.bound_slots[0] == lead_slot]
        binds = led or [i for i, head in enumerate(heads) if lead_slot in head.plan.bound_slots]
        lead = min(binds, key=lambda i: (heads[i].list_length, i))
        band = BandProbe(self, heads, scores, lead, bool(led))
        return band if band.fill(self.tracker.k) else False

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

    def _settled(self, bound: float) -> bool:
        """Whether the k-th best score already rules out ``bound``."""
        tracker = self.tracker
        return tracker.is_full and self._beats(tracker.threshold, bound)

    def _beats(self, threshold: float, bound: float) -> bool:
        """Whether a full top-k at ``threshold`` rules out ``bound``."""
        return threshold > bound

    def _tie_settled(self, emitted: float, cursor, tid: int, binding):
        """Whether the k-th answer — scoring ``emitted``, like posting
        ``tid`` — strictly precedes ``tid`` in (score desc, tie key asc)
        order, for an answer-ordered stream.

        Returns :data:`_SETTLED`, or the posting's tie key while it can
        still rank among the k best, or ``None`` where the rule does not
        apply: a lighter posting would score ``emitted`` too (its tie keys
        restart below the run's).
        """
        tracker = self.tracker
        below = cursor.score_below(tid)
        if below is not None and score_product(self.rewriting_weight, (below,)) == emitted:
            return None
        aggregator = self.aggregator
        frontier = self._frontier
        kth = frontier.kth(
            aggregator.version, emitted, tracker.k, aggregator.tied_frontier
        )
        tie = aggregator.tie(self._project(binding), frontier.named)
        return _SETTLED if kth is not None and kth < tie else tie

    # -- combination formation ------------------------------------------------

    def _emit(
        self, merged: Sequence[int], items: tuple, score: float | None = None
    ) -> None:
        """Record the answer of one complete combination: ``items`` in
        stream order, ``merged`` their bindings merged, ``score`` their
        score when the caller already multiplied it."""
        if score is None:
            score = score_product(self.rewriting_weight, map(_SCORE, items))
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
        settling: bool,
    ) -> int:
        """Take up to ``limit`` items of stream ``index``'s head run;
        return how many; ``settling``: whether the drain may stop inside
        the run (:meth:`_settler`).

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
        # Every combination one stream's run forms scores the same.
        emitted = score_product(self.rewriting_weight, (score,))
        # Rank k can fall inside a run this drain may settle in only while
        # the k-th best score is the run's; that changes only when an offer
        # moves the tracked top-k.
        tracker = self.tracker
        at_threshold = (
            settling and tracker.is_full and tracker.threshold == emitted
        )
        frontier = self._frontier
        admitting = settling and frontier.tracks(emitted)
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
                    if tracker.is_full:
                        threshold = tracker.threshold
                        if self._beats(threshold, bound):
                            return position
                        at_threshold = settling and threshold == emitted
                if should_stop is not None and should_stop():
                    return position
            binding = bindings[position]
            tie = None
            if at_threshold:
                tie = self._tie_settled(emitted, source, refs[position], binding)
                if tie is _SETTLED:
                    return position
                admitting = frontier.tracks(emitted)
            item = (binding, score, slots, source, refs[position])
            if not others:
                # One stream: the item is the combination (a lone stream
                # never repeats a binding — cursors read distinct triples,
                # merges drop the bindings they already emitted).
                self._emit(binding, (item,), emitted)
                if admitting:
                    # Keep the frontier current with the answers this join
                    # adds at its score, so the next page need not rebuild.
                    aggregator = self.aggregator
                    if tie is None:
                        tie = aggregator.tie(self._project(binding), frontier.named)
                    frontier.admit(aggregator.version, emitted, tie)
                continue
            if binding in seen:
                continue  # merged streams dedupe already; double guard
            seen[binding] = item
            index_map.setdefault(key_of(binding), []).append(item)
            if joinable:
                combo[index] = item
                self._extend(others, 0, list(binding), combo)
        return limit

    # -- main loop ------------------------------------------------------------

    def _run_band(
        self, band: BandProbe, should_stop: Callable[[], bool] | None
    ) -> bool:
        """Hand out the band in answer order until the k-th answer strictly
        precedes the next one (False: suspended, resumable mid-group) or
        the band is spent (True)."""
        tracker = self.tracker
        aggregator = self.aggregator
        frontier = self._frontier
        score = band.score
        lead_name = aggregator.projection[0].name
        while True:
            kth = None
            if tracker.is_full:
                threshold = tracker.threshold
                if threshold > score:
                    return False
                if threshold == score:
                    kth = frontier.kth(
                        aggregator.version, score, tracker.k, aggregator.tied_frontier
                    )
            if kth is not None and band.at_boundary():
                # The next group ranks after every answer of this one: its
                # lead sort key alone may settle the page.
                lead = band.lead_key()
                if lead is None:
                    return True
                if kth < (((lead_name, lead),) if frontier.named else (lead,)):
                    return False
            combo = band.pending()
            if combo is None:
                return True
            key, merged, refs = combo
            tie = None
            if kth is not None:
                tie = aggregator.tie(key, frontier.named)
                if kth < tie:
                    return False
            if should_stop is not None and should_stop():
                return False
            band.take()
            items = tuple(
                (merged, *source, ref) for source, ref in zip(band.sources, refs)
            )
            self._emit(merged, items, score)
            if frontier.tracks(score):
                if tie is None:
                    tie = aggregator.tie(key, frontier.named)
                frontier.admit(aggregator.version, score, tie)

    def _absorb(self, band: BandProbe) -> bool:
        """After the band: consume every stream's head run at its band
        score as seen items, forming nothing — the band formed all their
        combinations.  True when nothing is left to form."""
        if band.whole:
            return True
        for index, stream in enumerate(self.streams):
            score = band.scores[index]
            seen = self._seen[index]
            index_map = self._join_index[index]
            key_of = self._key_of[index]
            while (run := stream.head_run()) is not None and run.score == score:
                for binding, ref in zip(run.bindings, run.refs):
                    item = (binding, score, run.slots, run.source, ref)
                    seen[binding] = item
                    index_map.setdefault(key_of(binding), []).append(item)
                stream.advance(len(run.bindings))
            self._best[index] = score
        return False

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

        Termination requires the k-th best score to *strictly* beat the
        upper bound: combinations tying the threshold are still formed,
        which makes the surviving top-k independent of where the
        computation was split — the invariant resumable streams are built
        on.
        """
        streams = self.streams
        if self._band is not False:
            if self._settled(self.upper_bound()):
                return False
            if self._band is None:
                self._band = self._open_band()
            band = self._band
            if band:
                if not self._run_band(band, should_stop):
                    return False
                self._band = False
                if self._absorb(band):
                    return True
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
            # A run in answer order is bound only as far as the page can
            # use it: the answers the top-k still lacks, plus the posting
            # that settles it.
            tracker = self.tracker
            settler = self._settler(stream)
            run = stream.head_run(
                None if settler is None else max(1, tracker.k - len(tracker)) + 1
            )
            if run is None:
                continue
            if self._best[index] is None:
                self._best[index] = run.score
            # An optimistic head (an unrefined relaxation) was refined by
            # head_run: the run scores lower than the peek the decisions
            # above rest on, so they hold for its first item only.
            limit = len(run.bindings) if run.score == peeks[index] else 1
            # The run a merge handed out may not be the one checked: it
            # skips a run whose bindings were all emitted.
            settling = settler == (run.source, run.score)
            taken = self._consume(run, index, limit, bound, should_stop, settling)
            stream.advance(taken)
            if taken < limit:
                return False
