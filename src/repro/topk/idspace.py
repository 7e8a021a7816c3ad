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
* :class:`IdRankJoin` probes and merges bindings as int tuples,
* :class:`IdAnswerAggregator` collects id-space derivations and decodes to
  :class:`~repro.core.results.Answer` objects only at materialisation.

Semantics are *identical* to the term-space reference path
(:mod:`repro.topk.cursors` / :mod:`repro.topk.rank_join`): same enumeration
orders, same float arithmetic, same tie-breaks — which the equivalence suite
(`tests/topk/test_idspace_equivalence.py`) asserts answer-by-answer.
"""

from __future__ import annotations

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
    call — ``peek`` then reads a precomputed score and ``pop``
    materialises an :class:`IdMatch` only for heads the rank join actually
    consumes.  Block granularity follows ``TripleStore.block_size``
    (``EngineConfig.block_size``): ``None`` adapts — the cursor scores
    exactly what each batched pull of the segment merge materialised —
    while ``1`` selects the original per-item path, retained as the
    byte-identical reference the property suite pins the block path
    against.  Emitted matches and scores are identical in both modes; only
    the ``blocks_decoded`` counter differs.
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

    def pop(self) -> IdMatch | None:
        score = self.peek()
        if score is None:
            return None
        if self._use_blocks:
            tid = self._block_tids[self._block_pos]
            self._block_pos += 1
        else:
            tid = self._ids[self._position]
            self._position += 1
            self._head_score = None
        if self.ctx.stats is not None:
            self.ctx.stats.sorted_accesses += 1
        if self._template is None:
            self._template = [UNBOUND] * self.ctx.table.width
        out = self._template.copy()
        bound = self.plan.bind_into(self._slot_ids(tid), out)
        assert bound  # _current guarantees repeated-var consistency
        info = IdMatchInfo(
            self.pattern, (tid,), score, self.rule, self.token_matches
        )
        return IdMatch(tuple(out), score, info, self.plan.bound_slots)


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
        "_items",
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
        self._items: list[IdMatch] | None = None
        self._position = 0
        self._bound: float | None = None

    def _upper_bound(self) -> float:
        if self._bound is None:
            bounds = [self.ctx.scorer.max_score(p) for p in self.patterns]
            self._bound = self.multiplier * (min(bounds) if bounds else 0.0)
        return self._bound

    def _materialize(self) -> None:
        if self._items is not None:
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

        decode = store.dictionary.decode
        template = [UNBOUND] * width
        items = []
        for key, (score, used) in best.items():
            out = template.copy()
            for slot, value in zip(interface_slots, key):
                out[slot] = value
            total = self.multiplier * score
            items.append(
                IdMatch(
                    tuple(out),
                    total,
                    IdMatchInfo(
                        # The first replacement pattern stands for the whole
                        # sub-join in explanations; all matched ids are kept.
                        self.patterns[0],
                        used,
                        total,
                        self.rule,
                        self.token_matches,
                    ),
                    interface_slots,
                )
            )
        # Ties break on the decoded terms' lexical order — identical to the
        # term-space reference, which sorts BindingKey pairs.  Decoding is
        # deferred to tied runs only.
        sort_descending_with_decoded_ties(
            items,
            lambda m: m.score,
            lambda m: tuple(
                decode(m.binding[s]).sort_key()
                for s in interface_slots
                if m.binding[s] != UNBOUND
            ),
        )
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

    def pop(self) -> IdMatch | None:
        self._materialize()
        assert self._items is not None
        if self._position >= len(self._items):
            return None
        item = self._items[self._position]
        self._position += 1
        return item


def sort_descending_with_decoded_ties(
    items: list, score_of, tie_key, limit: int | None = None
) -> None:
    """Sort ``items`` by (score desc, tie_key asc), computing ``tie_key``
    only inside runs of equal score.

    Tie keys in id-space require decoding term ids back to terms; scores
    rarely tie, so resolving ties lazily keeps materialisation free of
    wholesale decoding while producing the byte-identical order of a full
    ``sort(key=(-score, tie_key))`` for the first ``limit`` items (all of
    them when ``limit`` is None) — runs that start at or beyond the limit
    can never surface and are left score-ordered only.
    """
    items.sort(key=lambda item: -score_of(item))
    n = len(items)
    cut = n if limit is None else min(limit, n)
    start = 0
    while start < cut:
        stop = start + 1
        score = score_of(items[start])
        while stop < n and score_of(items[stop]) == score:
            stop += 1
        if stop - start > 1:
            items[start:stop] = sorted(items[start:stop], key=tie_key)
        start = stop


class IdAnswerAggregator:
    """Max-score answer dedup over id-space projection keys.

    Keys are tuples of term ids aligned to the query's name-sorted
    projection variables (``UNBOUND`` where a rewriting left a projection
    variable unbound), so keys from different rewritings of the same query
    always agree.  Decoding to :class:`Answer` happens once, at
    :meth:`ranked_answers`.
    """

    def __init__(self, projection: tuple[Variable, ...]):
        self.projection = projection
        self._best: dict[tuple[int, ...], tuple[float, IdDerivation]] = {}
        self._counts: dict[tuple[int, ...], int] = {}

    def __len__(self) -> int:
        return len(self._best)

    def add(self, key: tuple[int, ...], score: float, derivation: IdDerivation) -> float:
        """Record one derivation; return the key's best known score."""
        self._counts[key] = self._counts.get(key, 0) + 1
        existing = self._best.get(key)
        if existing is None or score > existing[0]:
            self._best[key] = (score, derivation)
            return score
        return existing[0]

    def best_scores(self) -> list[tuple[tuple[int, ...], float]]:
        """Every distinct key with its best score (tracker rebuilds)."""
        return [(key, entry[0]) for key, entry in self._best.items()]

    def ranked_answers(
        self, store: TripleStore, limit: int | None = None, start: int = 0
    ) -> list[Answer]:
        """Decode and rank: (score desc, binding lexical) — deterministic.

        Only the answers that make the cut are decoded: entries are ranked
        by score first (pure float/int work), equal-score runs intersecting
        the top-``limit`` are tie-broken on their decoded terms, and
        derivations materialise for the returned answers alone.  ``start``
        skips decoding a settled prefix (streaming pagination returns only
        the window ``[start:limit]`` — ranks the caller already holds are
        never re-decoded).
        """
        decode = store.dictionary.decode
        projection = self.projection

        def tie_key(entry: tuple[tuple[int, ...], float, IdDerivation]) -> tuple:
            key = entry[0]
            return tuple(
                (var.name, decode(tid).sort_key())
                for var, tid in zip(projection, key)
                if tid != UNBOUND
            )

        entries = [
            (key, score, derivation)
            for key, (score, derivation) in self._best.items()
        ]
        sort_descending_with_decoded_ties(
            entries, lambda entry: entry[1], tie_key, limit
        )
        cut = len(entries) if limit is None else min(limit, len(entries))

        answers = []
        for key, score, derivation in entries[start:cut]:
            binding = tuple(
                (var, decode(tid))
                for var, tid in zip(projection, key)
                if tid != UNBOUND
            )
            answers.append(
                Answer(binding, score, derivation.decode(store), self._counts[key])
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
        self._width = table.width
        self._seen: list[dict[tuple[int, ...], IdMatch]] = [{} for _ in streams]
        self._best: list[float | None] = [None] * len(streams)
        self._join_index: list[dict[tuple[int, ...], list[IdMatch]]] = [
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
            product = peek
            for j, cap in enumerate(caps):
                if j != i:
                    product *= cap
            bound = max(bound, product)
        return bound * self.rewriting_weight

    # -- combination formation ------------------------------------------------

    def _emit(self, items: list[IdMatch]) -> None:
        """Form the answer from one complete combination and record it."""
        merged = [UNBOUND] * self._width
        score = self.rewriting_weight
        for item in items:
            score *= item.score
            binding = item.binding
            for slot in item.slots:
                merged[slot] = binding[slot]
        projected = tuple(merged[s] for s in self._projection_slots)
        derivation = IdDerivation(
            matches=tuple(item.info for item in items),
            rewriting=self.rewriting,
            rewriting_weight=self.rewriting_weight,
        )
        if self.ctx.stats is not None:
            self.ctx.stats.candidates_formed += 1
        best = self.aggregator.add(projected, score, derivation)
        self.tracker.offer(projected, best)

    def _probe(self, new_item: IdMatch, stream_index: int) -> None:
        """Enumerate all combinations of the new item with seen items."""
        others = [j for j in range(len(self.streams)) if j != stream_index]
        # Visit scarcer streams first: fails fast on empty/selective ones.
        others.sort(key=lambda j: len(self._seen[j]))
        if any(not self._seen[j] for j in others):
            return

        combo: list[IdMatch | None] = [None] * len(self.streams)
        combo[stream_index] = new_item

        def candidates(j: int, assigned: list[int]) -> list[IdMatch]:
            join_slots = self._join_slots[j]
            if join_slots and all(assigned[s] != UNBOUND for s in join_slots):
                key = tuple(assigned[s] for s in join_slots)
                return self._join_index[j].get(key, [])
            return list(self._seen[j].values())

        def backtrack(position: int, assigned: list[int]) -> None:
            if position == len(others):
                self._emit([item for item in combo if item is not None])
                return
            j = others[position]
            for item in candidates(j, assigned):
                binding = item.binding
                compatible = True
                for slot in item.slots:
                    current = assigned[slot]
                    if current != UNBOUND and current != binding[slot]:
                        compatible = False
                        break
                if not compatible:
                    continue
                extended = assigned.copy()
                for slot in item.slots:
                    extended[slot] = binding[slot]
                combo[j] = item
                backtrack(position + 1, extended)
            combo[j] = None

        backtrack(0, list(new_item.binding))

    def _index_key(self, item: IdMatch, stream_index: int) -> tuple[int, ...]:
        binding = item.binding
        return tuple(binding[s] for s in self._join_slots[stream_index])

    # -- main loop ------------------------------------------------------------

    def run(self, should_stop: Callable[[], bool] | None = None) -> bool:
        """Consume streams until exhaustion or threshold termination.

        Returns True when the join is *exhausted* — it can never emit
        another combination — and False when it merely suspended (threshold
        termination or ``should_stop``).  A suspended join is resumable:
        all state lives on the instance, so calling :meth:`run` again
        continues exactly where it left off (the driver does this when a
        stream's consumer asks for more answers and the threshold drops).

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
            item = streams[index].pop()
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
