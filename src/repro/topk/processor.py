"""The adaptive top-k query processor.

Pulls together the whole pipeline of Sections 3–4 of the paper:

1. **Rewriting enumeration** — multi-pattern relaxation rules (granularity
   repair and other rules whose original spans several patterns) are applied
   at the query level by the :class:`~repro.relax.rewriting.RewriteEngine`,
   best-first by derivation weight, lazily: a rewriting is never even built
   once its weight cannot beat the current k-th answer.
2. **Per-pattern streams** — each pattern of a rewriting becomes an
   :class:`~repro.topk.incremental_merge.IncrementalMergeCursor` over (a) the
   pattern itself, token-expanded against the store's phrases, and (b) its
   single-pattern relaxations (predicate rewrites → posting cursors; chain
   expansions → lazily materialised sub-join cursors).
3. **Rank join** — the merged streams are joined with threshold termination
   shared across rewritings.
4. **Aggregation** — answers deduplicate by projection binding, keeping the
   maximal score over all derivation sequences.

Streams are described once as *cursor specs* (pattern, multiplier, rule,
token expansions) and then lowered onto one of two execution cores selected
by ``config.execution``:

* ``"idspace"`` (default) — the dictionary-encoded hot path of
  :mod:`repro.topk.idspace`: bindings are int tuples, scores come straight
  off the weight column, decoding to :class:`Term` happens only when the
  final :class:`AnswerSet` materialises.
* ``"termspace"`` — the original object-based cursors
  (:mod:`repro.topk.cursors`); retained as the executable reference
  semantics that the equivalence suite and the id-space benchmark compare
  against.

Setting ``config.exhaustive = True`` disables every early-termination check,
yielding reference semantics (used by correctness tests and as the
efficiency-comparison baseline).

Control flow lives in the resumable :class:`~repro.topk.driver.TopKDriver`:
:meth:`TopKProcessor.query` drains a fresh driver eagerly to ``k``, while
:meth:`TopKProcessor.driver` hands the suspendable machine to streaming
consumers (``engine.stream``) that advance it incrementally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.query import Query
from repro.core.results import AnswerSet, QueryStats
from repro.core.terms import TextToken, Variable
from repro.core.triples import TriplePattern
from repro.errors import TopKError
from repro.relax.rewriting import RewriteEngine
from repro.relax.rules import RelaxationRule, RuleSet
from repro.scoring.language_model import PatternScorer, ScoringConfig
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatch, TokenMatcher
from repro.topk.cursors import Cursor, MaterializedJoinCursor, PostingCursor
from repro.topk.idspace import (
    IdExecutionContext,
    IdPostingCursor,
    IdSubJoinCursor,
)
from repro.topk.incremental_merge import IncrementalMergeCursor

if TYPE_CHECKING:  # pragma: no cover - cycle guard (driver imports us)
    from repro.topk.driver import TopKDriver

#: Valid values of :attr:`ProcessorConfig.execution`.
EXECUTION_MODES = ("idspace", "termspace")


@dataclass(frozen=True)
class ProcessorConfig:
    """Knobs of the top-k processor.

    Attributes
    ----------
    k:
        Default number of answers when the caller does not override.
    max_rewrite_depth, max_rewrites, min_rewriting_weight:
        Budgets of the query-level rewrite enumeration.
    max_relaxations_per_pattern:
        Cap on relaxation cursors merged into one pattern stream (highest
        weight first).
    max_token_expansions:
        Cap on fuzzy phrase expansions per token slot.
    min_cursor_multiplier:
        Cursors whose total attenuation falls below this are dropped.
    use_relaxation, use_token_expansion:
        Ablation switches.
    pattern_level_merge:
        When True (paper behaviour) single-pattern rules are merged into
        pattern streams; when False they are routed through the query-level
        rewrite enumeration instead (ablation of incremental merging).
    exhaustive:
        Disable all early termination (reference evaluation).
    execution:
        Execution core: "idspace" (dictionary-encoded hot path, default) or
        "termspace" (the original Term-object reference path).
    """

    k: int = 10
    max_rewrite_depth: int = 2
    max_rewrites: int = 200
    min_rewriting_weight: float = 0.05
    max_relaxations_per_pattern: int = 8
    max_token_expansions: int = 10
    min_cursor_multiplier: float = 0.01
    use_relaxation: bool = True
    use_token_expansion: bool = True
    pattern_level_merge: bool = True
    exhaustive: bool = False
    unknown_resource_fallback: bool = True
    unknown_resource_penalty: float = 0.9
    execution: str = "idspace"

    def __post_init__(self):
        if self.k < 1:
            raise TopKError(f"k must be >= 1, got {self.k}")
        if self.max_rewrite_depth < 0:
            raise TopKError("max_rewrite_depth must be >= 0")
        if not 0.0 <= self.min_rewriting_weight <= 1.0:
            raise TopKError("min_rewriting_weight must be in [0, 1]")
        if self.execution not in EXECUTION_MODES:
            raise TopKError(
                f"execution must be one of {EXECUTION_MODES}, got {self.execution!r}"
            )


@dataclass(frozen=True)
class PostingSpec:
    """One posting-cursor stream: a concrete pattern and its attenuation."""

    pattern: TriplePattern
    multiplier: float = 1.0
    rule: RelaxationRule | None = None
    token_matches: tuple[TokenMatch, ...] = ()


@dataclass(frozen=True)
class SubJoinSpec:
    """One lazily-materialised sub-join stream (multi-pattern relaxation)."""

    patterns: tuple[TriplePattern, ...]
    interface_vars: tuple[Variable, ...]
    multiplier: float = 1.0
    rule: RelaxationRule | None = None


class TopKProcessor:
    """Answer queries over one frozen store with relaxation and top-k pruning."""

    def __init__(
        self,
        store: TripleStore,
        *,
        rules: RuleSet | None = None,
        scorer: PatternScorer | None = None,
        matcher: TokenMatcher | None = None,
        config: ProcessorConfig | None = None,
        scoring: ScoringConfig | None = None,
    ):
        if not store.is_frozen:
            raise TopKError("TopKProcessor requires a frozen store")
        self.store = store
        self.rules = rules if rules is not None else RuleSet()
        self.scorer = scorer if scorer is not None else PatternScorer(store, scoring)
        self.matcher = matcher if matcher is not None else TokenMatcher(store)
        self.config = config if config is not None else ProcessorConfig()
        self._rules_by_predicate: dict | None = None

    # -- rule index ------------------------------------------------------------

    def _is_translation_rule(self, rule: RelaxationRule) -> bool:
        """True when the rule's original predicate has no store matches.

        Such a rule (e.g. the alias ``worksFor → affiliation`` for a
        predicate the user invented) does not *relax* an evaluable pattern —
        it *translates* the query into the store's vocabulary.  Translations
        must run at the query-rewriting level so that the translated pattern
        can in turn be relaxed by pattern-level rules (``affiliation →
        'works at'``); keeping them at pattern level would cap relaxation
        composition at depth one exactly where depth two is essential.
        """
        if not rule.is_single_pattern:
            return False
        predicate = rule.original[0].p
        return (
            predicate.is_constant
            and self.store.dictionary.id_of(predicate) is None
        )

    def _single_rule_index(self) -> dict:
        """Single-pattern rules indexed by their original's predicate term.

        Rules with a variable predicate (rare) are indexed under ``None`` and
        tried against every pattern.  Translation rules (unknown original
        predicate) are excluded — they run at the rewriting level.
        """
        if self._rules_by_predicate is None:
            index: dict = {}
            for rule in self.rules.single_pattern_rules():
                if self._is_translation_rule(rule):
                    continue
                predicate = rule.original[0].p
                key = None if predicate.is_variable else predicate
                index.setdefault(key, []).append(rule)
            self._rules_by_predicate = index
        return self._rules_by_predicate

    def _rules_for_pattern(self, pattern: TriplePattern) -> list[RelaxationRule]:
        index = self._single_rule_index()
        candidates = list(index.get(None, ()))
        if pattern.p.is_constant:
            candidates.extend(index.get(pattern.p, ()))
        candidates.sort(key=lambda r: (-r.weight, r.n3()))
        return candidates

    # -- stream planning ------------------------------------------------------

    def _effective_pattern(self, pattern: TriplePattern) -> tuple[TriplePattern, float]:
        """Handle vocabulary mismatch: unknown resources fall back to tokens.

        A constant resource the store has never seen (the user guessed a
        name like ``hasAdvisor``) cannot match anything exactly; with the
        fallback enabled its camel-case surface words become a text token,
        which fuzzy expansion can then translate into stored phrases or
        canonical resources — at a small penalty.
        """
        if not (
            self.config.unknown_resource_fallback
            and self.config.use_token_expansion
        ):
            return pattern, 1.0
        from repro.core.terms import Resource
        from repro.util.text import camel_to_words

        terms = list(pattern.terms())
        penalty = 1.0
        for slot, term in enumerate(terms):
            if (
                isinstance(term, Resource)
                and self.store.dictionary.id_of(term) is None
            ):
                terms[slot] = TextToken(camel_to_words(term.name))
                penalty *= self.config.unknown_resource_penalty
        if penalty == 1.0:
            return pattern, 1.0
        return TriplePattern(*terms), penalty

    def _expand_pattern(
        self,
        pattern: TriplePattern,
        *,
        multiplier: float,
        rule: RelaxationRule | None,
    ) -> list[PostingSpec]:
        """Posting specs for a pattern, fuzzy-expanding token constants."""
        pattern, penalty = self._effective_pattern(pattern)
        multiplier *= penalty
        token_slots = [
            (slot, term)
            for slot, term in enumerate(pattern.terms())
            if isinstance(term, TextToken)
        ]
        if not token_slots or not self.config.use_token_expansion:
            return [PostingSpec(pattern, multiplier, rule)]
        options = []
        for slot, term in token_slots:
            matches = self.matcher.matches(term, slot)
            options.append(matches[: self.config.max_token_expansions])
        specs: list[PostingSpec] = []
        for combo in itertools.product(*options):
            total = multiplier
            terms = list(pattern.terms())
            for (slot, _term), match in zip(token_slots, combo):
                total *= match.similarity
                terms[slot] = match.token
            if total < self.config.min_cursor_multiplier:
                continue
            specs.append(
                PostingSpec(TriplePattern(*terms), total, rule, tuple(combo))
            )
        return specs

    def _stream_specs(
        self,
        pattern: TriplePattern,
        query: Query,
        fresh_names,
    ) -> list[PostingSpec | SubJoinSpec]:
        """The merged stream of one pattern, as an ordered list of specs.

        The original pattern's (token-expanded) posting specs come first,
        then the pattern-level relaxations, weight-descending and capped —
        exactly the cursor order both execution cores merge.
        """
        base: list[PostingSpec | SubJoinSpec] = list(
            self._expand_pattern(pattern, multiplier=1.0, rule=None)
        )
        relaxations: list[tuple[float, int, PostingSpec | SubJoinSpec]] = []
        if self.config.use_relaxation and self.config.pattern_level_merge:
            interface = self._interface_vars(pattern, query)
            order = itertools.count()
            for rule in self._rules_for_pattern(pattern):
                if rule.weight < self.config.min_cursor_multiplier:
                    continue
                for _positions, theta in rule.unify((pattern,)):
                    rename = {
                        var.name: next(fresh_names)
                        for var in rule.fresh_variables()
                    }
                    replacement = tuple(
                        p.rename_variables(rename).substitute(theta)
                        for p in rule.replacement
                    )
                    replacement_vars = {
                        v for p in replacement for v in p.variables()
                    }
                    if not interface <= replacement_vars:
                        continue  # relaxation would hide a visible variable
                    if replacement == (pattern,):
                        continue  # no-op
                    if len(replacement) == 1:
                        for spec in self._expand_pattern(
                            replacement[0],
                            multiplier=rule.weight,
                            rule=rule,
                        ):
                            relaxations.append((rule.weight, next(order), spec))
                    else:
                        spec = SubJoinSpec(
                            replacement,
                            tuple(sorted(interface, key=lambda v: v.name)),
                            multiplier=rule.weight,
                            rule=rule,
                        )
                        relaxations.append((rule.weight, next(order), spec))
        relaxations.sort(key=lambda entry: (-entry[0], entry[1]))
        kept = [
            spec
            for _weight, _order, spec in relaxations[
                : self.config.max_relaxations_per_pattern
            ]
        ]
        return base + kept

    def _holds_in_store(self, pattern: TriplePattern) -> bool:
        """Condition check for rule application: does this fact hold?"""
        return self.store.cardinality(pattern) > 0

    @staticmethod
    def _interface_vars(pattern: TriplePattern, query: Query) -> set[Variable]:
        """Variables of ``pattern`` the rest of the query can observe."""
        own = set(pattern.variables())
        visible = set(query.projection)
        for other in query.patterns:
            if other is not pattern:
                visible |= set(other.variables())
        return own & visible

    # -- spec lowering ------------------------------------------------------

    def _term_cursor(self, spec: PostingSpec | SubJoinSpec, stats: QueryStats) -> Cursor:
        if isinstance(spec, PostingSpec):
            return PostingCursor(
                self.store,
                self.scorer,
                spec.pattern,
                multiplier=spec.multiplier,
                rule=spec.rule,
                token_matches=spec.token_matches,
                stats=stats,
            )
        return MaterializedJoinCursor(
            self.store,
            self.scorer,
            spec.patterns,
            spec.interface_vars,
            multiplier=spec.multiplier,
            rule=spec.rule,
            stats=stats,
        )

    @staticmethod
    def _id_cursor(spec: PostingSpec | SubJoinSpec, ctx: IdExecutionContext):
        if isinstance(spec, PostingSpec):
            return IdPostingCursor(
                ctx,
                spec.pattern,
                multiplier=spec.multiplier,
                rule=spec.rule,
                token_matches=spec.token_matches,
            )
        return IdSubJoinCursor(
            ctx,
            spec.patterns,
            spec.interface_vars,
            multiplier=spec.multiplier,
            rule=spec.rule,
        )

    @staticmethod
    def _merge(cursors: list[Cursor], stats: QueryStats) -> Cursor:
        if len(cursors) == 1:
            return cursors[0]
        return IncrementalMergeCursor(cursors, stats)

    # -- querying ------------------------------------------------------------

    def _make_rewriter(self) -> RewriteEngine:
        if self.config.use_relaxation:
            rule_filter = (
                (
                    lambda rule: not rule.is_single_pattern
                    or self._is_translation_rule(rule)
                )
                if self.config.pattern_level_merge
                else None
            )
            return RewriteEngine(
                self.rules,
                max_depth=self.config.max_rewrite_depth,
                max_rewrites=self.config.max_rewrites,
                min_weight=self.config.min_rewriting_weight,
                rule_filter=rule_filter,
                condition_checker=self._holds_in_store,
            )
        return RewriteEngine(RuleSet(), max_depth=0, max_rewrites=1)

    def query(self, query: Query, k: int | None = None) -> AnswerSet:
        """Evaluate ``query`` and return its top-k answer set.

        Eager wrapper over the resumable :class:`~repro.topk.driver.
        TopKDriver`: one drain to the settled top-k, then materialise.  The
        driver settles score ties at the k boundary before stopping, so the
        returned list is the true ranking prefix — identical to what the
        same ``k`` reached through any sequence of ``AnswerStream.next_k``
        calls.
        """
        k = k if k is not None else (query.limit or self.config.k)
        if k < 1:
            raise TopKError(f"k must be >= 1, got {k}")
        return self.driver(query).advance(k).answer_set(k)

    def driver(self, query: Query) -> "TopKDriver":
        """A fresh resumable execution driver for ``query``.

        The driver is the streaming entry point: advance it incrementally
        (:class:`~repro.core.results.AnswerStream` does) instead of paying
        for a full top-k per pagination step.
        """
        from repro.topk.driver import TopKDriver

        return TopKDriver(self, query)

    def with_config(self, **overrides) -> "TopKProcessor":
        """A sibling processor sharing store/rules but different config."""
        return TopKProcessor(
            self.store,
            rules=self.rules,
            scorer=self.scorer,
            matcher=self.matcher,
            config=replace(self.config, **overrides),
        )
