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
token expansions) and then lowered onto the dictionary-encoded execution
core of :mod:`repro.topk.idspace`: bindings are int tuples, scores come
straight off the weight column, decoding to :class:`Term` happens only when
the final :class:`AnswerSet` materialises.

Setting ``config.exhaustive = True`` disables every early-termination check,
yielding reference semantics (used by correctness tests and as the
efficiency-comparison baseline).

Control flow lives in the resumable :class:`~repro.topk.driver.TopKDriver`:
:meth:`TopKProcessor.query` drains a fresh driver eagerly to ``k``, while
:meth:`TopKProcessor.driver` hands the suspendable machine to streaming
consumers (``engine.stream``) that advance it incrementally.

Steps 1 and 2 depend only on the query, the rules and what the store
held when they ran, so a processor plans each query once: its
:class:`PreparedQuery` keeps the rewritings enumerated so far and their
stream specs, and every later driver for the same query reads them
instead of deriving them again.  Planning records what it read that new
statements could change (:class:`_Reads`); when the engine publishes a
view after an ingest, the next processor starts from this one's rule
routing and from each plan whose reads still answer as they did
(:meth:`TopKProcessor.successor`).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.query import Query
from repro.core.results import AnswerSet, QueryStats
from repro.core.terms import Term, TextToken, Variable
from repro.core.triples import TriplePattern
from repro.errors import TopKError
from repro.relax.rewriting import RewriteEngine, RewrittenQuery
from repro.relax.rules import RelaxationRule, RuleSet
from repro.scoring.language_model import PatternScorer, ScoringConfig
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatch, TokenMatcher
from repro.topk.idspace import (
    IdExecutionContext,
    IdPostingCursor,
    IdSubJoinCursor,
    RunCursor,
)
from repro.topk.incremental_merge import IncrementalMergeCursor

if TYPE_CHECKING:  # pragma: no cover - cycle guard (driver imports us)
    from repro.topk.driver import TopKDriver


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

    def __post_init__(self):
        if self.k < 1:
            raise TopKError(f"k must be >= 1, got {self.k}")
        if self.max_rewrite_depth < 0:
            raise TopKError("max_rewrite_depth must be >= 0")
        if not 0.0 <= self.min_rewriting_weight <= 1.0:
            raise TopKError("min_rewriting_weight must be in [0, 1]")
        if self.max_relaxations_per_pattern < 0:
            raise TopKError("max_relaxations_per_pattern must be >= 0")
        if self.max_token_expansions < 0:
            raise TopKError("max_token_expansions must be >= 0")


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


StreamSpec = PostingSpec | SubJoinSpec


class _HoldsIn:
    """Condition check for rule application: does this fact hold in ``store``?

    An object holding the store and nothing else — not a bound method of
    the processor, which its plans would then keep alive in a cycle, nor
    a closure, whose module globals a ``gc.get_referents`` walk from a
    view follows to every other engine in the process.
    """

    __slots__ = ("store",)

    def __init__(self, store: TripleStore):
        self.store = store

    def __call__(self, pattern: TriplePattern) -> bool:
        return self.store.cardinality(pattern) > 0


#: Per slot, the norms and match-key stems a token matcher's extension
#: added (:attr:`TokenMatcher.arrivals`).
Arrivals = list[tuple[frozenset[str], frozenset[str]]]


class _Reads:
    """What planning one query read that new statements can change.

    Statements are only added, and a term once known keeps its id, so a
    read that found something finds it again; only what planning did not
    find can go stale:

    * ``unknown`` — resources :meth:`TopKProcessor._effective_pattern`
      found absent from the dictionary (and turned into text tokens);
    * ``tokens`` — ``(slot, token, stems)`` of each token expanded
      against the matcher: its matches change only when an entry with
      the token's norm or one of those stems arrives in the slot;
    * ``misses`` — rewrite conditions found not to hold.

    Each is a frozenset replaced on a new read, so a carried plan starts
    from its predecessor's without copying them.
    """

    __slots__ = ("unknown", "tokens", "misses")

    def __init__(self, reads: "_Reads | None" = None):
        self.unknown: frozenset[Term] = reads.unknown if reads else frozenset()
        self.tokens: frozenset[tuple[int, TextToken, frozenset[str]]] = (
            reads.tokens if reads else frozenset()
        )
        self.misses: frozenset[TriplePattern] = reads.misses if reads else frozenset()

    def unchanged(self, store: TripleStore, arrivals: Arrivals | None) -> bool:
        """Whether every read answers over ``store`` as it did, the matcher
        having gained ``arrivals`` since (``None``: unknown gains)."""
        id_of = store.dictionary.id_of
        for term in self.unknown:
            if id_of(term) is not None:
                return False
        if self.tokens:
            if arrivals is None:
                return False
            for slot, token, stems in self.tokens:
                norms, arrived = arrivals[slot]
                if token.norm in norms or not stems.isdisjoint(arrived):
                    return False
        return not (self.misses and any(map(_HoldsIn(store), self.misses)))


class _Checked:
    """One plan's condition check: its rewriter's, noting each condition
    found not to hold in the plan's :class:`_Reads`."""

    __slots__ = ("rewriter", "reads")

    def __init__(self, rewriter: RewriteEngine, reads: _Reads):
        self.rewriter = rewriter
        self.reads = reads

    def __call__(self, pattern: TriplePattern) -> bool:
        if self.rewriter.condition_checker(pattern):
            return True
        if pattern not in self.reads.misses:
            self.reads.misses |= {pattern}
        return False


class PreparedQuery:
    """The planning of one query by one processor, done once for all drivers.

    Holds the query's rewritings in enumeration order — a prefix of one
    :meth:`RewriteEngine.iter_rewrites` generator, extended only as far
    as some driver has read — and, per rewriting read, the stream-spec
    list of each of its patterns, built in rewriting order from one
    ``pv{i}`` fresh-name counter.  A driver reading a prepared plan thus
    sees exactly the rewritings, specs and variable names a driver over
    an empty plan derives; cursors, merges, joins and aggregation are
    still built per driver.

    Drivers on several threads share a plan (the query service's executor
    threads), so it is extended under one lock.  It refers to
    no processor: processors own their plans, and a reference back would
    leave every superseded processor to the cyclic garbage collector.  A
    step that raises commits nothing, so a later reader redoes it and
    derives what it would have.

    Planning records its :class:`_Reads`.  When the engine publishes the
    next view, the plan is sealed (:meth:`seal`) and handed to that view's
    processor as it is: from then on nothing is added to it — a driver
    that needs more reads it from a private copy (:meth:`_extensible`) —
    so its reads stay what the next processor checks before it reads the
    plan as its own (:meth:`carried`).
    """

    def __init__(
        self,
        query: Query,
        rewriter: RewriteEngine,
        carried: "PreparedQuery | None" = None,
    ):
        self.query = query
        self._rewriter = rewriter
        self._lock = threading.Lock()
        #: The enumeration past ``_rewritings``, started on first need.
        self._rewrites: Iterator[RewrittenQuery] | None = None
        self._sealed = False
        self._copy: PreparedQuery | None = None
        if carried is None:
            self.reads = _Reads()
            self._rewritings: list[RewrittenQuery] = []
            self._enumerated = False
            self._spec_lists: list[list[list[StreamSpec]]] = []
            self._names_used = 0
        else:
            self.reads = _Reads(carried.reads)
            self._rewritings = carried._rewritings.copy()
            self._enumerated = carried._enumerated
            self._spec_lists = carried._spec_lists.copy()
            self._names_used = carried._names_used

    def _enumeration(self) -> Iterator[RewrittenQuery]:
        """The rewritings past those read so far: a prefix is enumerated
        afresh and skipped, which derives what the last enumeration did."""
        checked = (
            _Checked(self._rewriter, self.reads)
            if self._rewriter.condition_checker is not None
            else None
        )
        rewrites = self._rewriter.iter_rewrites(self.query, checked)
        if not self._rewritings:
            return rewrites
        return itertools.islice(rewrites, len(self._rewritings), None)

    def seal(self) -> bool:
        """Freeze this plan for the next view's processor; ``False`` when a
        reader is extending it right now (a writer never waits for one)."""
        if not self._lock.acquire(blocking=False):
            return False
        self._sealed = True
        self._lock.release()
        return True

    def carried(
        self, rewriter: RewriteEngine, store: TripleStore, arrivals: Arrivals | None
    ) -> "PreparedQuery | None":
        """A copy of this sealed plan enumerating with ``rewriter`` — a
        later view's, over ``store`` — when every read it made answers
        there as it did, the matcher having gained ``arrivals``: it then
        holds what planning there would derive.  ``None`` when a read
        changed.  The copy refers to nothing of this plan."""
        if not self.reads.unchanged(store, arrivals):
            return None
        return PreparedQuery(self.query, rewriter, self)

    def _extensible(self) -> "PreparedQuery":
        """The plan to extend (caller holds the lock): this one, or once
        sealed its private copy, made on first need and kept."""
        if not self._sealed:
            return self
        if self._copy is None:
            self._copy = PreparedQuery(self.query, self._rewriter, self)
        return self._copy

    def rewriting(self, index: int) -> RewrittenQuery | None:
        """Rewriting ``index`` in enumeration order; ``None`` past the last."""
        with self._lock:
            rewritings = self._rewritings
            if index < len(rewritings) or self._enumerated:
                return rewritings[index] if index < len(rewritings) else None
            plan = self._extensible()
            if plan is self:
                while len(rewritings) <= index and not self._enumerated:
                    if self._rewrites is None:
                        self._rewrites = self._enumeration()
                    try:
                        rewriting = next(self._rewrites, None)
                    except BaseException:
                        # The error ended the generator: enumerate afresh
                        # past the prefix on the next read.
                        self._rewrites = None
                        raise
                    if rewriting is None:
                        self._enumerated = True
                    else:
                        rewritings.append(rewriting)
                return rewritings[index] if index < len(rewritings) else None
        return plan.rewriting(index)

    def spec_lists(
        self,
        index: int,
        build: Callable[
            [TriplePattern, Query, Iterator[str], _Reads], list[StreamSpec]
        ],
    ) -> list[list[StreamSpec]]:
        """The per-pattern stream specs of rewriting ``index``, which must
        have been read; ``build(pattern, query, fresh_names, reads)`` makes
        those not built yet, noting what it read in ``reads``."""
        with self._lock:
            spec_lists = self._spec_lists
            if index < len(spec_lists):
                return spec_lists[index]
            plan = self._extensible()
            if plan is self:
                while len(spec_lists) <= index:
                    query = self._rewritings[len(spec_lists)].query
                    counter = itertools.count(self._names_used)
                    names = (f"pv{i}" for i in counter)
                    spec_lists.append(
                        [
                            build(pattern, query, names, self.reads)
                            for pattern in query.patterns
                        ]
                    )
                    self._names_used = next(counter)
                return spec_lists[index]
        return plan.spec_lists(index, build)


class TopKProcessor:
    """Answer queries over one frozen store with relaxation and top-k pruning.

    Rule routing (pattern level or rewriting level) and the rewrite engine
    are fixed by the first planning; each query's planning is kept in a
    :class:`PreparedQuery`, for at most :attr:`MAX_PREPARED` queries (the
    least recently used goes first).  Both are derived from the rule set
    and from what the store held when they were planned, so the engine
    gives each published view its own processor: a :meth:`successor`
    over the same rules after an ingest (or a compaction that kept every
    id) starts from what this one derived that the new statements left
    valid, any other starts empty.
    """

    #: Prepared plans a processor keeps.
    MAX_PREPARED = 256

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
        #: The rule routing: the pattern-level index, the predicates of
        #: the rules routed as translations, the rewriting-level rules.
        self._routing: tuple[dict, frozenset[Term], list[RelaxationRule]] | None = None
        self._rewriter: RewriteEngine | None = None
        self._plans: OrderedDict[Query, PreparedQuery] = OrderedDict()
        #: Sealed plans of earlier processors whose reads answered as they
        #: did up to the predecessor's view; checked against ``_arrivals``
        #: (what this matcher gained over the predecessor's) when read.
        self._inherited: dict[Query, PreparedQuery] = {}
        self._arrivals: Arrivals | None = None
        self._plans_lock = threading.Lock()

    # -- rule routing ------------------------------------------------------------

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

    def _route_rules(self) -> list[RelaxationRule]:
        """Split the rules between the two levels; returns the rewriting
        level's share.

        Pattern-level rules — single-pattern ones except translations —
        land in the routing's index, keyed by their original's
        predicate term.  Rules with a variable predicate (rare) apply to
        every pattern: they are merged into each predicate's list and are
        the whole list under ``None``.  Each list is in the order the
        stream merges them, ``(-weight, n3())``.  Without pattern-level
        merging every rule goes to the rewriting level.
        """
        merge = self.config.pattern_level_merge
        rewriting: list[RelaxationRule] = []
        anywhere: list[RelaxationRule] = []
        index: dict = {None: []}
        translated: set[Term] = set()
        for rule in self.rules:
            if not merge or not rule.is_single_pattern:
                rewriting.append(rule)
            elif self._is_translation_rule(rule):
                rewriting.append(rule)
                translated.add(rule.original[0].p)
            elif rule.original[0].p.is_variable:
                anywhere.append(rule)
            else:
                index.setdefault(rule.original[0].p, []).append(rule)
        by_predicate = {
            key: sorted(anywhere + rules, key=lambda rule: (-rule.weight, rule.n3()))
            for key, rules in index.items()
        }
        self._routing = (by_predicate, frozenset(translated), rewriting)
        return rewriting

    def _rules_for_pattern(self, pattern: TriplePattern) -> list[RelaxationRule]:
        index = self._routing[0]
        if pattern.p.is_constant:
            return index.get(pattern.p, index[None])
        return index[None]

    # -- stream planning ------------------------------------------------------

    def _effective_pattern(
        self, pattern: TriplePattern, reads: _Reads
    ) -> tuple[TriplePattern, float]:
        """Handle vocabulary mismatch: unknown resources fall back to tokens.

        A constant resource the store has never seen (the user guessed a
        name like ``hasAdvisor``) cannot match anything exactly; with the
        fallback enabled its camel-case surface words become a text token,
        which fuzzy expansion can then translate into stored phrases or
        canonical resources — at a small penalty.  Each resource found
        unknown is noted in ``reads``.
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
        rewritten = False
        for slot, term in enumerate(terms):
            if (
                isinstance(term, Resource)
                and self.store.dictionary.id_of(term) is None
            ):
                if term not in reads.unknown:
                    reads.unknown |= {term}
                terms[slot] = TextToken(camel_to_words(term.name))
                penalty *= self.config.unknown_resource_penalty
                rewritten = True
        if not rewritten:
            return pattern, 1.0
        return TriplePattern(*terms), penalty

    def _expand_pattern(
        self,
        pattern: TriplePattern,
        *,
        multiplier: float,
        rule: RelaxationRule | None,
        reads: _Reads,
    ) -> list[PostingSpec]:
        """Posting specs for a pattern, fuzzy-expanding token constants;
        each token expanded is noted in ``reads``."""
        pattern, penalty = self._effective_pattern(pattern, reads)
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
            read = (slot, term, self.matcher.stems(term, slot))
            if read not in reads.tokens:
                reads.tokens |= {read}
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
        reads: _Reads,
    ) -> list[PostingSpec | SubJoinSpec]:
        """The merged stream of one pattern, as an ordered list of specs.

        The original pattern's (token-expanded) posting specs come first,
        then the pattern-level relaxations, weight-descending and capped —
        exactly the cursor order the stream merges.
        """
        base: list[PostingSpec | SubJoinSpec] = list(
            self._expand_pattern(pattern, multiplier=1.0, rule=None, reads=reads)
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
                            reads=reads,
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
    def _merge(cursors: list[RunCursor], stats: QueryStats) -> RunCursor:
        if len(cursors) == 1:
            return cursors[0]
        return IncrementalMergeCursor(cursors, stats)

    # -- querying ------------------------------------------------------------

    def _make_rewriter(self, rules: list[RelaxationRule]) -> RewriteEngine:
        if self.config.use_relaxation:
            return RewriteEngine(
                RuleSet(rules),
                max_depth=self.config.max_rewrite_depth,
                max_rewrites=self.config.max_rewrites,
                min_weight=self.config.min_rewriting_weight,
                condition_checker=_HoldsIn(self.store),
            )
        return RewriteEngine(RuleSet(), max_depth=0, max_rewrites=1)

    def prepared(self, query: Query) -> PreparedQuery:
        """This processor's plan for ``query``: one inherited from an
        earlier view when its reads still answer as they did, else empty
        when first asked for."""
        with self._plans_lock:
            if self._rewriter is None:
                # Rules are routed by the first planning, so a processor
                # that never plans (an unqueried variant) costs nothing.
                routing = self._routing
                self._rewriter = self._make_rewriter(
                    self._route_rules() if routing is None else routing[2]
                )
            plan = self._plans.get(query)
            if plan is None:
                inherited = self._inherited.pop(query, None)
                if inherited is not None:
                    plan = inherited.carried(self._rewriter, self.store, self._arrivals)
                if plan is None:
                    plan = PreparedQuery(query, self._rewriter)
                self._plans[query] = plan
                if len(self._plans) > self.MAX_PREPARED:
                    self._plans.popitem(last=False)
            else:
                self._plans.move_to_end(query)
            return plan

    def successor(
        self,
        store: TripleStore,
        *,
        scorer: PatternScorer,
        matcher: TokenMatcher,
        arrivals: Arrivals | None,
    ) -> "TopKProcessor":
        """This processor's counterpart over ``store`` — this one's store
        after an ingest, or its compaction keeping every id — under the
        same rules and config; ``matcher`` is this one's matcher extended
        by ``arrivals`` (``None``: not derived from it).

        It starts from what this one derived that the new statements can
        leave valid: the rule routing, unless a translated rule's
        predicate is now known, and with it this processor's plans, sealed
        (:meth:`PreparedQuery.seal`), plus those it inherited and did not
        read whose reads still answer as they did.  Each is checked and
        copied when first read (:meth:`prepared`); until then the sealed
        plan is shared.  Over a compacted store they are checked and
        copied here, so that no plan of the superseded store stays
        referenced."""
        successor = TopKProcessor(
            store, rules=self.rules, scorer=scorer, matcher=matcher, config=self.config
        )
        with self._plans_lock:
            routing = self._routing
            plans = list(self._plans.items())
            inherited = list(self._inherited.items())
        id_of = store.dictionary.id_of
        if routing is None or any(id_of(p) is not None for p in routing[1]):
            return successor
        successor._routing = routing
        successor._arrivals = arrivals
        kept = {
            query: plan
            for query, plan in inherited
            if plan.reads.unchanged(store, self._arrivals)
        }
        kept.update((query, plan) for query, plan in plans if plan.seal())
        if len(kept) > self.MAX_PREPARED:
            kept = dict(list(kept.items())[-self.MAX_PREPARED :])
        if store is self.store:
            successor._inherited = kept
            return successor
        rewriter = successor._rewriter = successor._make_rewriter(routing[2])
        for query, plan in kept.items():
            carried = plan.carried(rewriter, store, arrivals)
            if carried is not None:
                successor._plans[query] = carried
        return successor

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
        """A fresh resumable execution driver for ``query``, reading this
        processor's :class:`PreparedQuery` for it.

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
