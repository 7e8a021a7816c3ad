"""The TriniT engine facade — the library's primary public entry point.

Wires together storage, statistics, rule mining (through the relaxation
operator registry), scoring, top-k processing, explanation and suggestion::

    from repro import TriniT, Triple, Resource

    engine = TriniT.from_triples(kg_triples, extension_triples)
    answers = engine.ask("SELECT ?x WHERE AlbertEinstein affiliation ?x", k=5)
    print(answers.render_table())
    print(engine.explain(answers.top()).render())
    for suggestion in engine.suggest("?x 'born in' Germany"):
        print(suggestion.text)

Session lifecycle and streaming — the interactive surface::

    with TriniT.open("xkg.snapd") as engine:           # mmap-loaded snapshot
        stream = engine.stream("?x 'works at' ?y")
        first = stream.next_k(10)                       # time-to-first-answer
        more = stream.next_k(10)                        # resumes, no recompute
        batch = engine.ask_many(["?x bornIn ?y", "?x type city"], k=5)
    # exit released the snapshot mapping; the stream is now closed too
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from concurrent.futures import CancelledError, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.explanation import Explanation, explain_answer
from repro.core.parser import parse_query, parse_rule
from repro.core.query import Query
from repro.core.results import Answer, AnswerSet, AnswerStream
from repro.core.suggestion import QuerySuggester, Suggestion
from repro.core.triples import Provenance, Triple
from repro.errors import TrinitError
from repro.relax.amie import mine_amie_rules
from repro.relax.esa import esa_rules
from repro.relax.mining import mine_arg_overlap_rules, mine_chain_expansion_rules
from repro.relax.operators import OperatorContext, OperatorRegistry
from repro.relax.rules import RelaxationRule, RuleSet
from repro.relax.structural import inversion_rules
from repro.scoring.language_model import PatternScorer, ScoringConfig
from repro.storage.compaction import compact_store
from repro.storage.statistics import StoreStatistics
from repro.storage.store import TripleStore
from repro.storage.text_index import TokenMatcher
from repro.topk.kernels import HotBlockCache
from repro.topk.processor import ProcessorConfig, TopKProcessor


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level configuration.

    Attributes
    ----------
    processor:
        Top-k processing knobs (budgets, ablation switches) — including
        ``execution`` ("idspace" hot path vs "termspace" reference).
    scoring:
        Language-model smoothing.
    parallelism:
        Worker count of the one engine-owned thread pool, used only for
        ``ask_many`` query fan-out and background compaction — a single
        query always executes in-line on its calling thread.  ``None``
        (default) sizes the pool to the machine (``os.cpu_count()``);
        ``0`` or ``1`` means no pool at all: ``ask_many`` evaluates
        sequentially and compaction runs inline.  The pool is shut down by
        :meth:`TriniT.close`.
    executor_kind:
        ``"thread"`` (default — the pool above exists) or ``"serial"`` (no
        pool, identical to ``parallelism<=1``).  Any other value raises
        :class:`TrinitError`; :attr:`TriniT.executor_kind` reports the
        effective kind.
    merge_batch:
        Posting heads pulled per segment per batch by the store's k-way
        segment merge (and the granularity of the id-space cursors'
        batched sorted access).  ``None`` (default) sizes batches
        **adaptively** per query: each posting merge starts small and
        doubles its pull as the consumer keeps draining, so probe-only
        lookups stay cheap and deep drains amortise (bounded by
        ``ADAPTIVE_MAX_BATCH``).  ``1`` degenerates to item-at-a-time
        pulls — the serial reference the property suite pins batched
        execution against.
    block_size:
        Posting-block granularity of the id-space execution kernels: how
        many posting heads the cursors decode, filter and score per
        :func:`repro.topk.kernels.score_block` call.  ``None`` (default)
        adapts — cursors score exactly what each batched pull of the
        segment merge materialised (so ``merge_batch`` governs both).  ``1``
        selects the original per-item scoring path, the byte-identical
        reference the property suite pins the block kernels against.
    compaction_threshold:
        Live-ingestion compaction trigger: once :meth:`TriniT.ingest` has
        grown the store's mutable delta segment past this many statements,
        the engine folds it into frozen storage — a new snapshot
        *generation* for directory-backed stores (hardlinked segments, an
        atomically swapped ``CURRENT`` pointer), an in-memory rebuild
        otherwise.  Folding runs in the background on the engine's thread
        pool when it has one (queries keep answering from the delta
        meanwhile) and inline under ``parallelism<=1``/``"serial"``.  ``None``
        (default) never compacts automatically; :meth:`TriniT.compact`
        stays available explicitly.
    mine_arg_overlap, mine_chains, mine_inversions:
        Default rule-mining operators to register and run at startup.
    mine_amie, mine_esa:
        Optional heavier miners (off by default; AMIE-style mining and ESA
        relatedness are alternatives evaluated in the ablation benches).
    mining_min_support, mining_min_weight:
        Shared thresholds for the default miners.
    suggestion_min_overlap:
        Threshold for token→resource suggestions.
    """

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    parallelism: int | None = None
    executor_kind: str = "thread"
    merge_batch: int | None = None
    block_size: int | None = None
    compaction_threshold: int | None = None
    mine_arg_overlap: bool = True
    mine_chains: bool = True
    mine_inversions: bool = True
    mine_amie: bool = False
    mine_esa: bool = False
    mining_min_support: int = 2
    mining_min_weight: float = 0.1
    suggestion_min_overlap: float = 0.25


class _EpochState:
    """Swap synchronisation shared by an engine and its :meth:`variant`\\ s.

    ``active`` counts queries currently dispatching against the engine's
    *current* store epoch; a compaction swap waits on the condition until
    it drains before retiring the old store.  The condition's RLock also
    serialises pin bookkeeping for streams that outlive a swap.
    """

    __slots__ = ("cond", "active")

    def __init__(self):
        self.cond = threading.Condition(threading.RLock())
        self.active = 0


class TriniT:
    """Exploratory querying over an extended knowledge graph.

    Parameters
    ----------
    store:
        The XKG triple store (frozen, or it will be frozen here).
    config:
        See :class:`EngineConfig`.
    rules:
        Extra relaxation rules to start from (e.g. hand-written ones).
    registry:
        A custom operator registry; defaults to the standard miners selected
        by the config flags.  Administrators can pre-register their own
        operators before constructing the engine.
    """

    def __init__(
        self,
        store: TripleStore,
        *,
        config: EngineConfig | None = None,
        rules: Iterable[RelaxationRule] = (),
        registry: OperatorRegistry | None = None,
    ):
        self.config = config if config is not None else EngineConfig()
        if not store.is_frozen:
            store.freeze()
        self.store = store
        kind = self.config.executor_kind
        if kind not in ("thread", "serial"):
            raise TrinitError(
                f"Unknown executor_kind {kind!r} — expected 'thread' or "
                "'serial'"
            )
        # The one engine-owned pool: ask_many fan-out and background
        # compaction only.  Threads spawn on first use, so unqueried
        # engines never start one; close() shuts it down.
        workers = self.config.parallelism
        if workers is None:
            workers = os.cpu_count() or 4
        if kind == "serial" or workers <= 1:
            workers = 0
        self._executor = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="trinit")
            if workers
            else None
        )
        self.executor_kind = "thread" if workers else "serial"
        # One bounded hot-block cache per engine, shared across queries and
        # snapshot generations (keys carry the snapshot identity, so stale
        # generations simply stop being hit; swaps clear it outright).
        self._block_cache = HotBlockCache()
        self._configure_storage(store)
        self.statistics = StoreStatistics(store)
        self.matcher = TokenMatcher(store)
        self.scorer = PatternScorer(store, self.config.scoring)
        self.rules = RuleSet(rules)
        self.registry = registry if registry is not None else OperatorRegistry()
        self._register_default_operators()
        context = OperatorContext(self.store, self.statistics)
        self.registry.run(context, into=self.rules)
        self.processor = TopKProcessor(
            store,
            rules=self.rules,
            scorer=self.scorer,
            matcher=self.matcher,
            config=self.config.processor,
        )
        self.suggester = QuerySuggester(
            self.statistics,
            self.matcher,
            min_overlap=self.config.suggestion_min_overlap,
        )
        # Live-ingestion state: ingest/compact serialisation, the query
        # epoch (swap barrier), refcounted pins of retired stores that
        # open streams still read from, and the visible generation number.
        self._ingest_lock = threading.RLock()
        self._epoch = _EpochState()
        self._pins: dict[int, list] = {}
        self._compact_scheduled = False
        self._swap_listeners: list = []
        self.generation = store.backend.generation
        self._closed = False

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def open(cls, path: "str | Path", **kwargs) -> "TriniT":
        """Open an engine over a persisted store (snapshot directory or JSONL).

        Snapshot directories are ``mmap``-loaded (zero-copy posting views
        over the mapped pages); a file is read as JSONL.
        The engine *owns* the loaded resources — use it as a context
        manager, or call :meth:`close`, to release them::

            with TriniT.open("xkg.snapd") as engine:
                print(engine.ask("?x bornIn Germany").render_table())

        Keyword arguments are forwarded to the constructor (``config``,
        ``rules``, ``registry``).
        """
        from repro.storage.persistence import load_store

        return cls(load_store(path), **kwargs)

    @classmethod
    def from_triples(
        cls,
        kg_triples: Sequence[Triple],
        extension_triples: Sequence[tuple[Triple, Provenance, float]] = (),
        **kwargs,
    ) -> "TriniT":
        """Build an engine from curated triples plus scored extractions.

        ``extension_triples`` entries are (triple, provenance, confidence);
        repeated statements accumulate observation counts.  Extractions
        sharing provenance and confidence are loaded in bulk via
        :meth:`TripleStore.add_all`.
        """
        store = TripleStore()
        store.add_all(kg_triples)
        for (provenance, confidence), group in itertools.groupby(
            extension_triples, key=lambda entry: (entry[1], entry[2])
        ):
            store.add_all(
                [triple for triple, _p, _c in group],
                provenance,
                confidence=confidence,
            )
        return cls(store.freeze(), **kwargs)

    def _configure_storage(self, store: TripleStore) -> None:
        """Hand the engine's batching knobs and block cache to ``store``."""
        store.backend.configure_prefetch(self.config.merge_batch)
        store.configure_blocks(self.config.block_size)
        store.backend.configure_block_cache(self._block_cache)

    def _register_default_operators(self) -> None:
        cfg = self.config

        if cfg.mine_arg_overlap and "arg-overlap" not in self.registry:
            self.registry.register(
                "arg-overlap",
                lambda ctx: mine_arg_overlap_rules(
                    ctx.statistics,
                    min_support=cfg.mining_min_support,
                    min_weight=cfg.mining_min_weight,
                ),
                description="XKG arg-overlap predicate rewrites (paper §3)",
            )
        if cfg.mine_chains and "chain-expansion" not in self.registry:
            self.registry.register(
                "chain-expansion",
                lambda ctx: mine_chain_expansion_rules(
                    ctx.statistics,
                    min_support=cfg.mining_min_support,
                ),
                description="two-hop chain expansions (Figure 4 rule 3 shape)",
            )
        if cfg.mine_inversions and "inversions" not in self.registry:
            self.registry.register(
                "inversions",
                lambda ctx: inversion_rules(
                    ctx.statistics, min_support=cfg.mining_min_support
                ),
                description="inverse-predicate rules (Figure 4 rule 2 shape)",
            )
        if cfg.mine_amie and "amie" not in self.registry:
            self.registry.register(
                "amie",
                lambda ctx: mine_amie_rules(
                    ctx.statistics, min_support=cfg.mining_min_support
                ),
                description="AMIE-style Horn rules with PCA confidence",
            )
        if cfg.mine_esa and "esa" not in self.registry:
            self.registry.register(
                "esa",
                lambda ctx: esa_rules(ctx.statistics),
                description="ESA relatedness predicate rewrites",
            )

    # -- live ingestion ------------------------------------------------------------

    def ingest(
        self,
        triples: Sequence[Triple],
        provenance: Provenance | None = None,
        *,
        confidence: float = 1.0,
        count: int = 1,
    ) -> list[int]:
        """Absorb new statements while the engine keeps answering queries.

        New distinct statements land in the store's mutable **delta
        segment** — the posting merge treats it as one more segment head,
        so they are immediately visible to ``ask``/``stream`` (and show up
        in :attr:`~repro.core.results.QueryStats.delta_hits`).  Duplicate
        statements accumulate evidence on their existing records.  Derived
        structures (statistics, the token matcher, the scorer's collection
        mass) refresh so relaxation and suggestion see the grown store.

        Once the delta outgrows ``EngineConfig.compaction_threshold`` the
        engine folds it into frozen storage (see :meth:`compact`) — in the
        background when it has an executor, inline otherwise.  Returns the
        triple ids, in input order.
        """
        if self._closed:
            raise TrinitError("Engine is closed")
        with self._ingest_lock:
            ids = self.store.add_all(
                triples, provenance, confidence=confidence, count=count
            )
            self.statistics.invalidate()
            self.matcher.invalidate()
            self.scorer.refresh()
            self._maybe_compact()
        return ids

    def compact(self) -> int:
        """Synchronously fold the live delta into frozen storage.

        Directory-backed stores get a new snapshot **generation** (old
        segment files hardlinked, the delta frozen as one new segment, the
        root's ``CURRENT`` pointer swapped atomically); in-memory stores
        rebuild onto a fresh backend with the same segment count.  The engine then
        swaps onto the compacted store once in-flight queries drain; open
        :class:`~repro.core.results.AnswerStream`\\ s keep the store they
        started on (it closes when the last of them is collected), so
        their remaining ``next_k`` calls stay byte-identical.  Returns the
        engine's generation number (unchanged when there was no delta).
        """
        if self._closed:
            raise TrinitError("Engine is closed")
        with self._ingest_lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        store = self.store
        if not store.has_delta:
            return self.generation
        self._adopt_store(compact_store(store))
        return self.generation

    def _maybe_compact(self) -> None:
        threshold = self.config.compaction_threshold
        if threshold is None or self.store.delta_size < threshold:
            return
        if self._executor is None:
            self._compact_locked()
            return
        with self._epoch.cond:
            if self._compact_scheduled:
                return
            self._compact_scheduled = True
        self._executor.submit(self._background_compact)

    def _background_compact(self) -> None:
        try:
            with self._ingest_lock:
                if self._closed:
                    return
                threshold = self.config.compaction_threshold
                if (
                    threshold is not None
                    and self.store.delta_size >= threshold
                ):
                    self._compact_locked()
        finally:
            with self._epoch.cond:
                self._compact_scheduled = False

    def on_store_swap(self, callback) -> None:
        """Register ``callback(engine)`` to run after each store adoption.

        The quiet-point hook for everything that caches against a specific
        store epoch (the query service's result cache, most prominently):
        the callback fires right after :meth:`_adopt_store` finished
        swapping — the new store, generation number and
        :meth:`snapshot_identity` are already visible, the epoch barrier
        has been released — so subscribers invalidate exactly once per
        swap, never against a half-adopted engine.  Callbacks run on the
        compacting thread outside the swap barrier (they may query the
        engine); exceptions propagate to the compaction caller.  Listeners
        are shared with :meth:`variant` clones.
        """
        self._swap_listeners.append(callback)

    def _adopt_store(self, store: TripleStore) -> None:
        """Swap the engine onto ``store`` once in-flight queries drain.

        The replacement read surfaces (statistics, matcher, scorer,
        processor, suggester) are built *before* the swap barrier, so the
        window with queries blocked covers only attribute assignment.
        Mined rules carry over — compaction changes the statements'
        storage, not the statements.
        """
        statistics = StoreStatistics(store)
        matcher = TokenMatcher(store)
        scorer = PatternScorer(store, self.config.scoring)
        processor = TopKProcessor(
            store,
            rules=self.rules,
            scorer=scorer,
            matcher=matcher,
            config=self.config.processor,
        )
        suggester = QuerySuggester(
            statistics,
            matcher,
            min_overlap=self.config.suggestion_min_overlap,
        )
        self._configure_storage(store)
        epoch = self._epoch
        with epoch.cond:
            while epoch.active:
                epoch.cond.wait()
            old = self.store
            self.store = store
            self.statistics = statistics
            self.matcher = matcher
            self.scorer = scorer
            self.processor = processor
            self.suggester = suggester
            backend_generation = store.backend.generation
            self.generation = (
                backend_generation
                if backend_generation > self.generation
                else self.generation + 1
            )
            self._retire(old)
        # Quiet point: in-flight queries drained at the barrier above, so
        # no cursor is mid-consume against a cached block of the retired
        # store — drop every cached block in one sweep.
        self._block_cache.clear()
        for callback in list(self._swap_listeners):
            callback(self)

    def _retire(self, old: TripleStore) -> None:
        # Close the outgoing store now, or — when open streams still pin
        # it — when the last pin is collected.  Callers already hold the
        # epoch lock; it is an RLock, so re-taking it here costs nothing
        # and keeps the pin table guarded even for future callers.
        with self._epoch.cond:
            entry = self._pins.get(id(old))
            if entry is None or entry[1] <= 0:
                self._pins.pop(id(old), None)
                old.close()
            else:
                entry[2] = True

    def _pin_store(self, store: TripleStore, owner: object) -> None:
        with self._epoch.cond:
            entry = self._pins.get(id(store))
            if entry is None:
                entry = self._pins[id(store)] = [store, 0, False]
            entry[1] += 1
        weakref.finalize(owner, self._unpin, id(store))

    def _unpin(self, key: int) -> None:
        with self._epoch.cond:
            entry = self._pins.get(key)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] <= 0:
                del self._pins[key]
                if entry[2]:
                    entry[0].close()

    @contextmanager
    def _query_guard(self):
        """Hold the current store epoch across one query dispatch.

        While any guard is held a compaction swap waits; conversely a
        swap in progress (holding the epoch lock) delays entry, so a
        dispatch never reads half-swapped engine attributes.
        """
        epoch = self._epoch
        with epoch.cond:
            epoch.active += 1
        try:
            yield
        finally:
            with epoch.cond:
                epoch.active -= 1
                if not epoch.active:
                    epoch.cond.notify_all()

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release the engine's resources (worker pool, mmap buffers, columns).

        The thread pool drains first (queued ``ask_many`` queries are
        cancelled — an in-flight ``ask_many`` call surfaces that as
        :class:`TrinitError` — while running tasks finish against the
        still-open store), then
        the store's backing storage is released.  Streams obtained from
        :meth:`stream` become unusable (their ``next_k`` raises
        :class:`~repro.errors.StorageError`); answers already materialised
        stay valid.  Idempotent.
        """
        if not self._closed:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
            with self._epoch.cond:
                pinned = [entry[0] for entry in self._pins.values()]
                self._pins.clear()
            for store in pinned:
                store.close()
            self.store.close()
            self._block_cache.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def snapshot_identity(self) -> str:
        """A token naming exactly the data this engine is serving.

        Directory-backed stores yield ``<snapshot root>@gen<K>+delta<V>``
        — the persistent address plus the active generation plus the
        monotonic version of the live delta segment; purely in-memory
        stores get a process-local ``mem:`` token with the same
        generation/delta structure.  Two engine states with equal tokens
        serve byte-identical answers, and any visible data change (a
        live ingest, a compaction, a generation swap) changes the token —
        which is what makes it a sound result-cache key component and a
        precise ``/healthz`` data fingerprint.  The token is cheap to
        compute (no store traversal).
        """
        store = self.store
        root = store.backend.snapshot_root
        base = str(root) if root else f"mem:{id(store):x}"
        return f"{base}@gen{self.generation}+delta{store.delta_version}"

    def __enter__(self) -> "TriniT":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- querying -----------------------------------------------------------------

    def parse(self, text: str) -> Query:
        """Parse the textual query syntax."""
        return parse_query(text)

    def ask(self, query: Query | str, k: int | None = None) -> AnswerSet:
        """Answer a query (textual or parsed) with top-k processing."""
        if isinstance(query, str):
            query = parse_query(query)
        with self._query_guard():
            return self.processor.query(query, k)

    def stream(self, query: Query | str) -> AnswerStream:
        """An :class:`AnswerStream` over ``query`` — the anytime surface.

        ``stream(q).next_k(n)`` emits the next ``n`` answers in score
        order, *resuming* the suspended top-k computation instead of
        recomputing it; the concatenation of all batches is byte-identical
        to the eager ``ask(q, k=total)`` list.  Per-call and cumulative
        :class:`~repro.core.results.QueryStats` ride along.
        """
        if isinstance(query, str):
            query = parse_query(query)
        with self._query_guard():
            stream = AnswerStream(self.processor.driver(query))
            # The stream keeps the store it opened on across compactions:
            # the pin defers the retired store's close until the stream is
            # collected, so later next_k calls resume byte-identically.
            self._pin_store(self.store, stream)
            return stream

    def ask_many(
        self,
        queries: Sequence[Query | str],
        k: int | None = None,
        *,
        max_workers: int | None = None,
    ) -> list[AnswerSet]:
        """Answer independent queries on a thread pool; results in input order.

        The frozen store, scorer and rule set are shared read-only across
        the pool (the caches they warm are idempotent under the GIL), and
        every query is evaluated in isolation — results are bit-identical
        to sequential ``ask`` calls.  Note the evaluation itself is pure
        Python, so on GIL-bound interpreters the pool bounds *latency
        interleaving*, not aggregate throughput.

        Queries run on the *engine-owned* thread pool (``EngineConfig.
        parallelism``, shared only with background compaction), so
        repeated batch calls reuse warm threads instead of paying pool
        startup per call.  ``max_workers=1`` forces sequential
        evaluation; other explicit values bound how many of the batch are
        in flight at once (sliced submission to the shared pool); an
        engine configured with ``parallelism<=1`` has no pool and always
        evaluates sequentially.
        """
        parsed = [
            parse_query(query) if isinstance(query, str) else query
            for query in queries
        ]
        if not parsed:
            return []
        pool = self._executor
        with self._query_guard():
            processor = self.processor
            if (
                pool is None
                or len(parsed) == 1
                or (max_workers is not None and max_workers <= 1)
            ):
                return [processor.query(query, k) for query in parsed]
            # Build the shared lazily-initialised structures once, up front,
            # rather than racing the first queries into them.
            processor._single_rule_index()
            try:
                if max_workers is not None and max_workers < len(parsed):
                    # Honor an explicit concurrency cap without a throwaway
                    # pool: feed the shared executor in slices, so at most
                    # max_workers queries are in flight at once.
                    results: list[AnswerSet] = []
                    run = lambda query: processor.query(query, k)  # noqa: E731
                    for start in range(0, len(parsed), max_workers):
                        results.extend(
                            pool.map(run, parsed[start : start + max_workers])
                        )
                    return results
                return list(
                    pool.map(lambda query: processor.query(query, k), parsed)
                )
            except (RuntimeError, CancelledError):
                # CancelledError: close() cancelled our queued query futures.
                if not self._closed:
                    raise
                raise TrinitError("Engine is closed") from None

    def explain(self, answer: Answer, query: Query | None = None) -> Explanation:
        """Explanation of an answer's provenance and relaxations."""
        if answer is None:
            raise TrinitError("Cannot explain None (empty answer set?)")
        return explain_answer(answer, query)

    def suggest(
        self, query: Query | str, answers: AnswerSet | None = None
    ) -> list[Suggestion]:
        """Suggestions for better-aligned future queries."""
        if isinstance(query, str):
            query = parse_query(query)
        with self._query_guard():
            return self.suggester.suggest(query, answers)

    # -- rule management ------------------------------------------------------------

    def add_rule(self, rule: RelaxationRule | str) -> RelaxationRule:
        """Add one relaxation rule (object or textual ``lhs => rhs @ w``)."""
        if isinstance(rule, str):
            rule = parse_rule(rule)
        self.processor.add_rules([rule])
        return rule

    def add_rules(self, rules: Iterable[RelaxationRule | str]) -> int:
        parsed = [parse_rule(r) if isinstance(r, str) else r for r in rules]
        return self.processor.add_rules(parsed)

    # -- ablation variants ------------------------------------------------------------

    def variant(self, **processor_overrides) -> "TriniT":
        """A shallow engine sharing data/rules with different processor knobs.

        Used by the evaluation harness for ablations, e.g.
        ``engine.variant(use_relaxation=False)``.
        """
        clone = object.__new__(TriniT)
        clone.config = replace(
            self.config,
            processor=replace(self.config.processor, **processor_overrides),
        )
        clone.store = self.store
        clone.statistics = self.statistics
        clone.matcher = self.matcher
        clone.scorer = self.scorer
        clone.rules = self.rules
        clone.registry = self.registry
        clone._executor = self._executor
        clone.executor_kind = self.executor_kind
        clone._block_cache = self._block_cache
        # Live-ingestion state is shared with the parent: a compaction in
        # either must drain and retire the same epoch and pin set.  Copy
        # the references under the epoch lock so the clone never observes
        # a pin table from mid-swap.
        with self._epoch.cond:
            clone._ingest_lock = self._ingest_lock
            clone._epoch = self._epoch
            clone._pins = self._pins
            clone._swap_listeners = self._swap_listeners
        clone._compact_scheduled = False
        clone.generation = self.generation
        clone.processor = TopKProcessor(
            self.store,
            rules=self.rules,
            scorer=self.scorer,
            matcher=self.matcher,
            config=clone.config.processor,
        )
        clone.suggester = self.suggester
        clone._closed = self._closed
        return clone
