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
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
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
from repro.topk.processor import ProcessorConfig, TopKProcessor


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level configuration.

    Attributes
    ----------
    processor:
        Top-k processing knobs (budgets, ablation switches, exhaustive
        evaluation).
    scoring:
        Language-model smoothing.
    executor_kind:
        Where a threshold-triggered compaction runs; every query runs
        in-line on its calling thread either way.  ``"thread"`` (default)
        folds on the engine's one worker thread, shut down by
        :meth:`TriniT.close`; ``"serial"`` folds in-line inside the
        :meth:`TriniT.ingest` that crossed the threshold.  Any other value
        raises :class:`TrinitError`.
    merge_batch:
        Postings an id-space cursor pulls per read of its lookup — a
        segment's slice or a merge of several, read alike.  ``None``
        (default) pulls **adaptively**: each cursor slow-starts at 8 and
        then pulls as many as it has read so far (8, 8, 16, … up to
        ``topk.idspace.MAX_PULL`` = 1024), so probe-only lookups stay
        cheap and deep drains amortise.  ``1`` degenerates to
        item-at-a-time pulls — the serial reference the property suite
        pins batched execution against.
    block_size:
        Posting-block granularity of the id-space execution kernels: how
        many posting heads the cursors decode, filter and score per
        :func:`repro.topk.kernels.score_block` call.  ``None`` (default)
        adapts — cursors score exactly what each pull made readable (so
        ``merge_batch`` governs both).  ``1`` selects the original
        per-item scoring path, the byte-identical reference the property
        suite pins the block kernels against.
    compaction_threshold:
        Live-ingestion compaction trigger: once :meth:`TriniT.ingest` has
        grown the store's mutable delta segment past this many statements,
        the engine folds it into frozen storage — a new snapshot
        *generation* for directory-backed stores (hardlinked segments, an
        atomically swapped ``CURRENT`` pointer), an in-memory rebuild
        otherwise.  Folding runs in the background on the engine's worker
        under ``"thread"`` (queries keep answering from the delta
        meanwhile) and inline under ``"serial"``.  ``None``
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


def _same_term_ids(old: TripleStore, new: TripleStore) -> bool:
    """Whether ``new`` — ``old`` compacted — numbers every term as ``old``
    did.  Compaction keeps statement ids by construction; with term ids
    equal too, whatever was indexed by id over ``old`` holds for ``new``.
    A generation's store starts from a copy of its parent's decoded term
    table, so this compares two decoded tables and decodes neither."""
    return len(new) == len(old) and list(new.dictionary) == list(old.dictionary)


class _View:
    """Everything a query reads, derived from one (statements, rules) state.

    Built here and nowhere else, and never modified once published: an
    ingest, a compaction or an added rule builds the next view instead, so
    nothing derived from an older vocabulary, statement set or rule set
    serves a query that starts after the change.  Statistics hold
    nothing but a predicate-mass memo — they read the store's own posting
    index — so each view makes its own.  The token matcher is a grow-only
    function of the statements, so the next view derives it from
    ``previous`` where it can: an ingest extends a built one copy-on-write
    by the statements that arrived (cost: the batch, not the store), a
    compaction that kept every id carries it over as it is, a rule change
    reuses the very instance.  An unbuilt one stays lazy — a view then
    costs less than the first read of it — and no view refers to the one
    before it.  Collection mass is recomputed per view.  Each view has its
    own processors; after an ingest, or a compaction that kept every id,
    under the same rule set, each starts from its predecessor's
    (:meth:`~repro.topk.processor.TopKProcessor.successor`): the rule
    routing, unless the batch made a translated rule's predicate known,
    and every query plan (:class:`~repro.topk.processor.PreparedQuery`)
    whose recorded reads the batch cannot have changed — the matcher's
    ``arrivals`` say which token expansions it could.  A rule change, or a
    compaction that renumbered terms, starts them empty.  A carried plan
    is checked and copied on its first read in the new view, a compaction
    copies them at once, so no processor keeps a superseded store.
    ``version`` counts publishes,
    ``rules_version`` the rule-changing ones; ``extent`` is the
    (statement count, delta version) the view was built at.
    """

    def __init__(
        self,
        shared: "_EngineState",
        store: TripleStore,
        rules: RuleSet,
        previous: "_View | None" = None,
    ):
        config = shared.config
        same_store = previous is not None and store is previous.store
        if not same_store:
            store.configure_pulls(config.merge_batch)
            store.configure_blocks(config.block_size)
        self.store = store
        self.rules = rules
        self.extent = (len(store), store.delta_version)
        self.statistics = StoreStatistics(store)
        grown = same_store or (
            previous is not None and _same_term_ids(previous.store, store)
        )
        if same_store and self.extent == previous.extent:
            # No statement moved: nothing to derive.
            self.matcher = previous.matcher
            arrivals = [(frozenset(), frozenset())] * 3
        else:
            if grown and not same_store:
                store.dictionary.adopt_sort_keys(previous.store.dictionary)
            self.matcher = TokenMatcher(
                store, previous=previous.matcher if grown else None
            )
            # What it gained over the previous view's built index; None
            # when it was not extended from one.
            arrivals = self.matcher.arrivals
        self.scorer = PatternScorer(store, config.scoring)
        self.suggester = QuerySuggester(
            self.statistics,
            self.matcher,
            min_overlap=config.suggestion_min_overlap,
        )
        self.generation = store.backend.generation
        self.version = self.rules_version = 0
        if previous is not None:
            self.version = previous.version + 1
            self.rules_version = previous.rules_version + (
                rules is not previous.rules
            )
            if store is previous.store:
                self.generation = previous.generation
            else:
                self.generation = max(self.generation, previous.generation + 1)
        self._processors: dict[ProcessorConfig, TopKProcessor] = {}
        if grown and rules is previous.rules:
            for processor_config, processor in dict(previous._processors).items():
                self._processors[processor_config] = processor.successor(
                    store, scorer=self.scorer, matcher=self.matcher, arrivals=arrivals
                )

    def processor(self, config: ProcessorConfig) -> TopKProcessor:
        """The processor under ``config``: an engine and its variants each
        get theirs — carried from the previous view's when there was one,
        else built on first use."""
        processor = self._processors.get(config)
        if processor is None:
            processor = self._processors.setdefault(
                config,
                TopKProcessor(
                    self.store,
                    rules=self.rules,
                    scorer=self.scorer,
                    matcher=self.matcher,
                    config=config,
                ),
            )
        return processor


class _EngineState:
    """What an engine and all its :meth:`TriniT.variant`\\ s share.

    ``view`` is the current :class:`_View`, replaced by one reference
    assignment in :meth:`publish`: readers never wait for a writer, nor
    writers for readers.  ``_readers`` counts, per store, the in-flight
    queries and open streams on it; a store that a publish superseded is
    closed by whoever lets go of it last.  ``write_lock`` serialises
    ingest, compaction and rule changes and guards ``fold``: the future of
    the background compaction scheduled last, kept until a writer has
    seen it finish.
    """

    def __init__(self, config: EngineConfig, store: TripleStore, rules: RuleSet):
        kind = config.executor_kind
        if kind not in ("thread", "serial"):
            raise TrinitError(
                f"Unknown executor_kind {kind!r} — expected 'thread' or "
                "'serial'"
            )
        self.config = config
        # The engine's one thread, for background compaction only.  It
        # spawns on the first fold, so most engines never start it;
        # close() shuts it down.
        self.executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="trinit-fold")
            if kind == "thread"
            else None
        )
        self.write_lock = threading.RLock()
        self.fold: Future | None = None
        self.listeners: list = []
        self.closed = False
        self._lock = threading.Lock()
        self._readers: dict[TripleStore, int] = {}
        self.view = _View(self, store, rules)

    def check_writable(self) -> None:
        """Refuse a write to a closed engine, and hand the writer what the
        last background fold raised (caller holds ``write_lock``).  A
        finished fold is forgotten here, so its error is raised once."""
        if self.closed:
            raise TrinitError("Engine is closed")
        fold = self.fold
        if fold is not None and fold.done():
            self.fold = None
            fold.result()

    @contextmanager
    def reading(self):
        """The current view, its store kept open for the ``with`` block."""
        view = self.acquire()
        try:
            yield view
        finally:
            self.release(view.store)

    def acquire(self) -> _View:
        """The current view; its store stays open until :meth:`release`."""
        with self._lock:
            view = self.view
            self._readers[view.store] = self._readers.get(view.store, 0) + 1
            return view

    def release(self, store: TripleStore) -> None:
        """Undo one :meth:`acquire`; a superseded store's last reader closes it."""
        with self._lock:
            self._readers[store] -= 1
            if self._readers[store]:
                return
            del self._readers[store]
            if store is self.view.store or self.closed:
                return
        store.close()

    def publish(self, engine: "TriniT", store: TripleStore, rules: RuleSet) -> _View:
        """Make the view over (``store``, ``rules``) current (caller holds
        ``write_lock``).  Listeners fire, with the publishing facade, when
        the generation or the rule set changed — what ``snapshot_identity``
        does not get from the store's delta version."""
        previous = self.view
        view = _View(self, store, rules, previous)
        with self._lock:
            self.view = view
            unread = (
                view.store is not previous.store
                and previous.store not in self._readers
            )
        if unread:
            previous.store.close()
        if (
            view.generation != previous.generation
            or view.rules_version != previous.rules_version
        ):
            for callback in list(self.listeners):
                callback(engine)
        return view

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        # Wait for the fold worker first: a background compaction still
        # running publishes before the stores are collected below.
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            stores = {self.view.store, *self._readers}
        for store in stores:
            store.close()


def _of_view(name: str) -> property:
    """A read-only :class:`TriniT` attribute: the current view's ``name``."""
    return property(lambda self: getattr(self._state.view, name))


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
        self.registry = registry if registry is not None else OperatorRegistry()
        self._register_default_operators()
        self._state = _EngineState(self.config, store, RuleSet(rules))
        # Mining fills the first view's rule set before anything reads it;
        # every later rule change publishes a new view (add_rules).
        view = self._state.view
        self.registry.run(
            OperatorContext(view.store, view.statistics), into=view.rules
        )

    store = _of_view("store")
    statistics = _of_view("statistics")
    matcher = _of_view("matcher")
    scorer = _of_view("scorer")
    suggester = _of_view("suggester")
    rules = _of_view("rules")
    generation = _of_view("generation")
    closed = property(lambda self: self._state.closed)

    @property
    def processor(self) -> TopKProcessor:
        """The current view's processor under this facade's knobs."""
        return self._state.view.processor(self.config.processor)

    @property
    def executor_kind(self) -> str:
        """``"thread"`` exactly when background folds run on the engine's
        worker, ``"serial"`` when they run in-line."""
        return "thread" if self._state.executor is not None else "serial"

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

    def _register_default_operators(self) -> None:
        cfg = self.config

        if cfg.mine_arg_overlap and "arg-overlap" not in self.registry:
            self.registry.register(
                "arg-overlap",
                lambda ctx: mine_arg_overlap_rules(
                    ctx.pair_index,
                    min_support=cfg.mining_min_support,
                    min_weight=cfg.mining_min_weight,
                ),
                description="XKG arg-overlap predicate rewrites (paper §3)",
            )
        if cfg.mine_chains and "chain-expansion" not in self.registry:
            self.registry.register(
                "chain-expansion",
                lambda ctx: mine_chain_expansion_rules(
                    ctx.pair_index,
                    min_support=cfg.mining_min_support,
                ),
                description="two-hop chain expansions (Figure 4 rule 3 shape)",
            )
        if cfg.mine_inversions and "inversions" not in self.registry:
            self.registry.register(
                "inversions",
                lambda ctx: inversion_rules(
                    ctx.pair_index, min_support=cfg.mining_min_support
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
        statements accumulate evidence on their existing records.  The
        batch ends by publishing a new read view: a built token matcher is
        extended by the statements that arrived (the first read afterwards
        costs the batch, not the store); statistics read the store's
        index as it is; collection mass is recomputed; the rule routing
        and every prepared query plan the batch cannot have changed carry
        over, so a repeated query plans nothing again.  An empty batch
        publishes nothing.

        A row that is not a :class:`Triple` is refused with
        :class:`TrinitError` before the store is touched; if the store
        itself fails midway, what it did absorb is published before the
        error propagates, so no statement is ever visible under a view
        that predates it.

        Once the delta outgrows ``EngineConfig.compaction_threshold`` the
        engine folds it into frozen storage (see :meth:`compact`) — on its
        worker thread under ``executor_kind="thread"``, inline under
        ``"serial"``.  A background fold that failed raises its exception
        from the next ``ingest`` or :meth:`compact`, before that call
        touches the store; the call after it schedules the fold again.
        Returns the triple ids, in input order.
        """
        triples = list(triples)
        for row in triples:
            if not isinstance(row, Triple):
                raise TrinitError(
                    f"ingest() takes ground Triples, got {type(row).__name__}"
                )
        state = self._state
        with state.write_lock:
            state.check_writable()
            if not triples:
                return []
            view = state.view
            try:
                ids = view.store.add_all(
                    triples, provenance, confidence=confidence, count=count
                )
            finally:
                state.publish(self, view.store, view.rules)
            self._maybe_compact()
        return ids

    def compact(self) -> int:
        """Synchronously fold the live delta into frozen storage.

        Directory-backed stores get a new snapshot **generation** (old
        segment files hardlinked, the delta frozen as one new segment, the
        root's ``CURRENT`` pointer swapped atomically); in-memory stores
        rebuild into one fresh base segment.  The
        compacted store is published as a new read view without waiting
        for anyone: queries in flight and open
        :class:`~repro.core.results.AnswerStream`\\ s finish on the store
        they started on (remaining ``next_k`` calls stay byte-identical),
        which closes when the last of them lets go.  Returns the engine's
        generation number (unchanged when there was no delta).
        """
        with self._state.write_lock:
            self._state.check_writable()
            return self._compact_locked()

    def _compact_locked(self) -> int:
        view = self._state.view
        if view.store.has_delta:
            view = self._state.publish(
                self, compact_store(view.store), view.rules
            )
        return view.generation

    def _maybe_compact(self, inline: bool = False) -> None:
        state = self._state
        threshold = self.config.compaction_threshold
        if threshold is None or state.view.store.delta_size < threshold:
            return
        if inline or state.executor is None:
            self._compact_locked()
        elif state.fold is None:
            # One fold at a time; the next writer to find it finished
            # clears it (check_writable) and may schedule another.
            state.fold = state.executor.submit(self._background_compact)

    def _background_compact(self) -> None:
        state = self._state
        with state.write_lock:
            if not state.closed:
                self._maybe_compact(inline=True)

    def on_store_swap(self, callback) -> None:
        """Register ``callback(engine)`` to run after every compaction and
        every :meth:`add_rules` that added a rule.

        The hook for whatever caches against one engine state (the query
        service's result cache): it fires once the new view is current —
        store, generation and :meth:`snapshot_identity` already name it —
        on the publishing thread (callbacks may query the engine;
        exceptions propagate to the publisher).  Plain ingests move the
        token's delta version instead and do not fire it.  Listeners are
        shared with :meth:`variant`\\ s.
        """
        self._state.listeners.append(callback)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release the engine's resources (fold worker, mmap buffers, columns).

        A background compaction already running finishes first — and
        publishes — while a queued one is cancelled; then every store
        still held — the current one, any the fold published and any
        superseded one an open stream reads — is released once.
        Streams become unusable (their ``next_k`` raises
        :class:`~repro.errors.StorageError`); answers already materialised
        stay valid.  Idempotent, and shared with :meth:`variant`\\ s.
        """
        self._state.close()

    def snapshot_identity(self) -> str:
        """A token naming exactly the engine state queries are served from.

        Directory-backed stores yield ``<snapshot root>@gen<K>+delta<V>``
        — the persistent address plus the active generation plus the
        monotonic version of the live delta segment; purely in-memory
        stores get a process-local ``mem:`` token with the same
        structure; ``+rules<N>`` follows once rules were added after
        construction.  Two engine states with equal tokens serve
        byte-identical answers, and any visible change (a live ingest, a
        compaction, an added rule) changes the token — which is what
        makes it a sound result-cache key component and a precise
        ``/healthz`` fingerprint.  Cheap to compute (no store traversal).
        """
        view = self._state.view
        store = view.store
        root = store.backend.snapshot_root
        base = str(root) if root else f"mem:{id(store):x}"
        rules = f"+rules{view.rules_version}" if view.rules_version else ""
        return f"{base}@gen{view.generation}+delta{store.delta_version}{rules}"

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
        with self._state.reading() as view:
            return view.processor(self.config.processor).query(query, k)

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
        state = self._state
        view = state.acquire()
        try:
            stream = AnswerStream(
                view.processor(self.config.processor).driver(query)
            )
        except BaseException:
            state.release(view.store)
            raise
        # The stream keeps its count until it is collected, so later
        # next_k calls resume byte-identically across any publish.
        weakref.finalize(stream, state.release, view.store)
        return stream

    def ask_many(
        self, queries: Sequence[Query | str], k: int | None = None
    ) -> list[AnswerSet]:
        """Answer queries one after another; results in input order.

        Every query is parsed before any runs, then each runs in-line on
        the calling thread as :meth:`ask` would — same answers, same
        errors — all on one read view: a write published while the batch
        runs reaches none of its queries.
        """
        parsed = [
            parse_query(query) if isinstance(query, str) else query
            for query in queries
        ]
        with self._state.reading() as view:
            processor = view.processor(self.config.processor)
            return [processor.query(query, k) for query in parsed]

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
        with self._state.reading() as view:
            return view.suggester.suggest(query, answers)

    # -- rule management ------------------------------------------------------------

    def add_rule(self, rule: RelaxationRule | str) -> RelaxationRule:
        """Add one relaxation rule (object or textual ``lhs => rhs @ w``)."""
        if isinstance(rule, str):
            rule = parse_rule(rule)
        self.add_rules([rule])
        return rule

    def add_rules(self, rules: Iterable[RelaxationRule | str]) -> int:
        """Add rules at run time; returns how many were new or improved.

        Published as a new read view: this engine and every
        :meth:`variant` apply them from their next query on.  No statement
        moved, so the view keeps its predecessor's token matcher as it
        is; rule routing and query plans start empty.
        """
        parsed = [parse_rule(r) if isinstance(r, str) else r for r in rules]
        state = self._state
        with state.write_lock:
            grown = RuleSet(state.view.rules)
            added = grown.extend(parsed)
            if added:
                state.publish(self, state.view.store, grown)
        return added

    # -- ablation variants ------------------------------------------------------------

    def variant(self, **processor_overrides) -> "TriniT":
        """A facade over the same engine state with different processor knobs.

        Used by the evaluation harness for ablations, e.g.
        ``engine.variant(use_relaxation=False)``.  Everything else is
        shared, not copied: an ingest, a compaction, an added rule or a
        ``close()`` through either facade is the same event for both.
        """
        clone = object.__new__(TriniT)
        clone.config = replace(
            self.config,
            processor=replace(self.config.processor, **processor_overrides),
        )
        clone.registry = self.registry
        clone._state = self._state
        return clone
