"""One differential harness: world × layout × configuration × oracle.

A grid cell names a **world** (statements and rules: :func:`world`,
:func:`world_of`, :func:`random_worlds`), a **layout** of the subject's
store (``tests/layouts.py``: ``fresh`` or ``generational``; ``snapshot``
is one loaded segment), a **configuration** (``EngineConfig`` fields;
:data:`CONFIGS` are the execution knobs the grids sweep), a **workload**
(asks at k, stream pages, ``ask_many`` batches, ingest batches,
``compact()``, added rules, storage checks, or a callable applied to the
subject alone) and its **oracles**: the subject's configuration with some
knobs overridden (:data:`PER_ITEM`, the serial per-item reference) or the
term-space reference core of ``tests/reference_core.py``
(:data:`TERMSPACE`), each over a fresh in-memory build of the statements
the subject holds at that op, with its rules, planning every query cold.

:func:`run` replays the workload and compares each op that reads with
every oracle by :func:`fingerprint` — with ``counters``, also by each work
counter no knob differing between the two governs — and names the first
op that diverges.  A page is held to the oracle's eager answers at the
running total (or, with counters, to the same page of the oracle's own
stream).  When the cell ends, every store the subject opened is closed.

The fresh build (:class:`Statements`) models the documented deviation:
new evidence for an already-frozen statement updates its record, not its
sort weight, which stays what the segment holding the statement froze it
with.  An in-memory compaction re-freezes every statement, a generation
write only the delta's.
"""

from __future__ import annotations

import tempfile
from collections import namedtuple
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from itertools import groupby
from pathlib import Path
from unittest.mock import patch

from hypothesis import strategies as st

from repro.core.engine import EngineConfig, TriniT
from repro.core.parser import parse_query, parse_rule
from repro.core.terms import Resource, TextToken
from repro.core.triples import Provenance, Triple
from repro.storage.index import SIGNATURES
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.store import TripleStore
from repro.util.heap import TieFrontier

from layouts import distinct_keys, generational_copy, replay
from reference_core import reference_query

#: The serial per-item reference: item-at-a-time pulls and scoring.
ORACLE = dict(executor_kind="serial", merge_batch=1, block_size=1)
#: The execution knobs the grids sweep.
CONFIGS = {
    "oracle": ORACLE,
    "default": {},
    "block3": {"block_size": 3},
    "block3-batch2": {"block_size": 3, "merge_batch": 2},
}
#: Only the rules a world states (miners run once, at construction).
NO_MINING = dict(mine_arg_overlap=False, mine_chains=False, mine_inversions=False)
#: A join settles inside an answer-ordered tied run only where that skips
#: ``TieFrontier.MIN_SKIP`` postings — more than small worlds hold — so the
#: grids run with the shipped threshold and with it at 0.
SETTLE_SKIPS = (0, TieFrontier.MIN_SKIP)

#: Counters of how postings were staged: they follow ``block_size``…
STAGING = frozenset({"blocks_decoded", "block_cache_hits"})
#: …of how far pulls fetched ahead: they follow ``merge_batch``…
FETCHING = frozenset({"posting_pulls", "postings_materialized", "delta_hits"})
#: …and of the segments and delta a lookup spans, which a fresh build lacks.
SHAPE = frozenset({"segments_touched", "delta_hits"})


def fingerprint(answers) -> list[tuple]:
    """An answer list as everything it shows: bindings, score bits,
    derivation counts and each best derivation whole — evaluated patterns
    (fresh variable names included), stored triples with their evidence as
    it is now, per-pattern scores, rules, token matches and rewriting."""
    return [
        (a.binding, a.score, a.num_derivations, _derivation(a.derivation))
        for a in answers
    ]


def _derivation(derivation) -> tuple:
    matches = tuple(
        (
            m.pattern,
            tuple(
                (r.triple, r.count, r.confidence, tuple(r.provenances))
                for r in m.records
            ),
            m.score,
            m.rule,
            m.token_matches,
        )
        for m in derivation.matches
    )
    return matches, derivation.rewriting, derivation.rewriting_weight


def work(stats, ignored=frozenset({"elapsed_seconds"})) -> dict:
    """``stats``' counters by name, but the ``ignored`` ones."""
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if f.name not in ignored
    }


# -- worlds -----------------------------------------------------------------


def term(name):
    """A world row's term: a ``'quoted'`` name is a phrase."""
    if not isinstance(name, str):
        return name
    return TextToken(name[1:-1]) if name.startswith("'") else Resource(name)


def observation(row) -> tuple[Triple, float, int]:
    """``(s, p, o[, confidence[, count]])``, ``(triple[, confidence[, count]])``
    or a bare triple."""
    if isinstance(row, Triple):
        return row, 1.0, 1
    if isinstance(row[0], Triple):
        triple, *evidence = row
    else:
        s, p, o, *evidence = row
        triple = Triple(term(s), term(p), term(o))
    confidence, count = (*evidence, *(1.0, 1)[len(evidence):])
    return triple, confidence, count


@dataclass(frozen=True)
class World:
    """Statements, as the records of a load-phase store, and rules."""

    records: tuple
    rules: tuple = ()

    def store(self) -> TripleStore:
        """A fresh frozen build."""
        store = TripleStore()
        replay(store, self.records)
        return store.freeze()


def world(rows=(), rules=(), provenance=None) -> World:
    """``rows`` observed in order (a duplicate adds to its statement)."""
    store = TripleStore()
    for row in rows:
        triple, confidence, count = observation(row)
        store.add(triple, provenance, confidence=confidence, count=count)
    return world_of(store, rules)


def world_of(store: TripleStore, rules=()) -> World:
    """``store``'s statements; ``rules`` are texts or rule objects."""
    return World(
        tuple(store.records()),
        tuple(parse_rule(r) if isinstance(r, str) else r for r in rules),
    )


class Statements:
    """The statement multiset a subject holds, as a fresh build answers it.

    Every observation goes into a load-phase store, so counts, confidences,
    provenance and ids are the subject's.  Beside it, each statement's
    *sort* evidence: what the segment holding it froze it with — the first
    ``frozen`` statements are in segments from the start.  A delta
    statement sorts by its current evidence.
    """

    def __init__(self, world: World, frozen: int):
        self.world, self.truth = world, None
        self.frozen = {
            tid: (record.count, record.confidence)
            for tid, record in enumerate(world.records[:frozen])
        }

    def records(self):
        if self.truth is None:
            self.truth = TripleStore()
            replay(self.truth, self.world.records)
        return self.truth.records()

    def add(self, row) -> None:
        self.records()
        triple, confidence, count = observation(row)
        self.truth.add(triple, confidence=confidence, count=count)

    def compact(self, rebuilds: bool) -> None:
        """An in-memory compaction (``rebuilds``) re-freezes every
        statement; a generation write only the delta's."""
        for tid, record in enumerate(self.records()):
            if rebuilds or tid not in self.frozen:
                self.frozen[tid] = (record.count, record.confidence)

    def store(self) -> TripleStore:
        """A fresh in-memory build sorted by the frozen evidence, whose
        records hold the current one."""
        if self.truth is None:
            return self.world.store()
        records = list(self.records())
        store = TripleStore()
        for tid, record in enumerate(records):
            count, confidence = self.frozen.get(tid, (record.count, record.confidence))
            store.add(record.triple, confidence=confidence, count=count)
        store.freeze()
        for built, record in zip(store.records(), records):
            built.count, built.confidence = record.count, record.confidence
            built.provenances = list(record.provenances)
        return store


def storage(store: TripleStore) -> tuple:
    """Records, sort weights, collection mass and every posting list."""
    backend = store.backend
    postings = {
        (sig, key): list(backend.postings(bound, key))
        for sig in ((), *SIGNATURES)
        for bound in [[slot in sig for slot in range(3)]]
        for key in distinct_keys(backend, bound)
    }
    return (
        [(r.triple, r.count, r.confidence, r.provenances) for r in store.records()],
        list(store.weights()),
        store.total_observations(),
        postings,
    )


# -- random worlds ------------------------------------------------------------

#: Eleven entities, four predicates, two phrases, three confidences and
#: small counts: posting lists are a handful of long ties, relaxations tie
#: with the originals, and pages end inside runs.
RANDOM_ROWS = st.tuples(
    st.integers(0, 10).map("E{}".format),
    st.sampled_from(["p0", "p1", "p2", "p3", "'works at'", "'lives in'"]),
    st.integers(0, 10).map("E{}".format),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.integers(min_value=1, max_value=4),
)
def _rule(premise, conclusion, weight, inverted) -> str:
    head = f"?y {conclusion} ?x" if inverted else f"?x {conclusion} ?y"
    return f"?x {premise} ?y => {head} @ {weight}"


RANDOM_RULES = st.lists(
    st.tuples(
        st.sampled_from(["p0", "p1", "p2", "p3", "'works at'"]),
        st.sampled_from(["p0", "p1", "p2", "p3", "'works at'", "'lives in'"]),
        st.sampled_from([0.4, 0.6, 0.9]),
        st.booleans(),
    )
    .filter(lambda r: r[0] != r[1])
    .map(lambda r: _rule(*r)),
    max_size=4,
)
RANDOM_QUERIES = st.sampled_from(
    [
        "?x p0 ?y",
        "E1 p1 ?y",
        "?x p2 E2",
        "?x 'works at' ?y",
        "?x p3 ?x",
        "?x p0 ?y ; ?y p1 ?z",
        "?x 'works at' ?u ; ?u p2 ?c",
    ]
)


def random_worlds(max_rows: int = 35):
    """Worlds of up to ``max_rows`` :data:`RANDOM_ROWS`, extracted from one
    document, and up to four :data:`RANDOM_RULES`."""
    provenance = Provenance("openie", "doc-prop", "", "reverb")
    return st.builds(
        lambda rows, rules: world(rows, rules, provenance),
        st.lists(RANDOM_ROWS, min_size=1, max_size=max_rows),
        RANDOM_RULES,
    )


# -- oracles and workloads ----------------------------------------------------


@dataclass(frozen=True)
class Oracle:
    """The engine under the subject's configuration with ``overrides``, or
    — ``termspace`` — the reference core driving that engine's plans."""

    name: str
    overrides: tuple = tuple(ORACLE.items())
    termspace: bool = False


PER_ITEM = Oracle("per-item engine")
TERMSPACE = Oracle("term-space core", termspace=True)

# The workload's ops.  A ``Page`` is the next ``n`` answers of the stream
# named ``stream``, opened over ``query`` on first use (``""``: the query's
# own); ``Ingest`` takes world rows, one ``ingest`` call per run of rows
# sharing confidence and count; ``Storage`` compares the subject's
# :func:`storage` with the fresh build's.
Ask = namedtuple("Ask", "query k", defaults=(10,))
Page = namedtuple("Page", "query n stream", defaults=("",))
AskMany = namedtuple("AskMany", "queries k", defaults=(10,))
Ingest = namedtuple("Ingest", "rows")
Compact = namedtuple("Compact", "")
AddRule = namedtuple("AddRule", "text")
Storage = namedtuple("Storage", "")


def pages(query, sizes, stream: str = "") -> list[Page]:
    return [Page(query, n, stream) for n in sizes]


@dataclass
class _Stream:
    stream: object
    store: TripleStore
    references: dict
    shown: int = 0


class _Cell:
    def __init__(self, world, layout, config, oracles, counters, directory):
        store = world.store()
        if layout == "snapshot":
            save_snapshot(store, directory)
            store = load_snapshot(directory)
        elif layout == "generational":
            store = generational_copy(store, directory)
        self.engine = TriniT(store, rules=world.rules, config=EngineConfig(**config))
        self.model = Statements(world, len(store) - store.delta_size)
        self.oracles, self.counters = oracles, counters
        self.stores, self.engines = [store], [self.engine]
        self.current: dict[tuple, TriniT] = {}
        self.streams: dict[str, _Stream] = {}

    def reference(self, oracle: Oracle) -> TriniT:
        """The engine over the statements as they are now, one per overridden knobs."""
        engine = self.current.get(oracle.overrides)
        if engine is None:
            knobs = {**dict(oracle.overrides), "compaction_threshold": None}
            knobs.update(NO_MINING, mine_amie=False, mine_esa=False)
            config = replace(self.engine.config, **knobs)
            engine = TriniT(self.model.store(), rules=self.engine.rules, config=config)
            engine.processor.MAX_PREPARED = 0
            self.current[oracle.overrides] = engine
            self.engines.append(engine)
        return engine

    @staticmethod
    def eager(oracle, engine, query, k):
        if not oracle.termspace:
            return engine.ask(query, k)
        query = parse_query(query) if isinstance(query, str) else query
        return reference_query(engine.processor, query, k)

    def ignored(self, oracle: Oracle, store: TripleStore) -> set:
        knobs, config = dict(oracle.overrides), self.engine.config
        ignored = {"elapsed_seconds"}
        if knobs.get("merge_batch", config.merge_batch) != config.merge_batch:
            ignored |= STAGING | FETCHING
        elif knobs.get("block_size", config.block_size) != config.block_size:
            ignored |= STAGING
        if store.has_delta or store.backend.segment_count() > 1:
            ignored |= SHAPE
        return ignored

    def write(self, apply, rows=()) -> None:
        store = self.engine.store
        rebuilds = store.backend.snapshot_root is None
        apply()
        for row in rows:
            self.model.add(row)
        if self.engine.store is not store:
            self.model.compact(rebuilds)
            self.stores.append(self.engine.store)
        self.current = {}

    def step(self, index: int, op):
        def check(oracle_name, got, want):
            assert got == want, f"op {index} {op} diverges from the {oracle_name}"

        engine = self.engine
        if isinstance(op, Ask):
            answers = engine.ask(op.query, op.k)
            for oracle in self.oracles:
                want = self.eager(oracle, self.reference(oracle), op.query, op.k)
                check(oracle.name, fingerprint(answers), fingerprint(want))
                if self.counters and not oracle.termspace:
                    ignored = self.ignored(oracle, engine.store)
                    check(
                        oracle.name,
                        work(answers.stats, ignored),
                        work(want.stats, ignored),
                    )
            return fingerprint(answers), work(answers.stats)
        if isinstance(op, Page):
            return self.page(op, check)
        if isinstance(op, AskMany):
            got = [fingerprint(a) for a in engine.ask_many(op.queries, k=op.k)]
            for oracle in self.oracles:
                reference = self.reference(oracle)
                want = [
                    fingerprint(self.eager(oracle, reference, q, op.k))
                    for q in op.queries
                ]
                check(oracle.name, got, want)
            return got
        if isinstance(op, Storage):
            fresh = self.model.store()
            got = storage(engine.store)
            check("fresh build", got, storage(fresh))
            fresh.close()
            return got
        if isinstance(op, Ingest):
            runs = groupby(op.rows, lambda row: observation(row)[1:])
            for (confidence, count), run in runs:
                run = list(run)
                triples = [observation(row)[0] for row in run]
                self.write(
                    lambda: engine.ingest(triples, confidence=confidence, count=count),
                    run,
                )
        elif isinstance(op, Compact):
            self.write(engine.compact)
        elif isinstance(op, AddRule):
            self.write(lambda: engine.add_rule(op.text))
        else:
            op(engine)
        return None

    def page(self, op: Page, check):
        entry = self.streams.get(op.stream or op.query)
        if entry is None:
            references = {}
            for oracle in self.oracles:
                reference = self.reference(oracle)
                streams = self.counters and not oracle.termspace
                stream = reference.stream(op.query) if streams else None
                references[oracle] = (reference, stream)
            entry = _Stream(self.engine.stream(op.query), self.engine.store, references)
            self.streams[op.stream or op.query] = entry
        page = fingerprint(entry.stream.next_k(op.n))
        for oracle, (reference, stream) in entry.references.items():
            if stream is None:
                want = self.eager(oracle, reference, op.query, entry.shown + op.n)
                check(oracle.name, page, fingerprint(want)[entry.shown :])
            else:
                check(oracle.name, page, fingerprint(stream.next_k(op.n)))
                ignored = self.ignored(oracle, entry.store)
                check(
                    oracle.name,
                    work(entry.stream.stats, ignored),
                    work(stream.stats, ignored),
                )
        entry.shown += len(page)
        return page, work(entry.stream.stats)


def run(
    world: World, layout: str, workload, config=(), oracles=(PER_ITEM,), *,
    counters: bool = False, settle_skip: int | None = None,
) -> list:
    """Replay ``workload`` on an engine under ``config`` over ``world`` in
    ``layout``, comparing each op with every one of ``oracles``.

    Returns the subject's trace, one entry per op: ``(fingerprint,
    counters)`` for an ask or a page (a page's counters are its stream's
    so far), the fingerprints of an ``ask_many``, the :func:`storage` of a
    :class:`Storage`, ``None`` for a write.
    ``settle_skip`` patches ``TieFrontier.MIN_SKIP``.  A configuration
    with a compaction threshold must fold inline (``executor_kind=
    "serial"``), so that the model sees each fold where it happens.
    """
    config = dict(config)
    if config.get("compaction_threshold") is not None:
        assert config.get("executor_kind") == "serial", (
            "a background fold races the model"
        )
    skip = TieFrontier.MIN_SKIP if settle_skip is None else settle_skip
    with ExitStack() as scope:
        scope.enter_context(patch.object(TieFrontier, "MIN_SKIP", skip))
        directory = None
        if layout != "fresh":
            root = scope.enter_context(tempfile.TemporaryDirectory())
            directory = Path(root) / "xkg.snapd"
        cell = _Cell(world, layout, config, oracles, counters, directory)
        try:
            trace = [cell.step(index, op) for index, op in enumerate(workload)]
        finally:
            cell.streams.clear()
            for engine in cell.engines:
                engine.close()
        assert all(store.closed for store in cell.stores), "the cell left a store open"
    return trace
