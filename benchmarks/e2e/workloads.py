"""The four workloads: inputs from a seed, set-up, the timed loop, checks.

Two processes share this module.  The *orchestrator* (``run.py``) calls
:func:`prepare` — generate the world, write the statements as JSONL, derive
the op list from the seed, compute the expected answer of every distinct op
on the reference configuration — and pickles the result.  The *measure
child* unpickles it and drives one :class:`Workload`: ``setup`` (bulk-load
the JSONL, save a sharded v3 snapshot, open it / start the server, one
warm-up pass), ``run`` (the closed loop), ``finish`` (post-window checks,
resource numbers), ``teardown``.  Only the child touches the system under
test, so its peak RSS is the engine's, not the generator's.

Everything goes through the public surface with the configuration users
get by default: ``load_store`` / ``save_snapshot`` / ``TriniT.open`` /
``ask`` / ``stream().next_k`` / ``explain`` / ``ingest`` / ``compact`` /
``python -m repro.serve`` + ``ServeClient``.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.engine import EngineConfig, TriniT
from repro.core.results import QueryStats
from repro.storage import persistence, snapshot

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: The byte-identity oracle every answer is compared against.
REFERENCE = dict(executor_kind="serial", merge_batch=1, block_size=1)

#: Wide-signature queries over KG vocabulary, in Zipf rank order: cost
#: follows posting-list length (hundreds to thousands of tied-weight
#: matches each), not k.  The issue's eight come first; twelve more make
#: the latency distribution less lumpy, so its median does not sit on the
#: edge between two queries' clusters.
SCAN_QUERIES = (
    "?x affiliation ?y",
    "?x bornIn ?y",
    "?a hasStudent ?b",
    "?x graduatedFrom ?y",
    "?x wonPrize ?y",
    "?x locatedIn ?y",
    "?p affiliation ?u . ?u locatedIn ?c",
    "?a hasStudent ?b . ?b bornIn ?c",
    "?x type ?y",
    "?x bornOnDate ?y",
    "?x citizenOf ?y",
    "?x researchArea ?y",
    "?x diedIn ?y",
    "?x marriedTo ?y",
    "?x type physicist",
    "?x type biologist",
    "?x graduatedFrom ?u . ?u locatedIn ?c",
    "?x bornIn ?c . ?c locatedIn ?n",
    "?x diedIn ?c . ?c locatedIn ?n",
    "?x marriedTo ?y . ?y affiliation ?u",
)

#: bench_traffic_replay's 1M-triple world; scan_kg scales it by people.
LARGE_WORLD = dict(
    num_people=175_000,
    num_countries=90,
    num_universities=1200,
    num_institutes=600,
    num_companies=1500,
    num_fields=200,
    num_prizes=150,
    num_groups=2000,
)

SERVE_KS = (5, 10, 20, 40)
SERVE_CLIENTS = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``SMOKE`` is about 1 % of ``FULL``."""

    harness: str = "medium"
    scan_people: int = 2000
    ingest_people: int = 2500
    ingest_batch: int = 50
    reads_per_round: int = 8
    ingest_rounds_per_s: float = 12.0
    compaction_threshold: int = 500
    setup_repeats: int = 3


FULL = Scale()
SMOKE = Scale(
    harness="tiny",
    scan_people=300,
    ingest_people=150,
    ingest_batch=10,
    ingest_rounds_per_s=40.0,
    compaction_threshold=40,
    setup_repeats=1,
)


# -- op lists -----------------------------------------------------------------


def zipf_round(items: int, size: int) -> list[int]:
    """``size`` item indices, item ``r`` present in proportion to ``1/(r+1)``.

    A fixed multiset (largest-remainder rounding) instead of independent
    draws: every window of whole rounds has exactly the Zipf(s=1) mix, so
    run-to-run differences are the system's, not the sampler's.
    """
    weights = [1.0 / (rank + 1) for rank in range(items)]
    total = sum(weights)
    quotas = [weight / total * size for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(items), key=lambda rank: quotas[rank] - counts[rank], reverse=True
    )
    for rank in by_remainder[: size - sum(counts)]:
        counts[rank] += 1
    return [rank for rank, count in enumerate(counts) for _ in range(count)]


def make_ops(rng: random.Random, mix: dict, round_size: int, total: int) -> list:
    """``total`` ops as seeded shuffles of one fixed round.

    ``mix`` maps kind -> (share, k, keys): the kind takes ``share`` of the
    round, its queries a Zipf multiset over ``keys`` in rank order.  A key
    may be a ``(query, k)`` pair (the serve cache keys) when k is ``None``.
    """
    one_round = []
    for kind, (share, k, keys) in mix.items():
        for index in zipf_round(len(keys), round(share * round_size)):
            query, key_k = keys[index] if k is None else (keys[index], k)
            one_round.append((kind, query, key_k))
    ops: list = []
    while len(ops) < total:
        rng.shuffle(one_round)
        ops.extend(one_round)
    return ops[:total]


#: Pages of a stream op: first page, then "more".  Only queries with more
#: than one page of answers are streamed — a user pages when there is more.
EXPLORE_PAGES = (5, 5)
SCAN_PAGES = (25, 50)


# -- executing one op -----------------------------------------------------------


def _fingerprint(answers) -> list:
    return [(answer.binding, answer.score) for answer in answers]


def engine_op(engine: TriniT, op):
    """Run one op on an in-process engine.

    Returns ``(fingerprint, latency_s, first_s, next_s, stats)``; the
    result is consumed (pages are lists) inside the timed region, the
    fingerprint is built after the clock stops.
    """
    kind, query, k = op
    first_s = next_s = None
    text = None
    started = time.perf_counter()
    if kind == "stream":
        stream = engine.stream(query)
        answers = stream.next_k(k[0])
        first_s = time.perf_counter() - started
        resumed = time.perf_counter()
        more = stream.next_k(k[1])
        ended = time.perf_counter()
        next_s = ended - resumed
        answers = answers + more
        stats = stream.stats
    else:
        result = engine.ask(query, k=k)
        answers = result.answers
        if kind == "explain" and answers:
            text = engine.explain(answers[0], result.query).render()
        ended = time.perf_counter()
        stats = result.stats
    return (_fingerprint(answers), text), ended - started, first_s, next_s, stats


def wire_op(client, op):
    """Run one op over HTTP; same return shape as :func:`engine_op`."""
    kind, query, k = op
    first_s = next_s = None
    started = time.perf_counter()
    if kind == "stream":
        first = client.stream(query, n=k[0])
        first_s = time.perf_counter() - started
        resumed = time.perf_counter()
        rest = client.resume(first.session, n=k[1])
        ended = time.perf_counter()
        next_s = ended - resumed
        answers = first.answers + rest.answers
        if first.error or rest.error:
            raise RuntimeError(f"SSE error event: {first.error or rest.error}")
    else:
        answers = client.query(query, k=k)["answers"]
        ended = time.perf_counter()
    return answers, ended - started, first_s, next_s, None


def wire_expected(engine: TriniT, op) -> list:
    """What the server must send for ``op``: ``serialize_answer`` of a
    direct engine's answers, ranks continuing across the resume."""
    from repro.serve.http import serialize_answer

    kind, query, k = op
    if kind == "stream":
        stream = engine.stream(query)
        answers = stream.next_k(k[0]) + stream.next_k(k[1])
    else:
        answers = engine.ask(query, k=k).answers
    return [serialize_answer(answer, rank) for rank, answer in enumerate(answers, 1)]


# -- inputs (orchestrator side) -----------------------------------------------


def _scan_world(people: int):
    from repro.kg.world import WorldConfig

    factor = people / LARGE_WORLD["num_people"]
    return WorldConfig(
        **{
            name: people if name == "num_people" else max(4, int(value * factor))
            for name, value in LARGE_WORLD.items()
        }
    )


def _query_pool(benchmark) -> list[str]:
    """The harness's 70 benchmark queries, the seven classes interleaved
    (direct, synonym, misnomer, ... then each class's second query, ...), so
    the hot Zipf ranks hold one query of every class.  The order does not
    depend on ``--seed``: which queries are hot decides the median, and that
    must not differ between two runs being compared."""
    by_class = [benchmark.of_class(name) for name in benchmark.classes()]
    return [
        queries[position].text
        for position in range(max(map(len, by_class)))
        for queries in by_class
        if position < len(queries)
    ]


def prepare(name: str, seed: int, scale: Scale, workdir: Path, budget_ops: int) -> dict:
    """Generate ``name``'s inputs under ``workdir``; returns the dict the
    measure child receives.  Same ``(name, seed, scale)`` → same inputs."""
    from repro.eval.harness import EvalHarness
    from repro.kg.generator import KgConfig, KgGenerator
    from repro.kg.world import World, WorldConfig

    rng = random.Random(f"{name}:{seed}")
    jsonl = workdir / "inputs.jsonl"
    inputs: dict = {"name": name, "seed": seed, "scale": scale, "jsonl": str(jsonl)}
    if name == "scan_kg":
        kg = KgGenerator(World.generate(_scan_world(scale.scan_people))).generate()
        store = kg.store("scan", freeze=False)
        pool, pages = list(SCAN_QUERIES), SCAN_PAGES
    else:
        harness = EvalHarness(scale.harness)
        store = harness.xkg_store
        pool, pages = _query_pool(harness.benchmark), EXPLORE_PAGES
    persistence.save_store(store, jsonl)
    inputs["statements"] = len(store)

    # A snapshot of the same JSONL under the oracle configuration gives the
    # reference answers (and says which queries have a second page).
    reference_dir = workdir / "reference.snapd"
    built = persistence.load_store(jsonl, backend="sharded")
    snapshot.save_snapshot(built, reference_dir)
    built.close()
    with TriniT.open(reference_dir, config=EngineConfig(**REFERENCE)) as engine:
        pageable = [q for q in pool if len(engine.ask(q, k=pages[0] + 1)) > pages[0]]
        stream = (pages, pageable)
        if name == "scan_kg":
            mix = {"ask": (0.6, 80, pool), "stream": (0.4, *stream)}
            inputs["ops"] = [make_ops(rng, mix, 100, budget_ops)]
        elif name == "explore_xkg":
            mix = {"ask": (0.7, 10, pool), "stream": (0.2, *stream), "explain": (0.1, 10, pool)}
            inputs["ops"] = [make_ops(rng, mix, 400, budget_ops)]
        elif name == "serve_http":
            # 70 queries x 4 ks = 280 cache keys, ranked query-major so the
            # hot keys are the hot queries of explore_xkg at every k.
            keys = [(query, k) for query in pool for k in SERVE_KS]
            mix = {"ask": (0.8, None, keys), "stream": (0.2, *stream)}
            inputs["ops"] = [
                make_ops(random.Random(f"{name}:{seed}:{client}"), mix, 2000, budget_ops)
                for client in range(SERVE_CLIENTS)
            ]
        else:
            mix = {"ask": (0.75, 10, pool), "stream": (0.25, *stream)}
            inputs["ops"] = [make_ops(rng, mix, 400, budget_ops)]
            extra = KgGenerator(
                World.generate(
                    WorldConfig(seed=rng.randrange(1 << 30), num_people=scale.ingest_people)
                ),
                KgConfig(seed=rng.randrange(1 << 30)),
            ).generate()
            inputs["ingest_pool"] = extra.triples
            inputs["probe"] = pool
        # ingest_mixed mutates its store, so it has no static reference; its
        # reads are checked against the reopened store instead.
        inputs["expected"] = {}
        if name != "ingest_mixed":
            for op in sorted({op for ops in inputs["ops"] for op in ops}, key=repr):
                inputs["expected"][op] = (
                    wire_expected(engine, op)
                    if name == "serve_http"
                    else engine_op(engine, op)[0]
                )
    shutil.rmtree(reference_dir)
    return inputs


# -- measurement (child side) ---------------------------------------------------


class ReferenceClock:
    """Wall time scaled to a reference machine speed.

    The sizing host's speed wanders by +-20 % in phases of 30-60 s (other
    tenants on the same hardware), so two identical runs a minute apart
    differ by more than any bound one would want.  The clock runs a fixed
    *probe* — half register arithmetic, half random reads over an 8 MB
    table, the two ways interpreter-bound code slows down — at most every
    ``PERIOD_S`` between ops, and scales time by how long the probe takes
    now against ``REFERENCE_S``: a latency of 1.2 ms measured while the
    probe runs 20 % slow counts as 1.0 ms.  All end-to-end times are in
    these *reference* seconds: what the run would read on a steady machine
    on which the probe takes exactly ``REFERENCE_S``.  Neither constant may
    change once numbers are compared against a baseline.

    The factor is the median of the last five probes, so one preempted
    probe cannot distort a segment.  Probe time itself is not counted.
    """

    REFERENCE_S = 0.001
    PERIOD_S = 0.05

    def __init__(self):
        self._table = array("q", range(1 << 20))
        rng = random.Random(0)
        self._index = [rng.randrange(1 << 20) for _ in range(2500)]
        self._recent: deque = deque(maxlen=5)
        self._lock = threading.Lock()
        self.elapsed = 0.0  # reference seconds before the open segment
        self._measure()

    def _measure(self) -> None:
        began = time.perf_counter()
        total = 0
        for i in range(8000):
            total += i * i
        table = self._table
        for j in self._index:
            total += table[j]
        self._recent.append(time.perf_counter() - began)
        self.factor = statistics.median(self._recent) / self.REFERENCE_S
        self._segment = time.perf_counter()

    def tick(self) -> None:
        """Re-measure the machine if the last probe is older than the period."""
        if time.perf_counter() - self._segment < self.PERIOD_S:
            return
        if self._lock.acquire(blocking=False):  # one prober at a time
            try:
                self.elapsed += (time.perf_counter() - self._segment) / self.factor
                self._measure()
            finally:
                self._lock.release()

    def now(self) -> float:
        """Reference seconds since the clock was made."""
        with self._lock:
            return self.elapsed + (time.perf_counter() - self._segment) / self.factor


@dataclass
class Samples:
    """What one window produced; every time in reference seconds."""

    clock: ReferenceClock
    started: float = 0.0
    ended: float = 0.0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    by_key: dict = field(default_factory=dict)  # distinct op -> its latencies
    eager: list = field(default_factory=list)
    op_ends: list = field(default_factory=list)
    first_pages: list = field(default_factory=list)
    next_pages: list = field(default_factory=list)
    after_ingest: list = field(default_factory=list)
    ingest_seconds: float = 0.0
    ingested: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    answers: int = 0
    stats: QueryStats = field(default_factory=QueryStats)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def begin(self) -> float:
        """Open the window; returns the wall time it started at."""
        self.started = self.clock.now()
        self._wall_began = time.perf_counter()
        return self._wall_began

    def end(self) -> None:
        self.ended = self.clock.now()
        self.wall_s = time.perf_counter() - self._wall_began

    @property
    def speed(self) -> float:
        """Reference seconds per wall second over the window."""
        return (self.ended - self.started) / self.wall_s

    def record(self, key, latency, first_s, next_s) -> None:
        """One finished op (wall seconds in), then maybe a probe."""
        clock = self.clock
        factor = clock.factor
        self.latencies.append(latency / factor)
        self.by_key.setdefault(key, []).append(latency / factor)
        self.op_ends.append(clock.now())
        if first_s is None:
            self.eager.append(latency / factor)
        else:
            self.first_pages.append(first_s / factor)
            self.next_pages.append(next_s / factor)
        clock.tick()


def disk_bytes(root: Path) -> int:
    """Bytes under ``root``, each inode once (generations hardlink the
    segments they share)."""
    seen = set()
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            status = os.stat(os.path.join(directory, name))
            if status.st_ino not in seen:
                seen.add(status.st_ino)
                total += status.st_size
    return total


class Workload:
    """One engine-in-process workload (``explore_xkg``, ``scan_kg``)."""

    run_op = staticmethod(engine_op)

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir
        self.ops = inputs["ops"][0]
        self.expected = inputs["expected"]
        self.snapshot_dir = workdir / "store.snapd"
        self.engine: TriniT | None = None
        self.counting = False
        self.clock = ReferenceClock()

    def config(self) -> EngineConfig:
        return EngineConfig()

    def build_snapshot(self) -> None:
        if self.snapshot_dir.exists():
            shutil.rmtree(self.snapshot_dir)
        store = persistence.load_store(self.inputs["jsonl"], backend="sharded")
        self.clock.tick()
        snapshot.save_snapshot(store, self.snapshot_dir)
        store.close()
        self.clock.tick()

    def warm_up(self) -> None:
        for op in sorted(set(self.ops), key=repr):
            engine_op(self.engine, op)
            self.clock.tick()

    def setup(self) -> None:
        self.build_snapshot()
        self.engine = TriniT.open(self.snapshot_dir, config=self.config())
        self.clock.tick()
        self.warm_up()

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def check(self, op, got, samples: Samples) -> None:
        if got != self.expected[op]:
            samples.fail(f"answers differ from the reference: {op!r}")

    def run(self, seconds: float, tracer=None) -> Samples:
        samples = Samples(self.clock)
        engine, ops, count = self.engine, self.ops, len(self.ops)
        deadline = samples.begin() + seconds
        index = 0
        while time.perf_counter() < deadline:
            op = ops[index % count]
            index += 1
            self.one(engine, op, samples, tracer)
        samples.end()
        return samples

    def one(self, target, op, samples: Samples, tracer=None, fresh=False) -> None:
        """Run ``op`` against the engine (or HTTP client), record, check.
        ``fresh`` marks the first read after an ingest: its own kind of op."""
        samples.attempted += 1
        try:
            if tracer is None:
                got, latency, first_s, next_s, stats = self.run_op(target, op)
            else:
                with tracer.op():
                    got, latency, first_s, next_s, stats = self.run_op(target, op)
        except Exception as exc:  # noqa: BLE001 - raised, non-2xx, shed: all counted
            samples.fail(f"{type(exc).__name__}: {exc} in {op!r}")
            return
        samples.record((op, fresh), latency, first_s, next_s)
        self.check(op, got, samples)
        if self.counting and stats is not None:  # the server keeps its own
            samples.stats = samples.stats.merge(stats)
            samples.answers += len(got[0])

    def finish(self, samples: Samples) -> dict:
        return {
            "disk_bytes": disk_bytes(self.snapshot_dir),
            "statements": len(self.engine.store),
        }


class IngestMixed(Workload):
    """Writes beside reads on a generational snapshot directory."""

    def __init__(self, inputs: dict, workdir: Path):
        super().__init__(inputs, workdir)
        self.scale: Scale = inputs["scale"]
        self.pool = inputs["ingest_pool"]
        self.pristine = workdir / "pristine.snapd"

    def config(self) -> EngineConfig:
        return EngineConfig(compaction_threshold=self.scale.compaction_threshold)

    def setup(self) -> None:
        # The store is built once; every set-up works on a private copy,
        # as an operator restoring a snapshot to write to would.
        if not self.pristine.exists():
            self.build_snapshot()
            self.snapshot_dir.rename(self.pristine)
        if self.snapshot_dir.exists():
            shutil.rmtree(self.snapshot_dir)
        shutil.copytree(self.pristine, self.snapshot_dir)
        self.clock.tick()
        self.engine = TriniT.open(self.snapshot_dir, config=self.config())
        self.clock.tick()
        self.warm_up()
        self.base_bytes = disk_bytes(self.snapshot_dir)
        self.base_statements = len(self.engine.store)

    def check(self, op, got, samples: Samples) -> None:
        # The store moves under the reads; the end-of-run probe verifies.
        pass

    def run(self, seconds: float, tracer=None) -> Samples:
        scale = self.scale
        samples = Samples(self.clock)
        engine, ops, count = self.engine, self.ops, len(self.ops)
        batch = scale.ingest_batch
        rounds = max(2, int(seconds * scale.ingest_rounds_per_s))
        rounds = min(rounds, len(self.pool) // batch)
        self.acknowledged = []
        index = 0
        samples.begin()
        for number in range(rounds):
            triples = self.pool[number * batch : (number + 1) * batch]
            samples.attempted += 1
            began = time.perf_counter()
            try:
                engine.ingest(triples)
            except Exception as exc:  # noqa: BLE001
                samples.fail(f"{type(exc).__name__}: {exc} in ingest {number}")
                continue
            samples.ingest_seconds += (time.perf_counter() - began) / self.clock.factor
            self.clock.tick()
            samples.ingested += len(triples)
            self.acknowledged.extend(triples)
            for read in range(scale.reads_per_round):
                before = len(samples.latencies)
                self.one(engine, ops[index % count], samples, tracer, fresh=read == 0)
                index += 1
                if read == 0 and len(samples.latencies) > before:
                    samples.after_ingest.append(samples.latencies[-1])
        samples.end()
        return samples

    def finish(self, samples: Samples) -> dict:
        """compact → probe → close → reopen: every acknowledged statement
        is there and the probe answers are the same bytes."""
        engine = self.engine
        engine.compact()
        probe = [("ask", query, 10) for query in self.inputs["probe"]]
        before = [engine_op(engine, op)[0] for op in probe]
        generations = engine.generation
        engine.close()
        self.engine = engine = TriniT.open(self.snapshot_dir)
        lookup = engine.store.lookup
        missing = sum(1 for triple in self.acknowledged if lookup(triple) is None)
        samples.attempted += len(self.acknowledged) + len(probe)
        if missing:
            samples.failed += missing
            samples.errors.append(f"{missing} acknowledged statements lost on reopen")
        for op, expected in zip(probe, before):
            if engine_op(engine, op)[0] != expected:
                samples.fail(f"answers changed across close/reopen: {op!r}")
        total = disk_bytes(self.snapshot_dir)
        return {
            "disk_bytes": total,
            "statements": len(engine.store),
            "generations": generations,
            "retained_generations": sum(
                1 for entry in os.listdir(self.snapshot_dir) if entry.startswith("generation-")
            ),
            "bytes_written": total - self.base_bytes,
        }


class ServeHttp(Workload):
    """The explore snapshot behind ``python -m repro.serve``, two clients."""

    run_op = staticmethod(wire_op)

    def __init__(self, inputs: dict, workdir: Path):
        super().__init__(inputs, workdir)
        self.server: subprocess.Popen | None = None
        self.trace_out: Path | None = None  # set → start traced_serve.py
        self.clients: list = []

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        self.build_snapshot()
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(self.trace_out)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.server = subprocess.Popen(
            command + [str(self.snapshot_dir), "--port", "0"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        port = None
        for line in self.server.stderr:
            if line.startswith("listening on "):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError("server child exited before listening")
        # Keep draining stderr so the child never blocks on a full pipe.
        threading.Thread(target=self.server.stderr.read, daemon=True).start()
        self.clients = [ServeClient("127.0.0.1", port) for _ in self.inputs["ops"]]
        for op in sorted({op for ops in self.inputs["ops"] for op in ops}, key=repr):
            wire_op(self.clients[0], op)
            self.clock.tick()
        if self.trace_out is not None:
            self.server.send_signal(signal.SIGUSR1)  # warm-up spans end here
        self.metrics_before = self.clients[0].metrics()

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None

    def run(self, seconds: float, tracer=None) -> Samples:
        samples = Samples(self.clock)
        parts = [Samples(self.clock) for _ in self.clients]
        deadline = samples.begin() + seconds

        def loop(client, ops, part: Samples) -> None:
            index, count = 0, len(ops)
            while time.perf_counter() < deadline:
                self.one(client, ops[index % count], part)
                index += 1

        threads = [
            threading.Thread(target=loop, args=(client, ops, part))
            for client, ops, part in zip(self.clients, self.inputs["ops"], parts)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        samples.end()
        for part in parts:
            for name in ("latencies", "eager", "op_ends", "first_pages", "next_pages", "errors"):
                getattr(samples, name).extend(getattr(part, name))
            for key, latencies in part.by_key.items():
                samples.by_key.setdefault(key, []).extend(latencies)
            samples.attempted += part.attempted
            samples.failed += part.failed
        return samples

    def finish(self, samples: Samples) -> dict:
        if self.trace_out is not None:
            self.server.send_signal(signal.SIGUSR1)  # window spans end here
        return {
            "disk_bytes": disk_bytes(self.snapshot_dir),
            "statements": self.inputs["statements"],
            "metrics_before": self.metrics_before,
            "metrics_after": self.clients[0].metrics(),
        }


WORKLOADS = {
    "explore_xkg": Workload,
    "scan_kg": Workload,
    "serve_http": ServeHttp,
    "ingest_mixed": IngestMixed,
}
