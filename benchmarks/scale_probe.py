"""The ``scan_kg`` shape at other sizes: what a wide query costs as the KG grows.

    python3 benchmarks/scale_probe.py                  # 2,000 and 20,000 people
    python3 benchmarks/scale_probe.py --people 300     # the CI smoke size
    python3 benchmarks/scale_probe.py --people 175000  # the 1M-triple shape (minutes, GBs)
    python3 benchmarks/scale_probe.py --record BENCH_scale.json   # append the rows

``benchmarks/e2e/`` measures ``scan_kg`` at one size (2,000 people, ~11.7k
statements).  ROADMAP's north star is stated on the 175k-people / 1M-triple
world, so this probe replays the same op mix — the same world generator,
query pool, k and page sizes, imported from the frozen benchmark — at any
number of people, through the same public path (JSONL → sharded snapshot →
``TriniT.open``), and prints per size: the op median, the first and the
next page of the stream ops, how many sorted accesses an answer costs
(overall and for the single-pattern ops alone), how many postings an answer
of the join ops reads by sorted and random access together (a join settles
its tied band by probes, ``QueryStats.random_accesses``), what one sorted access
costs, how long ``TriniT.open`` took, the engine's peak RSS and the
snapshot's bytes on disk per statement.  Every distinct op's answers are
checked against the term-space reference core (``tests/reference_core.py``),
which reads every tied run to its end — so a join that stops inside a run
too early shows up — and a stream's two pages against its reference
prefix of 25 + 50 answers; a difference fails the run (exit 1).

Each size runs in two child processes: one builds the snapshot and the
reference answers, the other opens the snapshot and replays the ops, so the
RSS reported is the engine's, not the generator's.  ``--record PATH``
appends one JSON row per (sha, people) to a trajectory file (a row for the
same sha and size is replaced); it refuses to record from a tree with
uncommitted changes, since the sha would not name the code that ran.  The
probe itself is exempt and named by its content hash (``probe``): to
measure an older commit with this probe, copy the file into a clean
checkout of it and pass ``--record`` an absolute path.

It is a probe, not a benchmark: plain wall time, no bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

from e2e.workloads import (  # noqa: E402
    SCAN_PAGES,
    SCAN_QUERIES,
    _fingerprint,
    _scan_world,
    disk_bytes,
    engine_op,
    make_ops,
)
from reference_core import reference_query  # noqa: E402
from repro.core.engine import TriniT  # noqa: E402
from repro.core.parser import parse_query  # noqa: E402
from repro.kg.generator import KgGenerator  # noqa: E402
from repro.kg.world import World  # noqa: E402
from repro.storage import persistence, snapshot  # noqa: E402


def build(people: int, ops_wanted: int, seed: int, workdir: Path) -> dict:
    """Child 1: the snapshot, the op list and the reference answers."""
    began = time.perf_counter()
    kg = KgGenerator(World.generate(_scan_world(people))).generate()
    store = kg.store("scan", freeze=False)
    statements = len(store)
    jsonl = workdir / "inputs.jsonl"
    persistence.save_store(store, jsonl)
    del kg, store
    built = persistence.load_store(jsonl)
    snapshot.save_snapshot(built, workdir / "scan.snapd")
    built.close()
    build_s = time.perf_counter() - began
    disk_bytes_per_stmt = disk_bytes(workdir / "scan.snapd") / statements
    pool = list(SCAN_QUERIES)
    with TriniT.open(workdir / "scan.snapd") as engine:

        def reference(query: str, k: int) -> list:
            return _fingerprint(reference_query(engine.processor, parse_query(query), k))

        first = SCAN_PAGES[0]
        pageable = [q for q in pool if len(reference(q, first + 1)) > first]
        mix = {"ask": (0.6, 80, pool), "stream": (0.4, SCAN_PAGES, pageable)}
        ops = make_ops(random.Random(f"scan_kg:{seed}"), mix, 100, ops_wanted)
        # engine_op's result: the answers' fingerprint (a stream's pages
        # concatenated) and no explanation text.
        expected = {
            op: (reference(op[1], op[2] if op[0] == "ask" else sum(op[2])), None)
            for op in sorted(set(ops), key=repr)
        }
    with (workdir / "inputs.pkl").open("wb") as handle:
        pickle.dump({"ops": ops, "expected": expected}, handle)
    return {
        "statements": statements,
        "build_s": build_s,
        "disk_bytes_per_stmt": disk_bytes_per_stmt,
    }


def replay(workdir: Path) -> dict:
    """Child 2: open the snapshot with the default configuration, check
    every distinct op against the reference answers, then time the op list."""
    with (workdir / "inputs.pkl").open("rb") as handle:
        inputs = pickle.load(handle)
    ops, expected = inputs["ops"], inputs["expected"]
    began = time.perf_counter()
    with TriniT.open(workdir / "scan.snapd") as engine:
        open_s = time.perf_counter() - began
        wrong = [op for op in expected if engine_op(engine, op)[0] != expected[op]]
        latencies, first_pages, next_pages = [], [], []
        accesses = answers = single_accesses = single_answers = 0
        join_reads = join_answers = 0
        for op in ops:
            result, latency, first_s, next_s, stats = engine_op(engine, op)
            latencies.append(latency)
            if first_s is not None:
                first_pages.append(first_s)
                next_pages.append(next_s)
            accesses += stats.sorted_accesses
            answers += len(result[0])
            if "." not in op[1]:
                single_accesses += stats.sorted_accesses
                single_answers += len(result[0])
            else:
                # An older commit's stats have no random accesses.
                join_reads += stats.sorted_accesses + getattr(stats, "random_accesses", 0)
                join_answers += len(result[0])
    return {
        "ops": len(ops),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": sorted(latencies)[round(0.9 * (len(latencies) - 1))] * 1e3,
        "first_page_p50_ms": statistics.median(first_pages) * 1e3,
        "next_page_p50_ms": statistics.median(next_pages) * 1e3,
        "open_ms": open_s * 1e3,
        "accesses_per_answer": accesses / max(answers, 1),
        "single_pattern_accesses_per_answer": single_accesses / max(single_answers, 1),
        "join_reads_per_answer": join_reads / max(join_answers, 1),
        "us_per_access": sum(latencies) * 1e6 / max(accesses, 1),
        # ru_maxrss is in KiB on Linux: the peak of this process, which
        # only ever opened the snapshot and ran queries.
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checked": len(expected),
        "wrong": [repr(op) for op in wrong],
    }


def child(step: str, *args: str) -> dict:
    """Run one step of :func:`probe` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", step, *args],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def probe(people: int, ops_wanted: int, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="scale-probe-") as workdir:
        row = child("build", str(people), str(ops_wanted), str(seed), workdir)
        row.update(child("replay", workdir))
    row["people"] = people
    return row


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.rstrip("\n")  # porcelain lines may start with a space


def dirty(record: Path) -> bool:
    """Uncommitted changes anywhere but in the trajectory file and in this
    probe, which a row names by its own content hash (``probe``) — so a
    newer probe copied into an older checkout records that checkout."""
    ignored = {
        os.path.relpath(record.resolve(), ROOT),
        os.path.relpath(Path(__file__).resolve(), ROOT),
    }
    return any(
        line[3:] not in ignored for line in git("status", "--porcelain").splitlines()
    )


def append(record: Path, rows: list[dict]) -> None:
    """Add ``rows`` to the trajectory, one per (sha, people)."""
    existing = json.loads(record.read_text()) if record.exists() else []
    keys = {(row["sha"], row["people"]) for row in rows}
    kept = [row for row in existing if (row["sha"], row["people"]) not in keys]
    record.write_text(json.dumps(kept + rows, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--people", type=int, nargs="+", default=[2000, 20000])
    parser.add_argument("--ops", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        step, *rest = args.child
        if step == "build":
            people, ops_wanted, seed, workdir = rest
            result = build(int(people), int(ops_wanted), int(seed), Path(workdir))
        else:
            result = replay(Path(rest[0]))
        print(json.dumps(result))
        return 0
    identity = {}
    if args.record is not None:
        identity = {"sha": git("rev-parse", "--short", "HEAD"), "dirty": dirty(args.record)}
        if identity["dirty"]:
            print(
                f"refusing to record into {args.record}: the tree has uncommitted "
                "changes, so its sha would not name the code that ran",
                file=sys.stderr,
            )
            return 2
        identity.update(
            probe=git("hash-object", __file__)[:7],
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
            cpus=os.cpu_count(),
            python=platform.python_version(),
        )
    print(
        f"{'people':>8} {'statements':>10} {'ops':>5} {'op p50 ms':>10} "
        f"{'op p90 ms':>10} {'first ms':>9} {'next ms':>8} {'acc/answer':>10} "
        f"{'single':>7} {'join r+s':>8} {'us/access':>10} {'open ms':>8} {'rss MB':>7} "
        f"{'B/stmt':>7} {'build s':>8} {'checked':>8} {'wrong':>6}"
    )
    rows = []
    for people in args.people:
        row = probe(people, args.ops, args.seed)
        print(
            f"{row['people']:>8} {row['statements']:>10} {row['ops']:>5} "
            f"{row['op_p50_ms']:>10.2f} {row['op_p90_ms']:>10.2f} "
            f"{row['first_page_p50_ms']:>9.2f} {row['next_page_p50_ms']:>8.2f} "
            f"{row['accesses_per_answer']:>10.1f} "
            f"{row['single_pattern_accesses_per_answer']:>7.1f} "
            f"{row['join_reads_per_answer']:>8.1f} "
            f"{row['us_per_access']:>10.2f} {row['open_ms']:>8.1f} {row['rss_mb']:>7.1f} "
            f"{row['disk_bytes_per_stmt']:>7.0f} {row['build_s']:>8.1f} "
            f"{row['checked']:>8} {len(row['wrong']):>6}",
            flush=True,
        )
        for op in row["wrong"]:
            print(f"  differs from the reference core: {op}", file=sys.stderr)
        rows.append({**identity, **row, "wrong": len(row["wrong"])})
    if args.record is not None:
        append(args.record, rows)
    return 1 if any(row["wrong"] for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
