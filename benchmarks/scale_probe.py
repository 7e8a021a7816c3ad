"""The ``scan_kg`` shape at other sizes: what a wide query costs as the KG grows.

    python3 benchmarks/scale_probe.py                  # 2,000 and 20,000 people
    python3 benchmarks/scale_probe.py --people 300     # the CI smoke size
    python3 benchmarks/scale_probe.py --people 175000  # the 1M-triple shape (minutes, GBs)

``benchmarks/e2e/`` measures ``scan_kg`` at one size (2,000 people, ~11.7k
statements).  ROADMAP's north star is stated on the 175k-people / 1M-triple
world, so this probe replays the same op mix — the same world generator,
query pool, k and page sizes, imported from the frozen benchmark — at any
number of people, through the same public path (JSONL → sharded snapshot →
``TriniT.open``), and prints per size: the op median, how many sorted
accesses an answer costs, and what one sorted access costs.  Every distinct
op's answers are checked against the serial per-item oracle configuration;
a difference fails the run.

It is a probe, not a benchmark: plain wall time, one process, no bounds.
Quote its output next to the commit it ran on.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from e2e.workloads import (  # noqa: E402
    REFERENCE,
    SCAN_PAGES,
    SCAN_QUERIES,
    _scan_world,
    engine_op,
    make_ops,
)
from repro.core.engine import EngineConfig, TriniT  # noqa: E402
from repro.kg.generator import KgGenerator  # noqa: E402
from repro.kg.world import World  # noqa: E402
from repro.storage import persistence, snapshot  # noqa: E402


def probe(people: int, ops_wanted: int, seed: int) -> dict:
    """Replay ``ops_wanted`` ops of the scan mix on a ``people``-sized KG."""
    began = time.perf_counter()
    kg = KgGenerator(World.generate(_scan_world(people))).generate()
    store = kg.store("scan", freeze=False)
    statements = len(store)
    with tempfile.TemporaryDirectory(prefix="scale-probe-") as workdir:
        jsonl = Path(workdir) / "inputs.jsonl"
        snapdir = Path(workdir) / "scan.snapd"
        persistence.save_store(store, jsonl)
        del kg, store
        built = persistence.load_store(jsonl, backend="sharded")
        snapshot.save_snapshot(built, snapdir)
        built.close()
        pool = list(SCAN_QUERIES)
        with TriniT.open(snapdir, config=EngineConfig(**REFERENCE)) as oracle:
            pageable = [
                q for q in pool if len(oracle.ask(q, k=SCAN_PAGES[0] + 1)) > SCAN_PAGES[0]
            ]
            mix = {"ask": (0.6, 80, pool), "stream": (0.4, SCAN_PAGES, pageable)}
            ops = make_ops(random.Random(f"scan_kg:{seed}"), mix, 100, ops_wanted)
            distinct = sorted(set(ops), key=repr)
            expected = {op: engine_op(oracle, op)[0] for op in distinct}
        setup_s = time.perf_counter() - began
        with TriniT.open(snapdir) as engine:
            wrong = [op for op in distinct if engine_op(engine, op)[0] != expected[op]]
            latencies, accesses, answers = [], 0, 0
            for op in ops:
                result, latency, _first, _next, stats = engine_op(engine, op)
                latencies.append(latency)
                accesses += stats.sorted_accesses
                answers += len(result[0])
    return {
        "people": people,
        "statements": statements,
        "ops": len(ops),
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": sorted(latencies)[round(0.9 * (len(latencies) - 1))] * 1e3,
        "accesses_per_answer": accesses / max(answers, 1),
        "us_per_access": sum(latencies) * 1e6 / max(accesses, 1),
        "checked": len(distinct),
        "wrong": wrong,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--people", type=int, nargs="+", default=[2000, 20000])
    parser.add_argument("--ops", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(
        f"{'people':>8} {'statements':>10} {'ops':>5} {'op p50 ms':>10} "
        f"{'op p90 ms':>10} {'accesses/answer':>16} {'us/access':>10} "
        f"{'checked':>8} {'wrong':>6} {'setup s':>8}"
    )
    failed = False
    for people in args.people:
        row = probe(people, args.ops, args.seed)
        print(
            f"{row['people']:>8} {row['statements']:>10} {row['ops']:>5} "
            f"{row['op_p50_ms']:>10.2f} {row['op_p90_ms']:>10.2f} "
            f"{row['accesses_per_answer']:>16.1f} {row['us_per_access']:>10.2f} "
            f"{row['checked']:>8} {len(row['wrong']):>6} {row['setup_s']:>8.1f}",
            flush=True,
        )
        for op in row["wrong"]:
            print(f"  differs from the per-item oracle: {op}", file=sys.stderr)
        failed = failed or bool(row["wrong"])
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
