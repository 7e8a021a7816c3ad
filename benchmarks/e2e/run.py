"""One command for every end-to-end and per-layer number (see README.md).

    python3 benchmarks/e2e/run.py                      # all workloads, both modes
    python3 benchmarks/e2e/run.py --workload scan_kg --seed 7
    python3 benchmarks/e2e/run.py --smoke              # ~1 % size, seconds not minutes
    python3 benchmarks/e2e/run.py --check-repeat       # run twice, compare to the bounds

The benchmark driver calls ``--workload W --seed N --seconds S --trace 0|1``
and reads the last line of stdout: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``.

Per workload this process generates the inputs and the reference answers
(:func:`e2e.workloads.prepare`) and starts a fresh *measure child* that
alone touches the system under test; the child's numbers come back through
a result file under ``out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# Import as the package ``e2e`` and drop the script directory from the
# path: ``trace.py`` here must never shadow the standard library's.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from e2e import trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
PASSES = 5


# -- statistics -----------------------------------------------------------------


def percentile(values: list, q: float) -> float:
    """Nearest-rank quantile (the estimator ``LatencyRing`` uses)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def steady_percentile(by_key: dict, q: float) -> float:
    """The q-quantile of the window with every op's repetitions clipped to
    that op's own quartile range.

    What the expensive ops cost, not what the unlucky ones did: on a shared
    host the plain upper percentiles of a window of ~1 ms ops are mostly
    the neighbours' interference (the p90/p50 ratio of identical runs
    ranged 1.7-2.7).  Clipping a repetition to [Q1, Q3] of the same op
    removes a stall without collapsing the op to one number, which would
    make the distribution a few lumps and the quantile jump between them.
    """
    pooled = []
    for values in by_key.values():
        if len(values) > 1:
            low, _median, high = statistics.quantiles(values, n=4, method="inclusive")
            pooled.extend(min(max(value, low), high) for value in values)
        else:
            pooled.extend(values)
    return percentile(pooled, q)


def pass_rates(samples) -> list[float]:
    """Ops completed per second in each of ``PASSES`` equal time slices."""
    width = (samples.ended - samples.started) / PASSES
    counts = [0] * PASSES
    for ended in samples.op_ends:
        counts[min(PASSES - 1, int((ended - samples.started) / width))] += 1
    return [count / width for count in counts]


def rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc status")


def end_to_end(samples, setups: list[float], resources: dict) -> dict:
    ms = 1000.0
    rates = pass_rates(samples)
    quartiles = statistics.quantiles(rates, n=4)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(samples.latencies) * ms,
        "op_p90_ms": steady_percentile(samples.by_key, 0.90) * ms,
        "ops_per_s": statistics.median(rates),
        "first_page_p50_ms": statistics.median(samples.first_pages) * ms,
        "next_page_p50_ms": statistics.median(samples.next_pages) * ms,
        "rss_mb": resources["rss_mb"],
        "disk_bytes_per_stmt": resources["disk_bytes"] / resources["statements"],
        "_info": {
            "samples": len(samples.latencies),
            "distinct_ops": len(samples.by_key),
            "raw_p90_ms": percentile(samples.latencies, 0.90) * ms,
            "stream_samples": len(samples.first_pages),
            "ops_per_s_iqr": quartiles[2] - quartiles[0],
            "setup_runs_s": setups,
            "window_wall_s": samples.wall_s,
            "reference_per_wall": samples.speed,
        },
    }


# -- per-layer metrics ------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(dead: list, window: dict, setup: dict, samples, stats, resources: dict,
              untraced_p50_s: float, ops: int, answers: int) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced window.

    ``window``/``setup`` are :func:`trace.summarize` outputs; ``stats`` the
    summed ``QueryStats`` of the window; ``ops`` what times and counts are
    divided by (query ops, or HTTP requests for the server's spans);
    ``dead`` the span names whose hooks are gone — their metrics are
    ``None``.  A layer the workload never enters reads 0.  Span times are
    wall time; they are scaled by the window's reference-per-wall ratio so
    that the layers add up to the (reference-clock) end-to-end numbers.
    """
    by_name = window["by_name"]
    speed = samples.speed
    ops, answers = max(1, ops), max(1, answers)

    def self_ms(name: str):
        if name in dead:
            return None
        return by_name.get(name, {}).get("self_ns", 0) / 1e6 / ops * speed

    def per_call_ms(summary: dict, name: str):
        if name in dead:
            return None
        row = summary["by_name"].get(name)
        return row["total_ns"] / 1e6 / row["calls"] * speed if row else 0.0

    prepared = by_name.get("topk.kernels.prepare", {}).get("calls", 0)
    server = resources.get("server", {})
    return {
        "core.parser.parse_ms": self_ms("core.parser.parse"),
        "relax.rewriting.enumerate_ms": self_ms("relax.rewriting.enumerate"),
        "relax.rewriting.enumerated_per_op": stats.rewritings_enumerated / ops,
        "relax.rewriting.processed_ratio": ratio(
            stats.rewritings_processed, stats.rewritings_enumerated),
        "relax.rewriting.invoked_ratio": ratio(
            stats.relaxations_invoked, stats.relaxations_considered),
        "topk.processor.plan_ms": self_ms("topk.processor.plan"),
        "topk.processor.cursors_opened_per_op": stats.cursors_opened / ops,
        "topk.driver.advance_self_ms": self_ms("topk.driver.advance"),
        "topk.driver.resumes_per_op": stats.resumes / ops,
        "topk.idspace.join_self_ms": self_ms("topk.idspace.join"),
        "topk.idspace.sorted_accesses_per_answer": stats.sorted_accesses / answers,
        "topk.idspace.candidates_per_answer": stats.candidates_formed / answers,
        "topk.driver.materialize_ms": self_ms("topk.driver.materialize"),
        "topk.kernels.score_ms": self_ms("topk.kernels.score"),
        "topk.kernels.prepare_ms": self_ms("topk.kernels.prepare"),
        "topk.kernels.blocks_decoded_per_op": stats.blocks_decoded / ops,
        "topk.kernels.block_cache_hit_ratio": ratio(
            stats.block_cache_hits, stats.block_cache_hits + prepared),
        "storage.store.postings_open_ms": self_ms("storage.store.postings_open"),
        "storage.sharded.pull_ms": self_ms("storage.sharded.pull"),
        "storage.backend.posting_block_ms": self_ms("storage.backend.posting_block"),
        "storage.sharded.postings_per_pull": ratio(
            stats.postings_materialized, stats.posting_pulls),
        "storage.sharded.overfetch_ratio": ratio(
            stats.postings_materialized, stats.sorted_accesses),
        "storage.sharded.segments_touched_per_op": stats.segments_touched / ops,
        "core.explanation.explain_ms": self_ms("core.explanation.explain"),
        "core.engine.unattributed_ms": window["facade_self_ns"] / 1e6 / ops * speed,
        "storage.store.add_all_ms": self_ms("storage.store.add_all"),
        "storage.store.ingest_stmts_per_s": ratio(samples.ingested, samples.ingest_seconds),
        "storage.delta.delta_hit_ratio": ratio(stats.delta_hits, stats.postings_materialized),
        "storage.delta.read_after_ingest_p90_ms": (
            percentile(samples.after_ingest, 0.90) * 1000 if samples.after_ingest else 0.0),
        "storage.compaction.compact_ms": per_call_ms(window, "storage.compaction.compact"),
        "storage.compaction.generations": resources.get("generations", 0),
        "storage.compaction.retained_generations": resources.get("retained_generations", 0),
        "storage.compaction.bytes_written_per_stmt": ratio(
            resources.get("bytes_written", 0), samples.ingested),
        "storage.compaction.read_stall_max_ms": resources.get("read_stall_max_ms", 0.0) * speed,
        "storage.snapshot.save_ms": per_call_ms(setup, "storage.snapshot.save"),
        "storage.snapshot.load_ms": per_call_ms(setup, "storage.snapshot.load"),
        "core.engine.open_ms": per_call_ms(setup, "core.engine.open"),
        "serve.cache.hit_ratio": server.get("cache_hit_ratio", 0.0),
        "serve.cache.evictions": server.get("cache_evictions", 0),
        "serve.cache.get_ms": self_ms("serve.cache.get") if server else 0.0,
        "serve.admission.shed": server.get("shed", 0),
        "serve.admission.orphaned": server.get("orphaned", 0),
        "serve.admission.wait_ms": self_ms("serve.admission.acquire") if server else 0.0,
        "serve.admission.handoff_ms": self_ms("serve.admission.run") if server else 0.0,
        "serve.http.server_p50_ms": server.get("server_p50_ms", 0.0),
        "serve.http.wire_p50_ms": server.get("wire_p50_ms", 0.0),
        "serve.http.serialize_ms": self_ms("serve.http.serialize") if server else 0.0,
        "serve.http.handler_self_ms": self_ms("serve.http.handler") if server else 0.0,
        "serve.sessions.evicted": server.get("sessions_evicted", 0),
        "trace.overhead_ratio": ratio(statistics.median(samples.latencies), untraced_p50_s),
        "trace.attributed_share": 1.0 - ratio(window["facade_self_ns"], window["root_ns"]),
    }


def read_stall_max_ms(spans) -> float:
    """The slowest read that overlapped a compaction."""
    compactions = [(s, e) for _i, name, s, e, *_ in spans if name == "storage.compaction.compact"]
    reads = ("core.engine.ask", "core.engine.stream", "core.engine.next_k")
    worst = 0
    for _id, name, start, end, *_rest in spans:
        if name in reads and any(start < hi and end > lo for lo, hi in compactions):
            worst = max(worst, end - start)
    return worst / 1e6


def server_counters(resources: dict, samples) -> dict:
    """Deltas of the server's ``/metrics`` document over the window."""
    before, after = resources["metrics_before"], resources["metrics_after"]

    def delta(section: str, *keys: str) -> float:
        return sum(after[section][key] - before[section][key] for key in keys)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    server_p50 = (after["latency"]["query"]["p50_ms"] or 0.0) * samples.speed
    return {
        "cache_hit_ratio": ratio(hits, hits + misses),
        "cache_evictions": delta("cache", "evictions"),
        "shed": delta("admission", "shed_queue_full", "shed_timeout"),
        "orphaned": delta("admission", "orphaned"),
        "sessions_evicted": delta("sessions", "evicted"),
        "server_p50_ms": server_p50,
        "wire_p50_ms": statistics.median(samples.eager) * 1000 - server_p50,
        "answers": after["answers_streamed"] - before["answers_streamed"],
        "query_stats": {
            key: after["query_stats"][key] - before["query_stats"][key]
            for key in after["query_stats"]
        },
    }


# -- the measure child ------------------------------------------------------------


def window(workload, seconds: float, repeats: int, tracer=None):
    """``repeats`` set-ups (the last one kept), one window, the checks.

    Also returns where the window's spans start and end in the tracer."""
    setups = []
    try:
        for repeat in range(repeats):
            if repeat:
                workload.teardown()
            began = workload.clock.now()
            workload.setup()
            setups.append(workload.clock.now() - began)
        mark = len(tracer.spans) if tracer else 0
        samples = workload.run(seconds, tracer)
        marks = (mark, len(tracer.spans) if tracer else 0)
        server = getattr(workload, "server", None)
        resources = {"rss_mb": rss_mb(server.pid if server else "self")}
        resources.update(workload.finish(samples))
    finally:
        workload.teardown()
    return samples, setups, resources, marks


def measure(inputs_path: Path) -> None:
    with inputs_path.open("rb") as handle:
        inputs = pickle.load(handle)
    name, seconds = inputs["name"], inputs["seconds"]
    workdir = inputs_path.parent
    workload = workloads.WORKLOADS[name](inputs, workdir)
    result: dict = {"workload": name, "unresolved_hooks": []}
    if not inputs["trace"]:
        samples, setups, resources, _ = window(
            workload, seconds, inputs["scale"].setup_repeats)
        result["end_to_end"] = end_to_end(samples, setups, resources)
    else:
        # Half the time untraced (the overhead baseline, and the end-to-end
        # numbers of a --smoke run), half traced on a fresh set-up.
        plain, setups, resources, _ = window(workload, seconds / 2, 1)
        result["end_to_end"] = end_to_end(plain, setups, resources)
        serving = name == "serve_http"
        tracer = trace.Tracer(trace.ENGINE_HOOKS)
        workload.counting = True
        if serving:
            workload.trace_out = workdir / "server.trace.json"
        with tracer:
            samples, _setups, resources, (mark, end) = window(
                workload, seconds / 2, 1, tracer)
        samples.attempted += plain.attempted
        samples.failed += plain.failed
        samples.errors += plain.errors
        setup_summary = trace.summarize(tracer.spans[:mark])
        spans = tracer.spans[mark:end]
        summary = trace.summarize(spans)
        stats, ops, answers = samples.stats, len(samples.latencies), samples.answers
        unresolved, dead = list(tracer.unresolved), tracer.dead_names()
        if serving:
            # The layers run in the server child: its spans, its counters.
            dump = json.loads(workload.trace_out.read_text())
            server = resources["server"] = server_counters(resources, samples)
            stats = workloads.QueryStats(**server.pop("query_stats"))
            answers = server.pop("answers")
            setup_summary["by_name"].update(dump["setup"]["by_name"])
            summary, spans = dump["window"], dump["spans"]
            ops = summary["by_name"].get("serve.http.handler", {}).get("calls", 0)
            unresolved, dead = dump["unresolved"], dump["dead"]
        resources["read_stall_max_ms"] = read_stall_max_ms(spans)
        result["per_layer"] = per_layer(
            dead, summary, setup_summary, samples, stats, resources,
            statistics.median(plain.latencies), ops, answers)
        result["unresolved_hooks"] = unresolved
        result["trace"] = {
            "ops": ops,
            "spans": summary["spans"],
            "by_name": {
                key: {"calls": row["calls"], "total_ms": row["total_ns"] / 1e6,
                      "self_ms": row["self_ns"] / 1e6}
                for key, row in sorted(summary["by_name"].items())
            },
        }
        OUT.mkdir(exist_ok=True)
        smoke = "smoke-" if inputs["scale"] == workloads.SMOKE else ""
        (OUT / f"{smoke}{name}.trace.json").write_text(json.dumps({
            "workload": name, "seed": inputs["seed"],
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "thread"],
            "summary": result["trace"], "unresolved_hooks": unresolved,
            "spans": [list(span) for span in spans[:20000]],
        }))
    result.update(attempted=samples.attempted, failed=samples.failed, errors=samples.errors)
    (workdir / "result.json").write_text(json.dumps(result))


# -- the orchestrator -------------------------------------------------------------


def environment(seed: int) -> dict:
    load = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "sha": sha, "seed": seed, "cpus": cpus, "python": platform.python_version(),
        "loadavg": load, "busy_host": load > cpus,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale) -> dict:
    """Generate, measure in a fresh child, return the child's result."""
    workdir = OUT / f"work-{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        began = time.perf_counter()
        # Enough ops that the loop never wraps at today's rates; it cycles
        # if a faster program outruns the list.
        inputs = workloads.prepare(name, seed, scale, workdir, max(500, int(seconds * 2500)))
        gen_s = time.perf_counter() - began
        inputs.update(seconds=seconds, trace=traced)
        inputs_path = workdir / "inputs.pkl"
        with inputs_path.open("wb") as handle:
            pickle.dump(inputs, handle)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--measure", str(inputs_path)],
            check=True, timeout=170, stdout=sys.stderr,
        )
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["gen_s"] = gen_s
    result["statements"] = inputs["statements"]
    return result


def metric_line(result: dict, section: str) -> dict:
    """The driver's result object for one run."""
    names = [m["name"] for m in SPEC[section]]
    values = result[section]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            # A metric whose hook is gone has no value; the contract wants a
            # number, so it reads 0 here and null in the result file.
            name: {"value": values[name] if values[name] is not None else 0.0,
                   "unit": UNITS[name]}
            for name in names
        },
    }


def report(result: dict, stream=sys.stderr) -> None:
    """Every metric by name with its unit, for people."""
    print(f"\n== {result['workload']}  ({result['statements']} statements, "
          f"gen {result['gen_s']:.2f} s, {result['attempted']} attempted, "
          f"{result['failed']} failed)", file=stream)
    for section in ("end_to_end", "per_layer"):
        for key, value in result.get(section, {}).items():
            if key == "_info":
                print(f"   {json.dumps(value)}", file=stream)
            else:
                shown = "null" if value is None else f"{value:.4f}"
                print(f"  {key:<48} {shown:>14} {UNITS[key]}", file=stream)
    if result.get("unresolved_hooks"):
        print(f"  unresolved_hooks: {result['unresolved_hooks']}", file=stream)
    for error in result.get("errors", []):
        print(f"  FAILED: {error}", file=stream)


def run_all(names, seed: int, seconds: float, scale, modes=(False, True)) -> dict:
    """Each workload in each mode; one merged result per workload."""
    merged = {}
    for name in names:
        result: dict = {}
        for traced in modes:
            part = run_workload(name, seed, seconds, traced, scale)
            if traced and "end_to_end" in result:
                part.pop("end_to_end")  # keep the full-window numbers
            for key in ("attempted", "failed"):
                part[key] += result.get(key, 0)
            part["errors"] += result.get("errors", [])
            result.update(part)
        report(result)
        merged[name] = result
    return merged


def check_repeat(names, seed: int, seconds: float, scale) -> int:
    """Two runs of the same tree must agree within the bounds."""
    first = run_all(names, seed, seconds, scale, modes=(False,))
    second = run_all(names, seed, seconds, scale, modes=(False,))
    outside = 0
    print(f"\n{'workload':<14}{'metric':<22}{'run 1':>12}{'run 2':>12}{'diff':>9}{'bound':>8}")
    for name in names:
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = first[name]["end_to_end"][key], second[name]["end_to_end"][key]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "" if abs(worse) <= bound else "  OUTSIDE"
            outside += bool(flag)
            print(f"{name:<14}{key:<22}{a:>12.4f}{b:>12.4f}{worse:>+9.1%}{bound:>8.0%}{flag}")
    failed = sum(r[name]["failed"] for r in (first, second) for name in names)
    return 1 if outside or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        measure(args.measure)
        return 0
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = args.seconds or (0.6 if args.smoke else SPEC["run_seconds"])
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    env = environment(args.seed)
    if env["busy_host"]:
        print(f"warning: loadavg {env['loadavg']:.2f} > {env['cpus']} cpus; "
              "numbers from this run are suspect", file=sys.stderr)
    if args.check_repeat:
        return check_repeat(names, args.seed, seconds, scale)
    if args.workload and args.trace is not None:
        # Driver mode: one workload, one mode, the result object last.
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), scale)
        report(result)
        print(json.dumps(metric_line(result, "per_layer" if args.trace else "end_to_end")))
        return 0 if result["failed"] == 0 else 1
    modes = (True,) if args.smoke else (False, True)
    results = run_all(names, args.seed, seconds, scale, modes)
    OUT.mkdir(exist_ok=True)
    label = "smoke" if args.smoke else "result"
    if args.workload:
        label += f"-{args.workload}"
    document = {"environment": env, "workloads": results}
    (OUT / f"{label}.json").write_text(json.dumps(document, indent=1))
    print(f"\nwrote {(OUT / label).relative_to(ROOT)}.json", file=sys.stderr)
    print(json.dumps(document))
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
