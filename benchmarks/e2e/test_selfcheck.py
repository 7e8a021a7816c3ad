"""Self-check of the benchmark: BENCHMARK.json obeys the driver's contract,
and a ~1 % ``--smoke`` run of every workload prints every metric it names.

Collected by the tier-1 run; the four smoke runs go in parallel (seconds).
"""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from e2e import run, trace

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_benchmark_json_obeys_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
    assert len(SPEC["command"]) <= 32
    for word in SPEC["command"]:
        assert len(word) <= 200 and not word.startswith("/") and ".." not in word
    assert any(word.startswith(SPEC["paths"][0]) for word in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # 4 + 22 x workloads runs and their set-up must fit the driver's budget.
    assert (4 + 22 * len(SPEC["workloads"])) * 2 * SPEC["run_seconds"] <= 3420


@pytest.fixture(scope="module")
def smoke():
    """``run.py --smoke`` for each workload, side by side: name -> (result, log)."""
    script = str(ROOT / "benchmarks" / "e2e" / "run.py")
    children = {
        name: subprocess.Popen(
            [sys.executable, script, "--smoke", "--workload", name, "--seed", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in run.WORKLOAD_NAMES
    }
    results = {}
    for name, child in children.items():
        out, log = child.communicate(timeout=120)
        assert child.returncode == 0, log[-2000:]
        results[name] = (json.loads(out.splitlines()[-1])["workloads"][name], log)
    return results


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(smoke, name):
    result, log = smoke[name]
    assert result["failed"] == 0 and result["attempted"] >= 1, result["errors"]
    assert result["unresolved_hooks"] == []
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            value = result[section][metric["name"]]
            assert isinstance(value, (int, float)), (metric["name"], value)
            line = re.search(
                rf"^\s+{re.escape(metric['name'])}\s+(\S+)\s+(\S+)$", log, re.MULTILINE
            )
            assert line and line.group(2) == metric["unit"], metric["name"]
    for metric in SPEC["end_to_end"]:
        assert result["end_to_end"][metric["name"]] > 0, metric["name"]
    if name != "serve_http":
        assert result["per_layer"]["trace.attributed_share"] > 0.7


def test_smoke_exercises_each_workloads_own_layers(smoke):
    layers = {name: result["per_layer"] for name, (result, _log) in smoke.items()}
    assert layers["explore_xkg"]["core.explanation.explain_ms"] > 0
    assert layers["scan_kg"]["topk.idspace.sorted_accesses_per_answer"] > \
        layers["explore_xkg"]["topk.idspace.sorted_accesses_per_answer"]
    assert layers["serve_http"]["serve.cache.hit_ratio"] > 0
    assert layers["serve_http"]["serve.http.handler_self_ms"] > 0
    assert layers["ingest_mixed"]["storage.compaction.generations"] >= 1
    assert layers["ingest_mixed"]["storage.store.ingest_stmts_per_s"] > 0
    assert layers["scan_kg"]["serve.cache.hit_ratio"] == 0


def test_steady_percentile_clips_each_op_to_its_own_quartiles():
    by_key = {"cheap": [1.0] * 7 + [9.0], "dear": [5.0, 5.2, 5.4, 5.6], "once": [50.0]}
    # The stalled 9.0 is clipped back to "cheap"'s Q3 (1.0); "dear" keeps a
    # spread inside its quartiles; an op seen once is taken as it is.
    assert run.steady_percentile(by_key, 0.50) == 1.0
    assert 5.15 <= run.steady_percentile(by_key, 0.80) <= 5.45
    assert run.steady_percentile(by_key, 1.0) == 50.0
    assert run.steady_percentile(by_key, 0.92) < 5.5
    assert run.percentile(sum(by_key.values(), []), 0.92) == 9.0  # the plain one is the stall


def test_a_deleted_hook_target_reads_null_not_a_crash():
    """What a later simplification does to the numbers: the metric built on
    a vanished hook is null in the result and 0 on the driver's line."""
    row = {"calls": 2, "total_ns": 4_000_000, "self_ns": 2_000_000}
    summary = {
        "by_name": {name: dict(row) for name, _m, _p in trace.ENGINE_HOOKS},
        "root_ns": 10_000_000, "facade_self_ns": 1_000_000, "ops": 2, "spans": 40,
    }
    samples = SimpleNamespace(
        latencies=[0.001, 0.002], after_ingest=[], ingested=0, ingest_seconds=0.0,
        speed=1.0,
    )
    stats = run.workloads.QueryStats(sorted_accesses=10, rewritings_enumerated=2)
    layer = run.per_layer(
        ["topk.idspace.join"], summary, summary, samples, stats, {}, 0.001, 2, 4
    )
    assert set(layer) == {metric["name"] for metric in SPEC["per_layer"]}
    assert layer["topk.idspace.join_self_ms"] is None
    assert layer["topk.driver.materialize_ms"] == 1.0
    assert layer["trace.attributed_share"] == 0.9
    line = run.metric_line(
        {"failed": 0, "attempted": 2, "per_layer": layer}, "per_layer"
    )
    assert line["metrics"]["topk.idspace.join_self_ms"] == {"value": 0.0, "unit": "ms"}
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
