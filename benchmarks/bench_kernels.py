"""bench-kernels — per-item vs block execution kernels on the hot path.

Microbenchmarks the execution kernels (:mod:`repro.topk.kernels`) against
the per-item loops they replaced, on the same columns a query actually
touches:

* **decode** — ``prepare_head_block`` (two parallel C-gathered columns)
  vs the per-head ``(-weights[g], g)`` tuple list of the old merge;
* **score** — ``score_block`` vs the scalar ``_score_weight`` loop;
* **end-to-end** — a query workload under ``block_size=1`` (per-item
  reference) vs the adaptive block default: byte-identity asserted, the
  time ratio printed only (it sits inside same-commit noise).

Reports blocks/sec for the kernel loops.  Acceptance: the block kernels
beat per-item by ``KERNEL_SPEEDUP_FLOOR`` (default 1.2x; the local bar is
comfortably higher, CI runners have noisy clocks).
"""

import os
import time
from array import array
from dataclasses import replace

from conftest import print_artifact

from repro.core.engine import TriniT
from repro.core.parser import parse_query
from repro.topk.kernels import prepare_head_block, score_block

N = 50_000
BLOCK = 256


def _columns():
    postings = array("i", range(N))
    globals_ = array("i", (i * 3 % N for i in range(N)))
    weights = array("d", (0.05 + (i % 97) / 100 for i in range(N)))
    return postings, globals_, weights


def _best_of(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_kernel_microbench(benchmark):
    postings, globals_, weights = _columns()
    blocks = [(lo, min(lo + BLOCK, N)) for lo in range(0, N, BLOCK)]

    def decode_block():
        for lo, hi in blocks:
            prepare_head_block(postings, globals_, weights, lo, hi)

    def decode_per_item():
        for lo, hi in blocks:
            [
                (-weights[globals_[p]], globals_[p])
                for p in postings[lo:hi]
            ]

    # Identical output first: the kernel is only a faster spelling.
    for lo, hi in blocks[:4]:
        kw, kg = prepare_head_block(postings, globals_, weights, lo, hi)
        assert list(zip(kw, kg)) == [
            (-weights[globals_[p]], globals_[p]) for p in postings[lo:hi]
        ]

    lam, mass, cmass, multiplier = 0.2, 37.5, 512.25, 0.75
    weight_blocks = [list(weights[lo:hi]) for lo, hi in blocks]

    def scalar(w):
        foreground = w / mass if mass > 0 else 0.0
        if lam == 0.0:
            return multiplier * foreground
        background = w / cmass if cmass > 0 else 0.0
        return multiplier * ((1.0 - lam) * foreground + lam * background)

    def score_blocked():
        for ws in weight_blocks:
            score_block(ws, lam, mass, cmass, multiplier)

    def score_per_item():
        for ws in weight_blocks:
            [scalar(w) for w in ws]

    for ws in weight_blocks[:4]:
        assert score_block(ws, lam, mass, cmass, multiplier) == [
            scalar(w) for w in ws
        ]

    t_decode_block = _best_of(decode_block)
    t_decode_item = _best_of(decode_per_item)
    t_score_block = _best_of(score_blocked)
    t_score_item = _best_of(score_per_item)
    benchmark(decode_block)

    decode_speedup = t_decode_item / t_decode_block
    score_speedup = t_score_item / t_score_block
    rows = [
        "kernel  per-item(ms)  block(ms)  speedup  blocks/sec",
        "------  ------------  ---------  -------  ----------",
        f"decode  {t_decode_item * 1000:>12.2f}  {t_decode_block * 1000:>9.2f}"
        f"  {decode_speedup:>6.2f}x  {len(blocks) / t_decode_block:>10.0f}",
        f"score   {t_score_item * 1000:>12.2f}  {t_score_block * 1000:>9.2f}"
        f"  {score_speedup:>6.2f}x  {len(blocks) / t_score_block:>10.0f}",
        "",
        f"{N} postings, block={BLOCK} ({len(blocks)} blocks)",
    ]
    print_artifact(
        "Microbench (bench-kernels): per-item loops vs block kernels",
        "\n".join(rows),
    )

    floor = float(os.environ.get("KERNEL_SPEEDUP_FLOOR", "1.2"))
    assert decode_speedup >= floor, (
        f"decode: only {decode_speedup:.2f}x (floor {floor}x)"
    )
    assert score_speedup >= floor, (
        f"score: only {score_speedup:.2f}x (floor {floor}x)"
    )


def test_block_path_end_to_end(medium_harness):
    """Block path vs per-item reference, whole query: byte-identical answers.

    The timing ratio is printed, not asserted: it measures 0.96–1.06x on
    the same commit (CHANGES.md, PR 21), so a floor at 1.0 fails on noise.
    """
    engine_block = medium_harness.engine  # adaptive block default
    per_item_config = replace(
        medium_harness.config.engine, block_size=1, merge_batch=1
    )
    engine_item = TriniT(medium_harness.xkg_store, config=per_item_config)
    engine_item.add_rules(engine_block.rules)
    queries = [
        parse_query("?x affiliation ?y"),
        parse_query("?p 'works at' ?u . ?u locatedIn ?c"),
        parse_query("?p type person . ?p affiliation ?u"),
        parse_query("?a 'works at' ?u . ?b 'works at' ?u"),
    ]

    def fingerprint(answers):
        return [(a.binding, a.score) for a in answers]

    for query in queries:
        assert fingerprint(engine_block.ask(query, k=25)) == fingerprint(
            engine_item.ask(query, k=25)
        )

    t_block = _best_of(lambda: [engine_block.ask(q, k=25) for q in queries])
    t_item = _best_of(lambda: [engine_item.ask(q, k=25) for q in queries])
    speedup = t_item / t_block
    print_artifact(
        "bench-kernels: end-to-end block path vs per-item reference",
        f"per-item {t_item * 1000:.1f} ms, block {t_block * 1000:.1f} ms "
        f"-> {speedup:.2f}x (answers byte-identical)",
    )
