"""tab-idspace — id-space execution core vs the seed term-space path.

The refactor moved the whole hot path (cursors → incremental merge → rank
join → aggregation) onto dictionary-encoded integer ids, deferring Term
decoding to answer materialisation.  This bench runs a join-heavy top-k
workload on the scale-bench (medium-profile) KG twice over the *same
store* (the one layout: sharded over columnar segments):

* ``idspace``   — id-space execution (the default), and
* ``termspace`` — the original Term-object cursors (the retained seed
  semantics),

verifies the answer sets are byte-identical (bindings, scores, derivation
triples and rules), and reports per-k latency.  Both cores read the same
segment merge, so the ratio isolates the execution core: 2.2–3.6x over
three local runs (2 CPUs); the acceptance bar is >= 1.8x locally.
"""

import os
import time
from dataclasses import replace

from conftest import print_artifact

from repro.core.engine import TriniT
from repro.core.parser import parse_query


def _workload(harness):
    world = harness.world
    queries = [
        parse_query("?x affiliation ?y"),
        parse_query("?p 'works at' ?u . ?u locatedIn ?c"),
        parse_query("?p affiliation ?u . ?u locatedIn ?c"),
        parse_query("?p type person . ?p affiliation ?u"),
        parse_query(f"?x affiliation {world.universities[0].id} . ?x 'works on' ?f"),
        parse_query("?a 'works at' ?u . ?b 'works at' ?u"),
    ]
    for person in world.people[:4]:
        queries.append(parse_query(f"{person.id} affiliation ?x"))
    return queries


def _fingerprint(answers):
    """Every observable facet of an answer set, for byte-identity checks."""
    return [
        (
            answer.binding,
            answer.score,
            answer.num_derivations,
            tuple(record.triple.n3() for record in answer.derivation.triples_used()),
            tuple(rule.n3() for rule in answer.derivation.rules_used()),
        )
        for answer in answers
    ]


def _seed_termspace_engine(harness):
    """The seed execution core over the same store."""
    config = replace(
        harness.config.engine,
        processor=replace(harness.config.engine.processor, execution="termspace"),
    )
    engine = TriniT(harness.xkg_store, config=config)
    engine.add_rules(harness.engine.rules)
    return engine


def test_idspace_speedup_table(benchmark, medium_harness):
    engine_id = medium_harness.engine  # idspace default
    engine_term = _seed_termspace_engine(medium_harness)
    queries = _workload(medium_harness)

    # Byte-identical answers across execution cores, same run.
    for query in queries:
        for k in (1, 10, 25):
            id_answers = _fingerprint(engine_id.ask(query, k=k))
            term_answers = _fingerprint(engine_term.ask(query, k=k))
            assert id_answers == term_answers

    def run_idspace_k10():
        return [engine_id.ask(q, k=10) for q in queries]

    benchmark(run_idspace_k10)

    def best_of(engine, k, reps=3):
        best = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            for query in queries:
                engine.ask(query, k=k)
            best = min(best, time.perf_counter() - started)
        return best

    rows = [
        "k   idspace(ms)  termspace(ms)  speedup",
        "--  -----------  -------------  -------",
    ]
    speedups = {}
    for k in (10, 25, 50):
        t_id = best_of(engine_id, k)
        t_term = best_of(engine_term, k)
        speedups[k] = t_term / t_id
        rows.append(
            f"{k:<3} {t_id * 1000:>11.1f}  {t_term * 1000:>13.1f}  "
            f"{speedups[k]:>6.2f}x"
        )
    rows.append("")
    rows.append(
        f"store: {len(engine_id.store)} triples (medium scale-bench profile); "
        "identical answer sets verified above"
    )
    print_artifact(
        "Table (tab-idspace): id-space hot path vs seed term-space",
        "\n".join(rows),
    )

    # The acceptance bar is 1.8x on a quiet machine (lowest local reading
    # 2.2x); CI sets a looser floor (IDSPACE_SPEEDUP_FLOOR) because shared
    # runners have noisy clocks — the printed table still carries the
    # measured ratios.
    floor = float(os.environ.get("IDSPACE_SPEEDUP_FLOOR", "1.8"))
    for k, speedup in speedups.items():
        assert speedup >= floor, f"k={k}: only {speedup:.2f}x (floor {floor}x)"
