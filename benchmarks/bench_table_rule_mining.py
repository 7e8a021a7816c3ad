"""tab-mining — rule-source comparison (Section 3's generator inventory).

The paper lists four rule sources: mining from the XKG itself (the
arg-overlap formula), manual specification, AMIE-style KG mining, paraphrase
repositories, and relatedness measures (ESA).  This bench runs every
generator over the same store and reports rule counts, weight statistics and
mining throughput — the ablation material for "where do good rules come
from".  A second exhibit times what mining costs per engine open: one run of
the engine's default operator registry, whose three miners share one pair
index, beside each miner run alone over an index of its own.
"""

import time

from conftest import print_artifact

from repro.core.terms import Resource
from repro.eval.benchmark import user_alias_rules
from repro.relax.amie import mine_amie_rules
from repro.relax.esa import esa_rules
from repro.relax.mining import mine_arg_overlap_rules, mine_chain_expansion_rules
from repro.relax.operators import OperatorContext
from repro.relax.structural import granularity_rules, inversion_rules
from repro.storage.statistics import StoreStatistics


def test_rule_mining_table(benchmark, small_harness):
    statistics = small_harness.engine.statistics

    def mine_arg_overlap():
        return mine_arg_overlap_rules(statistics, min_support=2)

    benchmark(mine_arg_overlap)

    sources = {
        "arg-overlap (§3 formula)": mine_arg_overlap_rules(
            statistics, min_support=2
        ),
        "chain-expansion": mine_chain_expansion_rules(statistics, min_support=2),
        "inversions": inversion_rules(statistics, min_support=2, min_weight=0.15),
        "granularity": granularity_rules(
            statistics,
            type_predicate=Resource("type"),
            containment_predicate=Resource("locatedIn"),
            fine_class=Resource("city"),
            coarse_class=Resource("country"),
        ),
        "amie (PCA)": mine_amie_rules(statistics, min_support=2),
        "esa relatedness": esa_rules(statistics, min_similarity=0.35),
        "paraphrase aliases": user_alias_rules(),
    }

    rows = ["source                     rules  w-min  w-mean  w-max"]
    rows.append("------                     -----  -----  ------  -----")
    for name, rules in sources.items():
        if rules:
            weights = [r.weight for r in rules]
            rows.append(
                f"{name:<26} {len(rules):>5}  {min(weights):.2f}   "
                f"{sum(weights)/len(weights):.2f}    {max(weights):.2f}"
            )
        else:
            rows.append(f"{name:<26} {0:>5}")
    print_artifact(
        "Table (tab-mining): relaxation rules per source", "\n".join(rows)
    )

    assert len(sources["arg-overlap (§3 formula)"]) > 10
    assert sources["chain-expansion"]
    assert sources["inversions"]
    assert sources["granularity"]
    for rules in sources.values():
        assert all(0.0 < r.weight <= 1.0 for r in rules)


def _best_ms(run, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        began = time.perf_counter()
        run()
        times.append(time.perf_counter() - began)
    return 1000 * min(times)


def test_default_registry_run(benchmark, small_harness):
    engine = small_harness.engine
    store, registry, config = engine.store, engine.registry, engine.config

    def mine_at_open():
        return registry.run(OperatorContext(store, StoreStatistics(store)))

    rules = benchmark(mine_at_open)

    support = config.mining_min_support
    alone = {
        "arg-overlap": lambda: mine_arg_overlap_rules(
            StoreStatistics(store),
            min_support=support,
            min_weight=config.mining_min_weight,
        ),
        "chain-expansion": lambda: mine_chain_expansion_rules(
            StoreStatistics(store), min_support=support
        ),
        "inversions": lambda: inversion_rules(
            StoreStatistics(store), min_support=support
        ),
    }
    rows = ["run                          rules  best ms"]
    rows.append("---                          -----  -------")
    rows.append(
        f"{'default registry (one index)':<28} {len(rules):>5}  "
        f"{_best_ms(mine_at_open):7.1f}"
    )
    for name, mine in alone.items():
        rows.append(f"{name + ' alone':<28} {len(mine()):>5}  {_best_ms(mine):7.1f}")
    print_artifact(
        f"Mining per open: the default registry over {len(store):,} statements",
        "\n".join(rows),
    )

    assert len(rules) > 10
    assert all(rule in engine.rules for rule in rules)
