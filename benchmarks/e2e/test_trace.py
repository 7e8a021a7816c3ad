"""Unit tests of the benchmark-side tracer (``trace.py``)."""

import asyncio
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from e2e import trace


def _module(name: str, **members) -> types.ModuleType:
    module = types.ModuleType(name)
    vars(module).update(members)
    sys.modules[name] = module
    return module


@pytest.fixture()
def layers():
    """A throwaway two-layer "program" the hooks can resolve by name."""

    def leaf(ms: float) -> float:
        time.sleep(ms / 1000)
        return ms

    def outer(first: float, second: float) -> float:
        return module.leaf(first) + module.leaf(second)

    def numbers(n: int):
        for value in range(n):
            time.sleep(0.001)
            yield value

    def broken():
        raise KeyError("boom")

    class Pooled:
        def fan_out(self, pool):
            return [f.result() for f in [pool.submit(module.leaf, 2) for _ in range(2)]]

        @classmethod
        def make(cls):
            return cls()

    module = _module(
        "e2e_fake_layers", leaf=leaf, outer=outer, numbers=numbers,
        broken=broken, Pooled=Pooled,
    )
    yield module
    del sys.modules["e2e_fake_layers"]


HOOKS = (
    ("fake.outer", "e2e_fake_layers", "outer"),
    ("fake.leaf", "e2e_fake_layers", "leaf"),
    ("fake.numbers", "e2e_fake_layers", "numbers"),
    ("fake.broken", "e2e_fake_layers", "broken"),
    ("fake.fan_out", "e2e_fake_layers", "Pooled.fan_out"),
    ("fake.make", "e2e_fake_layers", "Pooled.make"),
)


def test_covered_is_the_union_clipped_to_the_parent():
    assert trace._covered(0, 100, [(10, 30), (20, 40)]) == 30  # overlap once
    assert trace._covered(0, 100, [(10, 20), (50, 60)]) == 20  # siblings
    assert trace._covered(0, 100, [(90, 150), (-5, 5)]) == 15  # clipped
    assert trace._covered(0, 100, []) == 0


def test_nested_and_sibling_self_time(layers):
    with trace.Tracer(HOOKS) as tracer:
        layers.outer(5, 10)
    summary = trace.summarize(tracer.spans)
    outer, leaf = summary["by_name"]["fake.outer"], summary["by_name"]["fake.leaf"]
    assert (outer["calls"], leaf["calls"]) == (1, 2)
    assert leaf["self_ns"] == leaf["total_ns"] >= 15e6
    # The parent's self time is what its two children do not cover.
    assert outer["self_ns"] == outer["total_ns"] - leaf["total_ns"]
    assert outer["self_ns"] < 5e6
    assert summary["root_ns"] == outer["total_ns"]
    parents = {span[1]: span[4] for span in tracer.spans}
    outer_id = next(span[0] for span in tracer.spans if span[1] == "fake.outer")
    assert parents == {"fake.leaf": outer_id, "fake.outer": None}


def test_pool_thread_spans_belong_to_the_submitting_op(layers):
    with trace.Tracer(HOOKS) as tracer, ThreadPoolExecutor(2) as pool:
        with tracer.op() as first_op:
            layers.Pooled().fan_out(pool)
        with tracer.op() as second_op:
            layers.Pooled().fan_out(pool)
    assert first_op != second_op
    fan_outs = {span[5]: span for span in tracer.spans if span[1] == "fake.fan_out"}
    leaves = [span for span in tracer.spans if span[1] == "fake.leaf"]
    assert len(leaves) == 4
    for leaf in leaves:
        parent = fan_outs[leaf[5]]  # the fan_out of the same op
        assert leaf[4] == parent[0]
        assert leaf[6] != parent[6]  # recorded on a pool thread
    # Children on other threads still come off the parent's self time.
    summary = trace.summarize(tracer.spans)
    fan_out = summary["by_name"]["fake.fan_out"]
    assert fan_out["self_ns"] < fan_out["total_ns"] - 1.5e6 * 2


def test_generator_gets_one_span_per_next(layers):
    with trace.Tracer(HOOKS) as tracer:
        iterator = layers.numbers(3)
        assert next(iterator) == 0
        time.sleep(0.02)  # the consumer's time is not the generator's
        assert list(iterator) == [1, 2]
    spans = [span for span in tracer.spans if span[1] == "fake.numbers"]
    assert len(spans) == 4  # three items and the StopIteration
    assert sum(span[3] - span[2] for span in spans) < 15e6


def test_exception_closes_the_span_and_propagates(layers):
    with trace.Tracer(HOOKS) as tracer:
        with pytest.raises(KeyError):
            layers.broken()
        layers.leaf(0)
    assert [span[1] for span in tracer.spans] == ["fake.broken", "fake.leaf"]
    assert tracer.spans[1][4] is None  # the failed span is off the stack


def test_async_spans_nest_per_task():
    async def handler(delay):
        await asyncio.sleep(delay)
        return module.leaf(0)

    module = _module("e2e_fake_async", handler=handler, leaf=lambda ms: ms)
    hooks = (("fake.handler", "e2e_fake_async", "handler"),
             ("fake.leaf", "e2e_fake_async", "leaf"))
    try:
        async def two():
            return await asyncio.gather(module.handler(0.02), module.handler(0.01))

        with trace.Tracer(hooks) as tracer:
            asyncio.run(two())
    finally:
        del sys.modules["e2e_fake_async"]
    handlers = {span[0]: span for span in tracer.spans if span[1] == "fake.handler"}
    leaves = [span for span in tracer.spans if span[1] == "fake.leaf"]
    # Interleaved on one thread, yet each leaf hangs off its own handler.
    assert sorted(leaf[4] for leaf in leaves) == sorted(handlers)
    assert len({leaf[5] for leaf in leaves}) == 2
    assert all(handler[4] is None for handler in handlers.values())


def test_uninstall_restores_the_exact_originals(layers):
    before = {
        "leaf": vars(layers)["leaf"],
        "fan_out": vars(layers.Pooled)["fan_out"],
        "make": vars(layers.Pooled)["make"],
        "submit": vars(ThreadPoolExecutor)["submit"],
    }
    tracer = trace.Tracer(HOOKS).install()
    assert vars(layers)["leaf"] is not before["leaf"]
    assert isinstance(vars(layers.Pooled)["make"], classmethod)
    assert isinstance(layers.Pooled.make(), layers.Pooled)
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert vars(layers)["leaf"] is before["leaf"]
    assert vars(layers.Pooled)["fan_out"] is before["fan_out"]
    assert vars(layers.Pooled)["make"] is before["make"]
    assert vars(ThreadPoolExecutor)["submit"] is before["submit"]
    assert [span[1] for span in tracer.spans] == ["fake.make"]


def test_missing_targets_degrade_to_unresolved(layers):
    hooks = HOOKS + (
        ("fake.gone", "e2e_fake_layers", "deleted_function"),
        ("fake.gone", "e2e_no_such_module", "anything"),
        ("fake.leaf", "e2e_fake_layers", "Pooled.deleted_method"),
    )
    with trace.Tracer(hooks) as tracer:
        layers.leaf(0)
    assert tracer.unresolved == [
        "e2e_fake_layers:deleted_function",
        "e2e_no_such_module:anything",
        "e2e_fake_layers:Pooled.deleted_method",
    ]
    # A name is dead only when none of its hooks is in place.
    assert tracer.dead_names() == ["fake.gone"]
    assert len(tracer.spans) == 1


def test_the_real_hooks_resolve_and_leave_repro_unpatched():
    """Every hook target exists today; install → uninstall is a no-op."""
    import repro.core.engine as engine
    from repro.topk.idspace import IdRankJoin

    originals = (vars(engine)["parse_query"], vars(IdRankJoin)["run"])
    with trace.Tracer(trace.ENGINE_HOOKS + trace.SERVE_HOOKS) as tracer:
        assert vars(IdRankJoin)["run"] is not originals[1]
    assert tracer.unresolved == []
    assert (vars(engine)["parse_query"], vars(IdRankJoin)["run"]) == originals
