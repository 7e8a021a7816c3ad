"""Benchmark-side span tracer: layer boundaries wrapped from outside ``src/``.

The program has no tracing of its own yet, so the benchmark records spans
around the calls *into* each layer by replacing the layers' callables where
they are looked up (a module global for ``from x import f`` names, a class
attribute for methods).  ``Tracer.install`` patches, ``Tracer.uninstall``
puts back the exact original objects, so code that runs afterwards in the
same process sees an unpatched ``repro``.

A span is ``(id, name, start_ns, end_ns, parent, op, thread)``.  The
current span and op ride in ``contextvars`` — one stack per thread *and*
per asyncio task — and ``ThreadPoolExecutor.submit`` is patched to carry
the submitter's context, so prefetch work on pool threads and engine work
the HTTP handler hands to its executor are parented to the span that
caused them.  A layer's **self time** is its span minus the union of its
direct children's intervals (clipped to the span).

A hook whose target a later change deletes does not fail the run: it is
listed in ``Tracer.unresolved`` and the metrics built on it read ``None``.
Per-item calls (``IdPostingCursor.pop``, ``IdRankJoin._probe``) are
deliberately not hooked: a span costs about a microsecond.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from types import FunctionType

#: (span name, module, attribute path) — the layer boundaries.  Names are
#: ``<module under src/repro>.<what>``; the in-program tracing of a later
#: change reuses them.
ENGINE_HOOKS = (
    ("core.engine.open", "repro.core.engine", "TriniT.open"),
    ("core.engine.ask", "repro.core.engine", "TriniT.ask"),
    ("core.engine.stream", "repro.core.engine", "TriniT.stream"),
    ("core.engine.next_k", "repro.core.results", "AnswerStream.next_k"),
    ("core.engine.explain", "repro.core.engine", "TriniT.explain"),
    ("core.engine.ingest", "repro.core.engine", "TriniT.ingest"),
    ("core.engine.compact", "repro.core.engine", "TriniT.compact"),
    ("core.parser.parse", "repro.core.engine", "parse_query"),
    ("relax.rewriting.enumerate", "repro.relax.rewriting", "RewriteEngine.iter_rewrites"),
    ("topk.processor.plan", "repro.topk.processor", "TopKProcessor.driver"),
    ("topk.processor.plan", "repro.topk.driver", "TopKDriver._build_join"),
    ("topk.driver.advance", "repro.topk.driver", "TopKDriver.advance"),
    ("topk.driver.materialize", "repro.topk.driver", "TopKDriver.ranked_window"),
    ("topk.idspace.join", "repro.topk.idspace", "IdRankJoin.run"),
    ("topk.kernels.score", "repro.topk.kernels", "score_block"),
    ("topk.kernels.prepare", "repro.topk.kernels", "prepare_head_block"),
    ("storage.store.postings_open", "repro.storage.store", "TripleStore.sorted_ids"),
    ("storage.store.postings_open", "repro.storage.store", "TripleStore.postings_ids"),
    ("storage.sharded.pull", "repro.storage.sharded", "MergedPostings.pull"),
    ("storage.backend.posting_block", "repro.storage.sharded", "ShardedBackend.posting_block"),
    ("storage.backend.posting_block", "repro.storage.columnar", "ColumnarBackend.posting_block"),
    ("storage.store.add_all", "repro.storage.store", "TripleStore.add_all"),
    ("storage.compaction.compact", "repro.core.engine", "compact_store"),
    ("storage.snapshot.save", "repro.storage.snapshot", "save_snapshot"),
    ("storage.snapshot.load", "repro.storage.snapshot", "load_snapshot"),
    ("core.explanation.explain", "repro.core.engine", "explain_answer"),
    ("core.explanation.explain", "repro.core.explanation", "Explanation.render"),
)

#: Added in the traced server child (``traced_serve.py``).
SERVE_HOOKS = (
    ("serve.http.handler", "repro.serve.http", "QueryService._dispatch"),
    ("core.parser.parse", "repro.serve.http", "parse_query"),
    ("serve.cache.get", "repro.serve.cache", "ResultCache.get"),
    ("serve.cache.put", "repro.serve.cache", "ResultCache.put"),
    ("serve.admission.run", "repro.serve.admission", "AdmissionController.run"),
    ("serve.admission.acquire", "repro.serve.admission", "AdmissionController.acquire"),
    ("serve.http.serialize", "repro.serve.http", "serialize_answer"),
)

#: Spans whose self time is the engine facade's own glue (locks, epoch
#: guard, executor hand-off) rather than a named layer's work.
FACADE_PREFIX = "core.engine."

_current = contextvars.ContextVar("e2e_span", default=None)
_op = contextvars.ContextVar("e2e_op", default=None)


class Tracer:
    """Records spans in memory between :meth:`install` and :meth:`uninstall`."""

    def __init__(self, hooks=ENGINE_HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list[tuple] = []
        self.unresolved: list[str] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _begin(self):
        span_id = next(self._ids)
        parent = _current.get()
        op_token = None
        if parent is None and _op.get() is None:
            op_token = _op.set(next(self._ops))
        return span_id, parent, _current.set(span_id), op_token, time.perf_counter_ns()

    def _end(self, name, state):
        end = time.perf_counter_ns()
        span_id, parent, token, op_token, start = state
        self.spans.append(
            (span_id, name, start, end, parent, _op.get(), threading.get_ident())
        )
        _current.reset(token)
        if op_token is not None:
            _op.reset(op_token)

    def op(self):
        """Context manager grouping the root spans of one benchmark op."""
        return _OpScope(next(self._ops))

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span called ``name`` (sync, async or generator)."""
        begin, end = self._begin, self._end
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                state = begin()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end(name, state)

        elif inspect.isgeneratorfunction(fn):
            # One span per next(): the consumer's time between items is not
            # the generator's.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    state = begin()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end(name, state)
                    yield item

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                state = begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(name, state)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("Tracer already installed")
        for name, module_name, path in self.hooks:
            target = f"{module_name}:{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(name, raw.__func__))
            elif isinstance(raw, FunctionType):
                patched = self.wrap(name, raw)
            else:
                self.unresolved.append(target)
                continue
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, raw))
        submit = vars(ThreadPoolExecutor)["submit"]

        @functools.wraps(submit)
        def submit_with_context(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit_with_context
        self._patched.append((ThreadPoolExecutor, "submit", submit))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def dead_names(self) -> list[str]:
        """Span names none of whose hooks could be put in place."""
        names = {name for name, _module, _path in self.hooks}
        live = {
            name for name, module, path in self.hooks
            if f"{module}:{path}" not in self.unresolved
        }
        return sorted(names - live)


class _OpScope:
    def __init__(self, op_id: int):
        self.op_id = op_id

    def __enter__(self) -> int:
        self._token = _op.set(self.op_id)
        return self.op_id

    def __exit__(self, exc_type, exc, tb) -> None:
        _op.reset(self._token)


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    edge = start
    for lo, hi in sorted(intervals):
        lo = max(lo, edge)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


def summarize(spans) -> dict:
    """Per-name call counts, inclusive and self time; root totals.

    ``root_ns`` sums the spans without a parent; ``facade_self_ns`` is the
    part of the facade spans (:data:`FACADE_PREFIX`) no named layer covers
    — ``1 - facade_self_ns / root_ns`` is the attributed share.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _id, _name, start, end, parent, _op_id, _thread in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_name: dict[str, dict] = {}
    root_ns = facade_self_ns = 0
    ops = set()
    for span_id, name, start, end, parent, op_id, _thread in spans:
        duration = end - start
        self_ns = duration - _covered(start, end, children.get(span_id, ()))
        row = by_name.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += self_ns
        ops.add(op_id)
        if parent is None:
            root_ns += duration
        if name.startswith(FACADE_PREFIX):
            facade_self_ns += self_ns
    return {
        "by_name": by_name,
        "root_ns": root_ns,
        "facade_self_ns": facade_self_ns,
        "ops": len(ops),
        "spans": len(spans),
    }
