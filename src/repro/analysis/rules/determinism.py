"""determinism: the static complement to the byte-identity suite.

Batched execution must stay byte-identical to the serial per-item
reference (``tests/property/test_prop_parallel.py``), so the
execution-core modules — ``topk/``, ``storage/sharded.py``,
``storage/delta.py`` — must not let nondeterminism leak into result
construction:

- **set-iteration**: iterating a bare ``set`` (a set display, set
  comprehension, ``set(...)`` call, or a local bound to one) in a
  ``for`` loop or comprehension, or materialising one with
  ``list``/``tuple``, lets hash-order escape.  Wrap it in ``sorted()``.
- **wall-clock**: ``time.time()``/``time.time_ns()``/``datetime.now()``
  feeding anything but profiling.  (``perf_counter`` is allowed — it
  only ever lands in ``QueryStats.elapsed_seconds``.)
- **random**: any ``random.*`` call except an explicitly seeded
  ``random.Random(seed)`` construction.
- **id-ordering**: ``id(...)`` used inside ``sorted``/``min``/``max``/
  ``.sort``/``heappush`` or an ordering comparison.  (``id()`` as an
  *identity* dict key is fine — that never orders anything.)
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import FileContext, Finding, Rule, register

_SCOPED_SUFFIXES = (
    "storage/sharded.py",
    "storage/delta.py",
)
_SCOPED_DIRS = ("topk/",)

_ORDERING_CALLS = {"sorted", "min", "max", "heappush", "heappushpop", "nsmallest", "nlargest"}
_ORDERING_CMPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _in_scope(display_path: str) -> bool:
    path = display_path.replace("\\", "/")
    if path.endswith(_SCOPED_SUFFIXES):
        return True
    return any(f"/{d}" in path or path.startswith(d) for d in _SCOPED_DIRS)


def _is_set_expr(node: ast.AST, set_locals: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # set algebra on set operands stays a set
        return _is_set_expr(node.left, set_locals) or _is_set_expr(
            node.right, set_locals
        )
    return False


@register
class Determinism(Rule):
    id = "determinism"
    description = (
        "execution-core modules must not leak hash order, wall-clock "
        "time, unseeded randomness, or id()-keyed ordering into results"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx.display_path):
            return ()
        findings: list[Finding] = []
        set_locals = self._set_locals(ctx.tree)
        for node in ast.walk(ctx.tree):
            findings.extend(self._check_node(ctx, node, set_locals))
        return findings

    @staticmethod
    def _set_locals(tree: ast.AST) -> set[str]:
        """Names bound (anywhere) to an expression that is plainly a set."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_set_expr(node.value, set()) and isinstance(
                    node.target, ast.Name
                ):
                    names.add(node.target.id)
        return names

    def _check_node(
        self, ctx: FileContext, node: ast.AST, set_locals: set[str]
    ) -> Iterable[Finding]:
        # -- set iteration escaping unsorted -------------------------------
        if isinstance(node, (ast.For, ast.comprehension)):
            source = node.iter
            if _is_set_expr(source, set_locals):
                yield self.finding(
                    ctx,
                    source,
                    "iterating a set in hash order — wrap the iterable in "
                    "sorted() so parallel runs stay byte-identical",
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"list", "tuple"} and node.args:
                if _is_set_expr(node.args[0], set_locals):
                    yield self.finding(
                        ctx,
                        node,
                        f"{node.func.id}() over a set materialises hash "
                        f"order — use sorted() instead",
                    )

        # -- wall clock ----------------------------------------------------
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "time"
                and func.attr in {"time", "time_ns"}
            ):
                yield self.finding(
                    ctx,
                    node,
                    "wall-clock time in an execution-core module — results "
                    "must not depend on when they were computed "
                    "(perf_counter is fine for stats timing)",
                )
            if func.attr in {"now", "utcnow"} and isinstance(base, ast.Name) and base.id in {
                "datetime",
                "date",
            }:
                yield self.finding(
                    ctx, node, "datetime.now() in an execution-core module"
                )

            # -- unseeded random ------------------------------------------
            if isinstance(base, ast.Name) and base.id == "random":
                if not (func.attr == "Random" and node.args):
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{func.attr}() in an execution-core module — "
                        f"only an explicitly seeded random.Random(seed) is "
                        f"deterministic",
                    )

        # -- id()-keyed ordering ------------------------------------------
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            for ancestor in ctx.ancestors(node):
                if isinstance(ancestor, ast.stmt):
                    break
                if isinstance(ancestor, ast.Call):
                    name = None
                    if isinstance(ancestor.func, ast.Name):
                        name = ancestor.func.id
                    elif isinstance(ancestor.func, ast.Attribute):
                        name = ancestor.func.attr
                        if name == "sort":
                            name = "sorted"
                    if name in _ORDERING_CALLS:
                        yield self.finding(
                            ctx,
                            node,
                            "id() feeding an ordering — CPython addresses "
                            "differ across processes, so this breaks "
                            "byte-identity (id() as an identity dict key "
                            "is fine)",
                        )
                        break
                if isinstance(ancestor, ast.Compare) and any(
                    isinstance(op, _ORDERING_CMPS) for op in ancestor.ops
                ):
                    yield self.finding(
                        ctx, node, "id() compared with an ordering operator"
                    )
                    break
