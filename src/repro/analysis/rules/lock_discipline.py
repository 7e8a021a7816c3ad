"""lock-discipline: a static race detector for lock-guarded attributes.

Within one class, any private attribute (leading underscore) that is
*written* inside a ``with self.<lock>`` block is treated as
lock-guarded shared state.  Every other touch of that attribute in the
class — read or write — must also happen under one of the class's
recognised guards, or it is a potential race.

Recognised guards (the ``with`` item's context expression):

- a ``self`` attribute chain whose final name ends in ``lock`` or
  ``cond`` (``self._lock``, ``self._build_lock``,
  ``self._state.write_lock``),
- a local alias of such a chain (``state = self._state`` then
  ``with state.write_lock:``),
- a call on a ``self`` method whose name contains ``guard`` or ``lock``
  (``with self._locked():``) — contextmanager-wrapped locks.

``async with`` counts the same way.  Constructor-phase methods
(``__init__``, ``__new__``, ``__del__``, names starting ``_init``) and
``close`` are exempt: they run before the object is shared or after the
last reader is drained.  Nested functions and lambdas are skipped
entirely — they execute later, so a lock held lexically around them is
not held when they run.  Attributes that *carry* the locks themselves
are exempt (you must read the lock attribute unguarded to take it).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import (
    FileContext,
    Finding,
    Rule,
    attr_chain,
    iter_methods,
    register,
    self_attr,
)

_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "close"}


def _is_lockish(name: str) -> bool:
    return name.endswith("lock") or name.endswith("cond")


class _MethodScan:
    """One method's guard structure: aliases, guarded regions, touches."""

    def __init__(self, method: ast.FunctionDef | ast.AsyncFunctionDef):
        self.method = method
        self.aliases: dict[str, str] = {}  # local name -> self.* chain
        # (attr, node, guarded, is_write) for every self.<attr> touch
        self.touches: list[tuple[str, ast.AST, bool, bool]] = []
        self.guard_bases: set[str] = set()  # self attrs that carry a lock
        self._scan_body(method.body, guarded=False)

    # -- guard recognition -------------------------------------------------

    def _resolve_chain(self, node: ast.AST) -> str | None:
        chain = attr_chain(node)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        if head in self.aliases:
            chain = self.aliases[head] + ("." + rest if rest else "")
        return chain

    def _guard_chain(self, expr: ast.AST) -> str | None:
        """The ``self...`` chain when ``expr`` is a recognised guard."""
        if isinstance(expr, ast.Call):
            chain = self._resolve_chain(expr.func)
            if chain is not None and chain.startswith("self."):
                final = chain.rsplit(".", 1)[-1]
                if "guard" in final or "lock" in final:
                    return chain
            return None
        chain = self._resolve_chain(expr)
        if chain is not None and chain.startswith("self."):
            final = chain.rsplit(".", 1)[-1]
            if _is_lockish(final):
                return chain
        return None

    def _note_guard_base(self, chain: str) -> None:
        parts = chain.split(".")
        if len(parts) >= 2 and parts[0] == "self":
            self.guard_bases.add(parts[1])

    # -- body walk ---------------------------------------------------------

    def _scan_body(self, body: Iterable[ast.stmt], guarded: bool) -> None:
        for stmt in body:
            self._scan_stmt(stmt, guarded)

    def _scan_stmt(self, stmt: ast.stmt, guarded: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # deferred execution: out of scope
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = guarded
            for item in stmt.items:
                chain = self._guard_chain(item.context_expr)
                if chain is not None:
                    inner = True
                    self._note_guard_base(chain)
                else:
                    self._scan_expr(item.context_expr, guarded)
                if item.optional_vars is not None:
                    self._scan_expr(item.optional_vars, guarded)
            self._scan_body(stmt.body, inner)
            return
        if isinstance(stmt, ast.Assign):
            # Track simple local aliases of self attributes.
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                chain = self._resolve_chain(stmt.value)
                if chain is not None and chain.startswith("self."):
                    self.aliases[stmt.targets[0].id] = chain
        # Everything else: walk child statements with the same guard
        # state, and expressions for touches.
        for field, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    self._scan_body(value, guarded)
                else:
                    for item in value:
                        if isinstance(item, ast.AST):
                            self._scan_expr(item, guarded)
            elif isinstance(value, ast.AST):
                self._scan_expr(value, guarded)

    def _scan_expr(self, node: ast.AST, guarded: bool) -> None:
        for sub in self._walk_expr(node):
            # A subscript store/delete mutates the container held by the
            # attribute: `self._weights[k] = w` is a write to _weights.
            if isinstance(sub, ast.Subscript) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                base = sub.value
                while isinstance(base, ast.Subscript):
                    base = base.value
                attr = self_attr(base)
                if attr is not None:
                    self.touches.append((attr, sub, guarded, True))
                continue
            attr = self_attr(sub)
            if attr is None:
                continue
            is_write = isinstance(sub.ctx, (ast.Store, ast.Del))  # type: ignore[attr-defined]
            self.touches.append((attr, sub, guarded, is_write))

    @staticmethod
    def _walk_expr(node: ast.AST) -> Iterator[ast.AST]:
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(current))


@register
class LockDiscipline(Rule):
    id = "lock-discipline"
    description = (
        "private attributes written under a self lock must never be "
        "touched outside a guarded block in that class"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for cls in ctx.classes():
            findings.extend(self._check_class(ctx, cls))
        return findings

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterable[Finding]:
        method_names = {method.name for method in iter_methods(cls)}
        scans = [
            (method, _MethodScan(method))
            for method in iter_methods(cls)
        ]

        guard_bases: set[str] = set()
        for _, scan in scans:
            guard_bases.update(scan.guard_bases)
        if not guard_bases:
            return ()

        def exempt_attr(attr: str) -> bool:
            return (
                not attr.startswith("_")
                or attr in guard_bases
                or _is_lockish(attr)
                or attr in method_names
            )

        guarded_attrs: set[str] = set()
        for method, scan in scans:
            if self._exempt_method(method.name):
                continue
            for attr, _node, guarded, is_write in scan.touches:
                if guarded and is_write and not exempt_attr(attr):
                    guarded_attrs.add(attr)
        if not guarded_attrs:
            return ()

        findings: list[Finding] = []
        for method, scan in scans:
            if self._exempt_method(method.name):
                continue
            reported: set[str] = set()
            for attr, node, guarded, _is_write in scan.touches:
                if guarded or attr not in guarded_attrs or attr in reported:
                    continue
                reported.add(attr)
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{cls.name}.{method.name} touches self.{attr} "
                        f"outside a lock, but {cls.name} writes it under "
                        f"a guard elsewhere",
                    )
                )
        return findings

    @staticmethod
    def _exempt_method(name: str) -> bool:
        return name in _EXEMPT_METHODS or name.startswith("_init")
