"""Rule framework: file contexts, findings, suppressions, the registry.

Design notes
------------
Rules are instances of :class:`Rule` registered by id.  Each rule sees
one :class:`FileContext` at a time (``check``) and, after every file has
been walked, the whole :class:`Project` (``finish``) — the latter is how
cross-file rules (the stats-surface check) correlate a dataclass with
the modules that render it.

A :class:`FileContext` carries the parsed tree, a parent map (``ast``
has no parent pointers), and the file's suppression table, parsed from
``# xkg: allow[rule-id] reason`` comments with :mod:`tokenize` so
strings containing the marker are never misread as suppressions.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path
from typing import Callable, Iterable, Iterator

_SUPPRESS_RE = re.compile(
    r"#\s*xkg:\s*allow\[(?P<rules>[A-Za-z0-9_\-, ]+)\]\s*(?P<reason>.*)$"
)

#: Rule id used for findings about the suppression comments themselves
#: (missing reason, unknown rule id).  Not suppressible.
META_RULE = "suppression"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a file:line."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    suppression_reason: str | None = None

    def to_dict(self) -> dict:
        data = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.suppressed:
            data["suppressed"] = True
            data["reason"] = self.suppression_reason or ""
        return data

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{mark}"


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed ``# xkg: allow[...]`` comment."""

    line: int  #: line the suppression *applies to* (not the comment line)
    comment_line: int
    rules: tuple[str, ...]
    reason: str


class FileContext:
    """One parsed source file plus the derived structure rules need."""

    def __init__(self, path: Path, source: str, display_path: str | None = None):
        self.path = path
        self.display_path = display_path or str(path)
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self.suppressions = _parse_suppressions(source)

    # -- structure ---------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing(self, node: ast.AST, *types: type) -> ast.AST | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, types):
                return ancestor
        return None

    def classes(self) -> list[ast.ClassDef]:
        return [n for n in ast.walk(self.tree) if isinstance(n, ast.ClassDef)]

    # -- suppressions ------------------------------------------------------

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        for suppression in self.suppressions:
            if suppression.line == line and (
                rule in suppression.rules or "all" in suppression.rules
            ):
                return suppression
        return None


def _parse_suppressions(source: str) -> list[Suppression]:
    suppressions: list[Suppression] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover - parse() ran
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        comment_line = token.start[0]
        text = lines[comment_line - 1] if comment_line <= len(lines) else ""
        standalone = text[: token.start[1]].strip() == ""
        # A trailing comment targets its own line; a standalone comment
        # line targets the line below it.
        target = comment_line + 1 if standalone else comment_line
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        suppressions.append(
            Suppression(
                line=target,
                comment_line=comment_line,
                rules=rules,
                reason=match.group("reason").strip(),
            )
        )
    return suppressions


class Project:
    """Every file of one analysis run, for cross-file rules."""

    def __init__(self, files: list[FileContext]):
        self.files = files

    def find(self, suffix: str) -> FileContext | None:
        """The file whose (slash-normalised) path ends with ``suffix``."""
        normalised = suffix.replace("\\", "/")
        for ctx in self.files:
            if ctx.display_path.replace("\\", "/").endswith(normalised):
                return ctx
        return None


class Rule:
    """Base class: subclass, set ``id``/``description``, register."""

    id: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        return ()

    # -- helpers for subclasses -------------------------------------------

    def finding(
        self, ctx: FileContext, node: ast.AST | int, message: str
    ) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            rule=self.id, path=ctx.display_path, line=line, message=message
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"Rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"Duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    return dict(_REGISTRY)


# -- shared AST helpers ----------------------------------------------------


def attr_chain(node: ast.AST) -> str | None:
    """Dotted chain of a Name/Attribute expression (``self._state.write_lock``)."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> str | None:
    """Attribute name when ``node`` is exactly ``self.<name>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions.

    Nested defs and lambdas run later (or never, or on another thread),
    so lexical facts about the enclosing frame — a lock being held, a
    guard having been checked — do not transfer to them.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# -- the analyzer ----------------------------------------------------------


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def load_context(path: Path, root: Path | None = None) -> FileContext:
    display = str(path)
    if root is not None:
        try:
            display = str(path.relative_to(root))
        except ValueError:
            display = str(path)
    source = path.read_text(encoding="utf-8")
    return FileContext(path, source, display_path=display)


def analyze(
    paths: Iterable[Path],
    rule_ids: Iterable[str] | None = None,
    root: Path | None = None,
    on_error: Callable[[Path, Exception], None] | None = None,
) -> list[Finding]:
    """Run the selected rules over every ``.py`` file under ``paths``.

    Returns *all* findings; suppressed ones carry ``suppressed=True``.
    Suppression comments with no reason, or naming no known rule, yield
    ``suppression`` meta-findings that cannot themselves be suppressed.
    """
    registry = all_rules()
    if rule_ids is not None:
        wanted = list(rule_ids)
        unknown = [rule for rule in wanted if rule not in registry]
        if unknown:
            raise ValueError(f"Unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [registry[rule] for rule in wanted]
    else:
        rules = list(registry.values())

    contexts: list[FileContext] = []
    for path in iter_python_files(paths):
        try:
            contexts.append(load_context(path, root=root))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            if on_error is not None:
                on_error(path, exc)
            continue

    raw: list[Finding] = []
    for ctx in contexts:
        for rule in rules:
            raw.extend(rule.check(ctx))
    project = Project(contexts)
    for rule in rules:
        raw.extend(rule.finish(project))

    by_path = {ctx.display_path: ctx for ctx in contexts}
    findings: list[Finding] = []
    for finding in raw:
        ctx = by_path.get(finding.path)
        suppression = (
            ctx.suppression_for(finding.rule, finding.line) if ctx else None
        )
        if suppression is not None and suppression.reason:
            finding = dataclasses.replace(
                finding, suppressed=True, suppression_reason=suppression.reason
            )
        findings.append(finding)

    # Malformed suppressions are findings too: a reasonless allow is a
    # rule violation waiting to be forgotten.
    known = set(registry) | {"all"}
    for ctx in contexts:
        for suppression in ctx.suppressions:
            if not suppression.reason:
                findings.append(
                    Finding(
                        rule=META_RULE,
                        path=ctx.display_path,
                        line=suppression.comment_line,
                        message=(
                            "suppression comment has no reason — name the "
                            "invariant that makes the flagged code safe"
                        ),
                    )
                )
            for rule_id in suppression.rules:
                if rule_id not in known:
                    findings.append(
                        Finding(
                            rule=META_RULE,
                            path=ctx.display_path,
                            line=suppression.comment_line,
                            message=f"suppression names unknown rule {rule_id!r}",
                        )
                    )

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
