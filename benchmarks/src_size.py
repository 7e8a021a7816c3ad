"""How big ``src/`` is, and how much of it a served engine can import.

    python3 benchmarks/src_size.py            # this checkout
    python3 benchmarks/src_size.py --root /path/to/other/checkout

Prints two line counts (newline characters, as ``wc -l`` counts them):

* ``src_lines`` — every ``*.py`` file under ``src/``;
* ``reachable_lines`` — the ``src/repro`` modules import-reachable from
  :data:`ROOTS` (the engine, the query service and its ``python -m``
  entry point).  The walk reads each module's AST and follows every
  ``import`` / ``from … import`` of a ``repro`` module wherever it stands
  (function-level and ``TYPE_CHECKING`` imports included), plus the
  ``__init__`` of every package on the way, which importing a submodule
  runs.  A name imported *from* a package counts as its submodule when a
  file of that name exists.

The walk reads source only; nothing is imported or executed.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

#: The modules a served engine starts from.
ROOTS = ("repro.core.engine", "repro.serve", "repro.serve.__main__")


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def _module_file(src: Path, name: str) -> Path | None:
    """The file of module ``name`` under ``src`` (a package: its ``__init__``)."""
    base = src.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imports(src: Path, name: str, path: Path) -> set[str]:
    """The ``repro`` modules the file of module ``name`` imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            found.add(base)
            for alias in node.names:
                if _module_file(src, f"{base}.{alias.name}") is not None:
                    found.add(f"{base}.{alias.name}")
    return {module for module in found if module.split(".")[0] == "repro"}


def reachable(src: Path, roots=ROOTS) -> dict[str, Path]:
    """Module name -> file, for every module reachable from ``roots``."""
    seen: dict[str, Path] = {}
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        path = _module_file(src, name)
        if path is None:
            continue
        seen[name] = path
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        parts = name.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_imports(src, name, path))
    return seen


def measure(root: Path) -> dict[str, int]:
    src = root / "src"
    files = {path.resolve() for path in reachable(src).values()}
    return {
        "src_lines": sum(_lines(path) for path in src.rglob("*.py")),
        "reachable_lines": sum(_lines(path) for path in files),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout to measure (default: this one)",
    )
    args = parser.parse_args(argv)
    for key, value in measure(args.root).items():
        print(f"{key:18} {value:>7,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
