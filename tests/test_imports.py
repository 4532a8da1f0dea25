"""Unused imports in the package, found with the standard library's ast alone."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "queencover"


def _scan(scope: ast.AST, lines: list[str], unused: list[tuple[int, str]]) -> set[str]:
    """The names a module or function reads and does not import itself.

    Appends to unused each name that one of its imports binds and that
    neither it nor a function inside it reads, a function that imports the
    name itself reading its own binding.  An import marked `# noqa: F401` on
    any of its lines is kept on purpose, and `from __future__` binds nothing.
    """
    read: set[str] = set()
    imports = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read |= _scan(node, lines, unused)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        else:
            if isinstance(node, ast.Name):
                read.add(node.id)
            stack.extend(ast.iter_child_nodes(node))
    bound = set()
    for node in imports:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.add(name)
            if name != "*" and name not in read and not kept:
                unused.append((node.lineno, name))
    return read - bound


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each unused import in a module's source (see _scan)."""
    unused: list[tuple[int, str]] = []
    _scan(ast.parse(source), source.splitlines(), unused)
    return sorted(unused)


def test_unused_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json as j\n"
        "import importlib.util\n"
        "from typing import Optional  # noqa: F401\n"
        "from math import (\n"
        "    floor,\n"
        "    sqrt,\n"
        ")\n"
        "import mmap\n"
        "def f():\n"
        "    import pickle\n"
        "    import mmap\n"
        "    return mmap, importlib.util, floor\n"
        "def g():\n"
        "    return pickle\n"
    )
    # pickle is read, but only in another function than the one importing
    # it, and the module's mmap only through f's own import of it.
    assert unused_imports(source) == [(2, "os"), (3, "j"), (6, "sqrt"), (10, "mmap"), (12, "pickle")]


def test_package_has_no_unused_imports():
    # __init__ imports its names to export them, so only the other modules
    # are checked.
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}
