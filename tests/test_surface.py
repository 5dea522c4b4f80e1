"""The package's surface: every public module-level function and class in
``src/adaptchain`` has a caller in the package or the benchmark, so no
helper is kept for the tests alone. Re-exports in ``__init__.py`` are not
callers; a name's use inside its own module is."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adaptchain"


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
        if path.name != "__init__.py"
    }
    used = set().union(*map(referenced_names, modules.values()))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items() if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    ]
    assert not unused, f"no caller outside the tests: {unused}"
