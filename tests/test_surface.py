"""The package's surface: every public module-level function and class in
``src/adaptchain`` has a caller in the package or the benchmark, so no
helper is kept for the tests alone. Re-exports in ``__init__.py`` are not
callers; a name's use inside its own module is. The check sees only
``class`` and ``def`` statements, so every value type is declared as
``class X(namedtuple("X", ...))``, never as a module-level
``X = namedtuple(...)``, which would slip past it. The benchmark's tracer
also counts calls by name, and the searches stay off the one it divides
by."""

from __future__ import annotations

import ast
import io
import sys
from pathlib import Path

import adaptchain
from adaptchain import semantics
from adaptchain.cli import run_cli

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


def test_only_eval_calls_apply_pipeline(monkeypatch, video_graph):
    """The tracer wraps ``semantics.apply_pipeline`` wherever the package
    binds it, and long-path's design check divides the adaptations made
    inside it by its calls. The searches reach the fold without it, so
    their scoring does not dilute that ratio; one ``eval`` is one call."""
    calls = []
    fold = semantics.apply_pipeline

    def counted(*args):
        calls.append(args)
        return fold(*args)

    for name, module in list(sys.modules.items()):
        if name == "adaptchain" or name.startswith("adaptchain."):
            for attr, value in list(vars(module).items()):
                if value is fold:
                    monkeypatch.setattr(module, attr, counted)
    adaptchain.greedy_chain(video_graph, ["Video1"], "Audio")
    adaptchain.oracle_optimal(video_graph, ["Video1"], "Audio")
    adaptchain.enumerate_chains(video_graph, "Video1", "Audio")
    assert calls == []
    status = run_cli(
        ["eval", "--graph", "video-example", "--chain",
         "Video1toVideo2,Video2toVideo3", "--vector", "playVideo:MOV"],
        out=io.StringIO(), err=io.StringIO(),
    )
    assert (status, len(calls)) == (0, 1)
