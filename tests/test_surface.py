"""The package's surface: every public module-level function and class in
``src/adaptchain`` has a caller in the package or the benchmark, so no
helper is kept for the tests alone. Re-exports in ``__init__.py`` are not
callers; a name's use inside its own module is. The check sees only
``class`` and ``def`` statements, so every value type is declared as
``class X(namedtuple("X", ...))``, never as a module-level
``X = namedtuple(...)``, which would slip past it. Every public member of
a class is read there too. The benchmark's tracer also counts calls by
name, and the searches stay off the one it divides by. Every annotation
names something its module defines or imports. Only ``semantics.py``
reads a pipeline's links."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import subprocess
import sys
import types
import typing
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


def _name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else None


def _members(cls: ast.ClassDef) -> set[str]:
    """A class's methods and properties, its record fields, its
    ``__slots__`` entries and the attributes its ``__init__`` sets."""
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Call) and _name(base.func) == "namedtuple":
            names.update(base.args[1].value.replace(",", " ").split())
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
            if node.name == "__init__":
                names.update(
                    target.attr for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                )
        elif isinstance(node, ast.Assign) and any(
            _name(target) == "__slots__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_public_member_is_read_outside_the_tests():
    """Read as an attribute, or named in an ``attrgetter`` string. Dunders
    and overrides of a hook a standard-library base defines are exempt."""
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and _name(node.func) == "attrgetter":
                read.update(
                    part for arg in node.args if isinstance(arg, ast.Constant)
                    for part in arg.value.split(".")
                )
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"adaptchain.{path.stem}")
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            stdlib = [
                base for base in getattr(module, cls.name).__mro__
                if not base.__module__.startswith("adaptchain")
            ]
            unread += [
                f"{path.stem}.{cls.name}.{name}" for name in sorted(_members(cls))
                if not name.startswith("_") and name not in read
                and not any(name in vars(base) for base in stdlib)
            ]
    assert not unread, f"never read outside the tests: {unread}"


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


def test_only_semantics_reads_pipeline_links():
    """A pipeline is a linked list whose layout ``semantics.py`` owns: the
    other modules order, name and fold chains through
    ``AdaptationPipeline`` and never read ``_head`` or ``_tail``."""
    readers = sorted(
        f"{path.stem}:{node.lineno} {node.attr}"
        for path in PACKAGE.glob("*.py") if path.name != "semantics.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("_head", "_tail")
    )
    assert not readers, f"pipeline links read outside semantics.py: {readers}"


def test_importing_the_cli_loads_no_rare_path_module():
    """Every command process imports the CLI. ``decimal`` serves only ints
    too long to print and ``fractions`` only weight sums that overflow
    ``math.fsum``, and the package does not use ``string``, so none of them
    loads with it. The process is fresh and isolated (``-I -S``), so no
    test or site module loads any of them first."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import adaptchain.cli; "
        "print(*sorted({'decimal', 'fractions', 'string'} & sys.modules.keys()))"
    )
    loaded = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.split() == []


def _functions(module: types.ModuleType):
    """The functions a module defines at its top level and in its classes:
    plain functions and methods, class and static methods, properties and
    cached properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
            for function in (member, getattr(member, "__func__", None),
                             getattr(member, "fget", None), getattr(member, "func", None)):
                if inspect.isfunction(function):
                    yield function


def _stand_in(module: types.ModuleType, node: ast.FunctionDef) -> types.FunctionType:
    """A function with ``node``'s annotations, as source text, and the
    module's globals: what ``typing.get_type_hints`` reads of a function."""
    a = node.args
    params = [*a.posonlyargs, *a.args, *filter(None, [a.vararg, a.kwarg]), *a.kwonlyargs]
    function = types.FunctionType((lambda: None).__code__, vars(module), node.name)
    function.__annotations__ = {
        p.arg: ast.unparse(p.annotation) for p in params if p.annotation
    }
    if node.returns:
        function.__annotations__["return"] = ast.unparse(node.returns)
    return function


def test_every_annotation_resolves():
    """``typing.get_type_hints`` resolves every function and method in the
    package. The annotations are strings (``from __future__ import
    annotations``), so a name used only in one, and never imported, fails
    nowhere else. A nested function is checked through a stand-in."""
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"adaptchain.{path.stem}")
        functions = {f.__code__.co_firstlineno: f for f in _functions(module)}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            function = functions.get(first) or _stand_in(module, node)
            try:
                typing.get_type_hints(function)
            except NameError as exc:
                unresolved.append(f"{path.stem}:{first} {node.name}: {exc}")
    assert not unresolved, unresolved
