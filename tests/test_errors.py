"""Error text has one owner: a domain error is raised with a constant
template and its outside values, and only ``AdapterChainError`` turns those
values into text."""

from __future__ import annotations

import ast
import string
from pathlib import Path

import pytest

from adaptchain import errors
from adaptchain.errors import AdapterChainError, NoChain

SRC = Path(errors.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
DOMAIN_ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, AdapterChainError)
}
# Callables that receive a template fragment and its values.
FRAGMENT_TAKERS = {"_refuse", "_lift_sets", "from_names"}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_template(node: ast.expr, joined: bool = False) -> bool:
    """A constant string, or one joined by ``+`` to a fragment name
    (``where``, ``where[0]``): no value from outside is formatted in."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_template(node.left, True) and _is_template(node.right, True)
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Name) and joined) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def _domain_raises(tree: ast.AST) -> list[ast.Call]:
    """Every ``raise SomeError(...)`` of a domain error; ``error`` is
    ``cli._read_text``'s parameter, a domain error class."""
    return [
        node.exc for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and _name(node.exc.func) in DOMAIN_ERRORS | {"error"}
    ]


def test_every_domain_error_is_raised_with_a_constant_template():
    checked = 0
    for path in MODULES:
        tree = ast.parse(path.read_text())
        calls = _domain_raises(tree) + [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) in FRAGMENT_TAKERS
        ]
        for call in calls:
            where = f"{path.name}:{call.lineno}"
            arguments = [*call.args, *(k.value for k in call.keywords)]
            assert not any(
                isinstance(node, ast.JoinedStr)
                for arg in arguments for node in ast.walk(arg)
            ), f"{where} passes an f-string"
        for call in _domain_raises(tree):
            where = f"{path.name}:{call.lineno}"
            assert call.args and _is_template(call.args[0]), f"{where} builds a message"
            assert not call.keywords, f"{where} passes keyword arguments"
            template, *values = call.args
            if isinstance(template, ast.Constant) and not any(
                isinstance(v, ast.Starred) for v in values
            ):
                parsed = string.Formatter().parse(template.value)
                fields = [f for _, f, _, _ in parsed if f is not None]
                assert len(fields) == len(values), f"{where} has {len(fields)} fields"
            checked += 1
    assert checked > 60  # the walk found the package's raise sites


def test_only_errors_py_turns_values_into_text():
    for path in MODULES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else [node.name] if isinstance(node, ast.FunctionDef)
                else [_name(node)] if isinstance(node, (ast.Name, ast.Attribute))
                else []
            )
            for name in names:
                assert name not in {"brief", "clip", "_weight_key"}, (
                    f"{path.name}:{node.lineno} uses {name}"
                )


@pytest.mark.parametrize("template,values,message", [
    ("no {values} here", (), "no {values} here"),
    ("chain {!r} from {}", ("a{0}}", ["{}"]), "chain 'a{0}}' from ['{}']"),
    ("id {!r}", ("x" * 81,), f"id '{'x' * 79}... (83 characters)"),
    ("key {}", ("x" * 81,), f"key {'x' * 80}... (81 characters)"),
    ("size {} > {!r}", (10**100, 10**90), f"size {10**100} > {10**90}"),
    ("weight {}", (2.5,), "weight 2.5"),
], ids=["no-values", "braces", "long-repr", "long-str", "ints", "float"])
def test_message_from_template_and_values(template, values, message):
    assert str(NoChain(template, *values)) == message

