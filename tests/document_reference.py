"""Reference graph documents, kept as test oracles for the code that
replaced them.

``reference_document`` is the plain-dict builder that ``serialize_graph``
replaced: ``json.dumps(reference_document(graph), indent=2) + "\\n"`` is the
canonical text the library writes directly.

``reference_parse_document`` is a field-by-field parser: every field of
every object goes through ``_require``/``_only``, and every entry value
through the domain's own membership test and ``_lift_sets``. It and
``parse_document`` must accept the same documents, build equal graphs, and
refuse the rest with the same error.
"""

from __future__ import annotations

import json

from adaptchain.document import FORMAT_VERSION
from adaptchain.errors import (
    ArityMismatch,
    DuplicateInput,
    EmptyDomain,
    GraphSyntaxError,
    UnknownInterface,
    UnknownValue,
)
from adaptchain.model import (
    BOT,
    Adapter,
    AdapterGraph,
    Interface,
    build_graph,
    build_interface,
)


def _values_out(values) -> list[str]:
    return sorted(set(values) - {BOT})


def _adapter_to_obj(adapter: Adapter) -> dict:
    obj = {
        "id": adapter.id,
        "source": adapter.source.id,
        "target": adapter.target.id,
    }
    if any(s != frozenset((BOT,)) for s in adapter.default_output):
        obj["default_output"] = [_values_out(s) for s in adapter.default_output]
    obj["entries"] = [
        {"input": list(input), "output": [_values_out(s) for s in output]}
        for input, output in sorted(adapter.table.items())
    ]
    return obj


def reference_document(graph: AdapterGraph) -> dict:
    """Canonical plain-dict form of a graph, ready for JSON emission."""
    return {
        "version": FORMAT_VERSION,
        "interfaces": [
            {
                "id": interface.id,
                "methods": [
                    {"name": m.name, "values": list(m.domain.non_bottom)}
                    for m in interface.methods
                ],
            }
            for interface in sorted(graph.interfaces.values(), key=lambda i: i.id)
        ],
        "adapters": [
            _adapter_to_obj(a)
            for a in sorted(graph.adapters.values(), key=lambda a: a.id)
        ],
    }


_BOT_SET = frozenset((BOT,))
_ROOT_FIELDS = frozenset(("version", "interfaces", "adapters"))
_INTERFACE_FIELDS = frozenset(("id", "methods"))
_METHOD_FIELDS = frozenset(("name", "values"))
_ADAPTER_FIELDS = frozenset(("id", "source", "target", "entries", "default_output"))
_ENTRY_FIELDS = frozenset(("input", "output"))


def _require(obj: dict, key: str, kind: type, where: str, *values):
    if key not in obj:
        raise GraphSyntaxError(where + ": missing field {!r}", *values, key)
    value = obj[key]
    if not isinstance(value, kind):
        raise GraphSyntaxError(
            where + ": field {!r} must be a {}", *values, key, kind.__name__
        )
    return value


def _only(obj: dict, fields: frozenset[str], where: str, *values) -> None:
    if not obj.keys() <= fields:
        raise GraphSyntaxError(
            where + ": unknown field {!r}", *values, min(obj.keys() - fields)
        )


def _lift_sets(interface: Interface, sets, where: tuple = ("",)):
    try:
        arity_ok = len(sets) == interface.arity
    except TypeError:
        arity_ok = False
    if not arity_ok:
        raise ArityMismatch(
            where[0] + "interface {!r} has {} methods, got {!r}",
            *where[1:], interface.id, interface.arity, sets,
        )
    components = []
    for method, values in zip(interface.methods, sets):
        try:
            if isinstance(values, (str, dict)):
                raise TypeError
            values = frozenset(values) | _BOT_SET
        except TypeError:
            raise UnknownValue(
                where[0] + "method {!r} of interface {!r} needs a list of value "
                "names, got {!r}", *where[1:], method.name, interface.id, values,
            ) from None
        unknown = values - method.domain._members
        if unknown:
            raise UnknownValue(
                where[0] + "value {!r} is not in the domain of method {!r} of "
                "interface {!r}", *where[1:], min(unknown, key=repr),
                method.name, interface.id,
            )
        components.append(values)
    return tuple(components)


def _build_adapter(id, source, target, entries, default_output=None) -> Adapter:
    if not id:
        raise EmptyDomain("adapter id must be nonempty")
    if default_output is None:
        default = (_BOT_SET,) * target.arity
    else:
        default = _lift_sets(
            target, default_output, ("adapter {!r}: default output: ", id)
        )
    table = {}
    for input_values, output in entries:
        if len(input_values) != source.arity:
            raise ArityMismatch(
                "adapter {!r}: input tuple {!r} has {} components, source {!r} "
                "has {} methods", id, tuple(input_values), len(input_values),
                source.id, source.arity,
            )
        input = tuple(input_values)
        for method, value in zip(source.methods, input):
            if value not in method.domain:
                raise UnknownValue(
                    "adapter {!r}: input value {!r} is not in the domain of "
                    "method {!r} of interface {!r}", id, value, method.name,
                    source.id,
                )
        if input in table:
            raise DuplicateInput(
                "adapter {!r}: duplicate entry for input {!r}", id, input
            )
        table[input] = _lift_sets(
            target, output, ("adapter {!r}: entry {!r} output: ", id, input)
        )
    return Adapter(id, source, target, table, default)


def _parse_interface(obj) -> Interface:
    if not isinstance(obj, dict):
        raise GraphSyntaxError("each interface must be an object")
    id = _require(obj, "id", str, "interface")
    raw_methods = _require(obj, "methods", list, "interface {!r}", id)
    methods = []
    for m in raw_methods:
        if not isinstance(m, dict):
            raise GraphSyntaxError("interface {!r}: methods must be objects", id)
        name = _require(m, "name", str, "interface {!r} method", id)
        values = _require(m, "values", list, "method {!r} of {!r}", name, id)
        _only(m, _METHOD_FIELDS, "method {!r} of {!r}", name, id)
        methods.append((name, values))
    _only(obj, _INTERFACE_FIELDS, "interface {!r}", id)
    return build_interface(id, methods)


def _parse_adapter(obj, interfaces: dict[str, Interface]) -> Adapter:
    if not isinstance(obj, dict):
        raise GraphSyntaxError("each adapter must be an object")
    id = _require(obj, "id", str, "adapter")
    source_id = _require(obj, "source", str, "adapter {!r}", id)
    target_id = _require(obj, "target", str, "adapter {!r}", id)
    for endpoint in (source_id, target_id):
        if endpoint not in interfaces:
            raise UnknownInterface(
                "adapter {!r} references undeclared interface {!r}", id, endpoint
            )
    raw_entries = _require(obj, "entries", list, "adapter {!r}", id)
    entries = []
    for e in raw_entries:
        if not isinstance(e, dict):
            raise GraphSyntaxError("adapter {!r}: entries must be objects", id)
        input = _require(e, "input", list, "adapter {!r} entry", id)
        output = _require(e, "output", list, "adapter {!r} entry", id)
        _only(e, _ENTRY_FIELDS, "adapter {!r} entry", id)
        entries.append((input, output))
    default_output = obj.get("default_output")
    _only(obj, _ADAPTER_FIELDS, "adapter {!r}", id)
    if "default_output" in obj and default_output is None:
        raise GraphSyntaxError(
            "adapter {!r}: field 'default_output' must be a list", id
        )
    return _build_adapter(
        id, interfaces[source_id], interfaces[target_id], entries, default_output
    )


def reference_parse_document(data: bytes | str) -> AdapterGraph:
    """Parse and validate a graph document one checked field at a time."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphSyntaxError(
                "document is not UTF-8: invalid byte at offset {}", exc.start
            ) from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphSyntaxError(
            "invalid JSON at line {}, column {}: {}", exc.lineno, exc.colno, exc.msg
        ) from exc
    except RecursionError:
        raise GraphSyntaxError("document nests too deeply to parse") from None
    except ValueError:
        raise GraphSyntaxError(
            "document holds a number with too many digits to parse"
        ) from None
    if not isinstance(doc, dict):
        raise GraphSyntaxError("document root must be an object")
    version = _require(doc, "version", str, "document")
    if version != FORMAT_VERSION:
        raise GraphSyntaxError(
            "unsupported format version {!r}, expected {!r}", version, FORMAT_VERSION
        )
    interfaces = [
        _parse_interface(i) for i in _require(doc, "interfaces", list, "document")
    ]
    # A repeated interface id is refused before any adapter is read.
    interface_map = build_graph(interfaces, ()).interfaces
    adapters = [
        _parse_adapter(a, interface_map)
        for a in _require(doc, "adapters", list, "document")
    ]
    _only(doc, _ROOT_FIELDS, "document")
    return build_graph(interfaces, adapters)
