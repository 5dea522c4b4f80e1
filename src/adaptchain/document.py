"""Graph document format: UTF-8 JSON, parsed into validated model objects.

Schema (all field names fixed):

    {"version": "1",
     "interfaces": [{"id": ..., "methods": [{"name": ..., "values": [...]}]}],
     "adapters": [{"id": ..., "source": ..., "target": ...,
                   "default_output": [[...], ...],          # optional
                   "entries": [{"input": [...], "output": [[...], ...]}]}]}

The token "bot" denotes bottom. It may be written explicitly anywhere a
value is expected, or omitted: parsing normalizes either way. Serialization
is canonical (ids sorted, values bot-less and lexicographic, entries sorted
by input tuple), so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import GraphSyntaxError, UnknownInterface
from .model import (
    BOT,
    Adapter,
    AdapterGraph,
    Interface,
    build_adapter,
    build_graph,
    build_interface,
)

FORMAT_VERSION = "1"


def _require(obj: dict, key: str, kind: type, where: str, *values):
    """``obj[key]``, a ``kind``; ``where`` (a template) and ``values`` name ``obj``."""
    if key not in obj:
        raise GraphSyntaxError(where + ": missing field {!r}", *values, key)
    value = obj[key]
    if not isinstance(value, kind):
        raise GraphSyntaxError(
            where + ": field {!r} must be a {}", *values, key, kind.__name__
        )
    return value


def _parse_interface(obj: dict) -> Interface:
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
        methods.append((name, values))
    return build_interface(id, methods)


def _parse_adapter(obj: dict, interfaces: dict[str, Interface]) -> Adapter:
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
        entries.append((input, output))
    default_output = obj.get("default_output")
    return build_adapter(
        id,
        interfaces[source_id],
        interfaces[target_id],
        entries,
        default_output,
    )


def parse_document(data: bytes | str) -> AdapterGraph:
    """Parse and validate a graph document.

    Raises GraphSyntaxError for malformed documents and the model module's
    validation errors (each naming the offending element) otherwise.
    """
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
        # The decoder recurses once per nested array or object.
        raise GraphSyntaxError("document nests too deeply to parse") from None
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
    interface_map = {interface.id: interface for interface in interfaces}
    adapters = [
        _parse_adapter(a, interface_map)
        for a in _require(doc, "adapters", list, "document")
    ]
    return build_graph(interfaces, adapters)


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


def graph_to_document(graph: AdapterGraph) -> dict:
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


def serialize_graph(graph: AdapterGraph) -> str:
    """Byte-stable canonical JSON text for a graph."""
    return json.dumps(graph_to_document(graph), indent=2) + "\n"


def load_fixture(name: str) -> AdapterGraph:
    """Load a bundled example graph by name (e.g. "video-example")."""
    fixture = resources.files("adaptchain").joinpath("fixtures", f"{name}.json")
    try:
        data = fixture.read_bytes()
    except (OSError, ValueError):  # ValueError: a NUL byte in the name
        raise GraphSyntaxError("no bundled fixture named {!r}", name) from None
    return parse_document(data)
