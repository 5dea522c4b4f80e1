"""Graph document format: UTF-8 JSON, parsed into validated model objects.

Schema (all field names fixed; any other field is a GraphSyntaxError):

    {"version": "1",
     "interfaces": [{"id": ..., "methods": [{"name": ..., "values": [...]}]}],
     "adapters": [{"id": ..., "source": ..., "target": ...,
                   "default_output": [[...], ...],          # optional, not null
                   "entries": [{"input": [...], "output": [[...], ...]}]}]}

The token "bot" denotes bottom. It may be written explicitly anywhere a
value is expected, or omitted: parsing normalizes either way. Serialization
is canonical (ids sorted, values bot-less and lexicographic, entries sorted
by input tuple), so parse -> serialize -> parse is the identity. The text is
written directly from the model, in one pass, and equals ``json.dumps(doc,
indent=2)`` plus a final newline, where ``doc`` is ``json.loads(text)``.
Interfaces, adapters, methods and entries fill templates that ``_object``
lays out once, at import, and each distinct methods tuple, input tuple and
output-set tuple is rendered once per call.

Validation is one pass in document order. Each field of each object is
read once and its type tested where it is read; a failed test raises at
once (``_refuse`` words a missing field apart from a wrong type), and the
key-set test follows the reads. ``model.build_adapter`` then checks each
entry's values against the domains, so the first fault found is the one
reported. Interface ids are checked for repeats before any adapter is read.
A parse checks each distinct raw method list once: an interface that
repeats one, the same (name, values) pairs in the same order, takes the
``methods`` tuple built from it. An adapter whose raw ``entries`` and
``default_output`` equal those of the last adapter checked between
endpoints holding the same two tuples takes that adapter's table and
default output. Neither is checked again, since every check would pass.
Output sets are not interned: where no two output sets of one target are
equal, as on a long path of identity adapters, a per-target pool only
adds lookups (README, Notes).
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _encode
from typing import NoReturn

from .errors import GraphSyntaxError, UnknownInterface
from .model import (
    _BOT_SET,
    Adapter,
    AdapterGraph,
    Interface,
    MethodSpec,
    build_adapter,
    build_graph,
    build_interface,
)

FORMAT_VERSION = "1"
_ROOT_FIELDS = frozenset(("version", "interfaces", "adapters"))
_INTERFACE_FIELDS = frozenset(("id", "methods"))
_METHOD_FIELDS = frozenset(("name", "values"))
_ADAPTER_FIELDS = frozenset(("id", "source", "target", "entries", "default_output"))
_ENTRY_FIELDS = frozenset(("input", "output"))


def _refuse(obj: dict, key: str, kind: type, where: str, *values) -> NoReturn:
    """Raise for ``obj[key]``, which is missing or not a ``kind``; ``where``
    (a template) and ``values`` name ``obj``."""
    if key not in obj:
        raise GraphSyntaxError(where + ": missing field {!r}", *values, key)
    raise GraphSyntaxError(
        where + ": field {!r} must be a {}", *values, key, kind.__name__
    )


def _only(obj: dict, fields: frozenset[str], where: str, *values) -> None:
    """Refuse any key of ``obj`` outside ``fields``, naming the first in
    sorted order; ``where`` (a template) and ``values`` name ``obj``."""
    if not obj.keys() <= fields:
        raise GraphSyntaxError(
            where + ": unknown field {!r}", *values, min(obj.keys() - fields)
        )


def _parse_interface(obj: dict, shared: dict) -> Interface:
    """One interface. ``shared``, which ``parse_document`` keeps for one
    parse, maps each raw method list built before, as (name, values tuple)
    pairs, to the first interface built from it; a repeat with a nonempty
    id takes its methods unchecked, since every check skipped would pass."""
    if type(obj) is not dict:
        raise GraphSyntaxError("each interface must be an object")
    if type(id := obj.get("id")) is not str:
        _refuse(obj, "id", str, "interface")
    if type(raw_methods := obj.get("methods")) is not list:
        _refuse(obj, "methods", list, "interface {!r}", id)
    methods = []
    for m in raw_methods:
        if type(m) is not dict:
            raise GraphSyntaxError("interface {!r}: methods must be objects", id)
        if type(name := m.get("name")) is not str:
            _refuse(m, "name", str, "interface {!r} method", id)
        if type(values := m.get("values")) is not list:
            _refuse(m, "values", list, "method {!r} of {!r}", name, id)
        if len(m) != 2:  # both fields were read, so a third is unknown
            _only(m, _METHOD_FIELDS, "method {!r} of {!r}", name, id)
        methods.append((name, tuple(values)))
    if len(obj) != 2:
        _only(obj, _INTERFACE_FIELDS, "interface {!r}", id)
    methods = tuple(methods)
    try:
        first = shared.get(methods) if id else None  # build_interface refuses ""
    except TypeError:  # an unhashable value, which build_interface words
        return build_interface(id, methods)
    if first is not None:
        return Interface(id, first.methods)
    first = shared[methods] = build_interface(id, methods)
    return first


def _parse_adapter(
    obj: dict, interfaces: dict[str, Interface], tables: dict
) -> Adapter:
    """One adapter. ``tables``, which ``parse_document`` keeps for one
    parse, maps the identities of the endpoints' two ``methods`` tuples to
    the raw entries and default output last checked between such endpoints
    and the adapter built from them; an adapter whose raw fields equal
    those takes its table unchecked, since every check skipped would pass."""
    if type(obj) is not dict:
        raise GraphSyntaxError("each adapter must be an object")
    if type(adapter_id := obj.get("id")) is not str:
        _refuse(obj, "id", str, "adapter")
    if type(source_id := obj.get("source")) is not str:
        _refuse(obj, "source", str, "adapter {!r}", adapter_id)
    if type(target_id := obj.get("target")) is not str:
        _refuse(obj, "target", str, "adapter {!r}", adapter_id)
    for endpoint in (source_id, target_id):
        if endpoint not in interfaces:
            raise UnknownInterface(
                "adapter {!r} references undeclared interface {!r}",
                adapter_id, endpoint,
            )
    if type(raw_entries := obj.get("entries")) is not list:
        _refuse(obj, "entries", list, "adapter {!r}", adapter_id)
    source, target = interfaces[source_id], interfaces[target_id]
    # Two ints, so the key costs the same whatever the domains' sizes; the
    # interfaces keep both tuples alive for the parse.
    key = id(source.methods), id(target.methods)
    # Values equal to checked lists, dicts and strings have their types (a
    # str equals only a str), and the same methods hold the same domains. A
    # null default_output equals an omitted one, but the key-set test below
    # still refuses it, and build_adapter refuses an empty id.
    reuse = (
        (shared := tables.get(key)) is not None and adapter_id != ""
        and shared[0] == raw_entries and shared[1] == obj.get("default_output")
    )
    if not reuse:
        entries = []
        for e in raw_entries:
            if type(e) is not dict:
                raise GraphSyntaxError(
                    "adapter {!r}: entries must be objects", adapter_id
                )
            if type(input := e.get("input")) is not list:
                _refuse(e, "input", list, "adapter {!r} entry", adapter_id)
            if type(output := e.get("output")) is not list:
                _refuse(e, "output", list, "adapter {!r} entry", adapter_id)
            if len(e) != 2:
                _only(e, _ENTRY_FIELDS, "adapter {!r} entry", adapter_id)
            entries.append((input, output))
    default_output = None
    if len(obj) != 4:  # default_output is optional; past _only, it is here
        _only(obj, _ADAPTER_FIELDS, "adapter {!r}", adapter_id)
        if (default_output := obj["default_output"]) is None:
            _refuse(obj, "default_output", list, "adapter {!r}", adapter_id)
    if reuse:
        table, default = shared[2].table, shared[2].default_output
        return Adapter(adapter_id, source, target, table, default)
    adapter = build_adapter(adapter_id, source, target, entries, default_output)
    tables[key] = raw_entries, default_output, adapter
    return adapter


def parse_document(data: bytes | bytearray | str) -> AdapterGraph:
    """Parse and validate a graph document: text, or its UTF-8 bytes.

    Raises GraphSyntaxError for data of another type and for malformed
    documents, and the model module's validation errors (each naming the
    offending element) otherwise.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphSyntaxError(
                "document is not UTF-8: invalid byte at offset {}", exc.start
            ) from None
    elif not isinstance(data, str):
        raise GraphSyntaxError(
            "document is a {}, not text or bytes", type(data).__name__
        )
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphSyntaxError(
            "invalid JSON at line {}, column {}: {}", exc.lineno, exc.colno, exc.msg
        ) from exc
    except RecursionError:
        # The decoder recurses once per nested array or object.
        raise GraphSyntaxError("document nests too deeply to parse") from None
    except ValueError:
        # An integer literal past the interpreter's int-from-text digit limit.
        raise GraphSyntaxError(
            "document holds a number with too many digits to parse"
        ) from None
    if type(doc) is not dict:
        raise GraphSyntaxError("document root must be an object")
    if type(version := doc.get("version")) is not str:
        _refuse(doc, "version", str, "document")
    if version != FORMAT_VERSION:
        raise GraphSyntaxError(
            "unsupported format version {!r}, expected {!r}", version, FORMAT_VERSION
        )
    if type(raw_interfaces := doc.get("interfaces")) is not list:
        _refuse(doc, "interfaces", list, "document")
    shared = {}  # raw method list -> first interface, for this parse only
    interfaces = [_parse_interface(i, shared) for i in raw_interfaces]
    # A repeated id is refused here, before an adapter can name either copy.
    interface_map = build_graph(interfaces, ()).interfaces
    if type(raw_adapters := doc.get("adapters")) is not list:
        _refuse(doc, "adapters", list, "document")
    tables = {}  # pair of methods ids -> last table checked, for this parse only
    adapters = [_parse_adapter(a, interface_map, tables) for a in raw_adapters]
    _only(doc, _ROOT_FIELDS, "document")
    return build_graph(interfaces, adapters)


# Line breaks plus the indent of each nesting depth, as json.dumps(indent=2)
# writes them; the document nests seven levels deep.
_BREAK = tuple("\n" + "  " * depth for depth in range(8))


def _array(items: list[str], depth: int) -> str:
    """A JSON array of encoded ``items`` whose opening bracket sits ``depth``
    levels deep, laid out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return "[]"
    pad = _BREAK[depth + 1]
    return "[" + pad + ("," + pad).join(items) + _BREAK[depth] + "]"


def _object(fields: dict[str, str], depth: int) -> str:
    """A JSON object of ``fields`` (key to encoded value), ``depth`` levels
    deep; keys are escaped."""
    if not fields:
        return "{}"
    pad = _BREAK[depth + 1]
    body = ("," + pad).join([
        _encode(key) + ": " + value for key, value in fields.items()
    ])
    return "{" + pad + body + _BREAK[depth] + "}"


def _strings(values, depth: int) -> str:
    return _array([_encode(v) for v in values], depth)


def _sets(sets, depth: int) -> str:
    """One bot-less, lexicographic value list per set."""
    return _array([_strings(sorted(s - _BOT_SET), depth + 1) for s in sets], depth)


# One template per object that serialize_graph writes many of, at its
# depth, with a %s per field; _object lays them out, so the layout has one
# owner.
_METHOD = _object({"name": "%s", "values": "%s"}, 4)
_INTERFACE = _object({"id": "%s", "methods": "%s"}, 2)
_ENTRY = _object({"input": "%s", "output": "%s"}, 4)
_ADAPTER = _object(dict.fromkeys(("id", "source", "target", "entries"), "%s"), 2)
_DEFAULT_ADAPTER = _object(
    dict.fromkeys(("id", "source", "target", "default_output", "entries"), "%s"), 2
)


def _methods_text(methods: tuple[MethodSpec, ...]) -> str:
    return _array([
        _METHOD % (_encode(m.name), _strings(m.domain.non_bottom, 5)) for m in methods
    ], 3)


def serialize_graph(graph: AdapterGraph) -> str:
    """Byte-stable canonical JSON text for a graph, laid out as
    ``json.dumps(..., indent=2)`` lays out its dict form, plus a newline.
    Each distinct methods tuple, input tuple and output-set tuple is
    rendered once per call."""
    methods = cache(_methods_text)
    inputs = cache(lambda input: _strings(input, 5))
    outputs = cache(lambda output: _sets(output, 5))
    interfaces = [
        _INTERFACE % (_encode(id), methods(interface.methods))
        for id, interface in sorted(graph.interfaces.items())
    ]
    adapters = []
    for id, a in sorted(graph.adapters.items()):
        entries = _array([
            _ENTRY % (inputs(input), outputs(output))
            for input, output in sorted(a.table.items())
        ], 3)
        ends = _encode(id), _encode(a.source.id), _encode(a.target.id)
        if any(s != _BOT_SET for s in a.default_output):
            text = _DEFAULT_ADAPTER % (*ends, _sets(a.default_output, 3), entries)
        else:
            text = _ADAPTER % (*ends, entries)
        adapters.append(text)
    return _object({
        "version": _encode(FORMAT_VERSION),
        "interfaces": _array(interfaces, 1),
        "adapters": _array(adapters, 1),
    }, 0) + "\n"


def load_fixture(name: str) -> AdapterGraph:
    """Load a bundled example graph by name (e.g. "video-example")."""
    fixture = resources.files("adaptchain").joinpath("fixtures", f"{name}.json")
    try:
        data = fixture.read_bytes()
    except (OSError, ValueError):  # ValueError: a NUL byte in the name
        raise GraphSyntaxError("no bundled fixture named {!r}", name) from None
    return parse_document(data)
