from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from adaptchain import document, load_fixture, parse_document, serialize_graph
from adaptchain.errors import (
    AdapterChainError,
    DuplicateId,
    EmptyDomain,
    GraphSyntaxError,
    UnknownInterface,
    UnknownValue,
)
from conftest import DELETE, MINIMAL, mutated


def test_fixture_is_the_video_example():
    graph = load_fixture("video-example")
    assert sorted(graph.interfaces) == ["Audio", "Video1", "Video2", "Video3"]
    assert sorted(graph.adapters) == [
        "AudioToVideo3",
        "Video1toAudio",
        "Video1toVideo2",
        "Video2toVideo3",
        "Video3toAudio",
        "Video3toVideo1",
    ]
    video2 = graph.interfaces["Video2"]
    assert tuple(m.name for m in video2.methods) == ("play", "stop", "skip", "caption")
    assert video2.methods[0].domain.values == (
        "bot", "DIVX", "INDEO", "MP4", "THEORA",
    )


def test_unknown_fixture():
    with pytest.raises(GraphSyntaxError):
        load_fixture("no-such-example")


def test_parse_minimal():
    graph = parse_document(json.dumps(MINIMAL))
    adapter = graph.adapters["AtoB"]
    assert adapter.lookup(("X",)) == (frozenset({"bot", "Z"}),)
    assert adapter.lookup(("Y",)) == (frozenset({"bot"}),)


def test_round_trip_identity():
    graph = parse_document(json.dumps(MINIMAL))
    text = serialize_graph(graph)
    again = parse_document(text)
    assert again == graph
    assert serialize_graph(again) == text


def test_fixture_round_trip():
    graph = load_fixture("video-example")
    assert parse_document(serialize_graph(graph)) == graph


def test_adapters_from_two_parses_are_equal_and_hash_alike():
    text = serialize_graph(load_fixture("video-example"))
    first, second = parse_document(text), parse_document(text)
    for id, adapter in first.adapters.items():
        assert adapter == second.adapters[id]
        assert hash(adapter) == hash(second.adapters[id])
    assert len({*first.adapters.values(), *second.adapters.values()}) == 6


def _interfaces_document(*value_lists) -> str:
    """A document of one-method interfaces I0, I1, ... declaring
    ``value_lists`` in order, and no adapters."""
    return json.dumps({
        "version": "1",
        "interfaces": [
            {"id": f"I{k}", "methods": [{"name": "m", "values": values}]}
            for k, values in enumerate(value_lists)
        ],
        "adapters": [],
    })


def test_a_repeated_method_list_shares_its_methods_within_a_parse():
    text = _interfaces_document(["X", "Y"], ["Z"], ["X", "Y"], ["Y", "X"])
    graph = parse_document(text)
    first, other, again, reordered = (
        graph.interfaces[f"I{k}"].methods[0].domain for k in range(4)
    )
    assert again is first and other is not first
    assert reordered == first
    assert graph.interfaces["I2"].methods is graph.interfaces["I0"].methods
    # The dict dies with the parse: a second parse builds its own.
    assert parse_document(text).interfaces["I0"].methods[0].domain is not first


def test_a_reordered_method_list_is_equal_but_not_shared(monkeypatch):
    """I1 lists I0's values the other way round, so it holds equal methods
    in another tuple, and an adapter on it is checked in full even where
    its entries repeat those of an adapter on I0; E1, on I2, repeats E0
    between the same tuples and takes its table."""
    doc = json.loads(_interfaces_document(["X", "Y"], ["Y", "X"], ["X", "Y"]))
    entries = [{"input": ["X"], "output": [["Y"]]}]
    doc["adapters"] = [
        {"id": f"E{k}", "source": f"I{i}", "target": f"I{i}", "entries": entries}
        for k, i in enumerate((0, 2, 1))
    ]
    calls = []
    build = document.build_adapter
    monkeypatch.setattr(
        document, "build_adapter", lambda *args: calls.append(args[0]) or build(*args)
    )
    graph = parse_document(json.dumps(doc))
    i0, i1, i2 = graph.interfaces.values()
    assert i1.methods == i0.methods and i1.methods is not i0.methods
    assert i2.methods is i0.methods
    assert calls == ["E0", "E2"]
    e0, e1, e2 = graph.adapters.values()
    assert e1.table is e0.table and e2.table is not e0.table
    assert e2.table == e0.table


def test_a_repeated_method_list_with_an_empty_id_is_refused():
    doc = json.loads(_interfaces_document(["X"], ["X"]))
    doc["interfaces"][1]["id"] = ""
    with pytest.raises(EmptyDomain) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "interface id must be nonempty"


@pytest.mark.parametrize("bad,shown", [
    (["A", "A"], "duplicate abstract value 'A'"),
    (["A", 1], "abstract value 1 is not a string"),
    ([], "domain has no non-bottom values"),
    (["A", ["B"]], "abstract value ['B'] is not a string"),
], ids=["duplicate", "non-string", "empty", "unhashable"])
def test_a_repeated_bad_value_list_fails_at_its_first_occurrence(bad, shown):
    with pytest.raises(AdapterChainError) as exc:
        parse_document(_interfaces_document(["A"], ["A"], bad, bad))
    assert str(exc.value) == f"{shown} in method 'm' of interface 'I2'"


def test_row_order_does_not_change_the_serialization():
    doc = json.loads(serialize_graph(load_fixture("video-example")))
    text = serialize_graph(parse_document(json.dumps(doc)))
    assert all(len(a["entries"]) > 1 for a in doc["adapters"])
    for adapter in doc["adapters"]:
        adapter["entries"].reverse()
    graph = parse_document(json.dumps(doc))
    assert serialize_graph(graph) == text


def test_default_output_round_trips():
    doc = json.loads(json.dumps(MINIMAL))
    doc["interfaces"][1]["methods"][0]["values"] = ["W", "Z"]
    doc["adapters"][0]["default_output"] = [["W"]]
    text = serialize_graph(parse_document(json.dumps(doc)))
    assert json.loads(text)["adapters"][0]["default_output"] == [["W"]]
    graph = parse_document(text)
    assert serialize_graph(graph) == text
    adapter = graph.adapters["AtoB"]
    assert adapter.lookup(("Y",)) == (frozenset({"bot", "W"}),)
    assert adapter.lookup(("X",)) == (frozenset({"bot", "Z"}),)


def test_bot_explicit_or_omitted():
    explicit = json.loads(json.dumps(MINIMAL))
    explicit["interfaces"][0]["methods"][0]["values"] = ["bot", "X", "Y"]
    explicit["adapters"][0]["entries"][0]["output"] = [["bot", "Z"]]
    assert parse_document(json.dumps(explicit)) == parse_document(json.dumps(MINIMAL))


def test_syntax_error_has_location():
    with pytest.raises(GraphSyntaxError, match="line"):
        parse_document(b'{"version": "1",')


@pytest.mark.parametrize("data", [
    "[" * 2000 + "]" * 2000,
    '{"version": "1", "interfaces": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["root", "field"])
def test_deep_nesting_is_a_syntax_error(data):
    with pytest.raises(GraphSyntaxError, match="nests too deeply"):
        parse_document(data)


def test_number_past_the_digit_limit_is_a_syntax_error():
    with pytest.raises(GraphSyntaxError) as exc:
        parse_document('{"version": "1", "interfaces": [' + "1" * 5000 + "]}")
    assert str(exc.value) == "document holds a number with too many digits to parse"


def test_non_utf8_is_a_syntax_error():
    data = json.dumps(MINIMAL).encode().replace(b'"X"', b'"\xff"')
    with pytest.raises(GraphSyntaxError, match="UTF-8"):
        parse_document(data)


def test_bad_version():
    doc = dict(MINIMAL, version="99")
    with pytest.raises(GraphSyntaxError, match="version"):
        parse_document(json.dumps(doc))


def test_missing_field_named():
    doc = {"version": "1", "interfaces": [{"id": "A"}], "adapters": []}
    with pytest.raises(GraphSyntaxError, match="methods"):
        parse_document(json.dumps(doc))


def test_unknown_output_value_names_adapter_and_method():
    doc = json.loads(json.dumps(MINIMAL))
    doc["adapters"][0]["entries"][0]["output"] = [["RM"]]
    with pytest.raises(UnknownValue) as exc:
        parse_document(json.dumps(doc))
    message = str(exc.value)
    assert "AtoB" in message and "RM" in message and "n" in message


def test_undeclared_endpoint():
    doc = json.loads(json.dumps(MINIMAL))
    doc["adapters"][0]["target"] = "Video9"
    with pytest.raises(UnknownInterface, match="Video9"):
        parse_document(json.dumps(doc))


HUGE_ID = "A" * 100_000


def assert_short_naming_huge_id(message: str) -> None:
    assert len(message) < 300, message[:300]
    assert "'AAA" in message and "(100002 characters)" in message


@pytest.mark.parametrize("field,value", [
    (("adapters", 0, "entries"), DELETE),
    (("adapters", 0, "source"), DELETE),
    (("adapters", 0, "entries", 0), 5),
    (("adapters", 0, "entries", 0, "output"), DELETE),
], ids=["no-entries", "no-source", "entry-not-object", "entry-without-output"])
def test_huge_adapter_id_in_each_adapter_message(field, value):
    doc = mutated(json.loads(json.dumps(MINIMAL)), ("adapters", 0, "id"), HUGE_ID)
    with pytest.raises(GraphSyntaxError) as exc:
        parse_document(json.dumps(mutated(doc, field, value)))
    assert_short_naming_huge_id(str(exc.value))


@pytest.mark.parametrize("methods", [
    None,
    [5],
    [{"values": ["X"]}],
    [{"name": "m"}],
    [],
    [{"name": "m", "values": ["X"]}, {"name": "m", "values": ["Y"]}],
    [{"name": "m", "values": ["X", "X"]}],
], ids=[
    "no-methods", "method-not-object", "method-without-name",
    "method-without-values", "empty-methods", "duplicate-method",
    "duplicate-value",
])
def test_huge_interface_id_in_each_interface_message(methods):
    interface = {"id": HUGE_ID}
    if methods is not None:
        interface["methods"] = methods
    doc = {"version": "1", "interfaces": [interface], "adapters": []}
    with pytest.raises(AdapterChainError) as exc:
        parse_document(json.dumps(doc))
    assert_short_naming_huge_id(str(exc.value))


@pytest.mark.parametrize("kind", ["interfaces", "adapters"])
def test_huge_duplicate_id_is_a_short_error(kind):
    doc = json.loads(json.dumps(MINIMAL))
    doc["interfaces"][0]["id"] = doc["adapters"][0]["source"] = HUGE_ID
    doc["adapters"][0]["id"] = HUGE_ID
    doc[kind].append(doc[kind][0])
    with pytest.raises(DuplicateId) as exc:
        parse_document(json.dumps(doc))
    assert_short_naming_huge_id(str(exc.value))


def test_document_fields_are_exact():
    doc = json.loads(serialize_graph(load_fixture("video-example")))
    assert set(doc) == {"version", "interfaces", "adapters"}
    assert set(doc["interfaces"][0]) == {"id", "methods"}
    assert set(doc["interfaces"][0]["methods"][0]) == {"name", "values"}
    adapter = doc["adapters"][0]
    assert set(adapter) <= {"id", "source", "target", "default_output", "entries"}
    assert set(adapter["entries"][0]) == {"input", "output"}


def _fields(obj, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ()
    )
    for key, value in items:
        yield from _fields(value, (*path, key))


FIELDS = [*_fields(MINIMAL), ("adapters", 0, "default_output")]
NAMES = st.sampled_from(["A", "B", "X", "Y", "Z", "m", "n", "AtoB", "bot", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
    | NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAMES | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(FIELDS), JSON_VALUES | st.just(DELETE)),
    min_size=1, max_size=3,
))
def test_mutated_document_parses_or_raises_domain_error(mutations):
    doc = json.loads(json.dumps(MINIMAL))
    for path, value in mutations:
        doc = mutated(doc, path, value)
    try:
        parse_document(json.dumps(doc))
    except AdapterChainError:
        pass
