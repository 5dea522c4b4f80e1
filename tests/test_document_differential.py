"""The document layer against the code it replaced (``document_reference``).

Writing: the directly written canonical text against ``json.dumps(...,
indent=2)`` of the dict builder: same bytes, and the same dict back from
``json.loads``. Reading: ``parse_document`` against the per-object
parser on every graph here and on a seeded corpus of mutated documents:
equal graphs, or the same error class with the same message.
"""

from __future__ import annotations

import json
import random
from importlib import resources

import pytest

from adaptchain import (
    build_adapter,
    build_graph,
    build_interface,
    load_fixture,
    parse_document,
    serialize_graph,
)
from adaptchain.errors import AdapterChainError
from adaptchain.generator import GenParams, random_instance
from conftest import DELETE, MINIMAL, lossless_path, mutated
from document_reference import reference_document, reference_parse_document

# Text that json.dumps escapes: non-ASCII (one code unit and an astral
# pair), a quote, a backslash, control characters and a lone surrogate.
ODD = ["café", 'say "hi"', "back\\slash", "two\nlines", "tab\there",
       "\ud800", "\U0001f600"]


def _odd_text_graph():
    """Odd text in every id, method name and value, plus an adapter with
    no entries and one whose default output is not all bottom."""
    source = build_interface(ODD[0], [(name, ODD) for name in ODD[:3]])
    target = build_interface(ODD[5], [(ODD[3], ODD[1:4]), (ODD[6], ODD[4:])])
    adapters = [
        build_adapter(ODD[1], source, target, [
            ((ODD[0], ODD[1], ODD[2]), [[ODD[3]], []]),
            ((ODD[6], "bot", ODD[5]), [[ODD[1], ODD[2]], ODD[4:]]),
        ], default_output=[[ODD[2]], []]),
        build_adapter(ODD[2], target, source, []),
        build_adapter(ODD[3], source, source, [], default_output=[ODD, [], ODD[:1]]),
    ]
    return build_graph([source, target], adapters)


GRAPHS = {
    "fixture": lambda: load_fixture("video-example"),
    **{
        f"gen-{seed}": (
            lambda seed=seed: random_instance(
                GenParams(8, (1, 3), (1, 3), 30, 0.3 + 0.1 * seed, seed)
            )[0]
        )
        for seed in range(1, 6)
    },
    "path-1200": lambda: lossless_path(1200),
    "empty": lambda: build_graph([], []),
    "odd-text": _odd_text_graph,
}


@pytest.mark.parametrize("name", GRAPHS)
def test_text_matches_reference(name):
    graph = GRAPHS[name]()
    expected = json.dumps(reference_document(graph), indent=2) + "\n"
    assert serialize_graph(graph) == expected


@pytest.mark.parametrize("name", GRAPHS)
def test_document_matches_reference(name):
    graph = GRAPHS[name]()
    assert json.loads(serialize_graph(graph)) == reference_document(graph)


def test_odd_text_is_ascii_and_round_trips():
    graph = _odd_text_graph()
    text = serialize_graph(graph)
    assert text.isascii()
    assert parse_document(text.encode()) == graph


def _same_graph(got, want) -> bool:
    """Equal graphs whose interfaces, adapters and table rows also come in
    the same order."""
    return got == want and all(
        list(a) == list(b)
        for a, b in [
            (got.interfaces, want.interfaces),
            (got.adapters, want.adapters),
            *[(got.adapters[id].table, want.adapters[id].table) for id in got.adapters],
        ]
    )


def _outcome(parse, text: str):
    try:
        return "graph", parse(text)
    except AdapterChainError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(text: str) -> str:
    """Both parsers give equal graphs or the same error; returns the kind."""
    got, want = _outcome(parse_document, text), _outcome(reference_parse_document, text)
    if want[0] == "graph":
        assert got[0] == "graph", got
        assert _same_graph(got[1], want[1])
    else:
        assert got == want
    return want[0] if want[0] == "graph" else want[0].__name__


@pytest.mark.parametrize("name", GRAPHS)
def test_parse_matches_reference(name):
    text = serialize_graph(GRAPHS[name]())
    assert _assert_same_outcome(text) == "graph"


# -- mutation corpus -------------------------------------------------------

CORPUS_SIZE = 400
CORPUS_SEED = 16
_FIELDS = ["version", "interfaces", "adapters", "id", "methods", "name",
           "values", "source", "target", "entries", "default_output", "input",
           "output", "extra"]


def _base_documents() -> list[dict]:
    """The bundled fixture, and a small generated instance with one
    default output written out."""
    fixture = resources.files("adaptchain").joinpath("fixtures", "video-example.json")
    generated = json.loads(
        serialize_graph(random_instance(GenParams(4, (1, 2), (1, 3), 5, 0.5, 1))[0])
    )
    adapter = generated["adapters"][1]
    target = next(i for i in generated["interfaces"] if i["id"] == adapter["target"])
    adapter["default_output"] = [m["values"][:1] for m in target["methods"]]
    return [json.loads(fixture.read_bytes()), generated]


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _atoms(rng: random.Random, doc: dict) -> list:
    values = [v for path in _paths(doc) if path[-1:] == ("values",)
              for v in _at(doc, path) if isinstance(v, str)]
    return [None, 1, True, "bot", "", [], {}, [[]], "Z" * 100_000,
            rng.choice(values) if values else "bot"]


def _edit(rng: random.Random, doc: dict) -> None:
    """One edit in place: a subtree replaced by an atom, a key deleted, a
    subtree copied elsewhere (over a node or into an object under a field
    name), or a list item duplicated."""
    paths = list(_paths(doc))[1:]
    keyed = [p for p in paths if isinstance(p[-1], str)]
    listed = [p for p in paths if isinstance(p[-1], int)]
    kind = rng.choice(["atom", "delete", "copy", "duplicate"])
    if kind == "delete" and keyed:
        *parent, key = rng.choice(keyed)
        del _at(doc, parent)[key]
    elif kind == "duplicate" and listed:
        *parent, index = rng.choice(listed)
        items = _at(doc, parent)
        items.insert(index, json.loads(json.dumps(items[index])))
    elif kind in ("atom", "copy") and paths:
        value = rng.choice(_atoms(rng, doc)) if kind == "atom" else _at(
            doc, rng.choice(paths)
        )
        *parent, key = rng.choice(paths)
        container = _at(doc, parent)
        if kind == "copy" and isinstance(container, dict) and rng.random() < 0.3:
            key = rng.choice(_FIELDS)
        container[key] = json.loads(json.dumps(value))


def _corpus() -> list[str]:
    rng = random.Random(CORPUS_SEED)
    bases = [json.dumps(doc) for doc in _base_documents()]
    texts = []
    for _ in range(CORPUS_SIZE):
        doc = json.loads(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _edit(rng, doc)
        texts.append(json.dumps(doc))
    return texts


def test_mutation_corpus_matches_reference():
    kinds = [_assert_same_outcome(text) for text in _corpus()]
    # The corpus reaches both outcomes and many kinds of error.
    assert kinds.count("graph") >= 10
    assert len(set(kinds)) >= 6, sorted(set(kinds))


# -- error order -----------------------------------------------------------

A0 = ("interfaces", 0)
ENTRIES = ("adapters", 0, "entries")
ENTRY = (*ENTRIES, 0)


# Documents with two faults, or with a field that is null rather than
# missing: the first fault in document order is the one reported, and the
# corpus above reaches such pairs only by chance. Each case is a list of
# (path, value) changes to the minimal document, then the error expected.
@pytest.mark.parametrize("changes,error", [
    ([(A0, {"extra": 1, "id": "A", "methods": [{"name": "m", "values": 5}]})],
     "method 'm' of 'A': field 'values' must be a list"),
    ([(("adapters", 0, "extra"), 1), ((*ENTRY, "output"), "Z")],
     "adapter 'AtoB' entry: field 'output' must be a list"),
    ([(("extra",), 1), (("adapters", 0, "source"), "Nope")],
     "adapter 'AtoB' references undeclared interface 'Nope'"),
    ([((*A0, "id"), None)], "interface: field 'id' must be a str"),
    ([((*A0, "id"), DELETE)], "interface: missing field 'id'"),
    ([((*A0, "methods", 0, "values"), None)],
     "method 'm' of 'A': field 'values' must be a list"),
    ([((*A0, "methods", 0, "values"), DELETE)],
     "method 'm' of 'A': missing field 'values'"),
    ([((*ENTRY, "output"), None)], "adapter 'AtoB' entry: field 'output' must be a list"),
    ([((*ENTRY, "output"), DELETE)], "adapter 'AtoB' entry: missing field 'output'"),
    ([(("adapters",), None)], "document: field 'adapters' must be a list"),
    ([(("adapters",), DELETE)], "document: missing field 'adapters'"),
    ([((*ENTRY, "input"), [["X"]])],
     "adapter 'AtoB': input value ['X'] is not in the domain of method 'm' "
     "of interface 'A'"),
    ([((*ENTRY, "input"), ["X", "Y"]), ((*ENTRY, "output"), [["Q"]])],
     "adapter 'AtoB': input tuple ('X', 'Y') has 2 components, source 'A' "
     "has 1 methods"),
    ([(ENTRIES, [{"input": ["X"], "output": [["Z"]]},
                 {"input": ["X"], "output": [["Q"]]}])],
     "adapter 'AtoB': duplicate entry for input ('X',)"),
    ([(("adapters", 0, "default_output"), [["Q"]]), ((*ENTRY, "input"), ["Q"])],
     "adapter 'AtoB': default output: value 'Q' is not in the domain of "
     "method 'n' of interface 'B'"),
    ([(("adapters", 0, "default_output"), [["Q"]]), (ENTRIES, [5])],
     "adapter 'AtoB': entries must be objects"),
    ([(("adapters", 0, "default_output"), None)],
     "adapter 'AtoB': field 'default_output' must be a list"),
    ([(("adapters", 0, "default_output"), None), ((*ENTRY, "input"), ["Q"])],
     "adapter 'AtoB': field 'default_output' must be a list"),
    ([(("adapters", 0, "default_output"), None), (ENTRIES, [5])],
     "adapter 'AtoB': entries must be objects"),
], ids=[
    "unknown-interface-key-then-bad-method", "unknown-adapter-key-then-bad-entry",
    "unknown-root-key-then-bad-adapter", "null-id", "missing-id",
    "null-values", "missing-values", "null-output", "missing-output",
    "null-adapters", "missing-adapters", "unhashable-input",
    "input-arity-then-bad-output", "duplicate-input-then-bad-output",
    "bad-default-then-bad-row", "bad-default-then-bad-entry-object",
    "null-default-output", "null-default-then-bad-row",
    "null-default-then-bad-entry-object",
])
def test_first_fault_wins(changes, error):
    doc = json.loads(json.dumps(MINIMAL))
    for path, value in changes:
        doc = mutated(doc, path, value)
    text = json.dumps(doc)
    _assert_same_outcome(text)
    with pytest.raises(AdapterChainError) as exc:
        parse_document(text)
    assert str(exc.value) == error


# -- repeated tables -------------------------------------------------------

# One copy of a repeated entries list changed in one way, and the outcome
# both parsers must reach: the copy is checked, not taken as the table
# remembered for its endpoints.
TABLE_CHANGES = {
    "value-outside-target": "UnknownValue",
    "third-entry-key": "GraphSyntaxError",
    "duplicate-input": "DuplicateInput",
    "other-default": "graph",
    "null-default": "GraphSyntaxError",
    "wider-target-domain": "graph",
    "two-method-target": "ArityMismatch",
    "output-set-as-string": "UnknownValue",
}


def _repeated_table_document(rng: random.Random, change: str) -> dict:
    """A path whose adapters all repeat one entries list between
    one-method interfaces over one value list, with one copy changed."""
    values = ["a", "b", "c"]
    length = rng.randint(3, 8)
    interfaces = [
        {"id": f"P{i}", "methods": [{"name": "m", "values": values}]}
        for i in range(length)
    ]
    entries = [{"input": [v], "output": [[v]]} for v in rng.sample(values, 3)]
    default = rng.choice([None, [["b"]]])
    adapters = []
    for i in range(length - 1):
        adapter = {"id": f"E{i}", "source": f"P{i}", "target": f"P{i + 1}",
                   "entries": json.loads(json.dumps(entries))}
        if default is not None:
            adapter["default_output"] = default
        adapters.append(adapter)
    k = rng.randrange(1, length - 1)  # a copy after the first, so one is remembered
    changed, row = adapters[k], rng.randrange(3)
    entry = changed["entries"][row]
    if change == "value-outside-target":
        entry["output"] = [["z"]]
    elif change == "third-entry-key":
        entry["note"] = "x"
    elif change == "duplicate-input":
        changed["entries"].append(dict(entry))
    elif change == "other-default":
        changed["default_output"] = [["c"]]
    elif change == "null-default":
        changed["default_output"] = None
    elif change == "wider-target-domain":
        interfaces[k + 1]["methods"][0]["values"] = [*values, "d"]
    elif change == "two-method-target":
        interfaces[k + 1]["methods"].append({"name": "n", "values": values})
    elif change == "output-set-as-string":
        entry["output"] = [entry["input"][0]]
    return {"version": "1", "interfaces": interfaces, "adapters": adapters}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("change", TABLE_CHANGES)
def test_a_changed_copy_of_a_repeated_table_matches_reference(change, seed):
    doc = _repeated_table_document(random.Random(f"{change}:{seed}"), change)
    assert _assert_same_outcome(json.dumps(doc)) == TABLE_CHANGES[change]


def test_a_shared_table_equals_one_built_from_scratch():
    built = lossless_path(60)
    text = serialize_graph(built)
    parsed = parse_document(text)
    assert _same_graph(parsed, built)
    assert len({id(a.table) for a in parsed.adapters.values()}) == 1
    assert len({id(a.table) for a in built.adapters.values()}) == 59
    assert serialize_graph(parsed) == text
