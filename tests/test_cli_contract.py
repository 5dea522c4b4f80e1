"""The CLI contract under seeded fuzzing. Whatever the document, the
weights file, the arguments and ``ADAPTCHAIN_TABULATE_CAP``, a command
exits 0, 1 or 2, and exit 1 leaves exactly one ``error: `` line on
stderr. The canonical text of an accepted document is a fixed point of
parsing and serializing.

Documents are the mutation corpus of ``test_document_differential`` and
its two base documents, as they are or damaged as text: truncated, behind
a byte-order mark, nested deep, with a key repeated in one object, or
with a huge number for one value. Arguments and weight keys mostly name
what the document declares, so that commands get past the first lookup.
Hypothesis draws every input from a fixed seed, so each run tries the
same examples.
"""

from __future__ import annotations

import io
import json
import os
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptchain.cli import run_cli
from adaptchain.document import parse_document, serialize_graph
from adaptchain.errors import AdapterChainError
from test_document_differential import _FIELDS, _at, _base_documents, _corpus, _paths

BASES = [json.dumps(doc) for doc in _base_documents()]
CORPUS = _corpus()
CAP = "ADAPTCHAIN_TABULATE_CAP"
HOLE = "@@hole@@"  # marks the one value a text mutation replaces
QUERY = ["chain", "--source", "Video1", "--target", "Video3"]
HUGE_NUMBERS = ["9" * 5000, "-" + "1" * 4301, "1e999999", "1" + "0" * 400 + ".5"]

others = st.one_of(st.sampled_from(_FIELDS), st.text(max_size=8))


def _mostly(usual, rare):
    """``usual`` three times in four, else ``rare``."""
    return st.integers(0, 3).flatmap(lambda n: usual if n else rare)


# Small enough that a search on a base document often passes it.
caps = _mostly(st.one_of(st.none(), st.integers(1, 4).map(str)), st.sampled_from(
    ["0", "-1", "x", "", " 7", "1e3", "9" * 5000]
))


def _listed(node, field: str) -> list:
    """The dicts in ``node[field]``, when ``node`` is a dict and that is a
    list: a mutated document may hold anything anywhere."""
    items = node.get(field) if isinstance(node, dict) else None
    if not isinstance(items, list):
        return []
    return [item for item in items if isinstance(item, dict)]


def _declared(doc) -> tuple[list[str], list[str], list[str]]:
    """The interface ids, adapter ids and ``interface.method.value`` weight
    keys a document declares, as far as it declares them."""
    interfaces = [i.get("id") for i in _listed(doc, "interfaces")]
    adapters = [a.get("id") for a in _listed(doc, "adapters")]
    keys = [
        f"{i.get('id')}.{m.get('name')}.{v}"
        for i in _listed(doc, "interfaces") for m in _listed(i, "methods")
        if isinstance(m.get("values"), list) for v in m["values"]
    ]
    return tuple(
        [x for x in found if isinstance(x, str)] or ["Nope"]
        for found in (interfaces, adapters, keys)
    )


def _damaged(draw, doc) -> bytes:
    """The document's text, as it is or damaged."""
    kind = draw(_mostly(st.just("as-is"), st.sampled_from(
        ["truncate", "bom", "nest", "repeat-key", "huge-number"]
    )))
    objects = [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
    if kind in ("repeat-key", "huge-number") and objects:
        # The hole is a new key of one object, written as one of its keys
        # again, or holding a huge number in place of that key's value.
        obj = _at(doc, draw(st.sampled_from(objects)))
        key = draw(st.sampled_from(sorted(obj) or _FIELDS))
        obj[HOLE] = obj.get(key, 1)
        text = json.dumps(doc)
        if kind == "repeat-key":
            return text.replace(json.dumps(HOLE), json.dumps(key)).encode()
        return text.replace(
            f"{json.dumps(HOLE)}: {json.dumps(obj[HOLE])}",
            f"{json.dumps(key)}: {draw(st.sampled_from(HUGE_NUMBERS))}",
        ).encode()
    text = json.dumps(doc).encode()
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "bom":
        return b"\xef\xbb\xbf" + text
    if kind == "nest":
        depth = draw(st.sampled_from([1, 50, 100_000]))
        return b'{"interfaces": [' * depth + text + b"]}" * depth
    return text


@st.composite
def invocations(draw):
    """A document, one of the graph commands on it in either format, a
    weights file's lines (or none) and a cap (or none)."""
    doc = json.loads(draw(_mostly(st.sampled_from(BASES), st.sampled_from(CORPUS))))
    interface_ids, adapter_ids, keys = _declared(doc)
    interface = _mostly(st.sampled_from(interface_ids), others)
    kind = draw(st.sampled_from(
        ["validate", "stats", "chain", "oracle", "enumerate", "eval"]
    ))
    weights = None
    if kind in ("validate", "stats"):
        argv = [kind]
    elif kind == "eval":
        chain = draw(st.lists(_mostly(st.sampled_from(adapter_ids), others),
                              min_size=1, max_size=3))
        # A key's last two parts are a method and a value: "m:v".
        vector = draw(_mostly(
            st.sampled_from(keys).map(lambda k: ":".join(k.rsplit(".", 2)[1:])),
            st.text(max_size=8),
        ))
        argv = ["eval", "--chain", ",".join(chain), "--vector", vector]
    elif kind == "enumerate":
        argv = ["enumerate", "--source", draw(interface), "--target", draw(interface)]
    else:
        argv = ["chain", "--source", draw(interface), "--target", draw(interface)]
        argv += ["--oracle"] if kind == "oracle" else []
        weights = draw(_mostly(st.none(), st.lists(st.one_of(
            st.builds("{} = {}".format, st.sampled_from(keys), st.sampled_from(
                ["1", "0", "2.5", "-1", "nan", "inf", "1e400", "x", ""]
            )),
            st.text(max_size=12),
        ), max_size=4)))
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    return _damaged(draw, doc), argv, weights, draw(caps)


def test_cli_contract(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    graph, weights_file = folder / "graph.json", folder / "weights.txt"
    seen = Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(invocations())
    # Both kinds of search refuse past a cap of one.
    @example((BASES[0].encode(), [*QUERY, "--oracle", "--format", "json"], None, "1"))
    @example((BASES[0].encode(), [*QUERY, "--format", "text"], None, "1"))
    def check(invocation):
        document, argv, weights, cap = invocation
        graph.write_bytes(document)
        argv = [argv[0], "--graph", str(graph), *argv[1:]]
        if weights is not None:
            weights_file.write_bytes("\n".join(weights).encode("utf-8", "surrogatepass"))
            argv += ["--weights", str(weights_file)]
        saved = os.environ.pop(CAP, None)
        if cap is not None:
            os.environ[CAP] = cap
        try:
            out, err = io.StringIO(), io.StringIO()
            status = run_cli(argv, out=out, err=err)
        finally:
            os.environ.pop(CAP, None)
            if saved is not None:
                os.environ[CAP] = saved
        assert status in (0, 1, 2), (argv, status)
        seen[status] += 1
        if status == 1:
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, message
            seen["walk"] += "extends more than" in message
            seen["greedy"] += "pushes more than" in message
        try:
            text = serialize_graph(parse_document(document))
        except AdapterChainError:
            return
        assert serialize_graph(parse_document(text)) == text
        seen["accepted"] += 1

    check()
    # The examples answer, refuse, and refuse both kinds of search past
    # the cap, and accepted documents reach the fixed point.
    assert min(seen[0], seen[1], seen["accepted"]) >= 10, seen
    assert seen["walk"] and seen["greedy"], seen
