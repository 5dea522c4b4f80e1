"""The directly written canonical text against ``json.dumps(..., indent=2)``
of the dict builder it replaced (``document_reference``): same bytes, and
the same dict back from ``graph_to_document``."""

from __future__ import annotations

import json

import pytest

from adaptchain import (
    build_adapter,
    build_graph,
    build_interface,
    graph_to_document,
    load_fixture,
    parse_document,
    serialize_graph,
)
from adaptchain.generator import GenParams, random_instance
from conftest import lossless_path
from document_reference import reference_document

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
    assert graph_to_document(graph) == reference_document(graph)


def test_odd_text_is_ascii_and_round_trips():
    graph = _odd_text_graph()
    text = serialize_graph(graph)
    assert text.isascii()
    assert parse_document(text.encode()) == graph
