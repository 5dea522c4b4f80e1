"""The generator and the document writer against the code they replaced
(``generator_reference``): over a seeded grid of shapes, the same instance,
the same suggested endpoints and the same text, byte for byte. Documents
that carry default outputs, which the generator never writes, are checked
against ``json.dumps(..., indent=2)`` of their own parse.
"""

from __future__ import annotations

import json
import random
import string

import pytest

from adaptchain import build_adapter, parse_document, serialize_graph
from adaptchain.generator import GenParams, random_instance
from generator_reference import reference_random_instance, reference_serialize_graph

SHAPES_PER_DENSITY = 100


def _range(rng: random.Random, top: int) -> tuple[int, int]:
    lo = rng.randint(1, top)
    return lo, rng.randint(lo, top)


def _grid(density: float) -> list[GenParams]:
    """Seeded shapes: 1-3 methods, 1-4 values, 0-20 adapters."""
    rng = random.Random(f"gen-grid:{density}")
    return [
        GenParams(
            rng.randint(1, 6), _range(rng, 3), _range(rng, 4), rng.randint(0, 20),
            density, rng.randrange(2**32),
        )
        for _ in range(SHAPES_PER_DENSITY)
    ]


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_instances_and_text_match_the_reference(density):
    for params in _grid(density):
        graph, source, target = random_instance(params)
        want, want_source, want_target = reference_random_instance(params)
        assert (graph, source, target) == (want, want_source, want_target), params
        assert serialize_graph(graph) == reference_serialize_graph(want), params


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_each_adapter_equals_build_adapter_over_its_own_rows(density):
    """The generator builds ``Adapter`` from the rows it drew, unchecked;
    ``build_adapter``, which checks every row, gives an equal adapter."""
    for params in _grid(density):
        for a in random_instance(params)[0].adapters.values():
            assert a == build_adapter(
                a.id, a.source, a.target, a.table.items(), a.default_output
            ), params


# The benchmark's gen shapes: interfaces, adapters, methods, values, density.
BENCHMARK_SHAPES = {
    "fixture-mix": (8, 30, (2, 2), (2, 2), 0.5),
    "wide-interface": (3, 3, (4, 4), (3, 3), 0.2),
    "long-path": (1200, 1199, (1, 1), (3, 3), 0.5),
}


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_the_benchmark_shapes_match_the_reference_text(shape):
    interfaces, adapters, methods, values, density = BENCHMARK_SHAPES[shape]
    for seed in (0, 4_000_000_007):
        params = GenParams(interfaces, methods, values, adapters, density, seed)
        assert serialize_graph(random_instance(params)[0]) == (
            reference_serialize_graph(reference_random_instance(params)[0])
        ), params


def test_the_grid_covers_its_corners():
    shapes = [p for density in (0.0, 0.3, 1.0) for p in _grid(density)]
    assert {p.adapter_count for p in shapes} >= {0, 20}
    assert {p.methods_per_interface for p in shapes} >= {(1, 1), (1, 3), (3, 3)}
    assert {p.values_per_method for p in shapes} >= {(1, 1), (1, 4), (4, 4)}


def _wide_document(rng: random.Random) -> dict:
    """Five 6-method interfaces of 5 letters and adapters of 200 sparse rows
    with a default output, shaped like the wide-interface benchmark's, so
    output sets and input tuples repeat within and across adapters."""
    interfaces = [
        {"id": f"W{i}", "methods": [
            {"name": f"m{m}", "values": rng.sample(string.ascii_lowercase, 5)}
            for m in range(6)
        ]}
        for i in range(5)
    ]
    adapters = []
    for k in range(6):
        source, target = rng.sample(interfaces, 2)
        pools = [rng.sample(m["values"], 3) for m in target["methods"]]
        domains = [["bot", *m["values"]] for m in source["methods"]]
        inputs = set()
        while len(inputs) < 200:
            inputs.add(tuple(rng.choice(d) for d in domains))
        adapters.append({
            "id": f"A{k}", "source": source["id"], "target": target["id"],
            "default_output": [p[:1] for p in pools],
            "entries": [
                {"input": list(x),
                 "output": [rng.sample(p, rng.randint(1, 2)) for p in pools]}
                for x in sorted(inputs)
            ],
        })
    return {"version": "1", "interfaces": interfaces, "adapters": adapters}


@pytest.mark.parametrize("seed", range(3))
def test_documents_with_default_outputs_match_the_stdlib_layout(seed):
    graph = parse_document(json.dumps(_wide_document(random.Random(seed))))
    text = serialize_graph(graph)
    assert '"default_output"' in text
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert text == reference_serialize_graph(graph)
