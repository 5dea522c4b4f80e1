"""The visited-interface bitmask that pipelines carry, against the visited
set it replaced on the search hot path (``search_reference.visited``)."""

from __future__ import annotations

import pytest

from adaptchain import build_adapter, build_graph, build_interface, search
from adaptchain.errors import CycleDetected, NoChain
from adaptchain.semantics import AdaptationPipeline, identity_pipeline, prepend
from conftest import lossless_path
from test_acceptance import seeded_instance
from search_reference import adapters, chain, visited
from test_search_differential import lossy_clique


def built_pipelines(monkeypatch, graph, source, target):
    """Every pipeline, roots included, that greedy (from ``source`` and from
    all interfaces) and chain_pipeline (on every acyclic chain) build."""
    built: list[AdaptationPipeline] = []

    def recording(adapter, pipeline):
        built.extend((pipeline, prepend(adapter, pipeline)))
        return built[-1]

    monkeypatch.setattr(search, "prepend", recording)
    for sources in ([source], list(graph.interfaces)):
        try:
            search.greedy_chain(graph, sources, target)
        except NoChain:
            pass
    for chain in search.enumerate_chains(graph, source, target):
        built.append(search.chain_pipeline(graph, chain, source))
    return built


def check_masks(graph, pipelines):
    """The mask agrees with ``visited`` on every interface id, and prepend
    refuses exactly the adapters that revisit an interface."""
    for pipeline in pipelines:
        seen = visited(pipeline)
        for interface_id in graph.interfaces:
            assert pipeline.visits(interface_id) == (interface_id in seen)
        for adapter in graph.incoming(pipeline.source.id):
            if adapter.source.id in seen:
                with pytest.raises(CycleDetected):
                    prepend(adapter, pipeline)
            else:
                assert visited(prepend(adapter, pipeline)) == (
                    seen | {adapter.source.id}
                )


@pytest.mark.parametrize("seed", range(0, 200, 4))
def test_mask_matches_visited_on_seeded_instances(monkeypatch, seed):
    graph, source, target, _ = seeded_instance(seed)
    check_masks(graph, built_pipelines(monkeypatch, graph, source, target))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_mask_matches_visited_on_lossy_cliques(monkeypatch, k):
    graph = lossy_clique(k)
    pipelines = built_pipelines(monkeypatch, graph, "S", f"C{k - 1}")
    assert len(pipelines) > 2 * k
    check_masks(graph, pipelines)


def test_mask_matches_visited_on_a_path(monkeypatch):
    graph = lossless_path(50)
    pipelines = built_pipelines(monkeypatch, graph, "P0000", "P0049")
    assert max(len(adapters(p)) for p in pipelines) == 49
    check_masks(graph, pipelines)


def test_families_from_different_graphs_keep_their_own_index():
    """Two graphs reuse the interface ids A..D with the edges reversed, so
    each root indexes them in a different order. Pipelines built from the
    two roots, interleaved, each answer for their own chain."""
    ids = "ABCD"
    forward = {i: build_interface(i, [("m", ["x"])]) for i in ids}
    backward = {i: build_interface(i, [("m", ["x"])]) for i in ids}

    def path(interfaces, order):
        adapters = [
            build_adapter(
                f"{a}{b}", interfaces[a], interfaces[b], [(("x",), [["x"]])]
            )
            for a, b in zip(order, order[1:])
        ]
        return build_graph(list(interfaces.values()), adapters)

    g1, g2 = path(forward, "ABCD"), path(backward, "DCBA")
    one = [identity_pipeline(forward["D"])]
    two = [identity_pipeline(backward["A"])]
    for a1, a2 in zip(("CD", "BC", "AB"), ("BA", "CB", "DC")):
        one.append(prepend(g1.adapters[a1], one[-1]))
        two.append(prepend(g2.adapters[a2], two[-1]))
    assert one[0]._index is not two[0]._index
    assert one[0]._index["D"] == two[0]._index["A"] == 0
    for family in (one, two):
        assert all(p._index is family[0]._index for p in family)
        for pipeline in family:
            for interface_id in ids:
                assert pipeline.visits(interface_id) == (
                    interface_id in visited(pipeline)
                )
    assert [p.visits("A") for p in one] == [False, False, False, True]
    assert [p.visits("D") for p in two] == [False, False, False, True]


def test_prepend_links_without_copying():
    graph = lossless_path(4)
    p = graph.interfaces
    pipeline = identity_pipeline(p["P0003"])
    for i in (2, 1, 0):
        extended = prepend(graph.adapters[f"E000{i}"], pipeline)
        assert extended._tail is pipeline and extended._index is pipeline._index
        pipeline = extended
    assert chain(pipeline) == ("E0000", "E0001", "E0002")
    assert all(pipeline.visits(i) for i in p)
    with pytest.raises(CycleDetected):
        prepend(build_adapter("back", p["P0002"], p["P0000"], []), pipeline)
