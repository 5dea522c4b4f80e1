"""Reference adaptation and chain searches: the simple implementations the
library replaced, kept as test oracles.

``tuple_union`` and ``tuple_subset`` state the paper's tuple algebra on
availability vectors (componentwise union and the subset order), which the
library only takes inline; ``bottom_vector`` is the all-{bot} vector and
``visited`` the set of interfaces a pipeline touches, against which the
library's visited-interface bitmask is checked. ``adapters`` and ``chain``
read a pipeline's links, and ``fold`` adapts through them one adapter at a
time with no memo, against which the library's memoized fold is checked.

``apply_adaptation`` accumulates every lookup's output into per-method
sets, one product tuple at a time; ``tabulate_adaptation`` adapts every row
of the table from scratch; ``greedy_chain`` rescores every
extension by adapting full capability through the whole chain;
``enumerate_chains`` recurses once per interface; ``oracle_optimal``
enumerates every source's chains, sorts them and evaluates each from
scratch. Differential tests compare the library against these on adapted
vectors, on tabulated rows and sizes, and on chain, source, final vector
and score.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable

from adaptchain.errors import CapExceeded, InvalidParams, NoChain
from adaptchain.model import (
    BOT,
    Adapter,
    AdapterGraph,
    AvailabilityVector,
    Interface,
    full_vector,
)
from adaptchain.search import (
    UNIT_WEIGHTS,
    ChainResult,
    WeightMap,
    chain_pipeline,
    vector_score,
)
from adaptchain.semantics import (
    AdaptationPipeline,
    TabulatedAdaptation,
    function_sizes,
    identity_pipeline,
    prepend,
    tabulation_cap,
)


def tuple_union(u: AvailabilityVector, v: AvailabilityVector) -> AvailabilityVector:
    """Componentwise union of two vectors over the same interface."""
    assert u.interface_id == v.interface_id
    return AvailabilityVector(
        u.interface_id, tuple(a | b for a, b in zip(u.components, v.components))
    )


def tuple_subset(u: AvailabilityVector, v: AvailabilityVector) -> bool:
    """True iff every component of u is a subset of v's."""
    assert u.interface_id == v.interface_id
    return all(a <= b for a, b in zip(u.components, v.components))


def bottom_vector(interface: Interface) -> AvailabilityVector:
    """The all-{bot} vector: no method can handle anything."""
    return AvailabilityVector(interface.id, (frozenset((BOT,)),) * interface.arity)


def adapters(pipeline: AdaptationPipeline) -> tuple[Adapter, ...]:
    """The pipeline's adapters in application order, read off its links."""
    found = []
    while pipeline._tail is not None:
        found.append(pipeline._head)
        pipeline = pipeline._tail
    return tuple(found)


def chain(pipeline: AdaptationPipeline) -> tuple[str, ...]:
    return tuple(a.id for a in adapters(pipeline))


def visited(pipeline: AdaptationPipeline) -> frozenset[str]:
    """Ids of every interface the chain touches, endpoints included."""
    return frozenset([pipeline.source.id, *[a.target.id for a in adapters(pipeline)]])


def apply_adaptation(adapter: Adapter, p: AvailabilityVector) -> AvailabilityVector:
    result = [set((BOT,)) for _ in adapter.target.methods]
    for x in itertools.product(*p.components):
        for acc, out in zip(result, adapter.lookup(x)):
            acc |= out
    return AvailabilityVector(
        adapter.target.id, tuple(frozenset(c) for c in result)
    )


def tabulate_adaptation(adapter: Adapter) -> TabulatedAdaptation:
    cap = tabulation_cap()
    _, raw_size = function_sizes(adapter)
    if raw_size > cap:
        raise CapExceeded(
            "adaptation table for adapter {!r} would have {} elements, "
            "exceeding the cap of {}", adapter.id, raw_size, cap,
        )
    rows: dict[AvailabilityVector, AvailabilityVector] = {}
    subset_choices = [
        [frozenset(c) | {BOT} for r in range(len(d.non_bottom) + 1)
         for c in itertools.combinations(d.non_bottom, r)]
        for d in adapter.source.domains
    ]
    for components in itertools.product(*subset_choices):
        key = AvailabilityVector(adapter.source.id, tuple(components))
        rows[key] = apply_adaptation(adapter, key)
    return TabulatedAdaptation(rows, raw_size)


def fold(pipeline: AdaptationPipeline, p: AvailabilityVector) -> AvailabilityVector:
    """Adapt p through every adapter of the pipeline in turn, remembering
    nothing."""
    assert p.interface_id == pipeline.source.id
    for adapter in adapters(pipeline):
        p = apply_adaptation(adapter, p)
    return p


def rescore(pipeline: AdaptationPipeline, weights: WeightMap = UNIT_WEIGHTS) -> float:
    result = fold(pipeline, full_vector(pipeline.source))
    return vector_score(pipeline.target, result, weights)


def _result(pipeline: AdaptationPipeline, weights: WeightMap) -> ChainResult:
    final = fold(pipeline, full_vector(pipeline.source))
    return ChainResult(
        chain=chain(pipeline),
        source=pipeline.source.id,
        target=pipeline.target.id,
        final_vector=final,
        score=vector_score(pipeline.target, final, weights),
    )


def greedy_chain(
    graph: AdapterGraph,
    sources: Iterable[str],
    target: str,
    weights: WeightMap = UNIT_WEIGHTS,
) -> ChainResult:
    source_ids = set(sources)
    if not source_ids:
        raise InvalidParams("sources must be nonempty")
    for interface_id in source_ids | {target}:
        graph.require_interface(interface_id)

    start = identity_pipeline(graph.interfaces[target])
    open_chains = [(-rescore(start, weights), 0, chain(start))]
    pipelines = {chain(start): start}
    while open_chains:
        _, _, ids = heapq.heappop(open_chains)
        pipeline = pipelines[ids]
        if pipeline.source.id in source_ids:
            return _result(pipeline, weights)
        for adapter in graph.incoming(pipeline.source.id):
            if adapter.source.id in visited(pipeline):
                continue
            extended = prepend(adapter, pipeline)
            ids = chain(extended)
            pipelines[ids] = extended
            heapq.heappush(
                open_chains, (-rescore(extended, weights), len(ids), ids)
            )
    raise NoChain(f"no acyclic chain reaches {target!r}")


def enumerate_chains(
    graph: AdapterGraph, source: str, target: str
) -> list[tuple[str, ...]]:
    graph.require_interface(source)
    graph.require_interface(target)
    found: list[tuple[str, ...]] = []
    path: list[str] = []
    visited = {source}

    def walk(at: str) -> None:
        if at == target:
            found.append(tuple(path))
            return
        for adapter in graph.outgoing(at):
            nxt = adapter.target.id
            if nxt in visited:
                continue
            visited.add(nxt)
            path.append(adapter.id)
            walk(nxt)
            path.pop()
            visited.remove(nxt)

    walk(source)
    found.sort(key=lambda c: (len(c), c))
    return found


def oracle_optimal(
    graph: AdapterGraph,
    sources: Iterable[str],
    target: str,
    weights: WeightMap = UNIT_WEIGHTS,
    guard: int = 10**6,
) -> ChainResult:
    source_ids = sorted(set(sources))
    if not source_ids:
        raise InvalidParams("sources must be nonempty")
    candidates = []
    for src in source_ids:
        for chain in enumerate_chains(graph, src, target):
            candidates.append((len(chain), chain, src))
            if len(candidates) > guard:
                raise CapExceeded(f"more than {guard} candidate chains")
    if not candidates:
        raise NoChain(f"no acyclic chain reaches {target!r}")
    candidates.sort()
    best = None
    for _, chain, src in candidates:
        result = _result(chain_pipeline(graph, chain, src), weights)
        if best is None or result.score > best.score:
            best = result
    return best
