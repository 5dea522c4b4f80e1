"""Chain search: greedy best-first construction and a brute-force oracle.

The greedy search works backward from the target: it starts with the empty
chain (the identity at the target) and repeatedly extends the open chain
with the highest score by prepending adapters. Because adaptation is
monotone, extending a chain never increases its score, so the first
complete chain popped is optimal. Chains rank by one key, (-score, length,
adapter ids): greedy's heap pops by it and the oracle keeps its best chain
by it, so the two return the same chain.

The score of a chain is the weighted count of non-bottom abstract values
that survive adapting full capability through it. Bottom encodes no
capability, so its weight is pinned to zero.

Scoring is incremental: each pipeline remembers the vector full capability
becomes through it, so scoring an extension ``a·P`` adapts ``full(a.source)``
once and walks ``P`` only until a remembered vector matches, which after a
lossless step is ``P`` itself. Every step of that walk goes through the
search's adaptation table (``semantics._adapt``), so one search adapts each
(adapter, vector) pair once, however many chains share it. Enumeration and
the oracle share one iterative depth-first search, bounded by the
tabulation cap and not by Python's recursion limit; the oracle adapts
forward along the search path, through its own table, and only for
prefixes of chains that reach the target. No table outlives its search.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType

from .errors import CapExceeded, InvalidParams, NoChain, ReservedName
from .model import (
    BOT,
    AbstractDomain,
    Adapter,
    AdapterGraph,
    AvailabilityVector,
    Interface,
    _Checked,
    full_vector,
)
from .semantics import (
    AdaptationPipeline,
    _adapt,
    _fold,
    identity_pipeline,
    prepend,
    tabulation_cap,
)


class WeightMap(_Checked, namedtuple("WeightMap", "weights")):
    """Per-abstract-value weights for scoring, keyed by
    (interface id, method name, value name): a read-only float copy of the
    given mapping. Unlisted entries weigh 1.0; "bot" always weighs 0 and
    cannot be overridden. Error messages write a key as a weight file does,
    ``interface.method.value``, unquoted."""

    __slots__ = ()

    def __new__(cls, weights: object = MappingProxyType({})) -> WeightMap:
        if not isinstance(weights, Mapping):
            raise InvalidParams("weights {!r} are not a mapping", weights)
        table: dict[tuple[str, str, str], float] = {}
        for key, weight in weights.items():
            if not isinstance(key, tuple) or len(key) != 3:
                raise InvalidParams(
                    "weight key {!r} is not an (interface, method, value) triple", key
                )
            if key[2] == BOT:
                raise ReservedName("weight for 'bot' is fixed at 0 ({}.{}.{})", *key)
            try:
                if not 0 <= weight < math.inf:
                    raise InvalidParams(
                        "weight {} for {}.{}.{} is not finite and non-negative", weight, *key
                    )
            except (TypeError, ArithmeticError):  # Decimal("NaN") raises
                raise InvalidParams(
                    "weight {!r} for {}.{}.{} is not a number", weight, *key
                ) from None
            try:
                table[key] = float(weight)
            except (TypeError, ValueError, ArithmeticError):  # 10**400 overflows
                table[key] = math.inf
            if table[key] == math.inf:
                raise InvalidParams("weight for {}.{}.{} has no finite float", *key)
        return super().__new__(cls, MappingProxyType(table))


UNIT_WEIGHTS = WeightMap()


def vector_score(
    interface: Interface, v: AvailabilityVector, weights: WeightMap
) -> float:
    """Weight-sum of the non-bottom values across all components of v,
    summed in canonical order, so equal vectors score the same float
    however their sets were built."""
    table, total = weights.weights, 0.0
    for method, component in zip(interface.methods, v.components):
        for value in sorted(component):
            if value != BOT:
                total += table.get((interface.id, method.name, value), 1.0)
    return total


def count_abstract(
    pipeline: AdaptationPipeline, weights: WeightMap = UNIT_WEIGHTS
) -> float:
    """Score a pipeline: adapt full capability through it and weigh the
    surviving non-bottom values. With unit weights this is a plain count.
    The adapted vector is memoized in the pipeline by the one fold,
    ``semantics._fold``, called directly so that each ``apply_pipeline``
    call stays one evaluation."""
    result = _fold(pipeline, full_vector(pipeline.source))
    return vector_score(pipeline.target, result, weights)


class ChainResult(namedtuple("ChainResult", "chain source target final_vector score")):
    __slots__ = ()


def _check_query(
    graph: AdapterGraph, sources: Iterable[str], target: str, weights: WeightMap
) -> list[str]:
    """The sorted distinct sources, once they, the target and every
    weighted value are known to be declared. Each weighted interface's
    methods are indexed by name once, so the check is linear."""
    source_ids = sorted(set(sources))
    if not source_ids:
        raise InvalidParams("sources must be nonempty")
    for interface_id in (*source_ids, target):
        graph.require_interface(interface_id)
    domains: dict[str, dict[str, AbstractDomain]] = {}
    for interface_id, method, value in weights.weights:
        if interface_id not in domains:
            interface = graph.interfaces.get(interface_id)
            methods = interface.methods if interface is not None else ()
            domains[interface_id] = {m.name: m.domain for m in methods}
        domain = domains[interface_id].get(method)
        if domain is None or value not in domain:
            raise InvalidParams(
                "weight for {}.{}.{}: no such value", interface_id, method, value
            )
    return source_ids


def greedy_chain(
    graph: AdapterGraph,
    sources: Iterable[str],
    target: str,
    weights: WeightMap = UNIT_WEIGHTS,
) -> ChainResult:
    """Best-first search for a loss-optimal acyclic chain into ``target``
    from any interface in ``sources``.

    Ties between equal-score open chains break toward shorter chains, then
    lexicographically smaller adapter-id sequences, so results are
    deterministic. If the target itself is a source the empty chain (the
    lossless identity) is returned. Raises NoChain when the frontier
    exhausts without reaching any source, and CapExceeded on pushing more
    partial chains than ``tabulation_cap()``; the identity at the target
    is the first push.
    """
    ordered_sources = _check_query(graph, sources, target, weights)
    source_ids = set(ordered_sources)
    cap, pushes = tabulation_cap(), 1
    start = identity_pipeline(graph.interfaces[target])
    # Entries are (-score, length, chain, pipeline). Chains are unique, so
    # the key never ties and the pipeline in the last slot is never compared.
    open_chains = [(-count_abstract(start, weights), 0, (), start)]

    while open_chains:
        neg_score, _, chain, pipeline = heapq.heappop(open_chains)
        if pipeline.source.id in source_ids:
            final_vector = _fold(pipeline, full_vector(pipeline.source))
            return ChainResult(
                chain, pipeline.source.id, target, final_vector, -neg_score
            )
        for adapter in graph.incoming(pipeline.source.id):
            if pipeline.visits(adapter.source.id):
                continue
            pushes += 1
            if pushes > cap:
                raise CapExceeded(
                    "search from any of {} to {!r} pushes more than {} partial "
                    "chains; raise ADAPTCHAIN_TABULATE_CAP",
                    ordered_sources, target, cap,
                )
            extended = prepend(adapter, pipeline)
            heapq.heappush(
                open_chains,
                (
                    -count_abstract(extended, weights),
                    len(chain) + 1,
                    (adapter.id, *chain),
                    extended,
                ),
            )
    raise NoChain(
        "no acyclic chain reaches {!r} from any of {}", target, ordered_sources
    )


def _chains_depth_first(
    graph: AdapterGraph, source: str, target: str
) -> Iterator[tuple[list[Adapter], int]]:
    """Every acyclic chain from source to target, depth first in declaration
    order, without recursion.

    Yields ``(path, kept)`` per chain: ``path`` is the live adapter list
    (valid until the next step) and ``kept`` is how many of its leading
    adapters are unchanged since the previous chain yielded. Callers check
    that both endpoints are declared. Raises CapExceeded once the walk
    extends more partial chains, dead ends included, than ``tabulation_cap()``.
    """
    cap = tabulation_cap()
    path: list[Adapter] = []
    if source == target:
        yield path, 0
        return
    visited = {source}
    branches = [iter(graph.outgoing(source))]
    kept = steps = 0
    while branches:
        adapter = next(branches[-1], None)
        if adapter is None:
            branches.pop()
            if path:
                visited.remove(path.pop().target.id)
                kept = min(kept, len(path))
            continue
        nxt = adapter.target.id
        if nxt in visited:
            continue
        steps += 1
        if steps > cap:
            raise CapExceeded(
                "search from {!r} to {!r} extends more than {} partial chains; "
                "raise ADAPTCHAIN_TABULATE_CAP",
                source, target, cap,
            )
        path.append(adapter)
        if nxt == target:
            yield path, kept
            path.pop()
            kept = len(path)
            continue
        visited.add(nxt)
        branches.append(iter(graph.outgoing(nxt)))


def enumerate_chains(
    graph: AdapterGraph, source: str, target: str
) -> list[tuple[str, ...]]:
    """All acyclic chains (no interface visited twice) from source to
    target, ordered by length then lexicographically by adapter ids.
    source = target yields exactly the empty chain. Raises CapExceeded once
    the walk extends more partial chains than ``tabulation_cap()``."""
    _check_query(graph, [source], target, UNIT_WEIGHTS)
    found = [
        tuple(a.id for a in path)
        for path, _ in _chains_depth_first(graph, source, target)
    ]
    found.sort(key=lambda c: (len(c), c))
    return found


def chain_pipeline(graph: AdapterGraph, chain: Iterable[str], source: str) -> AdaptationPipeline:
    """Build a pipeline from adapter ids starting at ``source``."""
    adapters = []
    for adapter_id in chain:
        if adapter_id not in graph.adapters:
            raise InvalidParams("graph has no adapter {!r}", adapter_id)
        adapters.append(graph.adapters[adapter_id])
    end = adapters[-1].target if adapters else graph.require_interface(source)
    pipeline = identity_pipeline(end)
    for adapter in reversed(adapters):
        pipeline = prepend(adapter, pipeline)
    if pipeline.source.id != source:
        raise InvalidParams(
            "chain starts at {!r}, expected {!r}", pipeline.source.id, source
        )
    return pipeline


def oracle_optimal(
    graph: AdapterGraph,
    sources: Iterable[str],
    target: str,
    weights: WeightMap = UNIT_WEIGHTS,
) -> ChainResult:
    """Brute force: score every acyclic chain from every source and return
    a maximal one. Ties break by (length, adapter ids): candidates rank by
    ``greedy_chain``'s heap key. The source never decides, as a nonempty
    chain's first adapter fixes it and the empty chain exists only when the
    source is the target. Refuses with CapExceeded past ``tabulation_cap()``
    partial chains walked per source.

    Vectors are adapted forward along the depth-first path, and only once
    a chain through them reaches the target; chains sharing a prefix share
    its adaptations, and one adaptation table per call (``semantics._adapt``)
    adapts each (adapter, vector) pair once."""
    source_ids = _check_query(graph, sources, target, weights)
    target_interface = graph.interfaces[target]
    best = None  # (rank, source, final vector)
    table: dict = {}
    for src in source_ids:
        vectors = [full_vector(graph.interfaces[src])]
        for path, kept in _chains_depth_first(graph, src, target):
            del vectors[kept + 1:]
            for adapter in path[kept:]:
                vectors.append(_adapt(table, adapter, vectors[-1]))
            score = vector_score(target_interface, vectors[-1], weights)
            chain = tuple(a.id for a in path)
            rank = (-score, len(chain), chain)
            if best is None or rank < best[0]:
                best = rank, src, vectors[-1]
    if best is None:
        raise NoChain(
            "no acyclic chain reaches {!r} from any of {}", target, source_ids
        )
    (neg_score, _, chain), src, final_vector = best
    return ChainResult(chain, src, target, final_vector, -neg_score)
