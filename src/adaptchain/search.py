"""Chain search: greedy best-first construction and a brute-force oracle.

The greedy search works backward from the target: it starts with the empty
chain (the identity at the target) and repeatedly extends the open chain
with the highest rank by prepending adapters. A partial chain P starting
at interface X ranks by the score of a vector at X adapted through P.
Chains rank by one key, (-rank, length, adapter ids): greedy's heap pops by
it and the oracle keeps its best chain by it (where rank is the score), so
the two return the same chain.

The score of a chain is the weighted count of non-bottom abstract values
that survive adapting full capability through it. Bottom encodes no
capability, so its weight is pinned to zero. ``math.fsum`` sums the
weights exactly rounded, so kept weights with equal real sums tie. No
chain outscores full capability at the target, so a query whose weights
sum past the float range there is refused before the search starts.

Greedy is A* search with an admissible heuristic (Hart, Nilsson & Raphael,
1968). Before its first push it computes U, the paper's abstract
interpretation run forward to its least fixpoint (Cousot & Cousot, 1977):
U[s] is full capability at each source s, and U[y] holds every
adapt(a, U[x]) for each adapter a from x to another interface y, over the
interfaces that can reach the target. It ranks P by what U[X] keeps through P. Every
acyclic chain from a source brings a subset of U[X] to X, so that rank
never falls below the score of any completion, and, as U[s] = full(s), it
is the true score of a complete chain. Adaptation is monotone, so
extending a chain never raises its rank, and the first complete chain
popped is the oracle's. An interface with no U is never reached from a
source, so no chain starting there is pushed, and a target with no U is
refused before any push. On a lossy bridge into a lossless clique the
bound removes the factorial number of equal-rank chains inside the
clique, and on wide interfaces full capability, the costliest vector to
adapt, is adapted only at sources. Every search whose target is not a
source pays for the fixpoint, about one adaptation per live adapter; the
fixpoint fills the search's adaptation table, so ranking a chain from U
often finds its first step already adapted.

Ranking is incremental: each pipeline remembers the vector each input
becomes through it, so ranking an extension ``a·P`` adapts the start
vector once and walks ``P`` only until a remembered vector matches, which
after a lossless step is ``P`` itself. Every step of that walk, and of the
fixpoint, goes through the search's adaptation table (``semantics._adapt``),
so one search adapts each (adapter, vector) pair once, however many chains
share it. The heap key holds no copy of the chain: pipelines order
equal-length chains by their adapter ids themselves, and greedy reads the
answer's ``chain`` once, when it returns. Enumeration and the oracle share
one iterative depth-first search, bounded by the tabulation cap and not by
Python's recursion limit; the oracle adapts forward along the search path,
through the table of its own identity at the target, and only for prefixes
of chains that reach the target. No table outlives its search.
"""

from __future__ import annotations

import heapq
import math
from collections import deque, namedtuple
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
    _check_vector,
    _Checked,
    full_vector,
)
from .semantics import (
    TABULATE_CAP_ENV,
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
    exactly rounded by ``math.fsum`` (Shewchuk 1997), so the score of a
    vector does not depend on how its sets were built. ``math.fsum``
    raises ``OverflowError`` when a partial sum overflows, which depends on
    the order of the terms; the sum is then taken exactly, as a
    ``Fraction``. Raises InvalidParams for weights that are not a
    WeightMap, and when that exact sum rounds past the largest float, so
    no score is ever inf. A v that does not fit ``interface`` is refused
    (``model._check_vector``), not weighed under the wrong method names."""
    if not isinstance(weights, WeightMap):
        raise InvalidParams("weights {!r} are not a WeightMap", weights)
    _check_vector(interface, v)
    table = weights.weights
    terms = [
        table.get((interface.id, method.name, value), 1.0)
        for method, component in zip(interface.methods, v.components)
        for value in component
        if value != BOT
    ]
    try:
        return math.fsum(terms)
    except OverflowError:
        from fractions import Fraction

        try:
            return float(sum(map(Fraction, terms)))
        except OverflowError:
            raise InvalidParams(
                "weights on {!r} sum past the largest float", interface.id
            ) from None


def count_abstract(
    pipeline: AdaptationPipeline,
    weights: WeightMap = UNIT_WEIGHTS,
    start: AvailabilityVector | None = None,
) -> float:
    """Score a pipeline: adapt ``start``, by default full capability at its
    source, through it and weigh the surviving non-bottom values. With unit
    weights this is a plain count. The adapted vector is memoized in the
    pipeline by the one fold, ``semantics._fold``, called directly so that
    each ``apply_pipeline`` call stays one evaluation; the fold checks
    ``start`` as it checks ``apply_pipeline``'s vector."""
    if start is None:
        start = full_vector(pipeline.source)
    return vector_score(pipeline.target, _fold(pipeline, start), weights)


class ChainResult(namedtuple("ChainResult", "chain source target final_vector score")):
    __slots__ = ()


def _check_query(
    graph: AdapterGraph, sources: Iterable[str], target: str, weights: WeightMap
) -> list[str]:
    """The sorted distinct sources, once they and the target are declared,
    ``weights`` is a WeightMap under which full capability at the target,
    which no chain outscores, scores finitely (``vector_score`` checks
    both), and every weight is for a declared value. Each weighted
    interface's methods are indexed by name once, so the check is linear."""
    if isinstance(sources, str):
        raise InvalidParams("sources {!r} are not a list of interface ids", sources)
    try:
        source_ids = sorted(set(sources))
    except TypeError:  # not iterable, or an id that is unhashable or unordered
        raise InvalidParams(
            "sources {!r} are not a list of interface ids", sources
        ) from None
    if not source_ids:
        raise InvalidParams("sources must be nonempty")
    for interface_id in (*source_ids, target):
        graph.require_interface(interface_id)
    target_interface = graph.interfaces[target]
    vector_score(target_interface, full_vector(target_interface), weights)
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


def _forward_bound(
    graph: AdapterGraph, sources: Iterable[str], start: AdaptationPipeline
) -> dict[str, AvailabilityVector]:
    """U: the least fixpoint of U[s] = full(s) for each source s and U[y]
    holding adapt(a, U[x]) for each adapter a from x to another interface
    y, over the "live" interfaces, those that can reach the target. An
    interface that no source reaches has no entry. No acyclic chain takes
    a self-loop and no join grows full capability, so the walk skips
    self-loops and adapters into a source. ``start`` is the search's
    identity at the target, and adaptation goes through its table. Each
    component only grows, so the worklist empties."""
    target = start.target.id
    live, stack = {target}, [target]
    while stack:
        for adapter in graph.incoming(stack.pop()):
            if adapter.source.id not in live:
                live.add(adapter.source.id)
                stack.append(adapter.source.id)
    bound = {s: full_vector(graph.interfaces[s]) for s in sources if s in live}
    growing = live - bound.keys()
    queue, queued = deque(bound), set(bound)
    while queue:
        x = queue.popleft()
        queued.remove(x)
        for adapter in graph.outgoing(x):
            y = adapter.target.id
            if y not in growing or y == x:
                continue
            vector, old = _adapt(start, adapter, bound[x]), bound.get(y)
            if old is not None:
                if all(map(frozenset.issubset, vector.components, old.components)):
                    continue
                vector = AvailabilityVector(
                    y, tuple(map(frozenset.union, old.components, vector.components))
                )
            bound[y] = vector
            if y not in queued:
                queued.add(y)
                queue.append(y)
    return bound


def greedy_chain(
    graph: AdapterGraph,
    sources: Iterable[str],
    target: str,
    weights: WeightMap = UNIT_WEIGHTS,
) -> ChainResult:
    """Best-first search for a loss-optimal acyclic chain into ``target``
    from any interface in ``sources``.

    Before its first push, greedy computes the forward bound U
    (``_forward_bound``) and ranks every partial chain by what U at its
    start keeps through it; an interface with no U is never reached from a
    source, so no chain starting there is pushed. When the target is a
    source, U is full capability there and the fixpoint is not run.

    Ties between equal-rank open chains break toward shorter chains, then
    lexicographically smaller adapter-id sequences, so results are
    deterministic. If the target itself is a source the empty chain (the
    lossless identity) is returned. Raises NoChain when no source reaches
    the target, and CapExceeded on pushing more partial chains than
    ``tabulation_cap()``; the identity at the target, pushed only when a
    source reaches it, is the first push.
    """
    ordered_sources = _check_query(graph, sources, target, weights)
    source_ids = set(ordered_sources)
    cap, pushes = tabulation_cap(), 1
    start = identity_pipeline(graph.interfaces[target])
    if target in source_ids:
        bound = {target: full_vector(start.source)}
    else:
        bound = _forward_bound(graph, ordered_sources, start)
    # Entries are (-rank, length, pipeline); equal-length pipelines order by
    # their adapter ids, and no two in one search are equal.
    open_chains = [
        (-count_abstract(start, weights, bound[target]), 0, start)
    ] if target in bound else []

    while open_chains:
        neg_rank, length, pipeline = heapq.heappop(open_chains)
        if pipeline.source.id in source_ids:
            final_vector = _fold(pipeline, full_vector(pipeline.source))
            return ChainResult(
                pipeline.chain, pipeline.source.id, target, final_vector, -neg_rank
            )
        for adapter in graph.incoming(pipeline.source.id):
            x = adapter.source.id
            if x not in bound or pipeline.visits(x):
                continue
            pushes += 1
            if pushes > cap:
                raise CapExceeded(
                    "search from any of {} to {!r} pushes more than {} partial "
                    "chains; raise {}", ordered_sources, target, cap, TABULATE_CAP_ENV,
                )
            extended = prepend(adapter, pipeline)
            rank = count_abstract(extended, weights, bound[x])
            heapq.heappush(open_chains, (-rank, length + 1, extended))
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
                "raise {}", source, target, cap, TABULATE_CAP_ENV,
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
    graph.require_interface(source)
    graph.require_interface(target)
    found = [
        tuple(a.id for a in path)
        for path, _ in _chains_depth_first(graph, source, target)
    ]
    found.sort(key=lambda c: (len(c), c))
    return found


def chain_pipeline(graph: AdapterGraph, chain: Iterable[str], source: str) -> AdaptationPipeline:
    """Build a pipeline from adapter ids starting at ``source``."""
    if isinstance(chain, str) or not isinstance(chain, Iterable):
        raise InvalidParams("chain {!r} is not a list of adapter ids", chain)
    adapters = []
    for adapter_id in chain:
        try:
            adapters.append(graph.adapters[adapter_id])
        except (KeyError, TypeError):  # undeclared, or unhashable so no id
            raise InvalidParams("graph has no adapter {!r}", adapter_id) from None
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
    its adaptations. One table per call, rooted as greedy's is in the
    identity at the target, adapts each (adapter, vector) pair once."""
    source_ids = _check_query(graph, sources, target, weights)
    target_interface = graph.interfaces[target]
    best = None  # (rank, source, final vector)
    root = identity_pipeline(target_interface)
    for src in source_ids:
        vectors = [full_vector(graph.interfaces[src])]
        for path, kept in _chains_depth_first(graph, src, target):
            del vectors[kept + 1:]
            for adapter in path[kept:]:
                vectors.append(_adapt(root, adapter, vectors[-1]))
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
