"""Adaptation application, pipeline composition, size formulas, tabulation.

Adaptation lifts an adapter's dependency function to availability vectors:
the result is the componentwise union of the dependency outputs over every
input tuple in the Cartesian product of the argument vector's components.
:func:`apply_adaptation` looks up every tuple of that product once, but
takes the union only over the distinct outputs, which a sparse table keeps
few (its rows plus the default).
Pipelines stay intensional (a list of adapters evaluated lazily); the full
adaptation table is only materialized through :func:`tabulate_adaptation`,
which :func:`tabulation_cap`, the package's one work limit, guards because
the table is exponential in the number of source methods.

Tabulation uses the split law: if component i of p holds a value v besides
bot and at least one other value, A(p) is the componentwise union of A(p
with v taken out of component i) and A(p with component i set to {bot,
v}), since the two products cover p's. So only atom rows, whose every
component is {bot} or {bot, v}, are adapted; every other row is one union
of two rows built before it. Equal rows share one vector object.

All functions here are pure over immutable values. The only state is
caches that never change an answer: each search's adaptation table, which
maps an (adapter, input vector) pair to its adapted vector so that one
search adapts each pair once; each pipeline's result memo; the interface
index behind each pipeline's visited-interface bitmask; and each domain's
subset list with its splits, which tabulation builds on first use.
:func:`apply_adaptation` and :func:`tabulate_adaptation` keep no memo, and
no table outlives the pipelines of one search.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from math import prod
from operator import attrgetter

from .errors import (
    CapExceeded,
    CycleDetected,
    EmptyDomain,
    EndpointMismatch,
    InvalidParams,
)
from .model import BOT, Adapter, AvailabilityVector, Interface, _check_vector, _Sealed

DEFAULT_TABULATE_CAP = 2**20
TABULATE_CAP_ENV = "ADAPTCHAIN_TABULATE_CAP"
_subsets = attrgetter("domain._subsets")  # a method's subsets and splits


def apply_adaptation(adapter: Adapter, p: AvailabilityVector) -> AvailabilityVector:
    """Adapt an availability vector through one adapter.

    Unions the dependency outputs over all tuples in the Cartesian product
    of p's components. Costs the product of the component sizes in lookups,
    but the union only touches the distinct outputs: each target component
    is built once, from its column of those outputs. ``frozenset(iterable)``
    sizes the set to its contents; ``frozenset().union(...)`` would keep a
    table about twice as large, which every memoized or tabulated vector
    would carry. A p that does not fit the adapter's source (see
    ``model._check_vector``) is refused before any lookup.
    """
    _check_vector(adapter.source, p)
    outputs = set(map(adapter.lookup, itertools.product(*p.components)))
    if not outputs:
        raise EmptyDomain("vector over {!r} has an empty component", p.interface_id)
    return AvailabilityVector(
        adapter.target.id,
        tuple(
            frozenset(itertools.chain((BOT,), *column))
            for column in zip(*outputs)
        ),
    )


class AdaptationPipeline(_Sealed):
    """An acyclic chain of adapters usable as one adaptation function.

    A pipeline is a linked list: its first adapter (``_head``) feeds the
    pipeline it extends (``_tail``). The identity at ``source`` (=
    ``target``) has neither. Only :func:`identity_pipeline` and
    :func:`prepend` build pipelines, and prepending shares the tail rather
    than copying it, so a chain of length L costs O(L) to build and to
    hold. No other module reads a private field: :func:`_fold` walks the
    links, :attr:`chain` names the adapters, and ``<`` orders two chains
    of equal length by their adapter ids, first adapter first. No
    interface is visited twice. Pipelines are equal only to themselves.

    Three caches never change an answer. The identity creates the first
    two, and every pipeline prepended from it shares them:
    - ``_index`` (interface id -> bit position) holds only the interfaces
      one search touches. Every pipeline carries the interfaces it touches
      as one int bitmask (``_mask``) over it, so acyclicity costs O(1) per
      :func:`prepend`, and :meth:`visits` tests a bit;
    - ``_table`` is the search's adaptation table, read only by
      :func:`_adapt`, so one search adapts each (adapter, vector) pair once;
    - ``_memo``, each pipeline's own, remembers what every input vector
      this pipeline was folded from became, for as long as it lives.
    The fields are slots; both builders pass a new empty dict as ``_memo``.
    """

    __slots__ = (
        "source", "target", "_head", "_tail", "_index", "_mask", "_table", "_memo"
    )

    def __init__(
        self, source: Interface, target: Interface, head: Adapter | None,
        tail: AdaptationPipeline | None, index: dict, mask: int, table: dict,
        memo: dict,
    ) -> None:
        (set_source, set_target, set_head, set_tail, set_index, set_mask,
         set_table, set_memo) = self._set
        set_source(self, source)
        set_target(self, target)
        set_head(self, head)
        set_tail(self, tail)
        set_index(self, index)
        set_mask(self, mask)
        set_table(self, table)
        set_memo(self, memo)

    def visits(self, interface_id: str) -> bool:
        """Does the chain touch ``interface_id``? One bit test."""
        bit = self._index.get(interface_id)
        return bit is not None and bool(self._mask >> bit & 1)

    def __lt__(self, other: AdaptationPipeline) -> bool:
        """Orders two chains of equal length by their adapter ids, first
        adapter first, in one loop over both chains' links: no copy and no
        recursion, however long they are. Chains that share their tail stop
        comparing where it starts."""
        a, b = self, other
        while a is not b and a._tail is not None:
            if a._head.id != b._head.id:
                return a._head.id < b._head.id
            a, b = a._tail, b._tail
        return False

    @property
    def chain(self) -> tuple[str, ...]:
        """The adapter ids in application order; the identity's is ``()``."""
        ids, node = [], self
        while node._tail is not None:
            ids.append(node._head.id)
            node = node._tail
        return tuple(ids)


def identity_pipeline(interface: Interface) -> AdaptationPipeline:
    """The empty chain at an interface; applying it is the identity. It is
    the root of a fresh interface index and adaptation table (see
    AdaptationPipeline)."""
    index = {interface.id: 0}
    return AdaptationPipeline(interface, interface, None, None, index, 1, {}, {})


def prepend(adapter: Adapter, pipeline: AdaptationPipeline) -> AdaptationPipeline:
    """Compose an adapter in front of a pipeline (pipeline after adapter).

    O(1): the new pipeline links to ``pipeline``, and the cycle test and
    its mask are one index lookup and one bit operation each; the new
    source is indexed on first sight.
    """
    if adapter.target.id != pipeline.source.id:
        raise EndpointMismatch(
            "adapter {!r} targets {!r}, pipeline starts at {!r}",
            adapter.id, adapter.target.id, pipeline.source.id,
        )
    index = pipeline._index
    bit = index.setdefault(adapter.source.id, len(index))
    if pipeline._mask >> bit & 1:
        raise CycleDetected(
            "prepending adapter {!r} revisits interface {!r}",
            adapter.id, adapter.source.id,
        )
    return AdaptationPipeline(
        adapter.source, pipeline.target, adapter, pipeline, index,
        pipeline._mask | 1 << bit, pipeline._table, {},
    )


def apply_pipeline(
    pipeline: AdaptationPipeline, p: AvailabilityVector
) -> AvailabilityVector:
    """Adapt p through the pipeline (see :func:`_fold`); the empty chain
    returns p. The searches call ``_fold`` directly, so each call here is
    one evaluation, which the benchmark's tracer counts."""
    return _fold(pipeline, p)


def _adapt(
    root: AdaptationPipeline, adapter: Adapter, p: AvailabilityVector
) -> AvailabilityVector:
    """``apply_adaptation(adapter, p)`` through the table ``root`` shares
    with its search (which passes its identity at the target), calling it
    only for a pair the table has not seen. The key is the adapter's
    identity and p; the entry also holds the adapter, so no other adapter
    (one with the same id string included) can take its identity while
    the table lives."""
    table, key = root._table, (id(adapter), p)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = adapter, apply_adaptation(adapter, p)
    return entry[1]


def _fold(pipeline: AdaptationPipeline, p: AvailabilityVector) -> AvailabilityVector:
    """The one fold: adapt p along the chain one adapter at a time through
    the search's table, stopping at the first suffix whose memo holds the
    vector in hand. Only the pipeline it was called on remembers the
    result. Greedy scores each pipeline it pushes, so scoring ``a·P``
    costs one table step and a memo hit on ``P`` whenever ``a`` loses
    nothing. It refuses, before any step, a p that does not fit the
    pipeline's source (``model._check_vector``)."""
    _check_vector(pipeline.source, p)
    node, q = pipeline, p
    while node._tail is not None:
        hit = node._memo.get(q)
        if hit is not None:
            q = hit
            break
        q = _adapt(pipeline, node._head, q)
        node = node._tail
    if node is not pipeline:
        pipeline._memo[p] = q
    return q


def function_sizes(adapter: Adapter) -> tuple[int, int]:
    """Exact element counts of the adapter's two function representations.

    Returns (product of the lifted domain sizes d_i, product of 2**d_i)
    over the source interface: the dependency-function and raw
    adaptation-function sizes. Exact integers, no overflow.
    """
    sizes = [d.size for d in adapter.source.domains]
    return prod(sizes), prod(2**d for d in sizes)


class TabulatedAdaptation(namedtuple("TabulatedAdaptation", "rows size")):
    """A fully materialized adaptation function.

    ``rows`` is keyed by bot-normalized source vectors, of which there are
    the product of 2**(d_i - 1); ``size`` reports the raw count (product of
    2**d_i) of subsets that collapse onto those keys under bot injection.
    Keys run in ``itertools.product`` order over each method's subsets
    (by count of values, then in ``itertools.combinations`` order). Rows
    follow the split law (see the module docstring), and equal rows are
    one shared vector, so a table holds only as many result vectors as it
    has distinct results (99 of 4,096 rows for the wide-interface
    benchmark's ``N0`` at seed 1).
    """

    __slots__ = ()


def tabulation_cap() -> int:
    """The one work cap, ADAPTCHAIN_TABULATE_CAP or 2**20: it bounds an
    adaptation table's raw size, the values and the total draws of one
    ``gen`` run, the partial chains each chain walk extends (per source for
    the oracle) and those greedy pushes."""
    raw = os.environ.get(TABULATE_CAP_ENV)
    if raw is None:
        return DEFAULT_TABULATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InvalidParams(
            "{} must be a positive integer, got {!r}", TABULATE_CAP_ENV, raw
        )
    return cap


def tabulate_adaptation(adapter: Adapter) -> TabulatedAdaptation:
    """Materialize the adapter's full adaptation table.

    Refused with CapExceeded, before any row is built, when the raw size
    (product of 2**d_i) exceeds ``tabulation_cap()``. Every row agrees with
    apply_adaptation on its key. Only atom rows call it, so tabulating
    costs prod(2 * d_i - 1) lookups; each other row is the union of two
    earlier ones, done a block at a time along the first axis whose subset
    is not an atom, memoized by the identity of its two operands.
    """
    cap = tabulation_cap()
    _, raw_size = function_sizes(adapter)
    if raw_size > cap:
        raise CapExceeded(
            "adaptation table for adapter {!r} would have {} elements, "
            "exceeding the cap of {}", adapter.id, raw_size, cap,
        )
    subsets, splits = zip(*map(_subsets, adapter.source.methods))
    source_id, target_id = adapter.source.id, adapter.target.id
    keys = [AvailabilityVector(source_id, c) for c in itertools.product(*subsets)]
    results: list = [None] * len(keys)
    shared: dict[tuple[frozenset[str], ...], AvailabilityVector] = {}
    unions: dict[tuple[int, int], AvailabilityVector] = {}

    def union(x: AvailabilityVector, y: AvailabilityVector) -> AvailabilityVector:
        # Every operand stays alive in ``results``, so ids are never reused.
        pair = id(x), id(y)
        z = unions.get(pair)
        if z is None:
            c = tuple(map(frozenset.union, x.components, y.components))
            z = unions[pair] = shared.setdefault(c, AvailabilityVector(target_id, c))
        return z

    def fill(axis: int, base: int, stride: int) -> None:
        """The rows from ``base`` whose earlier axes hold atoms; subset j
        of ``axis`` starts ``j * stride`` rows in (stride 1 on the last)."""
        for j, split in enumerate(splits[axis]):
            at = base + j * stride
            if split is None:
                if stride > 1:
                    fill(axis + 1, at, stride // len(splits[axis + 1]))
                else:
                    p = apply_adaptation(adapter, keys[at])
                    results[at] = shared.setdefault(p.components, p)
                continue
            a, b = base + split[0] * stride, base + split[1] * stride
            if stride > 1:
                results[at:at + stride] = map(
                    union, results[a:a + stride], results[b:b + stride]
                )
            else:  # one row: slicing costs more than the union on tiny tables
                results[at] = union(results[a], results[b])

    fill(0, 0, len(keys) // len(splits[0]))
    return TabulatedAdaptation(dict(zip(keys, results)), raw_size)

