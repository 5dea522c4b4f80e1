"""Tuple algebra, adaptation application, pipeline composition, size formulas.

Adaptation lifts an adapter's dependency function to availability vectors:
the result is the componentwise union of the dependency outputs over every
input tuple in the Cartesian product of the argument vector's components.
:func:`apply_adaptation` looks up every tuple of that product once, but
takes the union only over the distinct outputs, which a sparse table keeps
few (its rows plus the default).
Pipelines stay intensional (a list of adapters evaluated lazily); the full
adaptation table is only materialized through :func:`tabulate_adaptation`,
which is guarded by a size cap because the table is exponential in the
number of source methods.

All functions here are pure over immutable values. The only state is two
caches that never change an answer: the result memo of
:func:`apply_memoized` and the interface index behind each pipeline's
visited-interface bitmask.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from math import prod
from typing import Mapping

from .errors import (
    CapExceeded,
    CycleDetected,
    EndpointMismatch,
    InterfaceMismatch,
    InvalidParams,
)
from .model import BOT, Adapter, AvailabilityVector, Interface

DEFAULT_TABULATE_CAP = 2**20
TABULATE_CAP_ENV = "ADAPTCHAIN_TABULATE_CAP"


def _check_same_interface(u: AvailabilityVector, v: AvailabilityVector) -> None:
    if u.interface_id != v.interface_id:
        raise InterfaceMismatch(
            "vectors belong to different interfaces: {!r} vs {!r}",
            u.interface_id, v.interface_id,
        )


def tuple_union(u: AvailabilityVector, v: AvailabilityVector) -> AvailabilityVector:
    """Componentwise union of two vectors over the same interface."""
    _check_same_interface(u, v)
    return AvailabilityVector(
        u.interface_id,
        tuple(a | b for a, b in zip(u.components, v.components)),
    )


def tuple_subset(u: AvailabilityVector, v: AvailabilityVector) -> bool:
    """True iff every component of u is a subset of v's."""
    _check_same_interface(u, v)
    return all(a <= b for a, b in zip(u.components, v.components))


def apply_adaptation(adapter: Adapter, p: AvailabilityVector) -> AvailabilityVector:
    """Adapt an availability vector through one adapter.

    Unions the dependency outputs over all tuples in the Cartesian product
    of p's components. Costs the product of the component sizes in lookups,
    but the union only touches the distinct outputs: each target component
    is built once, from its column of those outputs. ``frozenset(iterable)``
    sizes the set to its contents; ``frozenset().union(...)`` would keep a
    table about twice as large, which every memoized or tabulated vector
    would carry.
    """
    if p.interface_id != adapter.source.id:
        raise InterfaceMismatch(
            "vector is over {!r}, adapter {!r} expects source {!r}",
            p.interface_id, adapter.id, adapter.source.id,
        )
    outputs = set(map(adapter.lookup, itertools.product(*p.components)))
    return AvailabilityVector(
        adapter.target.id,
        tuple(
            frozenset(itertools.chain((BOT,), *column))
            for column in zip(*outputs)
        ),
    )


@dataclass(frozen=True, eq=False)
class AdaptationPipeline:
    """An acyclic chain of adapters usable as one adaptation function.

    A pipeline is a linked list: its first adapter (``_head``) feeds the
    pipeline it extends (``_tail``). The identity at ``source`` (=
    ``target``) has neither. Only :func:`identity_pipeline` and
    :func:`prepend` build pipelines, and prepending shares the tail rather
    than copying it, so a chain of length L costs O(L) to build and to
    hold. :attr:`adapters` and :attr:`chain` walk the links;
    :func:`apply_memoized` walks them too, one step at a time. No interface
    is visited twice. Pipelines compare by identity.

    Acyclicity costs O(1) per :func:`prepend`: every pipeline carries the
    interfaces it touches as one int bitmask (``_mask``) over an interface
    index (``_index``, interface id -> bit position). The identity creates
    the index and every pipeline prepended from it shares it, so the index
    only holds the interfaces one search touches. Like ``_memo``, it is a
    cache that never changes an answer. :meth:`visits` tests a bit;
    :attr:`visited` rebuilds the set from the chain and is kept for
    inspection only.
    """

    source: Interface
    target: Interface
    _head: Adapter | None = field(default=None, repr=False)
    _tail: AdaptationPipeline | None = field(default=None, repr=False)
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    _mask: int = field(default=0, repr=False)
    _memo: dict[AvailabilityVector, AvailabilityVector] = field(
        default_factory=dict, repr=False
    )

    @property
    def adapters(self) -> tuple[Adapter, ...]:
        """The adapters in application order. O(length)."""
        adapters = []
        node = self
        while node._tail is not None:
            adapters.append(node._head)
            node = node._tail
        return tuple(adapters)

    @property
    def chain(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.adapters)

    @property
    def visited(self) -> frozenset[str]:
        """Ids of every interface the chain touches, endpoints included.
        O(length); searches test single interfaces with :meth:`visits`."""
        return frozenset(
            [self.source.id, *[a.target.id for a in self.adapters]]
        )

    def visits(self, interface_id: str) -> bool:
        """Does the chain touch ``interface_id``? One bit test."""
        bit = self._index.get(interface_id)
        return bit is not None and bool(self._mask >> bit & 1)


def identity_pipeline(interface: Interface) -> AdaptationPipeline:
    """The empty chain at an interface; applying it is the identity. It is
    the root of a fresh interface index (see AdaptationPipeline)."""
    return AdaptationPipeline(interface, interface, _index={interface.id: 0}, _mask=1)


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
        pipeline._mask | 1 << bit,
    )


def _check_start(pipeline: AdaptationPipeline, p: AvailabilityVector) -> None:
    if p.interface_id != pipeline.source.id:
        raise InterfaceMismatch(
            "vector is over {!r}, pipeline starts at {!r}",
            p.interface_id, pipeline.source.id,
        )


def apply_pipeline(
    pipeline: AdaptationPipeline, p: AvailabilityVector
) -> AvailabilityVector:
    """Fold apply_adaptation along the chain; the empty chain returns p."""
    _check_start(pipeline, p)
    for adapter in pipeline.adapters:
        p = apply_adaptation(adapter, p)
    return p


def apply_memoized(
    pipeline: AdaptationPipeline, p: AvailabilityVector
) -> AvailabilityVector:
    """apply_pipeline, remembering each result in the pipeline it came from.

    Walks the chain one adapter at a time and stops at the first suffix
    that has already seen the vector in hand; every suffix passed on the
    way remembers the result. After a pipeline has been applied to full
    capability, a pipeline prepended to it costs one adaptation whenever
    the new first adapter loses nothing.
    """
    _check_start(pipeline, p)
    pending: list[tuple[AdaptationPipeline, AvailabilityVector]] = []
    node = pipeline
    while node._tail is not None:
        hit = node._memo.get(p)
        if hit is not None:
            p = hit
            break
        pending.append((node, p))
        p = apply_adaptation(node._head, p)
        node = node._tail
    for node, q in pending:
        node._memo[q] = p
    return p


def function_sizes(adapter: Adapter) -> tuple[int, int]:
    """Exact element counts of the adapter's two function representations.

    Returns (product of the lifted domain sizes d_i, product of 2**d_i)
    over the source interface: the dependency-function and raw
    adaptation-function sizes. Exact integers, no overflow.
    """
    sizes = [d.size for d in adapter.source.domains]
    return prod(sizes), prod(2**d for d in sizes)


@dataclass(frozen=True)
class TabulatedAdaptation:
    """A fully materialized adaptation function.

    ``rows`` is keyed by bot-normalized source vectors, of which there are
    the product of 2**(d_i - 1); ``size`` reports the raw count (product of
    2**d_i) of subsets that collapse onto those keys under bot injection.
    """

    adapter_id: str
    rows: Mapping[AvailabilityVector, AvailabilityVector]
    size: int

    def lookup(self, p: AvailabilityVector) -> AvailabilityVector:
        return self.rows[p]


def tabulation_cap() -> int:
    """The active tabulation cap; ADAPTCHAIN_TABULATE_CAP overrides it."""
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


def tabulate_adaptation(
    adapter: Adapter, cap: int | None = None
) -> TabulatedAdaptation:
    """Materialize the adapter's full adaptation table.

    Refused with CapExceeded when the raw size (product of 2**d_i) exceeds
    the cap. Every row agrees with apply_adaptation on its key.
    """
    if cap is None:
        cap = tabulation_cap()
    _, raw_size = function_sizes(adapter)
    if raw_size > cap:
        raise CapExceeded(
            "adaptation table for adapter {!r} would have {} elements, "
            "exceeding the cap of {}", adapter.id, raw_size, cap,
            required_size=raw_size,
            cap=cap,
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
    return TabulatedAdaptation(adapter.id, rows, raw_size)


__all__ = [
    "AdaptationPipeline",
    "TabulatedAdaptation",
    "apply_adaptation",
    "apply_memoized",
    "apply_pipeline",
    "function_sizes",
    "identity_pipeline",
    "prepend",
    "tabulate_adaptation",
    "tabulation_cap",
    "tuple_subset",
    "tuple_union",
    "DEFAULT_TABULATE_CAP",
    "TABULATE_CAP_ENV",
]
