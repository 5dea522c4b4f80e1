"""Tuple algebra, adaptation application, pipeline composition, size formulas.

Adaptation lifts an adapter's dependency function to availability vectors:
the result is the componentwise union of the dependency outputs over every
input tuple in the Cartesian product of the argument vector's components.
Pipelines stay intensional (a list of adapters evaluated lazily); the full
adaptation table is only materialized through :func:`tabulate_adaptation`,
which is guarded by a size cap because the table is exponential in the
number of source methods.

All functions here are pure over immutable values. The one piece of state
is the result memo of :func:`apply_memoized`, a cache that never changes
an answer.
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
            f"vectors belong to different interfaces: "
            f"{u.interface_id!r} vs {v.interface_id!r}"
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
    of p's components; costs the product of the component sizes in lookups.
    """
    if p.interface_id != adapter.source.id:
        raise InterfaceMismatch(
            f"vector is over {p.interface_id!r}, adapter {adapter.id!r} "
            f"expects source {adapter.source.id!r}"
        )
    result = [set((BOT,)) for _ in adapter.target.methods]
    for x in itertools.product(*p.components):
        for acc, out in zip(result, adapter.lookup(x)):
            acc |= out
    return AvailabilityVector(
        adapter.target.id, tuple(frozenset(c) for c in result)
    )


@dataclass(frozen=True)
class AdaptationPipeline:
    """An acyclic chain of adapters usable as one adaptation function.

    Adapters are listed in application order; an empty chain is the identity
    at ``source`` (= ``target``). No interface is visited twice. Only
    :func:`prepend` builds nonempty pipelines: each links to the pipeline
    it extends (its tail), and :func:`apply_memoized` walks those links.
    """

    adapters: tuple[Adapter, ...]
    source: Interface
    target: Interface
    _tail: AdaptationPipeline | None = field(
        default=None, compare=False, repr=False
    )
    _memo: dict[AvailabilityVector, AvailabilityVector] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def chain(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.adapters)

    @property
    def visited(self) -> frozenset[str]:
        """Ids of every interface the chain touches, endpoints included."""
        return frozenset(
            [self.source.id, *[a.target.id for a in self.adapters]]
        )


def identity_pipeline(interface: Interface) -> AdaptationPipeline:
    """The empty chain at an interface; applying it is the identity."""
    return AdaptationPipeline((), interface, interface)


def prepend(adapter: Adapter, pipeline: AdaptationPipeline) -> AdaptationPipeline:
    """Compose an adapter in front of a pipeline (pipeline after adapter)."""
    if adapter.target.id != pipeline.source.id:
        raise EndpointMismatch(
            f"adapter {adapter.id!r} targets {adapter.target.id!r}, "
            f"pipeline starts at {pipeline.source.id!r}"
        )
    if adapter.source.id in pipeline.visited:
        raise CycleDetected(
            f"prepending adapter {adapter.id!r} revisits interface "
            f"{adapter.source.id!r}"
        )
    return AdaptationPipeline(
        (adapter, *pipeline.adapters), adapter.source, pipeline.target, pipeline
    )


def apply_pipeline(
    pipeline: AdaptationPipeline, p: AvailabilityVector
) -> AvailabilityVector:
    """Fold apply_adaptation along the chain; the empty chain returns p."""
    if p.interface_id != pipeline.source.id:
        raise InterfaceMismatch(
            f"vector is over {p.interface_id!r}, pipeline starts at "
            f"{pipeline.source.id!r}"
        )
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
    if p.interface_id != pipeline.source.id:
        raise InterfaceMismatch(
            f"vector is over {p.interface_id!r}, pipeline starts at "
            f"{pipeline.source.id!r}"
        )
    pending: list[tuple[AdaptationPipeline, AvailabilityVector]] = []
    node = pipeline
    while node.adapters:
        hit = node._memo.get(p)
        if hit is not None:
            p = hit
            break
        pending.append((node, p))
        p = apply_adaptation(node.adapters[0], p)
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
            f"{TABULATE_CAP_ENV} must be a positive integer, got {raw!r}"
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
            f"adaptation table for adapter {adapter.id!r} would have "
            f"{raw_size} elements, exceeding the cap of {cap}",
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
