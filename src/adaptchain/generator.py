"""Seeded random adapter-graph instances for property tests and experiments.

Instances are structural stress tests only; no attempt is made to give the
generated interfaces realistic semantics.

``random_instance`` draws each adapter's endpoints and holds both checks
against the tabulation cap; every draw of a run goes through one bound
``SplitMix64.next_u64``. ``_random_adapter`` fills the adapter's table
with the rows it draws and builds the ``Adapter`` itself: the rows come
from the endpoints' own domains, so ``build_adapter``'s row checks could
not fail, and ``build_graph`` still checks the graph. Within a run, each
(pool, mask) subset draw builds its output set once (``_subset_draw``),
so equal output sets are one object, as a parse shares equal values.
An interface's shape is its value count per method. The first interface
of each shape is built through ``build_interface``, and every later one
shares its methods, and so its domains, as a parse shares them.

Randomness comes from splitmix64 (Steele, Lea & Flood's 64-bit mixing
generator, as published in the reference sequence of Vigna's xoshiro page)
rather than a language-provided RNG, so the same parameters produce the
same instance in any implementation of this generator.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable
from math import prod
from operator import attrgetter

from .errors import CapExceeded, InvalidParams
from .model import (
    _BOT_SET,
    BOT,
    Adapter,
    AdapterGraph,
    Interface,
    _Checked,
    build_graph,
    build_interface,
)
from .semantics import tabulation_cap

_MASK = (1 << 64) - 1
_values = attrgetter("domain.values")  # a method's lifted values
_pool = attrgetter("domain.non_bottom")  # the values a subset draws from


class SplitMix64:
    """splitmix64: state advances by the golden-gamma constant, output is
    the standard 3-round xor-shift-multiply mix of the new state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


class GenParams(_Checked, namedtuple(
    "GenParams", "interface_count methods_per_interface values_per_method "
    "adapter_count entry_density seed",
)):
    """Shape parameters for a random instance; ranges are inclusive."""

    __slots__ = ()

    def __init__(self, *fields: object, **named: object) -> None:
        for name in ("interface_count", "adapter_count", "seed"):
            if not isinstance(getattr(self, name), int):
                raise InvalidParams(
                    "{} must be an integer, got {!r}", name, getattr(self, name)
                )
        if self.interface_count < 1:
            raise InvalidParams("interface_count must be at least 1")
        if self.adapter_count < 0:
            raise InvalidParams("adapter_count must be nonnegative")
        for name in ("methods_per_interface", "values_per_method"):
            bounds = getattr(self, name)
            if not (
                isinstance(bounds, (tuple, list)) and len(bounds) == 2
                and all(isinstance(bound, int) for bound in bounds)
            ):
                raise InvalidParams(
                    "{} must be a pair of integers, got {!r}", name, bounds
                )
            lo, hi = bounds
            if lo < 1 or hi < lo:
                raise InvalidParams("{} range {} is empty or below 1", name, bounds)
        if not isinstance(self.entry_density, (int, float)):
            raise InvalidParams(
                "entry_density must be a number, got {!r}", self.entry_density
            )
        if not 0.0 <= self.entry_density <= 1.0:
            raise InvalidParams("entry_density must be within [0, 1]")


def _random_adapter(
    draw: Callable[[], int], subset: Callable[[tuple[str, ...]], frozenset[str]],
    index: int, source: Interface, target: Interface, threshold: float,
) -> Adapter:
    """Adapter A<index>: one ``draw()`` per input tuple of ``source``, which
    keeps the tuple when below ``threshold``, and for each kept tuple one
    ``subset`` per ``target`` method. Every row comes from the endpoints'
    own domains, so the table goes to ``Adapter`` as drawn."""
    pools = list(map(_pool, target.methods))
    table = {
        input_tuple: tuple(map(subset, pools))
        for input_tuple in itertools.product(*map(_values, source.methods))
        if draw() < threshold
    }
    return Adapter(f"A{index}", source, target, table, (_BOT_SET,) * len(pools))


def _subset_draw(
    draw: Callable[[], int],
) -> Callable[[tuple[str, ...]], frozenset[str]]:
    """A draw of a nonempty subset of a pool, as an output set with bot: bit
    k of a mask in [1, 2**len(pool)), taken from one ``draw()``, picks
    pool[k]. A draw is below 2**64, so for any wider pool the modulus
    2**65 - 1 gives the same mask as 2**len(pool) - 1, and the mask has at
    most 65 bits to visit. Each (pool, mask) is built once per draw
    function, so equal output sets are one object."""
    memo: dict[tuple[tuple[str, ...], int], frozenset[str]] = {}

    def subset(pool: tuple[str, ...]) -> frozenset[str]:
        mask = 1 + draw() % (2 ** min(len(pool), 65) - 1)
        found = memo.get((pool, mask))
        if found is None:
            found = memo[pool, mask] = frozenset((BOT, *[
                pool[k] for k in range(mask.bit_length()) if mask >> k & 1
            ]))
        return found

    return subset


def random_instance(params: GenParams) -> tuple[AdapterGraph, str, str]:
    """Generate a validated graph plus suggested (source, target) ids.

    Deterministic in the seed; the suggestions are distinct whenever the
    instance has at least two interfaces. The tabulation cap bounds the
    values the interfaces may declare (count x most methods x most values),
    checked first, and apart from that the run's draws: each adapter draws
    once per input tuple of its source, checked before it draws any.
    """
    draw = SplitMix64(params.seed).next_u64
    cap = tabulation_cap()
    methods, values = params.methods_per_interface[1], params.values_per_method[1]
    declared = params.interface_count * methods * values
    if declared > cap:
        raise CapExceeded(
            "{} interfaces x {} methods x {} values would declare {} abstract "
            "values, exceeding the cap of {}", params.interface_count, methods,
            values, declared, cap,
        )
    (m_lo, m_hi), (v_lo, v_hi) = params.methods_per_interface, params.values_per_method
    m_span, v_span = m_hi - m_lo + 1, v_hi - v_lo + 1
    shapes: dict[tuple[int, ...], Interface] = {}  # value counts -> first interface
    interfaces = []
    for i in range(params.interface_count):
        shape = tuple(
            v_lo + draw() % v_span for _ in range(m_lo + draw() % m_span)
        )
        first = shapes.get(shape)
        if first is None:
            first = shapes[shape] = build_interface(f"I{i}", [
                (f"m{m}", [f"v{k}" for k in range(n)]) for m, n in enumerate(shape)
            ])
            interfaces.append(first)
        else:
            interfaces.append(Interface(f"I{i}", first.methods))
    subset, threshold = _subset_draw(draw), params.entry_density * 2.0**64
    adapters = []
    drawn = 0  # input tuples drawn by the run: its dependency-function sizes
    for j in range(params.adapter_count):
        source = interfaces[draw() % len(interfaces)]
        target = interfaces[draw() % len(interfaces)]
        drawn += prod(map(len, map(_values, source.methods)))
        if drawn > cap:
            raise CapExceeded(
                "adapter A{} from {!r} would draw over {} input tuples, "
                "exceeding the cap of {}", j, source.id, drawn, cap,
            )
        adapters.append(_random_adapter(draw, subset, j, source, target, threshold))
    return build_graph(interfaces, adapters), interfaces[0].id, interfaces[-1].id
