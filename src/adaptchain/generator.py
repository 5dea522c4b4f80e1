"""Seeded random adapter-graph instances for property tests and experiments.

Instances are structural stress tests only; no attempt is made to give the
generated interfaces realistic semantics.

Randomness comes from splitmix64 (Steele, Lea & Flood's 64-bit mixing
generator, as published in the reference sequence of Vigna's xoshiro page)
rather than a language-provided RNG, so the same parameters produce the
same instance in any implementation of this generator.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable
from math import prod

from .errors import CapExceeded, InvalidParams
from .model import (
    Adapter,
    AdapterGraph,
    Interface,
    build_adapter,
    build_graph,
    build_interface,
)
from .semantics import tabulation_cap

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state advances by the golden-gamma constant, output is
    the standard 3-round xor-shift-multiply mix of the new state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via modulo; bias is irrelevant for
        test-instance generation and the modulo form is trivially portable."""
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends inclusive."""
        return lo + self.below(hi - lo + 1)

    def chance(self, probability: float) -> bool:
        return self.next_u64() < probability * 2.0**64


class GenParams(namedtuple("GenParams", "interface_count methods_per_interface "
                           "values_per_method adapter_count entry_density seed")):
    """Shape parameters for a random instance; ranges are inclusive."""

    __slots__ = ()

    def __init__(self, *fields: object, **named: object) -> None:
        if self.interface_count < 1:
            raise InvalidParams("interface_count must be at least 1")
        if self.adapter_count < 0:
            raise InvalidParams("adapter_count must be nonnegative")
        for name, (lo, hi) in (
            ("methods_per_interface", self.methods_per_interface),
            ("values_per_method", self.values_per_method),
        ):
            if lo < 1 or hi < lo:
                raise InvalidParams("{} range {} is empty or below 1", name, (lo, hi))
        if not 0.0 <= self.entry_density <= 1.0:
            raise InvalidParams("entry_density must be within [0, 1]")

    @classmethod
    def _make(cls, fields: Iterable) -> GenParams:
        return cls(*fields)  # through __init__; _replace calls this too


def _random_interface(rng: SplitMix64, index: int, params: GenParams) -> Interface:
    method_count = rng.between(*params.methods_per_interface)
    methods = []
    for m in range(method_count):
        value_count = rng.between(*params.values_per_method)
        methods.append((f"m{m}", [f"v{k}" for k in range(value_count)]))
    return build_interface(f"I{index}", methods)


def _random_adapter(
    rng: SplitMix64,
    index: int,
    interfaces: list[Interface],
    params: GenParams,
    cap: int,
    drawn: int,
) -> tuple[Adapter, int]:
    """Draw adapter A<index> after ``drawn`` input tuples of earlier
    adapters; return it with the run's new total."""
    source = interfaces[rng.below(len(interfaces))]
    target = interfaces[rng.below(len(interfaces))]
    # One draw per input tuple: the run's total of dependency-function sizes
    # (the first of semantics.function_sizes) is bounded by the tabulation
    # cap, checked before this adapter draws any.
    domains = source.domains
    drawn += prod(d.size for d in domains)
    if drawn > cap:
        raise CapExceeded(
            "adapter A{} from {!r} would draw over {} input tuples, exceeding "
            "the cap of {}", index, source.id, drawn, cap,
        )
    pools = [d.non_bottom for d in target.domains]
    entries = []
    for input_tuple in itertools.product(*(d.values for d in domains)):
        if not rng.chance(params.entry_density):
            continue
        entries.append((input_tuple, [_subset(rng, pool) for pool in pools]))
    return build_adapter(f"A{index}", source, target, entries), drawn


def _subset(rng: SplitMix64, pool: tuple[str, ...]) -> list[str]:
    """A nonempty subset of ``pool`` in pool order: bit k of a mask in
    [1, 2**len(pool)) picks pool[k]. A draw is below 2**64, so for any
    wider pool the modulus 2**65 - 1 gives the same mask as
    2**len(pool) - 1, and the mask has at most 65 bits to visit."""
    mask = 1 + rng.below(2 ** min(len(pool), 65) - 1)
    return [pool[k] for k in range(mask.bit_length()) if mask >> k & 1]


def random_instance(params: GenParams) -> tuple[AdapterGraph, str, str]:
    """Generate a validated graph plus suggested (source, target) ids.

    Deterministic in the seed; the suggestions are distinct whenever the
    instance has at least two interfaces. The tabulation cap bounds the
    values the interfaces may declare (count x most methods x most values),
    checked first, and apart from that the run's draws: each adapter draws
    once per input tuple of its source, checked before it draws any.
    """
    rng = SplitMix64(params.seed)
    cap = tabulation_cap()
    methods, values = params.methods_per_interface[1], params.values_per_method[1]
    declared = params.interface_count * methods * values
    if declared > cap:
        raise CapExceeded(
            "{} interfaces x {} methods x {} values would declare {} abstract "
            "values, exceeding the cap of {}", params.interface_count, methods,
            values, declared, cap,
        )
    interfaces = [
        _random_interface(rng, i, params) for i in range(params.interface_count)
    ]
    adapters = []
    drawn = 0
    for j in range(params.adapter_count):
        adapter, drawn = _random_adapter(rng, j, interfaces, params, cap, drawn)
        adapters.append(adapter)
    graph = build_graph(interfaces, adapters)
    source = interfaces[0].id
    target = interfaces[-1].id
    return graph, source, target
