"""The generator and the document writer as they were before each interface
shape was built once and the writer filled templates, kept as test oracles
for the code that replaced them.

``reference_random_instance`` draws one value at a time through its own
``SplitMix64``, which adds ``below`` and ``between`` to the generator's
(``chance`` compares a draw against ``probability * 2**64``), builds every
interface through ``build_interface`` and every adapter through
``build_adapter``, which checks each drawn row. It leaves out the
generator's cap checks, which refuse a run before it draws and so never
change a document. ``reference_serialize_graph`` lays out every object of
the document through ``_object`` and ``_array``, rendering each value list
where it occurs.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as _encode

from adaptchain.document import FORMAT_VERSION
from adaptchain import generator
from adaptchain.generator import GenParams
from adaptchain.model import (
    BOT,
    Adapter,
    AdapterGraph,
    Interface,
    build_adapter,
    build_graph,
    build_interface,
)

_BOT_SET = frozenset((BOT,))


class SplitMix64(generator.SplitMix64):
    """The generator's splitmix64 with the bounded draws the tests use."""

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via modulo; bias is irrelevant for
        test-instance generation and the modulo form is trivially portable."""
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both ends inclusive."""
        return lo + self.below(hi - lo + 1)


def _chance(rng: SplitMix64, probability: float) -> bool:
    return rng.next_u64() < probability * 2.0**64


def _random_interface(rng: SplitMix64, index: int, params: GenParams) -> Interface:
    method_count = rng.between(*params.methods_per_interface)
    methods = []
    for m in range(method_count):
        value_count = rng.between(*params.values_per_method)
        methods.append((f"m{m}", [f"v{k}" for k in range(value_count)]))
    return build_interface(f"I{index}", methods)


def _subset(rng: SplitMix64, pool: tuple[str, ...]) -> list[str]:
    mask = 1 + rng.below(2 ** min(len(pool), 65) - 1)
    return [pool[k] for k in range(mask.bit_length()) if mask >> k & 1]


def _random_adapter(
    rng: SplitMix64, index: int, source: Interface, target: Interface,
    density: float,
) -> Adapter:
    pools = [d.non_bottom for d in target.domains]
    entries = []
    for input_tuple in itertools.product(*(d.values for d in source.domains)):
        if not _chance(rng, density):
            continue
        entries.append((input_tuple, [_subset(rng, pool) for pool in pools]))
    return build_adapter(f"A{index}", source, target, entries)


def reference_random_instance(params: GenParams) -> tuple[AdapterGraph, str, str]:
    rng = SplitMix64(params.seed)
    interfaces = [
        _random_interface(rng, i, params) for i in range(params.interface_count)
    ]
    adapters = []
    for j in range(params.adapter_count):
        source = interfaces[rng.below(len(interfaces))]
        target = interfaces[rng.below(len(interfaces))]
        adapters.append(_random_adapter(rng, j, source, target, params.entry_density))
    return build_graph(interfaces, adapters), interfaces[0].id, interfaces[-1].id


_BREAK = tuple("\n" + "  " * depth for depth in range(8))


def _array(items: list[str], depth: int) -> str:
    if not items:
        return "[]"
    pad = _BREAK[depth + 1]
    return "[" + pad + ("," + pad).join(items) + _BREAK[depth] + "]"


def _object(fields: dict[str, str], depth: int) -> str:
    pad = _BREAK[depth + 1]
    body = ("," + pad).join([f'"{key}": {value}' for key, value in fields.items()])
    return "{" + pad + body + _BREAK[depth] + "}"


def _strings(values, depth: int) -> str:
    return _array([_encode(v) for v in values], depth)


def _sets(sets, depth: int) -> str:
    return _array([_strings(sorted(s - _BOT_SET), depth + 1) for s in sets], depth)


def _interface_text(interface: Interface) -> str:
    methods = [
        _object({
            "name": _encode(m.name), "values": _strings(m.domain.non_bottom, 5),
        }, 4)
        for m in interface.methods
    ]
    return _object({"id": _encode(interface.id), "methods": _array(methods, 3)}, 2)


def _adapter_text(adapter: Adapter) -> str:
    fields = {
        "id": _encode(adapter.id),
        "source": _encode(adapter.source.id),
        "target": _encode(adapter.target.id),
    }
    if any(s != _BOT_SET for s in adapter.default_output):
        fields["default_output"] = _sets(adapter.default_output, 3)
    entries = [
        _object({"input": _strings(input, 5), "output": _sets(output, 5)}, 4)
        for input, output in sorted(adapter.table.items())
    ]
    fields["entries"] = _array(entries, 3)
    return _object(fields, 2)


def reference_serialize_graph(graph: AdapterGraph) -> str:
    interfaces = [_interface_text(graph.interfaces[i]) for i in sorted(graph.interfaces)]
    adapters = [_adapter_text(graph.adapters[a]) for a in sorted(graph.adapters)]
    return _object({
        "version": _encode(FORMAT_VERSION),
        "interfaces": _array(interfaces, 1),
        "adapters": _array(adapters, 1),
    }, 0) + "\n"
