"""Interfaces, abstract argument domains, adapters, and the adapter graph.

Every method argument is abstracted into a finite set of named values plus
the distinguished bottom value ``"bot"``, meaning "no argument handleable".
Bottom is implicit everywhere: callers never need to write it, and every
constructor injects it into domains, output sets, and availability vectors.

An adapter stores its abstract dependency function once, in the dict
``Adapter.table``; lookup and serialization both read that table.

All values here are immutable after construction (their dicts are never
written once built); concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    DuplicateAbstractValue,
    DuplicateId,
    DuplicateInput,
    DuplicateMethodName,
    EmptyDomain,
    InterfaceMismatch,
    UnknownInterface,
    UnknownValue,
    brief,
)

BOT = "bot"
_BOT_SET = frozenset((BOT,))


@dataclass(frozen=True)
class AbstractDomain:
    """A method's lifted abstract argument domain.

    ``values`` is canonically ordered: "bot" first, then the remaining
    names lexicographically. Size is therefore always >= 2.
    """

    values: tuple[str, ...]

    @classmethod
    def from_names(cls, names: Iterable[str], *, context: str = "") -> AbstractDomain:
        """Lift a collection of non-bottom value names into a domain.

        "bot" may appear in ``names``; it is treated as the implied bottom.
        """
        seen: set[str] = set()
        for name in names:
            if not isinstance(name, str):
                raise UnknownValue(
                    f"abstract value {brief(name)} is not a string{context}"
                )
            if name in seen:
                raise DuplicateAbstractValue(
                    f"duplicate abstract value {brief(name)}{context}"
                )
            seen.add(name)
        non_bottom = sorted(seen - {BOT})
        if not non_bottom:
            raise EmptyDomain(f"domain has no non-bottom values{context}")
        return cls((BOT, *non_bottom))

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def non_bottom(self) -> tuple[str, ...]:
        return self.values[1:]

    def __contains__(self, name: object) -> bool:
        return name in self.values


@dataclass(frozen=True)
class MethodSpec:
    name: str
    domain: AbstractDomain


@dataclass(frozen=True)
class Interface:
    """A named interface with an ordered list of single-argument methods.

    Method order is fixed at construction and defines the component order
    of every tuple and vector over this interface.
    """

    id: str
    methods: tuple[MethodSpec, ...]

    @property
    def arity(self) -> int:
        return len(self.methods)

    @property
    def method_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.methods)

    @property
    def domains(self) -> tuple[AbstractDomain, ...]:
        return tuple(m.domain for m in self.methods)

    @cached_property
    def _full(self) -> AvailabilityVector:
        return AvailabilityVector(
            self.id, tuple(frozenset(m.domain.values) for m in self.methods)
        )


@dataclass(frozen=True)
class AvailabilityVector:
    """What each method of an interface can currently handle.

    One set per method, in method order; every component contains "bot"
    and is a subset of the method's domain.
    """

    interface_id: str
    components: tuple[frozenset[str], ...]

    def canonical(self) -> tuple[tuple[str, ...], ...]:
        """Components as ordered tuples: bot first, then lexicographic."""
        return tuple(
            (BOT, *sorted(c - {BOT})) for c in self.components
        )


def build_interface(
    id: str, methods: Sequence[tuple[str, Sequence[str]]]
) -> Interface:
    """Declare an interface from (method name, non-bottom value names) pairs.

    Domains are lifted: "bot" is injected and canonical order applied.
    """
    if not id:
        raise EmptyDomain("interface id must be nonempty")
    quoted = brief(id)
    if not methods:
        raise EmptyDomain(f"interface {quoted} must declare at least one method")
    specs: list[MethodSpec] = []
    names_seen: set[str] = set()
    for name, values in methods:
        if name in names_seen:
            raise DuplicateMethodName(
                f"interface {quoted} declares method {brief(name)} twice"
            )
        names_seen.add(name)
        domain = AbstractDomain.from_names(
            values, context=f" in method {brief(name)} of interface {quoted}"
        )
        specs.append(MethodSpec(name, domain))
    return Interface(id, tuple(specs))


def full_vector(interface: Interface) -> AvailabilityVector:
    """The full-capability vector: every component is the whole lifted
    domain. Built once per interface and shared."""
    return interface._full


def bottom_vector(interface: Interface) -> AvailabilityVector:
    """The all-{bot} vector: no method can handle anything."""
    return AvailabilityVector(interface.id, (_BOT_SET,) * interface.arity)


def normalize_vector(
    interface: Interface, sets: Sequence[Iterable[str]]
) -> AvailabilityVector:
    """Validate per-method value sets and lift them into a vector.

    "bot" is injected into every component; normalization is idempotent.
    """
    return AvailabilityVector(interface.id, _lift_sets(interface, sets))


def _lift_sets(
    interface: Interface,
    sets: Sequence[Iterable[str]],
    adapter_id: str | None = None,
    entry: tuple | None = None,
) -> tuple[frozenset[str], ...]:
    """Validate one collection of value names per method and inject "bot"
    into each. Errors name the adapter and entry (None: its default output)
    if given; types are only inspected once something has failed."""
    try:
        arity_ok = len(sets) == interface.arity
    except TypeError:
        arity_ok = False
    if not arity_ok:
        raise ArityMismatch(
            f"{_where(adapter_id, entry)}interface {brief(interface.id)} has "
            f"{interface.arity} methods, got {brief(sets)}"
        )
    components: list[frozenset[str]] = []
    for method, values in zip(interface.methods, sets):
        try:
            if isinstance(values, (str, dict)):
                raise TypeError
            values = frozenset(values) | _BOT_SET
        except TypeError:
            raise UnknownValue(
                f"{_where(adapter_id, entry)}method {brief(method.name)} of "
                f"interface {brief(interface.id)} needs a list of value names, "
                f"got {brief(values)}"
            ) from None
        unknown = values.difference(method.domain.values)
        if unknown:
            raise UnknownValue(
                f"{_where(adapter_id, entry)}value {brief(min(unknown, key=repr))} "
                f"is not in the domain of method {brief(method.name)} of "
                f"interface {brief(interface.id)}"
            )
        components.append(values)
    return tuple(components)


def _where(adapter_id: str | None, entry: tuple | None) -> str:
    if adapter_id is None:
        return ""
    what = "default output" if entry is None else f"entry {brief(entry)} output"
    return f"adapter {brief(adapter_id)}: {what}: "


@dataclass(frozen=True)
class Adapter:
    """A lossy interface adapter with a total abstract dependency function.

    ``table`` holds the listed rows once: it maps each input tuple (one
    abstract value per source method) to its output sets (one per target
    method, each containing "bot"), in canonical input order. Any unlisted
    input tuple maps to ``default_output`` (canonically the all-{bot}
    tuple), so lookup is total over the product of the source domains.
    The table takes part in equality but not in the hash.
    """

    id: str
    source: Interface
    target: Interface
    table: Mapping[tuple[str, ...], tuple[frozenset[str], ...]] = field(hash=False)
    default_output: tuple[frozenset[str], ...]

    def lookup(self, input: tuple[str, ...]) -> tuple[frozenset[str], ...]:
        """The dependency function: total over all source input tuples."""
        return self.table.get(input, self.default_output)


def build_adapter(
    id: str,
    source: Interface,
    target: Interface,
    entries: Iterable[tuple[Sequence[str], Sequence[Iterable[str]]]],
    default_output: Sequence[Iterable[str]] | None = None,
) -> Adapter:
    """Declare an adapter from (input tuple, output sets) dependency rows.

    The rows become the adapter's one table, sorted by input tuple whatever
    order they arrive in. The induced function is total: unlisted inputs
    map to ``default_output`` (all-{bot} when omitted). "bot" is injected
    into every output set.
    """
    if default_output is None:
        default = (_BOT_SET,) * target.arity
    else:
        default = _lift_sets(target, default_output, id)

    table: dict[tuple[str, ...], tuple[frozenset[str], ...]] = {}
    for input_values, output in entries:
        if len(input_values) != source.arity:
            raise ArityMismatch(
                f"adapter {brief(id)}: input tuple {brief(tuple(input_values))} "
                f"has {len(input_values)} components, source {brief(source.id)} "
                f"has {source.arity} methods"
            )
        input = tuple(input_values)
        for method, value in zip(source.methods, input):
            if value not in method.domain:
                raise UnknownValue(
                    f"adapter {brief(id)}: input value {brief(value)} is not in "
                    f"the domain of method {brief(method.name)} of interface "
                    f"{brief(source.id)}"
                )
        if input in table:
            raise DuplicateInput(
                f"adapter {brief(id)}: duplicate entry for input {brief(input)}"
            )
        table[input] = _lift_sets(target, output, id, input)
    return Adapter(id, source, target, dict(sorted(table.items())), default)


@dataclass(frozen=True)
class AdapterGraph:
    """Directed multigraph: interfaces are nodes, adapters are edges.

    Adjacency is indexed once at construction; ``outgoing`` and
    ``incoming`` list adapters in declaration order.
    """

    interfaces: Mapping[str, Interface]
    adapters: Mapping[str, Adapter]
    _outgoing: Mapping[str, tuple[Adapter, ...]] = field(
        compare=False, repr=False, default_factory=dict
    )
    _incoming: Mapping[str, tuple[Adapter, ...]] = field(
        compare=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        outgoing: dict[str, list[Adapter]] = {}
        incoming: dict[str, list[Adapter]] = {}
        for a in self.adapters.values():
            outgoing.setdefault(a.source.id, []).append(a)
            incoming.setdefault(a.target.id, []).append(a)
        object.__setattr__(
            self, "_outgoing", {k: tuple(v) for k, v in outgoing.items()}
        )
        object.__setattr__(
            self, "_incoming", {k: tuple(v) for k, v in incoming.items()}
        )

    def outgoing(self, interface_id: str) -> list[Adapter]:
        return list(self._outgoing.get(interface_id, ()))

    def incoming(self, interface_id: str) -> list[Adapter]:
        return list(self._incoming.get(interface_id, ()))

    def require_interface(self, interface_id: str) -> Interface:
        try:
            return self.interfaces[interface_id]
        except KeyError:
            raise UnknownInterface(
                f"interface {brief(interface_id)} is not declared in the graph"
            ) from None


def build_graph(
    interfaces: Iterable[Interface], adapters: Iterable[Adapter]
) -> AdapterGraph:
    """Assemble and validate an adapter graph.

    Adapter endpoints must resolve to declared interfaces and agree with
    the declarations exactly; mismatched domains are rejected, not merged.
    """
    interface_map: dict[str, Interface] = {}
    for interface in interfaces:
        if interface.id in interface_map:
            raise DuplicateId(f"interface {brief(interface.id)} declared twice")
        interface_map[interface.id] = interface
    adapter_map: dict[str, Adapter] = {}
    for adapter in adapters:
        if adapter.id in adapter_map:
            raise DuplicateId(f"adapter {brief(adapter.id)} declared twice")
        for endpoint in (adapter.source, adapter.target):
            declared = interface_map.get(endpoint.id)
            if declared is None:
                raise UnknownInterface(
                    f"adapter {brief(adapter.id)} references undeclared "
                    f"interface {brief(endpoint.id)}"
                )
            if declared != endpoint:
                raise InterfaceMismatch(
                    f"adapter {brief(adapter.id)} disagrees with the "
                    f"declaration of interface {brief(endpoint.id)}"
                )
        adapter_map[adapter.id] = adapter
    return AdapterGraph(interface_map, adapter_map)
