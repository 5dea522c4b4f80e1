"""Interfaces, abstract argument domains, adapters, and the adapter graph.

Every method argument is abstracted into a finite set of named values plus
the distinguished bottom value ``"bot"``, meaning "no argument handleable".
Bottom is implicit everywhere: callers never need to write it, and every
constructor injects it into domains, output sets, and availability vectors.

An adapter stores its abstract dependency function once, in the dict
``Adapter.table``, whose rows keep the order they were given in; lookup
reads that table, and serialization orders its rows.

All values here are immutable after construction (no field can be
assigned; what a value keeps beside its fields, such as a domain's member
set or a graph's adjacency cached on first use by a
``functools.cached_property``, is the same whichever reader computes
it); concurrent readers are safe. Equal values may be one object: a
parse (``document``) gives interfaces that declare the same method list
one ``methods`` tuple, and adapters with equal entries between endpoints
holding the same two tuples one table, a plain ``dict`` that must not be
written (``Adapter``); a ``generator`` run gives equal drawn output sets
one ``frozenset``. The records whose constructor checks or completes
them take ``_make`` from one base, ``_Checked``, so their ``_make`` and
``_replace`` go through it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import attrgetter

from .errors import (
    ArityMismatch,
    DuplicateAbstractValue,
    DuplicateId,
    DuplicateInput,
    DuplicateMethodName,
    EmptyDomain,
    InterfaceMismatch,
    InvalidParams,
    UnknownInterface,
    UnknownValue,
    ValidationError,
)

BOT = "bot"
_BOT_SET = frozenset((BOT,))
_members = attrgetter("domain._members")  # a method's value set


class _Checked:
    """Base of the records whose constructor checks or completes them
    (``AbstractDomain``, ``search.WeightMap``, ``generator.GenParams``):
    ``_make``, and ``_replace``, which calls it, go through the constructor
    instead of ``tuple.__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable) -> _Checked:
        return cls(*fields)


class AbstractDomain(_Checked, namedtuple("AbstractDomain", "values")):
    """A method's lifted abstract argument domain.

    ``values`` is canonically ordered: "bot" first, then the remaining
    names lexicographically. Size is therefore always >= 2. The same
    values are kept as a set, outside equality, hash and repr, so
    membership is one lookup.
    """

    def __init__(self, values: tuple[str, ...]) -> None:
        self._members = frozenset(values)

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def non_bottom(self) -> tuple[str, ...]:
        return self.values[1:]

    @cached_property
    def _subsets(self) -> tuple[tuple[frozenset[str], ...], tuple]:
        """Every subset that holds bot, by count of other values and then in
        ``itertools.combinations`` order, and each one's split: for two or
        more other values, the positions of the subset without its last
        value and of bot with that value alone, whose union it is; for an
        atom ({bot} or {bot, v}), None. Built on first use and shared."""
        position: dict[tuple[str, ...], int] = {}
        subsets, splits = [], []
        for r in range(self.size):
            for c in itertools.combinations(self.non_bottom, r):
                position[c] = len(subsets)
                subsets.append(frozenset((BOT, *c)))
                splits.append((position[c[:-1]], position[c[-1:]]) if r > 1 else None)
        return tuple(subsets), tuple(splits)

    def __contains__(self, name: object) -> bool:
        try:
            return name in self._members
        except TypeError:  # unhashable, so not a value name
            return False


class MethodSpec(namedtuple("MethodSpec", "name domain")):
    __slots__ = ()


class Interface(namedtuple("Interface", "id methods")):
    """A named interface with an ordered list of single-argument methods.

    Method order is fixed at construction and defines the component order
    of every tuple and vector over this interface.
    """

    @property
    def arity(self) -> int:
        return len(self.methods)

    @property
    def domains(self) -> tuple[AbstractDomain, ...]:
        return tuple(m.domain for m in self.methods)

    @cached_property
    def _full(self) -> AvailabilityVector:
        return AvailabilityVector(self.id, tuple(map(_members, self.methods)))


class AvailabilityVector(namedtuple("AvailabilityVector", "interface_id components")):
    """What each method of an interface can currently handle.

    One frozenset per method, in method order; every component contains
    "bot" and is a subset of the method's domain.
    """

    __slots__ = ()

    def canonical(self) -> tuple[tuple[str, ...], ...]:
        """Components as ordered tuples: bot first, then lexicographic."""
        return tuple(
            (BOT, *sorted(c - {BOT})) for c in self.components
        )


def build_interface(
    id: str, methods: Sequence[tuple[str, Sequence[str]]]
) -> Interface:
    """Declare an interface from (method name, non-bottom value names) pairs.

    Domains are lifted: "bot" is injected and canonical order applied. A
    value list may name "bot"; it is treated as the implied bottom.
    """
    if not isinstance(id, str):
        raise ValidationError("interface id {!r} is not a string", id)
    if not id:
        raise EmptyDomain("interface id must be nonempty")
    try:
        methods = iter(methods)
    except TypeError:
        raise ArityMismatch(
            "interface {!r}: methods {!r} are not a list of (name, values) "
            "pairs", id, methods,
        ) from None
    specs: list[MethodSpec] = []
    names_seen: set[str] = set()
    for method in methods:
        try:
            name, values = method
        except (TypeError, ValueError):  # not a pair
            raise ArityMismatch(
                "interface {!r}: method {!r} is not a (name, values) pair", id, method
            ) from None
        if not isinstance(name, str):
            raise ValidationError(
                "interface {!r}: method name {!r} is not a string", id, name
            )
        if name in names_seen:
            raise DuplicateMethodName(
                "interface {!r} declares method {!r} twice", id, name
            )
        names_seen.add(name)
        if isinstance(values, (str, dict)) or not isinstance(values, Iterable):
            raise UnknownValue(
                "domain {!r} is not a list of value names in method {!r} of "
                "interface {!r}", values, name, id,
            )
        seen: set[str] = set()
        for value in values:
            if not isinstance(value, str):
                raise UnknownValue(
                    "abstract value {!r} is not a string in method {!r} of "
                    "interface {!r}", value, name, id,
                )
            if value in seen:
                raise DuplicateAbstractValue(
                    "duplicate abstract value {!r} in method {!r} of interface "
                    "{!r}", value, name, id,
                )
            seen.add(value)
        seen.discard(BOT)
        if not seen:
            raise EmptyDomain(
                "domain has no non-bottom values in method {!r} of interface {!r}",
                name, id,
            )
        specs.append(MethodSpec(name, AbstractDomain((BOT, *sorted(seen)))))
    if not specs:
        raise EmptyDomain("interface {!r} must declare at least one method", id)
    return Interface(id, tuple(specs))


def full_vector(interface: Interface) -> AvailabilityVector:
    """The full-capability vector: every component is the whole lifted
    domain. Built once per interface and shared."""
    return interface._full


def _check_vector(interface: Interface, v: AvailabilityVector) -> None:
    """The one fit rule, which adaptation, the fold and scoring share: v is
    an AvailabilityVector over ``interface``, with one component per method."""
    if not isinstance(v, AvailabilityVector):
        raise InvalidParams("vector {!r} is not an AvailabilityVector", v)
    if v.interface_id != interface.id:
        raise InterfaceMismatch(
            "vector is over {!r}, expected one over {!r}", v.interface_id, interface.id
        )
    if len(v.components) != interface.arity:
        raise ArityMismatch(
            "vector over {!r} needs {} components", v.interface_id, interface.arity
        )


def normalize_vector(
    interface: Interface, sets: Sequence[Iterable[str]]
) -> AvailabilityVector:
    """Validate per-method value sets and lift them into a vector.

    "bot" is injected into every component; normalization is idempotent.
    """
    return AvailabilityVector(interface.id, _lift_sets(interface, sets))


def _lift_sets(
    interface: Interface, sets: Sequence[Iterable[str]], where: tuple = ("",)
) -> tuple[frozenset[str], ...]:
    """Validate one collection of value names per method and inject "bot"
    into each. Errors begin with ``where``, a template fragment naming the
    adapter output checked, then its values (see ``errors``); types are
    only inspected once something has failed."""
    try:
        arity_ok = len(sets) == interface.arity
    except TypeError:
        arity_ok = False
    if not arity_ok:
        raise ArityMismatch(
            where[0] + "interface {!r} has {} methods, got {!r}",
            *where[1:], interface.id, interface.arity, sets,
        )
    components: list[frozenset[str]] = []
    for method, values in zip(interface.methods, sets):
        try:
            if isinstance(values, (str, dict)):
                raise TypeError
            values = frozenset(values) | _BOT_SET
        except TypeError:
            raise UnknownValue(
                where[0] + "method {!r} of interface {!r} needs a list of value "
                "names, got {!r}", *where[1:], method.name, interface.id, values,
            ) from None
        unknown = values - method.domain._members
        if unknown:
            raise UnknownValue(
                where[0] + "value {!r} is not in the domain of method {!r} of "
                "interface {!r}", *where[1:], min(unknown, key=repr),
                method.name, interface.id,
            )
        components.append(values)
    return tuple(components)


class _Sealed:
    """Base of the slotted values, ``Adapter`` and ``AdaptationPipeline``:
    each ``__init__`` writes every field once through its slot's own
    setter, kept in ``_set`` in ``__slots__`` order, and every later
    assignment is refused."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._set = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Adapter(_Sealed):
    """A lossy interface adapter with a total abstract dependency function.

    ``table`` holds the listed rows once: it maps each input tuple (one
    abstract value per source method) to its output sets (one per target
    method, each containing "bot"), in the order given; any unlisted input
    tuple maps to ``default_output`` (canonically all-{bot}), so lookup is
    total. The table takes part in equality but not in the hash. The
    fields are slots, which ``lookup`` reads faster than named-tuple fields.
    ``table`` is a plain ``dict`` but must not be written: a parse gives
    adapters with equal tables one ``dict``, so a write to one adapter's
    table changes the lookups of every adapter that shares it.
    """

    __slots__ = ("id", "source", "target", "table", "default_output")

    def __init__(
        self, id: str, source: Interface, target: Interface, table: dict,
        default_output: tuple[frozenset[str], ...],
    ) -> None:
        set_id, set_source, set_target, set_table, set_default = self._set
        set_id(self, id)
        set_source(self, source)
        set_target(self, target)
        set_table(self, table)
        set_default(self, default_output)

    def __eq__(self, other: object) -> bool:
        fields = attrgetter(*self.__slots__)
        return type(other) is Adapter and fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash((self.id, self.source, self.target, self.default_output))

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

    The rows become the adapter's one table, kept in the order they arrive
    in. The induced function is total: unlisted inputs map to
    ``default_output`` (all-{bot} when omitted). "bot" is injected into
    every output set.

    Each row is checked once, in order: that it is a pair with an iterable
    input (else ``ArityMismatch`` naming the row), its arity, each input
    value against its method's member set (read once per adapter), the
    duplicate test, then its output sets. An output set given as a list of
    target values is lifted in place; any other output goes to
    ``_lift_sets``, which words the fault or lifts the collection.

    It is the one row validator for documents and library callers. The
    generator builds ``Adapter`` directly, since the rows it draws come
    from the endpoints' own domains.
    """
    if not isinstance(id, str):
        raise ValidationError("adapter id {!r} is not a string", id)
    if not id:
        raise EmptyDomain("adapter id must be nonempty")
    inputs = tuple(map(_members, source.methods))
    outputs = tuple(map(_members, target.methods))
    n_in, n_out = len(inputs), len(outputs)
    if default_output is None:
        default = (_BOT_SET,) * n_out
    else:
        default = _lift_sets(
            target, default_output, ("adapter {!r}: default output: ", id)
        )
    try:
        entries = iter(entries)
    except TypeError:
        raise ArityMismatch(
            "adapter {!r}: entries {!r} are not a list of (input tuple, output "
            "sets) pairs", id, entries,
        ) from None
    table: dict[tuple[str, ...], tuple[frozenset[str], ...]] = {}
    for row in entries:
        try:
            input_values, output = row
            input = tuple(input_values)
        except (TypeError, ValueError):  # not a pair, or a non-iterable input
            raise ArityMismatch(
                "adapter {!r}: entry {!r} is not a pair of an input tuple and "
                "output sets", id, row,
            ) from None
        if len(input) != n_in:
            raise ArityMismatch(
                "adapter {!r}: input tuple {!r} has {} components, source {!r} "
                "has {} methods", id, input, len(input), source.id, n_in,
            )
        for i, members in enumerate(inputs):
            try:
                if input[i] in members:
                    continue
            except TypeError:  # unhashable, so not a value name
                pass
            raise UnknownValue(
                "adapter {!r}: input value {!r} is not in the domain of method "
                "{!r} of interface {!r}", id, input[i], source.methods[i].name,
                source.id,
            )
        if input in table:
            raise DuplicateInput(
                "adapter {!r}: duplicate entry for input {!r}", id, input
            )
        try:
            if len(output) == n_out:
                row = []
                for values, members in zip(output, outputs):
                    # A string "Z" would pass the subset test as {"Z"}.
                    if type(values) is not list:
                        break
                    lifted = frozenset(values) | _BOT_SET
                    if not lifted <= members:
                        break
                    row.append(lifted)
                else:
                    table[input] = tuple(row)
                    continue
        except TypeError:  # a length-less output or an unhashable value
            pass
        table[input] = _lift_sets(
            target, output, ("adapter {!r}: entry {!r} output: ", id, input)
        )
    return Adapter(id, source, target, table, default)


class AdapterGraph(namedtuple("AdapterGraph", "interfaces adapters")):
    """Directed multigraph: interfaces are nodes, adapters are edges.

    Construction only validates. The first ``outgoing`` or ``incoming``
    call indexes both directions in one pass; every later call, from any
    search, returns the same tuple of adapters in declaration order.
    """

    @cached_property
    def _adjacency(self) -> tuple[dict[str, tuple[Adapter, ...]], ...]:
        """(outgoing, incoming): interface id -> adapters, in declaration order."""
        outgoing: dict[str, list[Adapter]] = {}
        incoming: dict[str, list[Adapter]] = {}
        for a in self.adapters.values():
            outgoing.setdefault(a.source.id, []).append(a)
            incoming.setdefault(a.target.id, []).append(a)
        return tuple(
            {id: tuple(adapters) for id, adapters in index.items()}
            for index in (outgoing, incoming)
        )

    def outgoing(self, interface_id: str) -> tuple[Adapter, ...]:
        return self._adjacency[0].get(interface_id, ())

    def incoming(self, interface_id: str) -> tuple[Adapter, ...]:
        return self._adjacency[1].get(interface_id, ())

    def require_interface(self, interface_id: str) -> Interface:
        try:
            return self.interfaces[interface_id]
        except (KeyError, TypeError):  # undeclared, or unhashable so no id
            raise UnknownInterface(
                "interface {!r} is not declared in the graph", interface_id
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
            raise DuplicateId("interface {!r} declared twice", interface.id)
        interface_map[interface.id] = interface
    adapter_map: dict[str, Adapter] = {}
    for adapter in adapters:
        if adapter.id in adapter_map:
            raise DuplicateId("adapter {!r} declared twice", adapter.id)
        for endpoint in (adapter.source, adapter.target):
            declared = interface_map.get(endpoint.id)
            if declared is None:
                raise UnknownInterface(
                    "adapter {!r} references undeclared interface {!r}",
                    adapter.id, endpoint.id,
                )
            if declared is not endpoint and declared != endpoint:
                raise InterfaceMismatch(
                    "adapter {!r} disagrees with the declaration of interface "
                    "{!r}", adapter.id, endpoint.id,
                )
        adapter_map[adapter.id] = adapter
    return AdapterGraph(interface_map, adapter_map)
