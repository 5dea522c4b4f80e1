"""The library's adaptation against the per-tuple accumulate loop it
replaced (``search_reference.apply_adaptation``): same answers, same
lookups, and components no larger than a freshly built frozenset. The
library's tabulation against the per-row loop it replaced
(``search_reference.tabulate_adaptation``): same keys in the same order,
same rows and size, one lookup per tuple of each atom row's product."""

from __future__ import annotations

import itertools
import sys
from math import prod

import pytest

import search_reference as ref
from adaptchain import (
    BOT,
    apply_adaptation,
    build_adapter,
    build_interface,
    full_vector,
    normalize_vector,
    tabulate_adaptation,
)
from adaptchain.errors import CapExceeded
from adaptchain.generator import GenParams, random_instance
from adaptchain.model import Adapter
from conftest import random_subvector
from generator_reference import SplitMix64


def _pick(rng: SplitMix64, values, k: int) -> list[str]:
    return sorted(values, key=lambda _: rng.next_u64())[:k]


def wide_adapter(seed: int, entries: int = 200, shape=(6, 5)) -> Adapter:
    """An adapter shaped like the benchmark's wide interface: a source of
    ``shape`` (methods, values), a target of 6 methods of 5 values, and
    ``entries`` sparse rows. Each target method draws 1-2 values from its
    own 3-value pool, and the default keeps the pool's first value, so
    adapted components hold 2-4 values. ``shape=(4, 3)`` with 40 entries is
    the benchmark's tabulated ``N0``."""
    rng = SplitMix64(seed)
    values = [f"v{k}" for k in range(5)]
    methods = [(f"m{i}", values) for i in range(6)]
    source = build_interface("S", [(f"m{i}", values[:shape[1]]) for i in range(shape[0])])
    target = build_interface("T", methods)
    pools = [_pick(rng, values, 3) for _ in methods]
    lifted = [BOT, *values[:shape[1]]]
    inputs: set[tuple[str, ...]] = set()
    while len(inputs) < entries:
        inputs.add(tuple(lifted[rng.below(len(lifted))] for _ in source.methods))
    rows = [
        (x, [_pick(rng, pool, 1 + rng.below(2)) for pool in pools])
        for x in sorted(inputs)
    ]
    return build_adapter("W", source, target, rows, [pool[:1] for pool in pools])


def vectors(rng: SplitMix64, adapter: Adapter, count: int):
    """The full and the all-{bot} vector, then ``count`` random ones."""
    yield full_vector(adapter.source)
    yield ref.bottom_vector(adapter.source)
    for _ in range(count):
        yield random_subvector(rng, adapter.source)


def narrow_adapter(seed: int) -> Adapter:
    return wide_adapter(seed, entries=40, shape=(4, 3))


def same_as_reference(adapter: Adapter, p) -> None:
    assert apply_adaptation(adapter, p) == ref.apply_adaptation(adapter, p)


def same_table_as_reference(adapter: Adapter):
    """Equal keys in equal order, equal rows and size; the table."""
    table, want = tabulate_adaptation(adapter), ref.tabulate_adaptation(adapter)
    assert list(table.rows.items()) == list(want.rows.items())
    assert table.size == want.size
    return table


def seeded_adapters(count: int):
    """Adapters of seeded ``gen`` instances: 1-3 methods of 1-3 values."""
    for seed in range(count):
        params = GenParams(3, (1, 3), (1, 3), 4, 0.2 + (seed % 5) * 0.2, seed)
        yield from random_instance(params)[0].adapters.values()


class TestAgainstReference:
    def test_random_vectors_on_seeded_instances(self):
        rng = SplitMix64(11)
        checked = 0
        for seed in range(30):
            params = GenParams(3, (1, 4), (1, 4), 5, 0.2 + (seed % 5) * 0.2, seed)
            graph, _, _ = random_instance(params)
            for adapter in graph.adapters.values():
                for p in vectors(rng, adapter, 4):
                    same_as_reference(adapter, p)
                    checked += 1
        assert checked >= 500

    @pytest.mark.parametrize("seed", [7, 11])
    def test_wide_interface_shaped_adapter(self, seed):
        adapter = wide_adapter(seed)
        for p in vectors(SplitMix64(seed), adapter, 6):
            same_as_reference(adapter, p)

    def test_fixture(self, video_graph):
        rng = SplitMix64(3)
        for adapter in video_graph.adapters.values():
            for p in vectors(rng, adapter, 10):
                same_as_reference(adapter, p)

    def test_all_bot_vector_gives_the_all_bot_row(self, video_graph):
        for adapter in (*video_graph.adapters.values(), wide_adapter(7)):
            p = ref.bottom_vector(adapter.source)
            q = apply_adaptation(adapter, p)
            assert q == ref.apply_adaptation(adapter, p)
            assert q.components == adapter.lookup((BOT,) * adapter.source.arity)

    def test_default_only_result(self):
        s = build_interface("S", [("m", ["A", "B", "C"])])
        t = build_interface("T", [("n", ["X", "Y", "Z"])])
        adapter = build_adapter("a", s, t, [(("A",), [["X"]])], [["Y", "Z"]])
        # (bot), (B) and (C) are all unlisted
        p = normalize_vector(s, [{"B", "C"}])
        q = apply_adaptation(adapter, p)
        assert q == ref.apply_adaptation(adapter, p)
        assert q.components == (frozenset({BOT, "Y", "Z"}),)

    def test_product_of_listed_rows_only(self):
        s = build_interface("S", [("m1", ["A", "B"]), ("m2", ["C", "D"])])
        t = build_interface("T", [("n", ["W", "X", "Y", "Z"])])
        rows = [
            ((BOT, BOT), [[]]),
            ((BOT, "C"), [["W"]]),
            (("A", BOT), [["X"]]),
            (("A", "C"), [["X", "Y"]]),
        ]
        adapter = build_adapter("a", s, t, rows, [["Z"]])
        listed = normalize_vector(s, [{"A"}, {"C"}])
        q = apply_adaptation(adapter, listed)
        assert q == ref.apply_adaptation(adapter, listed)
        assert q.components == (frozenset({BOT, "W", "X", "Y"}),)
        # one unlisted tuple, (B, bot), brings the default in
        wider = normalize_vector(s, [{"A", "B"}, {"C"}])
        q = apply_adaptation(adapter, wider)
        assert q == ref.apply_adaptation(adapter, wider)
        assert "Z" in q.components[0]

    def test_tabulated_rows(self, video_graph):
        graph, _, _ = random_instance(GenParams(2, (2, 2), (2, 3), 2, 0.5, 5))
        for adapter in (
            video_graph.adapters["Video1toVideo2"],
            *graph.adapters.values(),
        ):
            tab = tabulate_adaptation(adapter)
            assert tab.rows
            for key, row in tab.rows.items():
                assert row == ref.apply_adaptation(adapter, key)


class TestCost:
    def test_one_lookup_per_product_tuple(self, monkeypatch):
        adapter = wide_adapter(7)
        p = random_subvector(SplitMix64(1), adapter.source)
        calls = []
        lookup = Adapter.lookup

        def counted(self, x):
            calls.append(x)
            return lookup(self, x)

        monkeypatch.setattr(Adapter, "lookup", counted)
        apply_adaptation(adapter, p)
        assert calls == list(itertools.product(*p.components))

    def test_components_are_compact(self):
        # A set grown by repeated unions keeps a larger table than one built
        # from an iterable; every memoized and tabulated vector would pay it.
        adapter = wide_adapter(7)
        rng = SplitMix64(2)
        for p in vectors(rng, adapter, 4):
            for c in apply_adaptation(adapter, p).components:
                assert sys.getsizeof(c) == sys.getsizeof(frozenset(list(c)))


def counted_lookups(monkeypatch) -> list:
    """Patch ``Adapter.lookup`` to record every input tuple it is given."""
    calls = []
    lookup = Adapter.lookup

    def counted(self, x):
        calls.append(x)
        return lookup(self, x)

    monkeypatch.setattr(Adapter, "lookup", counted)
    return calls


class TestTabulationAgainstReference:
    def test_fixture(self, video_graph):
        for adapter in video_graph.adapters.values():
            same_table_as_reference(adapter)

    def test_seeded_instances(self):
        checked = [same_table_as_reference(a) for a in seeded_adapters(30)]
        assert len(checked) >= 60
        assert sum(len(t.rows) for t in checked) >= 2000

    @pytest.mark.parametrize("seed", [7, 11])
    def test_wide_interface_shaped_adapter(self, seed):
        table = same_table_as_reference(narrow_adapter(seed))
        assert len(table.rows) == 4096

    def test_default_only_adapter(self):
        s = build_interface("S", [("m1", ["A", "B", "C"]), ("m2", ["D", "E"])])
        t = build_interface("T", [("n", ["X", "Y", "Z"])])
        table = same_table_as_reference(build_adapter("d", s, t, [], [["Y", "Z"]]))
        (row,) = {id(v): v for v in table.rows.values()}.values()
        assert row.components == (frozenset({BOT, "Y", "Z"}),)

    @pytest.mark.parametrize("sizes", [(1,), (1, 1, 1), (1, 3), (3, 1, 2)])
    def test_one_value_domains(self, sizes):
        s = build_interface(
            "S", [(f"m{i}", [f"v{k}" for k in range(n)]) for i, n in enumerate(sizes)]
        )
        t = build_interface("T", [("n", ["X", "Y"]), ("o", ["Z"])])
        rows = [
            ((BOT,) * len(sizes), [["X"], []]),
            (tuple("v0" for _ in sizes), [["Y"], ["Z"]]),
        ]
        same_table_as_reference(build_adapter("o", s, t, rows))

    def test_equal_rows_share_one_vector(self):
        table = tabulate_adaptation(narrow_adapter(7))
        distinct = set(table.rows.values())
        assert len({id(v) for v in table.rows.values()}) == len(distinct) < 4096

    def test_cap_refuses_before_any_row(self, monkeypatch):
        adapter = narrow_adapter(7)
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", str(2**16 - 1))
        calls = counted_lookups(monkeypatch)
        with pytest.raises(CapExceeded) as got:
            tabulate_adaptation(adapter)
        with pytest.raises(CapExceeded) as want:
            ref.tabulate_adaptation(adapter)
        assert calls == []
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(
            "would have 65536 elements, exceeding the cap of 65535"
        )
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", str(2**16))
        assert len(tabulate_adaptation(adapter).rows) == 4096


class TestTabulationCost:
    """Only atom rows (every component {bot} or {bot, v}) are adapted; a
    row of d_i-value lifted domains then costs prod(2 * d_i - 1) lookups,
    where adapting every row costs prod(sum over subsets of their sizes)."""

    def test_wide_interface_shaped_adapter(self, monkeypatch):
        adapter = narrow_adapter(7)
        calls = counted_lookups(monkeypatch)
        tabulate_adaptation(adapter)
        assert len(calls) == 7**4 == 2401  # the per-row loop makes 160,000
        assert len(set(calls)) == 4**4

    def test_seeded_instances_and_fixture(self, monkeypatch, video_graph):
        adapters = [*video_graph.adapters.values(), *seeded_adapters(10)]
        calls = counted_lookups(monkeypatch)
        for adapter in adapters:
            calls.clear()
            tabulate_adaptation(adapter)
            assert len(calls) == prod(2 * d.size - 1 for d in adapter.source.domains)
