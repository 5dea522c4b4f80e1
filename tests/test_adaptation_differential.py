"""The library's adaptation against the per-tuple accumulate loop it
replaced (``search_reference.apply_adaptation``): same answers, same
lookups, and components no larger than a freshly built frozenset."""

from __future__ import annotations

import itertools
import sys

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
from adaptchain.generator import GenParams, SplitMix64, random_instance
from adaptchain.model import Adapter, bottom_vector
from conftest import random_subvector


def _pick(rng: SplitMix64, values, k: int) -> list[str]:
    return sorted(values, key=lambda _: rng.next_u64())[:k]


def wide_adapter(seed: int, entries: int = 200) -> Adapter:
    """An adapter shaped like the benchmark's wide interface: 6 methods of
    5 values on each side and ``entries`` sparse rows. Each target method
    draws 1-2 values from its own 3-value pool, and the default keeps the
    pool's first value, so adapted components hold 2-4 values."""
    rng = SplitMix64(seed)
    values = [f"v{k}" for k in range(5)]
    methods = [(f"m{i}", values) for i in range(6)]
    source, target = build_interface("S", methods), build_interface("T", methods)
    pools = [_pick(rng, values, 3) for _ in methods]
    lifted = [BOT, *values]
    inputs: set[tuple[str, ...]] = set()
    while len(inputs) < entries:
        inputs.add(tuple(lifted[rng.below(len(lifted))] for _ in methods))
    rows = [
        (x, [_pick(rng, pool, 1 + rng.below(2)) for pool in pools])
        for x in sorted(inputs)
    ]
    return build_adapter("W", source, target, rows, [pool[:1] for pool in pools])


def vectors(rng: SplitMix64, adapter: Adapter, count: int):
    """The full and the all-{bot} vector, then ``count`` random ones."""
    yield full_vector(adapter.source)
    yield bottom_vector(adapter.source)
    for _ in range(count):
        yield random_subvector(rng, adapter.source)


def same_as_reference(adapter: Adapter, p) -> None:
    assert apply_adaptation(adapter, p) == ref.apply_adaptation(adapter, p)


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
            p = bottom_vector(adapter.source)
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
