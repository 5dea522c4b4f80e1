from __future__ import annotations

import itertools

import pytest

from adaptchain import BOT, greedy_chain, model, oracle_optimal, serialize_graph
from adaptchain.errors import CapExceeded, InvalidParams
from adaptchain import generator
from adaptchain.generator import GenParams, SplitMix64, _subset_draw, random_instance


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs of splitmix64 for seed 0 (published reference values)
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F


class TestGenParams:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            GenParams(0, (1, 1), (1, 1), 0, 0.5, 0)
        with pytest.raises(InvalidParams):
            GenParams(1, (2, 1), (1, 1), 0, 0.5, 0)
        with pytest.raises(InvalidParams):
            GenParams(1, (1, 1), (0, 1), 0, 0.5, 0)
        with pytest.raises(InvalidParams):
            GenParams(1, (1, 1), (1, 1), -1, 0.5, 0)
        with pytest.raises(InvalidParams):
            GenParams(1, (1, 1), (1, 1), 0, 1.5, 0)

    @pytest.mark.parametrize("fields, name", [
        ((2.5, (1, 1), (1, 1), 1, 0.5, 1), "interface_count"),
        ((2, (1, 1), (1, 1), 1, 0.5, 1.5), "seed"),
        ((2, (1, 1), (1, 1.5), 1, 0.5, 1), "values_per_method"),
        ((2, (1, 1), (1, 1), 1, "0.5", 1), "entry_density"),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, fields, name):
        with pytest.raises(InvalidParams) as exc:
            GenParams(*fields)
        assert str(exc.value).startswith(f"{name} must be ")

    def test_make_and_replace_go_through_the_checks(self):
        fields = [-5, (1, 1), (1, 1), 0, 0.5, 0]
        with pytest.raises(InvalidParams, match="interface_count"):
            GenParams._make(fields)
        with pytest.raises(InvalidParams, match="interface_count"):
            GenParams(1, (1, 1), (1, 1), 0, 0.5, 0)._replace(interface_count=-5)
        assert GenParams._make([5, *fields[1:]]) == GenParams(5, *fields[1:])


class TestRandomInstance:
    def test_shape_draws_cover_each_inclusive_range(self):
        graph, _, _ = random_instance(GenParams(200, (2, 4), (1, 3), 0, 0.5, 5))
        interfaces = graph.interfaces.values()
        assert {i.arity for i in interfaces} == {2, 3, 4}
        assert {d.size - 1 for i in interfaces for d in i.domains} == {1, 2, 3}

    def test_seed_determinism(self):
        params = GenParams(3, (1, 2), (1, 2), 4, 0.5, 42)
        g1, s1, t1 = random_instance(params)
        g2, s2, t2 = random_instance(params)
        assert (s1, t1) == (s2, t2)
        assert serialize_graph(g1) == serialize_graph(g2)

    def test_different_seeds_differ(self):
        params_a = GenParams(3, (1, 2), (1, 2), 4, 0.5, 1)
        params_b = GenParams(3, (1, 2), (1, 2), 4, 0.5, 2)
        assert serialize_graph(random_instance(params_a)[0]) != serialize_graph(
            random_instance(params_b)[0]
        )

    def test_single_node_no_adapters(self):
        graph, source, target = random_instance(GenParams(1, (1, 2), (1, 2), 0, 0.5, 7))
        assert source == target == "I0"
        assert graph.adapters == {}
        result = greedy_chain(graph, {source}, target)
        assert result.chain == ()

    def test_instances_are_well_formed(self):
        for seed in range(20):
            graph, source, target = random_instance(
                GenParams(4, (1, 3), (1, 3), 6, 0.7, seed)
            )
            assert source in graph.interfaces and target in graph.interfaces
            for adapter in graph.adapters.values():
                for input, output in adapter.table.items():
                    for value, method in zip(input, adapter.source.methods):
                        assert value in method.domain
                    for s, method in zip(output, adapter.target.methods):
                        assert BOT in s
                        assert s <= set(method.domain.values)
                        assert s != {BOT}  # emitted outputs are nonempty subsets

    def test_lookup_total_on_generated(self):
        graph, _, _ = random_instance(GenParams(3, (1, 2), (1, 2), 3, 0.3, 11))
        for adapter in graph.adapters.values():
            for key in itertools.product(*(d.values for d in adapter.source.domains)):
                assert len(adapter.lookup(key)) == adapter.target.arity

    def test_greedy_matches_oracle_on_seeded_instance(self):
        # seed 2 yields a connected instance with a length-3 optimal chain
        graph, source, target = random_instance(GenParams(6, (1, 3), (1, 3), 12, 0.7, 2))
        greedy = greedy_chain(graph, {source}, target)
        oracle = oracle_optimal(graph, {source}, target)
        assert greedy.chain != ()
        assert greedy.score == oracle.score


class TestDrawGuard:
    """An adapter draws once per tuple of its source's lifted domains, so
    the generator refuses the first adapter that would take the run's
    total past the tabulation cap, before it draws."""

    def test_over_cap_refused_with_exact_size(self):
        # 8 methods of 8 values: 9**8 = 43,046,721 tuples > 2**20
        params = GenParams(2, (8, 8), (8, 8), 1, 0.01, 0)
        with pytest.raises(CapExceeded) as exc:
            random_instance(params)
        assert str(exc.value).startswith("adapter A0 ")
        assert str(exc.value).endswith(
            "would draw over 43046721 input tuples, exceeding the cap of 1048576"
        )

    def test_cap_is_the_tabulation_cap(self, monkeypatch):
        # 2 methods of 2 values: 3**2 = 9 tuples per adapter, 27 per run
        params = GenParams(2, (2, 2), (2, 2), 3, 0.5, 4)
        expected = serialize_graph(random_instance(params)[0])
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "27")
        assert serialize_graph(random_instance(params)[0]) == expected
        for drawn, cap in ((27, 26), (9, 8)):
            monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", str(cap))
            with pytest.raises(CapExceeded) as exc:
                random_instance(params)
            assert str(exc.value).endswith(
                f"would draw over {drawn} input tuples, exceeding the cap of {cap}"
            )


    def test_declared_values_are_capped_before_any_interface(self, monkeypatch):
        # 5 interfaces of up to 2 methods of up to 3 values: 30 values.
        built = []
        monkeypatch.setattr(generator, "build_interface", lambda *a: built.append(a))
        params = GenParams(5, (1, 2), (1, 3), 0, 0.5, 0)
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "29")
        with pytest.raises(CapExceeded) as exc:
            random_instance(params)
        assert built == []
        assert str(exc.value) == (
            "5 interfaces x 2 methods x 3 values would declare 30 abstract "
            "values, exceeding the cap of 29"
        )

    def test_declared_values_at_the_cap_are_built(self, monkeypatch):
        params = GenParams(5, (1, 2), (1, 3), 0, 0.5, 0)
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "30")
        assert len(random_instance(params)[0].interfaces) == 5


@pytest.mark.parametrize("width", [1, 63, 64, 65, 200])
def test_subset_draw_matches_a_scan_of_the_pool(width):
    # The draw visits only the mask's bit positions; a full scan of the
    # pool with the unbounded modulus picks the same values, and the same
    # mask gives the same set object.
    pool = tuple(f"v{k}" for k in range(width))
    subset, slow = _subset_draw(SplitMix64(width).next_u64), SplitMix64(width)
    by_mask = {}
    for _ in range(500):
        mask = 1 + slow.next_u64() % (2 ** len(pool) - 1)
        drawn = subset(pool)
        assert drawn == {BOT, *[v for k, v in enumerate(pool) if mask >> k & 1]}
        assert by_mask.setdefault(mask, drawn) is drawn


def test_a_long_path_instance_is_built_without_build_adapter(monkeypatch):
    # The long-path benchmark's gen shape: 1,200 one-method interfaces of
    # three values. The generator builds each adapter from the rows it
    # drew, so equal output sets (at most 7 here) are one object each.
    calls = []
    original = model.build_adapter
    monkeypatch.setattr(
        model, "build_adapter", lambda *a, **k: calls.append(a) or original(*a, **k)
    )
    graph, _, _ = random_instance(GenParams(1200, (1, 1), (3, 3), 1199, 0.5, 9))
    assert calls == [] and not hasattr(generator, "build_adapter")
    sets = [
        s for a in graph.adapters.values()
        for output in (*a.table.values(), a.default_output) for s in output
    ]
    assert len(sets) > 2400
    assert len({id(s) for s in sets}) == len(set(sets)) == 8  # 7 subsets and {bot}
