from __future__ import annotations

import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adaptchain import (
    build_adapter,
    build_graph,
    build_interface,
    chain_pipeline,
    count_abstract,
    enumerate_chains,
    greedy_chain,
    identity_pipeline,
    oracle_optimal,
    search,
)
from adaptchain.errors import (
    ArityMismatch, CapExceeded, InterfaceMismatch, InvalidParams, NoChain, ReservedName,
    UnknownInterface,
)
from adaptchain.generator import GenParams, random_instance
from adaptchain.model import (
    AdapterGraph, AvailabilityVector, Interface, full_vector, normalize_vector,
)
from adaptchain.search import WeightMap, UNIT_WEIGHTS, vector_score
from conftest import lossless_path
from generator_reference import SplitMix64
from search_reference import visited


def complete_graph(k):
    """k one-method interfaces I0..I{k-1}, one adapter per ordered pair."""
    interfaces = [build_interface(f"I{i}", [("m", ["X"])]) for i in range(k)]
    adapters = [
        build_adapter(f"E{i}_{j}", interfaces[i], interfaces[j], [])
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    return build_graph(interfaces, adapters)


def isolated_pair():
    a = build_interface("A", [("m", ["X"])])
    b = build_interface("B", [("m", ["Y"])])
    return build_graph([a, b], [])


def clique_bridge(k):
    """S reaches the lossless k-clique C0..C{k-1} only by the bridge B0 into
    C0, which loses one of S's four values: greedy into C1 pops every
    equal-score chain inside the clique before any chain through B0."""
    values = ["a", "b", "c", "d"]
    names = ["S", *(f"C{i}" for i in range(k))]
    interfaces = {n: build_interface(n, [("m", values)]) for n in names}
    lossless = [((v,), [[v]]) for v in values]
    adapters = [build_adapter("B0", interfaces["S"], interfaces["C0"], lossless[1:])]
    adapters += [
        build_adapter(f"K{i}{j}", interfaces[f"C{i}"], interfaces[f"C{j}"], lossless)
        for i in range(k) for j in range(k) if i != j
    ]
    return build_graph(interfaces.values(), adapters)


def two_bridge(k):
    """S reaches the lossless k-clique C0..C{k-1} by two bridges into C0:
    B0 loses value a and B1 loses b. Together they bring full capability
    to every clique interface, so the forward bound removes no tie."""
    values = ["a", "b", "c", "d"]
    names = ["S", *(f"C{i}" for i in range(k))]
    interfaces = {n: build_interface(n, [("m", values)]) for n in names}
    lossless = [((v,), [[v]]) for v in values]
    adapters = [
        build_adapter(id, interfaces["S"], interfaces["C0"],
                      [row for row in lossless if row[0] != (lost,)])
        for id, lost in (("B0", "a"), ("B1", "b"))
    ]
    adapters += [
        build_adapter(f"K{i}{j}", interfaces[f"C{i}"], interfaces[f"C{j}"], lossless)
        for i in range(k) for j in range(k) if i != j
    ]
    return build_graph(interfaces.values(), adapters)


def tied_chains(shortcut):
    """Sources S1 and S2 reach T by the lossless chains (A1, B2) and
    (A2, B1), which tie on score and length and order oppositely read from
    either end; with ``shortcut``, S2 also reaches T by the lossless Z."""
    names = ["S1", "S2", "M1", "M2", "T"]
    interfaces = {n: build_interface(n, [("m", ["X"])]) for n in names}
    edges = [
        ("A1", "S1", "M1"), ("B2", "M1", "T"), ("A2", "S2", "M2"), ("B1", "M2", "T"),
    ]
    if shortcut:
        edges.append(("Z", "S2", "T"))
    adapters = [
        build_adapter(id, interfaces[s], interfaces[t], [(("X",), [["X"]])])
        for id, s, t in edges
    ]
    return build_graph(interfaces.values(), adapters)


@pytest.mark.parametrize("search", [greedy_chain, oracle_optimal])
@pytest.mark.parametrize("shortcut,chain,source", [
    (True, ("Z",), "S2"), (False, ("A1", "B2"), "S1"),
], ids=["shorter", "smaller-ids"])
def test_equal_scores_break_by_length_then_adapter_ids(search, shortcut, chain, source):
    result = search(tied_chains(shortcut), {"S1", "S2"}, "T")
    assert (result.chain, result.source, result.score) == (chain, source, 1.0)


def score_of(weights, values=("X",)):
    """The score of full capability on a one-method interface "I"."""
    interface = build_interface("I", [("m", list(values))])
    return vector_score(interface, full_vector(interface), weights)


class TestWeightMap:
    def test_defaults(self):
        # Full capability holds bot besides each value: an unlisted value
        # weighs 1.0 and bot weighs nothing.
        w = WeightMap()
        assert score_of(w) == 1.0
        assert score_of(w, ("X", "Y")) == 2.0

    def test_override(self):
        w = WeightMap({("I", "m", "X"): 2.5})
        assert score_of(w) == 2.5
        assert score_of(w, ("Y",)) == 1.0
        assert score_of(w, ("X", "Y")) == 3.5

    def test_keeps_a_read_only_float_copy(self):
        given = {("I", "m", "X"): 2, ("I", "m", "Y"): Decimal("0.5")}
        weights = WeightMap(given).weights
        given[("I", "m", "X")] = 7
        assert weights == {("I", "m", "X"): 2.0, ("I", "m", "Y"): 0.5}
        assert all(type(w) is float for w in weights.values())
        with pytest.raises(TypeError):
            weights[("I", "m", "X")] = 3.0

    def test_a_later_change_to_the_mapping_leaves_the_score(self, video_graph):
        given = {("Video2", "play", "MP4"): 2.0}
        weights = WeightMap(given)
        given[("Video2", "play", "MP4")] = -50
        result = greedy_chain(video_graph, {"Video1"}, "Video2", weights)
        assert result.score == 5.0

    @pytest.mark.parametrize(
        "weight", [Decimal("2.5"), Fraction(5, 2)], ids=["decimal", "fraction"]
    )
    def test_an_exact_weight_scores_as_its_float(self, video_graph, weight):
        key = ("Video2", "play", "MP4")
        as_float = greedy_chain(video_graph, {"Video1"}, "Video2", WeightMap({key: 2.5}))
        for search in (greedy_chain, oracle_optimal):
            result = search(video_graph, {"Video1"}, "Video2", WeightMap({key: weight}))
            assert result == as_float and type(result.score) is float
        assert as_float.score == 5.5

    @pytest.mark.parametrize(
        "weight", [10**400, Decimal("1e400"), Fraction(10**400, 3)],
        ids=["int", "decimal", "fraction"],
    )
    def test_weight_past_the_float_range_is_refused(self, weight):
        with pytest.raises(InvalidParams) as exc:
            WeightMap({("I", "m", "X"): weight})
        assert str(exc.value) == "weight for I.m.X has no finite float"

    def test_make_and_replace_go_through_the_checks(self):
        bad = {("Video2", "play", "MP4"): -50}
        for build in (lambda: WeightMap._make([bad]),
                      lambda: WeightMap()._replace(weights=bad)):
            with pytest.raises(InvalidParams) as exc:
                build()
            assert str(exc.value) == (
                "weight -50 for Video2.play.MP4 is not finite and non-negative"
            )
        copy = WeightMap()._replace(weights={("I", "m", "X"): 2})
        assert copy == WeightMap({("I", "m", "X"): 2.0})
        assert type(copy.weights[("I", "m", "X")]) is float

    def test_bot_rejected(self):
        with pytest.raises(ReservedName):
            WeightMap({("I", "m", "bot"): 1.0})

    def test_negative_rejected(self):
        with pytest.raises(InvalidParams):
            WeightMap({("I", "m", "X"): -1.0})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, weight):
        with pytest.raises(InvalidParams, match=r"I\.m\.X"):
            WeightMap({("I", "m", "X"): weight})

    def test_short_keys_are_shown_whole_and_unquoted(self):
        with pytest.raises(ReservedName) as exc:
            WeightMap({("I", "m", "bot"): 1.0})
        assert str(exc.value) == "weight for 'bot' is fixed at 0 (I.m.bot)"
        with pytest.raises(InvalidParams) as exc:
            WeightMap({("I", "m", "X"): -1.0})
        assert str(exc.value) == "weight -1.0 for I.m.X is not finite and non-negative"

    @pytest.mark.parametrize("key,shown", [
        (("I", "m"), "('I', 'm')"),
        (("I", "m", "X", "Y"), "('I', 'm', 'X', 'Y')"),
        ("I.m.X", "'I.m.X'"),
    ], ids=["pair", "four-items", "string"])
    def test_key_that_is_not_a_triple_is_named(self, key, shown):
        with pytest.raises(InvalidParams) as exc:
            WeightMap({key: 1.0})
        assert str(exc.value) == (
            f"weight key {shown} is not an (interface, method, value) triple"
        )

    @pytest.mark.parametrize("weights", [[(("I", "m", "X"), 1.0)], None])
    def test_weights_that_are_not_a_mapping_are_named(self, weights):
        with pytest.raises(InvalidParams) as exc:
            WeightMap(weights)
        assert str(exc.value) == f"weights {weights!r} are not a mapping"

    @pytest.mark.parametrize("weight,shown", [("x", "'x'"), (None, "None")])
    def test_weight_that_is_not_a_number_is_named(self, weight, shown):
        with pytest.raises(InvalidParams) as exc:
            WeightMap({("I", "m", "X"): weight})
        assert str(exc.value) == f"weight {shown} for I.m.X is not a number"

    @pytest.mark.parametrize("weight", [Decimal("NaN"), Decimal("sNaN")])
    def test_decimal_nan_is_not_a_number(self, weight):
        # Comparing a Decimal NaN raises InvalidOperation, not TypeError.
        with pytest.raises(InvalidParams) as exc:
            WeightMap({("I", "m", "X"): weight})
        assert str(exc.value) == f"weight {weight!r} for I.m.X is not a number"

    @pytest.mark.parametrize("key,error", [
        (("I" * 100_000, "m", "bot"), ReservedName),
        (("I", "m" * 100_000, "X"), InvalidParams),
    ])
    def test_huge_keys_are_cut(self, key, error):
        with pytest.raises(error) as exc:
            WeightMap({key: -1.0})
        message = str(exc.value)
        assert len(message) < 300 and "... (100000 characters)" in message


@pytest.mark.parametrize("search", [greedy_chain, oracle_optimal])
@pytest.mark.parametrize(
    "key", [("Nope", "play", "MP4"), ("Video2", "nope", "MP4"), ("Video2", "play", "MP3")]
)
def test_weight_on_undeclared_value_rejected(video_graph, search, key):
    weights = WeightMap({("Video2", "play", "MP4"): 2.0, key: 3.0})
    with pytest.raises(InvalidParams, match=r"\.".join(key)):
        search(video_graph, {"Video1"}, "Video2", weights)


class CountingMethods(tuple):
    """A method tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("search", [greedy_chain, oracle_optimal])
def test_weight_check_passes_over_methods_independent_of_keys(search):
    def passes(keys):
        declared = build_interface("I", [(f"m{k}", ["v"]) for k in range(50)])
        methods = CountingMethods(declared.methods)
        graph = build_graph([Interface("I", methods)], [])
        weights = WeightMap({("I", f"m{k}", "v"): 2.0 for k in range(keys)})
        search(graph, {"I"}, "I", weights)
        return methods.passes

    assert passes(50) == passes(1)


class TestChainPipeline:
    def test_unknown_adapter_is_invalid_params(self, video_graph):
        with pytest.raises(InvalidParams, match="'NoSuchAdapter'"):
            chain_pipeline(video_graph, ["Video1toVideo2", "NoSuchAdapter"], "Video1")

    def test_an_unhashable_id_is_a_domain_error(self, video_graph):
        with pytest.raises(InvalidParams, match=r"adapter \['Video1toVideo2'\]"):
            chain_pipeline(video_graph, [["Video1toVideo2"]], "Video1")
        with pytest.raises(UnknownInterface, match=r"interface \['Video1'\]"):
            chain_pipeline(video_graph, [], ["Video1"])

    def test_chain_from_another_source_is_invalid_params(self, video_graph):
        with pytest.raises(InvalidParams) as exc:
            chain_pipeline(video_graph, ["Video2toVideo3"], "Video1")
        assert str(exc.value) == "chain starts at 'Video2', expected 'Video1'"

    def test_a_string_chain_is_invalid_params(self):
        """Read as a list, "ab" would be the chain a·b, not adapter ab."""
        a, b, c = (build_interface(n, [("m", ["X"])]) for n in "ABC")
        lossless = [(("X",), [["X"]])]
        graph = build_graph([a, b, c], [
            build_adapter(name, x, y, lossless)
            for name, x, y in [("a", a, b), ("b", b, c), ("ab", a, c)]
        ])
        assert chain_pipeline(graph, ["ab"], "A").target == c
        with pytest.raises(InvalidParams) as exc:
            chain_pipeline(graph, "ab", "A")
        assert str(exc.value) == "chain 'ab' is not a list of adapter ids"

    @pytest.mark.parametrize("chain", [None, 5])
    def test_a_chain_that_is_not_iterable_is_invalid_params(self, video_graph, chain):
        with pytest.raises(InvalidParams) as exc:
            chain_pipeline(video_graph, chain, "Video1")
        assert str(exc.value) == f"chain {chain!r} is not a list of adapter ids"


class TestCountAbstract:
    def test_single_adapter(self, video_graph):
        pipe = chain_pipeline(video_graph, ["Video1toVideo2"], "Video1")
        assert count_abstract(pipe) == 4.0

    def test_identity_video1(self, video_graph):
        pipe = identity_pipeline(video_graph.interfaces["Video1"])
        assert count_abstract(pipe) == 6.0

    def test_weighted(self, video_graph):
        pipe = chain_pipeline(video_graph, ["Video1toVideo2"], "Video1")
        weights = WeightMap({("Video2", "play", "MP4"): 2.0})
        assert count_abstract(pipe, weights) == 5.0

    @pytest.mark.parametrize("chain", [[], ["AudioToVideo3"]], ids=["empty", "one"])
    def test_start_over_another_interface(self, video_graph, chain):
        """Refused as apply_pipeline refuses it, the empty chain included."""
        pipe = chain_pipeline(video_graph, chain, "Audio")
        start = full_vector(video_graph.interfaces["Video1"])
        with pytest.raises(InterfaceMismatch) as exc:
            count_abstract(pipe, start=start)
        assert str(exc.value) == "vector is over 'Video1', expected one over 'Audio'"

    @pytest.mark.parametrize(
        "chain", [[], ["Video1toVideo2"]], ids=["identity", "one"]
    )
    def test_start_with_too_few_components(self, video_graph, chain):
        """Video1 has two methods; a one-component start once scored as if
        every tuple were unlisted (0.0), or through the identity, 3.0."""
        pipe = chain_pipeline(video_graph, chain, "Video1")
        full = full_vector(video_graph.interfaces["Video1"])
        start = AvailabilityVector("Video1", full.components[:1])
        with pytest.raises(ArityMismatch) as exc:
            count_abstract(pipe, start=start)
        assert str(exc.value) == "vector over 'Video1' needs 2 components"

    @pytest.mark.parametrize("weights", [None, {}], ids=["None", "dict"])
    def test_weights_that_are_not_a_weight_map_are_invalid_params(
        self, video_graph, weights
    ):
        pipe = chain_pipeline(video_graph, ["Video1toAudio"], "Video1")
        with pytest.raises(InvalidParams) as exc:
            count_abstract(pipe, weights)
        assert str(exc.value) == f"weights {weights!r} are not a WeightMap"


# Four finite weights on Audio whose sum has no finite float.
AUDIO_OVERFLOW = WeightMap({
    ("Audio", "play", "OGG"): 1e308,
    ("Audio", "play", "WAV"): 1e308,
    ("Audio", "adjustAudio", "EQUALIZER"): 1e308,
    ("Audio", "adjustAudio", "VOLUME"): 1e308,
})
OVERFLOW_ERROR = "weights on 'Audio' sum past the largest float"


# Three weights whose exact sum rounds to the largest float.
NEAR_MAX = (8.988465674311579e+307, 8.988465674311579e+307, 7.484401160755199e+291)


def exact_score(cells):
    """The kept weights' exact sum as a float, or None when it has none."""
    try:
        return float(sum(Fraction(weight) for _, weight, kept in cells if kept))
    except OverflowError:
        return None


def scored(cells):
    """vector_score of the kept values of a two-method interface: cell k
    is (method, weight, kept) for value v{k}; None when it refuses."""
    names = [f"v{k}" for k in range(len(cells))]
    interface = build_interface(
        "I", [(m, [n for n, c in zip(names, cells) if c[0] == m] or ["u"])
              for m in ("m0", "m1")]
    )
    weights = WeightMap({("I", c[0], n): c[1] for n, c in zip(names, cells)})
    vector = normalize_vector(interface, [
        [n for n, c in zip(names, cells) if c[0] == m and c[2]] for m in ("m0", "m1")
    ])
    try:
        return vector_score(interface, vector, weights)
    except InvalidParams as exc:
        assert str(exc) == "weights on 'I' sum past the largest float"
        return None


def score_cells(max_weight):
    return st.lists(
        st.tuples(st.sampled_from(["m0", "m1"]), st.floats(0, max_weight), st.booleans()),
        max_size=12,
    )


class TestVectorScore:
    @pytest.mark.parametrize(
        "weights,score",
        [((1e16, 1, 1), 1.0000000000000002e16), ((1e16, 2), 1.0000000000000002e16)],
        ids=["three", "two"],
    )
    def test_equal_real_sums_score_the_same_float(self, weights, score):
        assert scored([("m0", w, True) for w in weights]) == score

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(score_cells(1e300))
    def test_score_is_the_exactly_rounded_sum(self, cells):
        assert scored(cells) == exact_score(cells)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(score_cells(sys.float_info.max))
    def test_only_sums_at_the_top_of_the_float_range_are_refused(self, cells):
        # Refused exactly when the exact sum has no float.
        assert scored(cells) == exact_score(cells)

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(3))),
        ids=lambda order: "".join(map(str, order)),
    )
    def test_a_sum_with_a_float_scores_in_every_order(self, order):
        # math.fsum overflows on a partial sum in four of these six orders;
        # one value per method fixes the order the terms are summed in.
        interface = build_interface("I", [(f"m{k}", ["v"]) for k in range(3)])
        weights = WeightMap({
            ("I", f"m{k}", "v"): NEAR_MAX[i] for k, i in enumerate(order)
        })
        score = vector_score(interface, full_vector(interface), weights)
        assert score == float(sum(map(Fraction, NEAR_MAX))) == sys.float_info.max

    def test_weights_that_are_not_a_weight_map_are_invalid_params(self, video_graph):
        audio = video_graph.interfaces["Audio"]
        with pytest.raises(InvalidParams) as exc:
            vector_score(audio, full_vector(audio), {})
        assert str(exc.value) == "weights {} are not a WeightMap"

    @pytest.mark.parametrize("target, weights", [
        ("Audio", WeightMap({("Audio", "play", "OGG"): 5.0})),
        ("Video2", UNIT_WEIGHTS),
    ], ids=["Audio", "Video2"])
    def test_vector_over_another_interface_is_refused(
        self, video_graph, target, weights
    ):
        """Once 6.0 for both: Video1's values were read under Audio's
        method names, or Video2's four methods cut to Video1's two."""
        interface = video_graph.interfaces[target]
        v = full_vector(video_graph.interfaces["Video1"])
        with pytest.raises(InterfaceMismatch) as exc:
            vector_score(interface, v, weights)
        assert str(exc.value) == f"vector is over 'Video1', expected one over '{target}'"

    def test_vector_with_another_number_of_components_is_refused(self, video_graph):
        video2 = video_graph.interfaces["Video2"]
        video1 = full_vector(video_graph.interfaces["Video1"])
        v = AvailabilityVector("Video2", video1.components)
        with pytest.raises(ArityMismatch) as exc:
            vector_score(video2, v, UNIT_WEIGHTS)
        assert str(exc.value) == "vector over 'Video2' needs 4 components"

    def test_overflow_is_a_domain_error(self, video_graph):
        audio = video_graph.interfaces["Audio"]
        with pytest.raises(InvalidParams, match=OVERFLOW_ERROR):
            vector_score(audio, full_vector(audio), AUDIO_OVERFLOW)
        pipe = chain_pipeline(video_graph, ["Video3toAudio"], "Video3")
        with pytest.raises(InvalidParams, match=OVERFLOW_ERROR):
            count_abstract(pipe, AUDIO_OVERFLOW)

    @pytest.mark.parametrize("find", [greedy_chain, oracle_optimal])
    def test_searches_refuse_weights_that_overflow_before_searching(
        self, video_graph, find, monkeypatch
    ):
        def searched(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(search, "prepend", searched)
        monkeypatch.setattr(search, "_chains_depth_first", searched)
        with pytest.raises(InvalidParams, match=OVERFLOW_ERROR):
            find(video_graph, {"Video1", "Video3"}, "Audio", AUDIO_OVERFLOW)


class TestGreedyChain:
    def test_matches_oracle_on_fixture(self, video_graph):
        for target in video_graph.interfaces:
            for source in video_graph.interfaces:
                try:
                    greedy = greedy_chain(video_graph, {source}, target)
                except NoChain:
                    with pytest.raises(NoChain):
                        oracle_optimal(video_graph, {source}, target)
                    continue
                oracle = oracle_optimal(video_graph, {source}, target)
                assert greedy.score == oracle.score

    def test_unreachable_target(self):
        with pytest.raises(NoChain):
            greedy_chain(isolated_pair(), {"A"}, "B")

    def test_target_in_sources_returns_identity(self, video_graph):
        result = greedy_chain(video_graph, {"Video2"}, "Video2")
        assert result.chain == ()
        assert result.score == 7.0  # 4 + 1 + 1 + 1 non-bot values in Video2

    def test_multi_source(self, video_graph):
        result = greedy_chain(video_graph, {"Video1", "Video2"}, "Video3")
        best = oracle_optimal(video_graph, {"Video1", "Video2"}, "Video3")
        assert result.score == best.score

    def test_unknown_interface(self, video_graph):
        with pytest.raises(UnknownInterface):
            greedy_chain(video_graph, {"Video1"}, "Video9")

    def test_empty_sources(self, video_graph):
        with pytest.raises(InvalidParams):
            greedy_chain(video_graph, set(), "Video2")

    @pytest.mark.parametrize("find, sources, target, error, message", [
        (greedy_chain, [["Video1"]], "Audio", InvalidParams,
         "sources [['Video1']] are not a list of interface ids"),
        (greedy_chain, ["Video1"], ["Audio"], UnknownInterface,
         "interface ['Audio'] is not declared in the graph"),
        (enumerate_chains, "Video1", ["Audio"], UnknownInterface,
         "interface ['Audio'] is not declared in the graph"),
        (enumerate_chains, ["Video1"], "Audio", UnknownInterface,
         "interface ['Video1'] is not declared in the graph"),
        (oracle_optimal, [["Video1"]], "Audio", InvalidParams,
         "sources [['Video1']] are not a list of interface ids"),
    ])
    def test_an_unhashable_id_is_a_domain_error(
        self, video_graph, find, sources, target, error, message
    ):
        with pytest.raises(error) as exc:
            find(video_graph, sources, target)
        assert str(exc.value) == message

    @pytest.mark.parametrize("find", [greedy_chain, oracle_optimal])
    def test_a_string_of_sources_is_invalid_params(self, find):
        """Read as a list, "AB" would be the sources A and B, and a2ab
        would lead from A to AB."""
        a, b, ab = (build_interface(n, [("m", ["X"])]) for n in ("A", "B", "AB"))
        graph = build_graph(
            [a, b, ab], [build_adapter("a2ab", a, ab, [(("X",), [["X"]])])]
        )
        assert find(graph, ["AB"], "AB").chain == ()
        with pytest.raises(InvalidParams) as exc:
            find(graph, "AB", "AB")
        assert str(exc.value) == "sources 'AB' are not a list of interface ids"

    @pytest.mark.parametrize("find", [greedy_chain, oracle_optimal])
    @pytest.mark.parametrize(
        "weights", [{("Audio", "play", "AU"): 2}, None], ids=["dict", "None"]
    )
    def test_weights_that_are_not_a_weight_map_are_invalid_params(
        self, video_graph, find, weights
    ):
        with pytest.raises(InvalidParams) as exc:
            find(video_graph, ["Video1"], "Audio", weights)
        assert str(exc.value) == f"weights {weights!r} are not a WeightMap"

    def test_deterministic(self, video_graph):
        results = [
            greedy_chain(video_graph, {"Video1"}, "Video3") for _ in range(3)
        ]
        assert all(r == results[0] for r in results)

    def test_cap_bounds_the_partial_chains_pushed(self, monkeypatch):
        # Every push but the identity at the target prepends one adapter, so
        # counting prepends counts the pushes. Every rank is one
        # count_abstract call, one per push. Ranking by full capability
        # alone pushed 391 chains here.
        graph = clique_bridge(6)
        counts = {"prepend": 0, "count_abstract": 0}

        def counted(name):
            original = getattr(search, name)

            def call(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(search, name, call)

        counted("prepend")
        counted("count_abstract")
        answer, n = greedy_chain(graph, {"S"}, "C1"), counts["prepend"] + 1
        assert answer.chain == ("B0", "K01") and n == 27
        assert counts["count_abstract"] == 27
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", str(n))
        assert greedy_chain(graph, {"S"}, "C1") == answer
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", str(n - 1))
        with pytest.raises(CapExceeded) as exc:
            greedy_chain(graph, {"S"}, "C1")
        assert str(exc.value) == (
            "search from any of ['S'] to 'C1' pushes more than 26 partial "
            "chains; raise ADAPTCHAIN_TABULATE_CAP"
        )

    def test_ties_past_the_recursion_limit_break_by_adapter_ids(self):
        # Two lossless chains share their first n - 1 adapters, more than
        # the recursion limit, and end in parallel adapters Y1 and Y2 into
        # T: they tie on score and length, and only the last id differs.
        n = sys.getrecursionlimit() + 10
        path = lossless_path(n)
        end = path.interfaces[f"P{n - 1:04d}"]
        t = build_interface("T", [("m", ["a", "b", "c"])])
        lossless = [((v,), [[v]]) for v in "abc"]
        parallel = [build_adapter(id, end, t, lossless) for id in ("Y2", "Y1")]
        graph = build_graph(
            [*path.interfaces.values(), t], [*path.adapters.values(), *parallel]
        )
        prefix = tuple(path.adapters)
        result = greedy_chain(graph, {"P0000"}, "T")
        assert (result.chain, result.score) == ((*prefix, "Y1"), 3.0)
        y1, y2 = (
            chain_pipeline(graph, (*prefix, last), "P0000") for last in ("Y1", "Y2")
        )
        assert y1 < y2 and not y2 < y1


class TestEnumerateChains:
    def test_fixture_video1_to_video3(self, video_graph):
        assert enumerate_chains(video_graph, "Video1", "Video3") == [
            ("Video1toAudio", "AudioToVideo3"),
            ("Video1toVideo2", "Video2toVideo3"),
        ]

    def test_same_interface(self, video_graph):
        assert enumerate_chains(video_graph, "Video1", "Video1") == [()]

    def test_isolated(self):
        assert enumerate_chains(isolated_pair(), "A", "B") == []

    def test_checks_each_endpoint_once_and_scores_nothing(
        self, video_graph, monkeypatch
    ):
        """Only the endpoints are checked, source first: no weights are
        read and no vector is scored."""
        checked, scored = [], []
        require = AdapterGraph.require_interface

        def counted_require(graph, interface_id):
            checked.append(interface_id)
            return require(graph, interface_id)

        monkeypatch.setattr(AdapterGraph, "require_interface", counted_require)
        monkeypatch.setattr(search, "vector_score", lambda *args: scored.append(args))
        assert len(enumerate_chains(video_graph, "Video1", "Video3")) == 2
        assert (checked, scored) == (["Video1", "Video3"], [])
        with pytest.raises(UnknownInterface, match="'X'"):
            enumerate_chains(video_graph, "X", "Y")

    def test_chains_are_node_simple(self, video_graph):
        for source in video_graph.interfaces:
            for target in video_graph.interfaces:
                for chain in enumerate_chains(video_graph, source, target):
                    visited = [source]
                    for adapter_id in chain:
                        visited.append(video_graph.adapters[adapter_id].target.id)
                    assert len(visited) == len(set(visited))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_complete_graph_path_count(self, k):
        # one edge per ordered pair; s-t simple path count is
        # sum_j P(k-2, j) over the number of intermediate nodes
        graph = complete_graph(k)
        expected = sum(math.perm(k - 2, j) for j in range(k - 1))
        assert len(enumerate_chains(graph, "I0", f"I{k - 1}")) == expected


class TestOracle:
    def test_identity_case(self, video_graph):
        result = oracle_optimal(video_graph, {"Video2"}, "Video2")
        assert result.chain == ()
        assert result.score == 7.0

    def test_no_chain(self):
        with pytest.raises(NoChain):
            oracle_optimal(isolated_pair(), {"A"}, "B")

    def test_guard(self, video_graph, monkeypatch):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "1")
        with pytest.raises(CapExceeded) as exc:
            oracle_optimal(video_graph, {"Video1"}, "Video3")
        # The advice names the one way out: greedy is metered by the same
        # cap, so only a larger cap lets the walk finish.
        assert str(exc.value) == (
            "search from 'Video1' to 'Video3' extends more than 1 partial "
            "chains; raise ADAPTCHAIN_TABULATE_CAP"
        )

    def test_guard_stops_the_enumeration(self, monkeypatch):
        # 13,700 simple I0 -> I8 paths in the 9-clique; the search must give
        # up after cap + 1 steps, not after enumerating them all.
        graph = complete_graph(9)
        calls = 0
        outgoing = AdapterGraph.outgoing

        def counted(self, interface_id):
            nonlocal calls
            calls += 1
            return outgoing(self, interface_id)

        monkeypatch.setattr(AdapterGraph, "outgoing", counted)
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "100")
        with pytest.raises(CapExceeded):
            oracle_optimal(graph, {"I0"}, "I8")
        assert calls <= 200

    def test_score_is_count_abstract_of_chain(self, video_graph):
        result = oracle_optimal(video_graph, {"Video1"}, "Video3")
        pipe = chain_pipeline(video_graph, result.chain, result.source)
        assert result.score == count_abstract(pipe)


class TestScoreMonotonicity:
    def test_extension_never_increases_score(self):
        rng = SplitMix64(123)
        checked = 0
        for seed in range(30):
            graph, _, _ = random_instance(GenParams(4, (1, 2), (1, 3), 8, 0.5, seed))
            for target in graph.interfaces:
                pipe = identity_pipeline(graph.interfaces[target])
                for _ in range(4):
                    options = [
                        a
                        for a in graph.incoming(pipe.source.id)
                        if a.source.id not in visited(pipe)
                    ]
                    if not options:
                        break
                    from adaptchain.semantics import prepend

                    extended = prepend(options[rng.below(len(options))], pipe)
                    assert count_abstract(extended) <= count_abstract(pipe)
                    checked += 1
                    pipe = extended
        assert checked >= 100


class TestGreedyVsOracleRandom:
    def test_random_instances(self):
        mismatches = []
        for seed in range(30):
            graph, source, target = random_instance(
                GenParams(5, (1, 2), (1, 3), 9, 0.5, seed)
            )
            weights_rng = SplitMix64(seed + 5000)
            random_weights = WeightMap(
                {
                    (i.id, m.name, v): weights_rng.below(400) / 100.0
                    for i in graph.interfaces.values()
                    for m in i.methods
                    for v in m.domain.non_bottom
                }
            )
            for weights in (UNIT_WEIGHTS, random_weights):
                try:
                    greedy = greedy_chain(graph, {source}, target, weights)
                except NoChain:
                    with pytest.raises(NoChain):
                        oracle_optimal(graph, {source}, target, weights)
                    continue
                oracle = oracle_optimal(graph, {source}, target, weights)
                if not math.isclose(greedy.score, oracle.score, rel_tol=1e-9):
                    mismatches.append((seed, greedy.score, oracle.score))
        assert mismatches == []


class TestDeepPath:
    """A 1200-interface path is deeper than Python's recursion limit."""

    N = 1200
    CHAIN = tuple(f"E{i:04d}" for i in range(N - 1))

    @pytest.fixture(scope="class")
    def path(self):
        return lossless_path(self.N)

    def test_enumerate(self, path):
        assert enumerate_chains(path, "P0000", "P1199") == [self.CHAIN]

    @pytest.mark.parametrize("search", [greedy_chain, oracle_optimal])
    def test_search(self, path, search):
        result = search(path, {"P0000"}, "P1199")
        assert result.chain == self.CHAIN
        assert result.score == 3.0
