from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

import search_reference as ref
from adaptchain import (
    BOT,
    apply_adaptation,
    apply_pipeline,
    build_interface,
    build_adapter,
    count_abstract,
    full_vector,
    function_sizes,
    identity_pipeline,
    normalize_vector,
    prepend,
    tabulate_adaptation,
)
from adaptchain.errors import (
    ArityMismatch,
    CapExceeded,
    CycleDetected,
    EmptyDomain,
    EndpointMismatch,
    InterfaceMismatch,
)
from adaptchain.model import AvailabilityVector
from adaptchain.generator import GenParams, random_instance
from conftest import VIDEO1_TO_VIDEO2_ROWS, lossless_path, random_subvector
from generator_reference import SplitMix64
from search_reference import bottom_vector, tuple_subset, tuple_union
from test_acceptance import seeded_instance


VIDEO1 = build_interface(
    "Video1",
    [("playVideo", ["MOV", "AVI", "MKV"]), ("playAudio", ["MP3", "OGG", "WAV"])],
)


def video1_vectors():
    """Strategy: arbitrary bot-normalized vectors over Video1."""
    return st.builds(
        lambda a, b: normalize_vector(VIDEO1, [a, b]),
        st.sets(st.sampled_from(["MOV", "AVI", "MKV"])),
        st.sets(st.sampled_from(["MP3", "OGG", "WAV"])),
    )


class TestTupleAlgebra:
    def test_union_componentwise(self, video_graph):
        v1 = video_graph.interfaces["Video1"]
        u = normalize_vector(v1, [{"MOV"}, set()])
        v = normalize_vector(v1, [set(), {"MP3"}])
        assert tuple_union(u, v) == normalize_vector(v1, [{"MOV"}, {"MP3"}])

    @given(video1_vectors(), video1_vectors(), video1_vectors())
    def test_union_laws(self, u, v, w):
        assert tuple_union(u, v) == tuple_union(v, u)
        assert tuple_union(u, u) == u
        assert tuple_union(tuple_union(u, v), w) == tuple_union(u, tuple_union(v, w))

    @given(video1_vectors(), video1_vectors())
    def test_subset_partial_order(self, u, v):
        assert tuple_subset(u, u)
        if tuple_subset(u, v) and tuple_subset(v, u):
            assert u == v
        assert tuple_subset(u, tuple_union(u, v))

    @given(video1_vectors())
    def test_top_and_bottom(self, u):
        assert tuple_subset(u, full_vector(VIDEO1))
        assert tuple_subset(bottom_vector(VIDEO1), u)


class TestApplyAdaptation:
    def test_paper_vector(self, video_graph):
        adapter = video_graph.adapters["Video1toVideo2"]
        p = normalize_vector(adapter.source, [{"MOV", "MKV"}, {"MP3"}])
        q = apply_adaptation(adapter, p)
        assert q.components == (
            frozenset({"bot", "MP4", "DIVX", "THEORA"}),
            frozenset({"bot"}),
            frozenset({"bot"}),
            frozenset({"bot"}),
        )

    def test_bottom_maps_to_bottom(self, video_graph):
        adapter = video_graph.adapters["Video1toVideo2"]
        q = apply_adaptation(adapter, bottom_vector(adapter.source))
        assert q == bottom_vector(adapter.target)

    def test_full_capability_unions_all_rows(self, video_graph):
        adapter = video_graph.adapters["Video1toVideo2"]
        expected = [set() for _ in range(4)]
        for out in VIDEO1_TO_VIDEO2_ROWS.values():
            for j, s in enumerate(out):
                expected[j] |= s
        q = apply_adaptation(adapter, full_vector(adapter.source))
        assert q.components == tuple(frozenset(s) for s in expected)

    def test_matches_reference_on_random_vectors(self, video_graph):
        rng = SplitMix64(2024)
        for adapter in video_graph.adapters.values():
            for _ in range(20):
                p = random_subvector(rng, adapter.source)
                assert apply_adaptation(adapter, p) == ref.apply_adaptation(adapter, p)

    def test_wrong_interface(self, video_graph):
        adapter = video_graph.adapters["Video1toVideo2"]
        with pytest.raises(InterfaceMismatch) as exc:
            apply_adaptation(adapter, full_vector(adapter.target))
        assert str(exc.value) == "vector is over 'Video2', expected one over 'Video1'"

    def test_too_few_components(self, video_graph):
        """Once adapted as if every tuple were unlisted."""
        adapter = video_graph.adapters["Video1toVideo2"]
        p = AvailabilityVector("Video1", full_vector(adapter.source).components[:1])
        with pytest.raises(ArityMismatch) as exc:
            apply_adaptation(adapter, p)
        assert str(exc.value) == "vector over 'Video1' needs 2 components"

    def test_empty_product(self, video_graph):
        """Once adapted to a vector with no components at all."""
        adapter = video_graph.adapters["Video1toAudio"]
        p = AvailabilityVector("Video1", (frozenset(), frozenset()))
        with pytest.raises(EmptyDomain) as exc:
            apply_adaptation(adapter, p)
        assert str(exc.value) == "vector over 'Video1' has an empty component"


class TestPipelines:
    def test_identity_is_identity(self, video_graph):
        v2 = video_graph.interfaces["Video2"]
        pipe = identity_pipeline(v2)
        assert apply_pipeline(pipe, full_vector(v2)) == full_vector(v2)
        v1 = video_graph.interfaces["Video1"]
        p = normalize_vector(v1, [{"MOV"}, set()])
        assert apply_pipeline(identity_pipeline(v1), p) == p

    def test_prepend_unit_law(self, video_graph):
        e = video_graph.adapters["Video1toVideo2"]
        pipe = prepend(e, identity_pipeline(e.target))
        assert ref.chain(pipe) == ("Video1toVideo2",)
        assert pipe.source.id == "Video1" and pipe.target.id == "Video2"
        p = full_vector(e.source)
        assert apply_pipeline(pipe, p) == apply_adaptation(e, p)

    def test_two_step_composition(self, video_graph):
        a1 = video_graph.adapters["Video1toVideo2"]
        a2 = video_graph.adapters["Video2toVideo3"]
        pipe = prepend(a1, prepend(a2, identity_pipeline(a2.target)))
        assert ref.chain(pipe) == ("Video1toVideo2", "Video2toVideo3")
        p = full_vector(a1.source)
        assert apply_pipeline(pipe, p) == apply_adaptation(a2, apply_adaptation(a1, p))

    def test_cycle_detected(self, video_graph):
        a1 = video_graph.adapters["Video1toVideo2"]
        a2 = video_graph.adapters["Video2toVideo3"]
        back = video_graph.adapters["Video3toVideo1"]
        pipe = prepend(a2, identity_pipeline(a2.target))  # Video2 -> Video3
        pipe = prepend(a1, pipe)  # Video1 -> Video3
        with pytest.raises(CycleDetected):
            prepend(back, pipe)  # Video3 would be revisited

    def test_endpoint_mismatch(self, video_graph):
        a1 = video_graph.adapters["Video1toVideo2"]
        audio = video_graph.interfaces["Audio"]
        with pytest.raises(EndpointMismatch, match="Video1toVideo2"):
            prepend(a1, identity_pipeline(audio))  # Video2 is not Audio

    def test_a_pipeline_is_not_ordered_before_itself_or_an_equal_chain(
        self, video_graph
    ):
        """Two pipelines with the same chain meet at their shared tail, and
        neither comes first."""
        a1 = video_graph.adapters["Video1toVideo2"]
        identity = identity_pipeline(a1.target)
        p, q = prepend(a1, identity), prepend(a1, identity)
        assert p is not q and p.chain == q.chain
        assert not p < p
        assert not p < q and not q < p

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_vector_over_another_interface(self, video_graph, warm):
        """A fresh pipeline and one whose memo the searches' fold already
        filled both refuse a vector over another interface."""
        a1 = video_graph.adapters["Video1toVideo2"]
        pipe = prepend(a1, identity_pipeline(a1.target))
        if warm:
            count_abstract(pipe)
            assert pipe._memo
        memo = dict(pipe._memo)
        with pytest.raises(InterfaceMismatch) as exc:
            apply_pipeline(pipe, full_vector(a1.target))
        assert str(exc.value) == (
            "vector is over 'Video2', expected one over 'Video1'"
        )
        assert pipe._memo == memo


class TestMemo:
    """Each pipeline remembers what every vector it was folded from
    became. Greedy fills the memos with full capability along shared
    suffixes; later folds over other vectors must still agree with the
    plain reference fold, and must leave the pipeline they were called on
    remembering its own correct result."""

    def test_a_fold_writes_only_its_own_memo(self):
        """A one-shot evaluation of a fresh chain leaves one memo entry, on
        the pipeline it folded, and none on the suffixes it passed."""
        graph = lossless_path(20)
        pipeline = identity_pipeline(graph.interfaces["P0019"])
        suffixes = [pipeline]
        for k in range(18, -1, -1):
            pipeline = prepend(graph.adapters[f"E{k:04d}"], pipeline)
            suffixes.append(pipeline)
        p = full_vector(pipeline.source)
        assert apply_pipeline(pipeline, p) == ref.fold(pipeline, p)
        assert pipeline._memo == {p: ref.fold(pipeline, p)}
        assert not any(s._memo for s in suffixes[:-1])

    @staticmethod
    def scored_pipelines(graph):
        """Every acyclic chain into every interface, each built by
        prepending to an already scored suffix and scored as greedy scores
        it."""
        pipelines = [identity_pipeline(i) for i in graph.interfaces.values()]
        for pipeline in pipelines:  # grows while it is walked
            count_abstract(pipeline)
            for adapter in graph.incoming(pipeline.source.id):
                if not pipeline.visits(adapter.source.id):
                    pipelines.append(prepend(adapter, pipeline))
        return pipelines

    @pytest.mark.parametrize("seed", range(0, 200, 4))
    def test_memo_agrees_with_the_reference_fold(self, seed):
        graph, _, _, _ = seeded_instance(seed)
        pipelines = self.scored_pipelines(graph)
        rng = SplitMix64(seed)
        vectors = [
            [full_vector(p.source), *(random_subvector(rng, p.source) for _ in range(3))]
            for p in pipelines
        ]
        order, shuffle = list(range(len(pipelines))), random.Random(seed).shuffle
        for k in range(4):  # round k applies vector k to every pipeline
            shuffle(order)
            for i in order:
                pipeline, p = pipelines[i], vectors[i][k]
                assert apply_pipeline(pipeline, p) == ref.fold(pipeline, p)
                assert p in pipeline._memo or not ref.adapters(pipeline)
        for pipeline in pipelines:
            for p, q in pipeline._memo.items():
                assert q == ref.fold(pipeline, p)


class TestAdaptationTable:
    """Pipelines prepended from one identity share one adaptation table,
    keyed by adapter identity. Adapters that share an id string and
    endpoints but not a table never read each other's entries."""

    SOURCE = build_interface("S", [("m", ["a", "b", "c"])])
    TARGET = build_interface("T", [("m", ["a", "b", "c"])])

    @classmethod
    def twin(cls, shift: int):
        """Adapter "X" from S to T that maps value i to value i + shift."""
        values = ["a", "b", "c"]
        rows = [((v,), [[values[(i + shift) % 3]]]) for i, v in enumerate(values)]
        return build_adapter("X", cls.SOURCE, cls.TARGET, rows)

    def test_twins_on_one_identity_fold_apart(self):
        identity = identity_pipeline(self.TARGET)
        pipelines = [prepend(self.twin(shift), identity) for shift in (0, 1)]
        vectors = [
            full_vector(self.SOURCE),
            normalize_vector(self.SOURCE, [{"a"}]),
            normalize_vector(self.SOURCE, [{"b", "c"}]),
        ]
        for p in vectors:
            for pipeline in pipelines:  # each in turn, one shared table
                assert apply_pipeline(pipeline, p) == ref.fold(pipeline, p)
        assert apply_pipeline(pipelines[0], vectors[1]) != apply_pipeline(
            pipelines[1], vectors[1]
        )

    def test_a_dropped_adapter_keeps_its_identity_while_the_table_lives(self):
        """Each twin is dropped before the next is built. Its table entry
        keeps it alive, so no later twin can reuse its identity and read
        its entry."""
        identity = identity_pipeline(self.TARGET)
        p = normalize_vector(self.SOURCE, [{"a"}])
        for shift in [0, 1, 2] * 20:
            pipeline = prepend(self.twin(shift), identity)
            assert apply_pipeline(pipeline, p) == ref.fold(pipeline, p)
            del pipeline


class TestSizes:
    def test_fixture_sizes(self, video_graph):
        expected = {
            "Video1toVideo2": (16, 256),
            "Video1toAudio": (16, 256),
            "AudioToVideo3": (16, 256),
            "Video2toVideo3": (40, 2048),
            "Video3toAudio": (40, 2048),
            "Video3toVideo1": (40, 2048),
        }
        for adapter_id, sizes in expected.items():
            assert function_sizes(video_graph.adapters[adapter_id]) == sizes

    def test_minimal_adapter(self):
        s = build_interface("S", [("m", ["A"])])
        t = build_interface("T", [("m", ["B"])])
        assert function_sizes(build_adapter("a", s, t, [])) == (2, 4)

    def test_sizes_are_exact_integers(self):
        methods = [(f"m{i}", [f"v{j}" for j in range(6)]) for i in range(10)]
        s = build_interface("S", methods)
        t = build_interface("T", [("m", ["A"])])
        dep, adap = function_sizes(build_adapter("a", s, t, []))
        assert dep == 7**10
        assert adap == 2**70


class TestTabulation:
    def test_video1tovideo2_row_counts(self, video_graph, monkeypatch):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", str(2**20))
        tab = tabulate_adaptation(video_graph.adapters["Video1toVideo2"])
        assert tab.size == 256
        assert len(tab.rows) == 64  # bot-normalized keys: 2^3 * 2^3

    def test_cap_exceeded_reports_size(self, video_graph, monkeypatch):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "1024")
        with pytest.raises(CapExceeded) as exc:
            tabulate_adaptation(video_graph.adapters["Video2toVideo3"])
        assert str(exc.value).endswith(
            "would have 2048 elements, exceeding the cap of 1024"
        )

    def test_one_method_adapter_fully_enumerated(self, monkeypatch):
        s = build_interface("S", [("m", ["A"])])
        t = build_interface("T", [("m", ["B"])])
        adapter = build_adapter("a", s, t, [(("A",), [["B"]])])
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "16")
        tab = tabulate_adaptation(adapter)
        assert tab.size == 4
        assert len(tab.rows) == 2
        for key, row in tab.rows.items():
            assert row == ref.apply_adaptation(adapter, key)
        # raw subsets collapse onto normalized keys under bot injection
        p = normalize_vector(s, [{"A"}])
        assert tab.rows[p].components == (frozenset({"bot", "B"}),)

    def test_env_cap_override(self, video_graph, monkeypatch):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "100")
        with pytest.raises(CapExceeded):
            tabulate_adaptation(video_graph.adapters["Video1toVideo2"])
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "zero")
        from adaptchain.errors import InvalidParams

        with pytest.raises(InvalidParams):
            tabulate_adaptation(video_graph.adapters["Video1toVideo2"])


class TestProperties:
    def test_monotonicity_random(self):
        rng = SplitMix64(7)
        checked = 0
        for seed in range(40):
            graph, _, _ = random_instance(GenParams(3, (1, 3), (1, 3), 4, 0.5, seed))
            for adapter in graph.adapters.values():
                for _ in range(3):
                    q = random_subvector(rng, adapter.source)
                    p = random_subvector(rng, adapter.source, within=q)
                    assert tuple_subset(p, q)
                    assert tuple_subset(
                        apply_adaptation(adapter, p), apply_adaptation(adapter, q)
                    )
                    checked += 1
        assert checked >= 100

    def test_bot_preservation(self, video_graph):
        rng = SplitMix64(99)
        for adapter in video_graph.adapters.values():
            for _ in range(10):
                p = random_subvector(rng, adapter.source)
                for component in apply_adaptation(adapter, p).components:
                    assert BOT in component

    def test_chain_monotonicity_eq3(self, video_graph):
        a1 = video_graph.adapters["Video1toVideo2"]
        a2 = video_graph.adapters["Video2toVideo3"]
        chained = apply_adaptation(a2, apply_adaptation(a1, full_vector(a1.source)))
        direct = apply_adaptation(a2, full_vector(a2.source))
        assert tuple_subset(chained, direct)
