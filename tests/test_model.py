from __future__ import annotations

import pytest

from adaptchain import (
    BOT,
    AbstractDomain,
    build_adapter,
    build_graph,
    build_interface,
    full_vector,
    normalize_vector,
)
from adaptchain.errors import (
    ArityMismatch,
    DuplicateAbstractValue,
    DuplicateId,
    DuplicateInput,
    DuplicateMethodName,
    EmptyDomain,
    InterfaceMismatch,
    UnknownInterface,
    UnknownValue,
    ValidationError,
    brief,
)
from conftest import VIDEO1_TO_VIDEO2_ROWS


def video1():
    return build_interface(
        "Video1",
        [("playVideo", ["MOV", "AVI", "MKV"]), ("playAudio", ["MP3", "OGG", "WAV"])],
    )


def video2():
    return build_interface(
        "Video2",
        [
            ("play", ["INDEO", "MP4", "THEORA", "DIVX"]),
            ("stop", ["DUMMY"]),
            ("skip", ["INTEGER"]),
            ("caption", ["LANGUAGE"]),
        ],
    )


class TestBuildInterface:
    def test_domains_are_lifted_and_ordered(self):
        iface = video1()
        assert iface.methods[0].domain.values == ("bot", "AVI", "MKV", "MOV")
        assert iface.methods[1].domain.values == ("bot", "MP3", "OGG", "WAV")
        assert set(iface.methods[0].domain.values) == {"bot", "MOV", "AVI", "MKV"}

    def test_single_dummy_method(self):
        iface = build_interface("T", [("stop", ["DUMMY"])])
        assert iface.methods[0].domain.values == ("bot", "DUMMY")
        assert iface.methods[0].domain.size == 2

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            build_interface("X", [("m", [])])

    def test_explicit_bot_is_the_implied_bottom(self):
        iface = build_interface("X", [("m", ["bot", "A"])])
        assert iface.methods[0].domain.values == ("bot", "A")

    def test_only_bot_is_still_empty(self):
        with pytest.raises(EmptyDomain):
            build_interface("X", [("m", ["bot"])])

    def test_membership_is_by_value_and_never_raises(self):
        domain = video1().methods[0].domain
        assert all(v in domain for v in domain.values)
        assert "WAV" not in domain and 1 not in domain and [] not in domain
        # The membership set stays out of equality, hash and repr.
        same = build_interface("Y", [("m", ["MKV", "AVI", "MOV"])])
        same = same.methods[0].domain
        assert (same, hash(same), repr(same)) == (domain, hash(domain), repr(domain))
        assert "_members" not in repr(domain)

    def test_make_and_replace_keep_membership(self):
        domain = AbstractDomain._make([("bot", "a")])
        assert "a" in domain and "b" not in domain
        other = domain._replace(values=("bot", "b"))
        assert "b" in other and "a" not in other
        assert other == build_interface("X", [("m", ["b"])]).methods[0].domain

    def test_each_call_builds_its_own_domains(self):
        first, second = (
            build_interface("X", [("m", ["A", "B"]), ("n", ["A", "B"])])
            for _ in range(2)
        )
        assert first == second
        assert first.methods[0].domain is first.methods[1].domain
        assert first.methods[0].domain is not second.methods[0].domain

    def test_duplicate_method(self):
        with pytest.raises(DuplicateMethodName):
            build_interface("X", [("m", ["A"]), ("m", ["B"])])

    def test_duplicate_value(self):
        with pytest.raises(DuplicateAbstractValue):
            build_interface("X", [("m", ["A", "A"])])

    @pytest.mark.parametrize("id,methods,shown", [
        (5, [("m", ["A"])], "interface id 5 is not a string"),
        ("X", [(7, ["A"])], "interface 'X': method name 7 is not a string"),
    ], ids=["interface-id", "method-name"])
    def test_non_string_names_are_refused(self, id, methods, shown):
        with pytest.raises(ValidationError) as exc:
            build_interface(id, methods)
        assert str(exc.value) == shown

    @pytest.mark.parametrize("methods,shown", [
        ([("m", ["A"], "x")], "('m', ['A'], 'x')"),
        ("m", "'m'"),
        ([None], "None"),
    ], ids=["three-items", "bare-string", "none"])
    def test_method_that_is_not_a_pair_is_named(self, methods, shown):
        with pytest.raises(ArityMismatch) as exc:
            build_interface("X", methods)
        assert str(exc.value) == (
            f"interface 'X': method {shown} is not a (name, values) pair"
        )

    @pytest.mark.parametrize("methods", [
        [], (), "", iter([]), (m for m in ()),
    ], ids=["list", "tuple", "string", "iterator", "generator"])
    def test_no_methods_is_empty_however_given(self, methods):
        # Counted after reading, so an empty iterator, which is truthy,
        # is refused like an empty list.
        with pytest.raises(EmptyDomain) as exc:
            build_interface("X", methods)
        assert str(exc.value) == "interface 'X' must declare at least one method"

    @pytest.mark.parametrize("methods", [5, 2.5, None])
    def test_methods_that_are_not_a_collection_are_named(self, methods):
        with pytest.raises(ArityMismatch) as exc:
            build_interface("X", methods)
        assert str(exc.value) == (
            f"interface 'X': methods {methods!r} are not a list of (name, values) pairs"
        )

    @pytest.mark.parametrize("values", ["abc", {"a": 1}, 5])
    def test_domain_that_is_not_a_list_is_refused(self, values):
        with pytest.raises(UnknownValue) as exc:
            build_interface("X", [("m", values)])
        assert str(exc.value) == (
            f"domain {values!r} is not a list of value names in method 'm' of "
            "interface 'X'"
        )


class TestBuildAdapter:
    def test_full_table_lookup(self):
        adapter = build_adapter(
            "Video1toVideo2",
            video1(),
            video2(),
            [(k, [list(s) for s in v]) for k, v in VIDEO1_TO_VIDEO2_ROWS.items()],
        )
        out = adapter.lookup(("MOV", "MP3"))
        assert out == (
            frozenset({"bot", "MP4"}),
            frozenset({"bot"}),
            frozenset({"bot"}),
            frozenset({"bot"}),
        )

    def test_sparse_build_induces_same_function(self):
        full = build_adapter(
            "full",
            video1(),
            video2(),
            [(k, [list(s) for s in v]) for k, v in VIDEO1_TO_VIDEO2_ROWS.items()],
        )
        # only the rows with a non-trivial play output, rest defaulted
        sparse = build_adapter(
            "sparse",
            video1(),
            video2(),
            [
                (k, [list(s) for s in v])
                for k, v in VIDEO1_TO_VIDEO2_ROWS.items()
                if v[0] != {"bot"}
            ],
        )
        for key in VIDEO1_TO_VIDEO2_ROWS:
            assert full.lookup(key) == sparse.lookup(key)

    def test_output_outside_target_domain(self):
        with pytest.raises(UnknownValue):
            build_adapter(
                "bad", video1(), video2(),
                [(("MOV", "MP3"), [["RM"], [], [], []])],
            )

    def test_duplicate_input(self):
        with pytest.raises(DuplicateInput) as exc:
            build_adapter(
                "bad", video1(), video2(),
                [
                    (("MOV", "MP3"), [["MP4"], [], [], []]),
                    (["MOV", "MP3"], [["DIVX"], [], [], []]),
                ],
            )
        assert str(exc.value) == (
            "adapter 'bad': duplicate entry for input ('MOV', 'MP3')"
        )

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            build_adapter("bad", video1(), video2(), [(("MOV",), [[], [], [], []])])

    def test_generator_input_is_checked_like_a_list(self):
        # The input is read once, so a bad output is worded, not a TypeError.
        with pytest.raises(UnknownValue) as exc:
            build_adapter("g", video1(), video2(), [
                ((v for v in ["MOV", "MP3"]), [["RM"], [], [], []]),
            ])
        assert str(exc.value) == (
            "adapter 'g': entry ('MOV', 'MP3') output: value 'RM' is not in "
            "the domain of method 'play' of interface 'Video2'"
        )
        adapter = build_adapter("g", video1(), video2(), [
            ((v for v in ["MOV", "MP3"]), [["MP4"], [], [], []]),
        ])
        assert adapter.lookup(("MOV", "MP3"))[0] == {"bot", "MP4"}

    def test_generator_output_set_keeps_its_values(self):
        adapter = build_adapter("g", video1(), video2(), [
            (("MOV", "MP3"), [(v for v in ["MP4"]), [], [], ()]),
        ])
        assert adapter.lookup(("MOV", "MP3"))[0] == {"bot", "MP4"}

    @pytest.mark.parametrize("row,shown", [
        ((5, [["MP4"], [], [], []]), "(5, [['MP4'], [], [], []])"),
        ((["MOV", "MP3"],), "(['MOV', 'MP3'],)"),
        ((("MOV", "MP3"), [["MP4"], [], [], []], "x"),
         "(('MOV', 'MP3'), [['MP4'], [], [], []], 'x')"),
        (7, "7"),
        (None, "None"),
    ], ids=["input-int", "one-item", "three-items", "int", "none"])
    def test_row_that_is_not_a_pair_is_named(self, row, shown):
        # Documents hand over only lists; library callers may pass anything.
        good = (("MOV", "MP3"), [["MP4"], [], [], []])
        with pytest.raises(ArityMismatch) as exc:
            build_adapter("r", video1(), video2(), [good, row])
        assert str(exc.value) == (
            f"adapter 'r': entry {shown} is not a pair of an input tuple and "
            "output sets"
        )

    @pytest.mark.parametrize("entries", [5, None])
    def test_entries_that_are_not_a_collection_are_named(self, entries):
        with pytest.raises(ArityMismatch) as exc:
            build_adapter("r", video1(), video2(), entries)
        assert str(exc.value) == (
            f"adapter 'r': entries {entries!r} are not a list of (input tuple, "
            "output sets) pairs"
        )

    def test_non_string_id_is_refused(self):
        with pytest.raises(ValidationError) as exc:
            build_adapter(9, video1(), video2(), [])
        assert str(exc.value) == "adapter id 9 is not a string"

    def test_lookup_is_total_with_bot_everywhere(self):
        import itertools

        adapter = build_adapter("sparse", video1(), video2(), [])
        for key in itertools.product(*(d.values for d in video1().domains)):
            out = adapter.lookup(key)
            for s, method in zip(out, video2().methods):
                assert BOT in s
                assert s <= set(method.domain.values)


class TestBuildGraph:
    def test_video_example_shape(self, video_graph):
        assert len(video_graph.interfaces) == 4
        assert len(video_graph.adapters) == 6

    def test_single_node_graph(self):
        g = build_graph([video1()], [])
        assert list(g.interfaces) == ["Video1"]
        assert g.adapters == {}

    def test_unknown_interface(self):
        v1 = video1()
        ghost = build_interface("Video9", [("m", ["A"])])
        adapter = build_adapter("toGhost", v1, ghost, [])
        with pytest.raises(UnknownInterface):
            build_graph([v1], [adapter])

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            build_graph([video1(), video1()], [])

    def test_huge_ids_in_graph_errors_are_cut(self):
        huge = "A" * 100_000
        declared = build_interface(huge, [("m", ["X"])])
        redeclared = build_interface(huge, [("m", ["Y"])])
        adapter = build_adapter(huge, redeclared, redeclared, [])
        with pytest.raises(InterfaceMismatch) as exc:
            build_graph([declared], [adapter])
        message = str(exc.value)
        assert len(message) < 300
        assert message.count("(100002 characters)") == 2

    def test_endpoints_resolve(self, video_graph):
        for adapter in video_graph.adapters.values():
            assert video_graph.interfaces[adapter.source.id] == adapter.source
            assert video_graph.interfaces[adapter.target.id] == adapter.target

    def test_adjacency_matches_a_scan_in_declaration_order(self, video_graph):
        adapters = list(video_graph.adapters.values())
        for interface_id in [*video_graph.interfaces, "Video9"]:
            assert video_graph.outgoing(interface_id) == tuple(
                a for a in adapters if a.source.id == interface_id
            )
            assert video_graph.incoming(interface_id) == tuple(
                a for a in adapters if a.target.id == interface_id
            )

    def test_adjacency_is_one_shared_tuple(self, video_graph):
        # Every caller reads the same index; a tuple cannot be changed.
        for lookup in (video_graph.outgoing, video_graph.incoming):
            for interface_id in [*video_graph.interfaces, "Video9"]:
                first = lookup(interface_id)
                assert type(first) is tuple
                assert lookup(interface_id) is first


class TestVectors:
    def test_full_vector_video1(self):
        v = full_vector(video1())
        assert v.components == (
            frozenset({"bot", "MOV", "AVI", "MKV"}),
            frozenset({"bot", "MP3", "OGG", "WAV"}),
        )

    def test_full_vector_video2(self):
        v = full_vector(video2())
        assert v.components == (
            frozenset({"bot", "INDEO", "MP4", "THEORA", "DIVX"}),
            frozenset({"bot", "DUMMY"}),
            frozenset({"bot", "INTEGER"}),
            frozenset({"bot", "LANGUAGE"}),
        )

    def test_full_vector_single_method(self):
        iface = build_interface("T", [("stop", ["DUMMY"])])
        assert full_vector(iface).components == (frozenset({"bot", "DUMMY"}),)

    def test_normalize_injects_bot(self):
        v = normalize_vector(video1(), [{"MOV", "MKV"}, {"MP3"}])
        assert v.components == (
            frozenset({"bot", "MOV", "MKV"}),
            frozenset({"bot", "MP3"}),
        )

    def test_normalize_all_empty_is_bottom(self):
        v = normalize_vector(video1(), [set(), set()])
        assert v.components == (frozenset({"bot"}), frozenset({"bot"}))

    def test_normalize_unknown_value(self):
        with pytest.raises(UnknownValue):
            normalize_vector(video1(), [{"RM"}, set()])

    def test_normalize_arity(self):
        with pytest.raises(ArityMismatch):
            normalize_vector(video1(), [{"MOV"}])

    def test_normalize_idempotent(self):
        iface = video1()
        v = normalize_vector(iface, [{"MOV"}, {"MP3", "WAV"}])
        again = normalize_vector(iface, [set(c) for c in v.components])
        assert again == v


@pytest.mark.parametrize("value,shown", [
    ("x" * 78, "'" + "x" * 78 + "'"),
    ("x" * 79, "'" + "x" * 79 + "... (81 characters)"),
])
def test_brief_keeps_values_up_to_80_characters(value, shown):
    assert brief(value) == shown
