"""The library's chain search against the simple implementations it
replaced (``search_reference``), plus machine-independent bounds on how
many adaptations a search performs: one per distinct (adapter, vector)
pair, and none carried from one search into the next. A seeded property
draws tie-heavy queries, where the tie-break alone picks the answer. The
forward bound greedy ranks by is checked against every acyclic chain
from a source."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import search_reference as ref
from adaptchain import build_adapter, build_graph, build_interface, search, semantics
from adaptchain.errors import NoChain
from adaptchain.generator import GenParams, random_instance
from adaptchain.model import full_vector
from adaptchain.search import UNIT_WEIGHTS, WeightMap, chain_pipeline
from conftest import lossless_path
from test_acceptance import seeded_instance
from test_search import clique_bridge, m_bridge, tied_chains, two_bridge


def lossy_clique(k: int):
    """A source S bridged lossily into a k-clique C0..C{k-1} whose adapters
    each drop the value picked by (x + y) % 5, or nothing when that is 4."""
    values = ["a", "b", "c", "d"]
    source = build_interface("S", [("m", values)])
    clique = [build_interface(f"C{x}", [("m", values)]) for x in range(k)]

    def adapter(id, src, tgt, dropped):
        return build_adapter(
            id, src, tgt, [((v,), [[v]]) for v in values if v != dropped]
        )

    adapters = [adapter("B0", source, clique[0], "a")] + [
        adapter(f"K{x}{y}", clique[x], clique[y], (values + [None])[(x + y) % 5])
        for x in range(k)
        for y in range(k)
        if x != y
    ]
    return build_graph([source, *clique], adapters)


def graded_weights(graph):
    return WeightMap({
        (i.id, m.name, v): 0.5 + 0.25 * n
        for i in graph.interfaces.values()
        for m in i.methods
        for n, v in enumerate(m.domain.non_bottom)
    })


def same_search(graph, sources, target, weights):
    """Greedy and oracle each agree with their reference: same result, or
    NoChain from both."""
    for new, old in ((search.greedy_chain, ref.greedy_chain),
                     (search.oracle_optimal, ref.oracle_optimal)):
        try:
            expected = old(graph, sources, target, weights)
        except NoChain:
            with pytest.raises(NoChain):
                new(graph, sources, target, weights)
            continue
        assert new(graph, sources, target, weights) == expected


def same_enumeration(graph, source, target):
    assert search.enumerate_chains(graph, source, target) == ref.enumerate_chains(
        graph, source, target
    )


@pytest.mark.parametrize("seed", range(200))
def test_seeded_instances(seed):
    graph, source, target, random_weights = seeded_instance(seed)
    for weights in (UNIT_WEIGHTS, random_weights):
        same_search(graph, {source}, target, weights)
        same_search(graph, set(graph.interfaces), target, weights)
    same_enumeration(graph, source, target)
    same_enumeration(graph, target, source)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cliques(k):
    graph = lossy_clique(k)
    for target in graph.interfaces:
        for weights in (UNIT_WEIGHTS, graded_weights(graph)):
            same_search(graph, {"S"}, target, weights)
            same_search(graph, {"C0", f"C{k - 1}"}, target, weights)
        same_enumeration(graph, "S", target)
        same_enumeration(graph, "C1", target)


def zero_weights(graph):
    """Weights 0, 0.5, 1 and 2 in turn over each interface's values, so
    the first value of every domain weighs nothing."""
    return WeightMap({
        (i.id, m.name, v): (0, 0.5, 1, 2)[n % 4]
        for i in graph.interfaces.values()
        for m in i.methods
        for n, v in enumerate(m.domain.non_bottom)
    })


@pytest.mark.parametrize("k", [5, 6, 7])
def test_two_bridges(k):
    """Two bridges together bring full capability into the clique, and the
    bound keeps apart what each brings: greedy equals the oracle and both
    references."""
    graph = two_bridge(k)
    for target in ("C0", "C1", f"C{k - 1}"):
        for weights in (UNIT_WEIGHTS, zero_weights(graph)):
            same_search(graph, {"S"}, target, weights)
            assert search.greedy_chain(graph, {"S"}, target, weights) == (
                search.oracle_optimal(graph, {"S"}, target, weights)
            )


def test_equal_real_scores_tie_exactly():
    """A keeps {x, y, z} and B keeps {x, w}, whose weights have the same
    real sum, 1e16 + 2. Rounded exactly, both score that float, so the tie
    breaks toward A; summed one value at a time, 1e16 + 1 + 1 rounds to
    1e16 and B would win."""
    values = ["w", "x", "y", "z"]
    s, t = (build_interface(n, [("m", values)]) for n in ("S", "T"))
    graph = build_graph([s, t], [
        build_adapter(id, s, t, [((v,), [[v]]) for v in kept])
        for id, kept in (("A", "xyz"), ("B", "xw"))
    ])
    weights = WeightMap({("T", "m", "x"): 1e16, ("T", "m", "y"): 1,
                         ("T", "m", "z"): 1, ("T", "m", "w"): 2})
    for find in (search.greedy_chain, search.oracle_optimal,
                 ref.greedy_chain, ref.oracle_optimal):
        result = find(graph, {"S"}, "T", weights)
        assert (result.chain, result.score) == (("A",), 1.0000000000000002e16)


def assert_bound_is_sound(graph, sources, target):
    """U[s] is {full capability} at each source s that can reach the
    target; each U[X] is an antichain under componentwise subset of at
    most ``search._BOUND_WIDTH`` vectors over X; and every acyclic chain
    from a source to an interface X that can reach the target brings a
    subset of some vector of U[X] there. Returns the chains checked."""
    start = semantics.identity_pipeline(graph.interfaces[target])
    bound = search._forward_bound(graph, sorted(sources), start)
    live = {x for x in graph.interfaces if ref.enumerate_chains(graph, x, target)}
    assert set(bound) <= live
    for x, vectors in bound.items():
        assert 1 <= len(vectors) <= search._BOUND_WIDTH
        assert all(v.interface_id == x for v in vectors)
        assert not any(
            ref.tuple_subset(u, v)
            for i, u in enumerate(vectors) for j, v in enumerate(vectors) if i != j
        )
    checked = 0
    for s in sources:
        full = full_vector(graph.interfaces[s])
        if s in live:
            assert bound[s] == (full,)
        for x in live:
            for chain in ref.enumerate_chains(graph, s, x):
                brought = ref.fold(chain_pipeline(graph, chain, s), full)
                assert any(ref.tuple_subset(brought, u) for u in bound[x])
                checked += 1
    return checked


@pytest.mark.parametrize("seed", range(60))
def test_forward_bound_on_seeded_instances(seed):
    graph, source, _, _ = seeded_instance(seed)
    for target in graph.interfaces:
        for sources in ({source}, set(graph.interfaces) - {target}):
            assert_bound_is_sound(graph, sources, target)


def bridges_past_the_width(k):
    """More bridges than the bound keeps vectors, so it joins them at C0."""
    return m_bridge(search._BOUND_WIDTH + 1, k)


@pytest.mark.parametrize(
    "family", [lossy_clique, clique_bridge, two_bridge, bridges_past_the_width]
)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_forward_bound_on_cliques(family, k):
    graph = family(k)
    for target in graph.interfaces:
        for sources in ({"S"}, {"S", "C1"}):
            assert assert_bound_is_sound(graph, sources, target) > 0


def test_path():
    graph = lossless_path(50)
    for source, target in (("P0000", "P0049"), ("P0010", "P0030"), ("P0049", "P0000")):
        same_search(graph, {source}, target, UNIT_WEIGHTS)
        same_enumeration(graph, source, target)


small_instances = st.builds(
    GenParams,
    interface_count=st.integers(2, 6),
    methods_per_interface=st.just((1, 2)),
    values_per_method=st.just((1, 2)),
    adapter_count=st.integers(1, 12),
    entry_density=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    seed=st.integers(0, 2**32),
).map(lambda params: random_instance(params)[0])
tie_heavy_graphs = st.one_of(
    small_instances,
    st.integers(3, 5).map(clique_bridge),
    st.integers(3, 5).map(lossy_clique),
    st.booleans().map(tied_chains),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_searches_agree_on_tie_heavy_queries(data):
    """Greedy, the oracle and the reference greedy return the same chain,
    source, score and final vector, or all raise NoChain, on small graphs
    with 1-3 sources and weights from {0, 0.5, 1, 2}. Zero weights and
    lossless cliques make many chains score the same, so the answer rests
    on the (-score, length, adapter ids) tie-break."""
    graph = data.draw(tie_heavy_graphs)
    target = data.draw(st.sampled_from(sorted(graph.interfaces)))
    others = sorted(set(graph.interfaces) - {target})  # else the identity wins
    sources = data.draw(
        st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True)
    )
    weights = WeightMap({
        (i.id, m.name, v): data.draw(st.sampled_from([0, 0.5, 1, 2]))
        for i in graph.interfaces.values()
        for m in i.methods
        for v in m.domain.non_bottom
    })
    answers = []
    for find in (search.greedy_chain, search.oracle_optimal, ref.greedy_chain):
        try:
            answers.append(find(graph, sources, target, weights))
        except NoChain:
            answers.append(NoChain)
    assert answers[0] == answers[1] == answers[2]


@pytest.fixture
def bounds_per_search(monkeypatch):
    """For each greedy call, whether its target is a source and how many
    times it computed the forward bound."""
    calls, searches = [], []
    forward_bound, greedy = search._forward_bound, search.greedy_chain

    def counted(graph, sources, target, *args):
        before = len(calls)
        try:
            return greedy(graph, sources, target, *args)
        finally:
            searches.append((target in sources, len(calls) - before))

    monkeypatch.setattr(
        search, "_forward_bound", lambda *args: calls.append(1) or forward_bound(*args)
    )
    monkeypatch.setattr(search, "greedy_chain", counted)
    return searches


def assert_each_search_bounds_once(searches, count):
    """``count`` greedy calls ran, and each whose target is not a source
    computed the forward bound exactly once; the others never did."""
    assert len(searches) == count
    assert all(n == (0 if is_source else 1) for is_source, n in searches)


def test_a_target_that_is_a_source_computes_no_bound(bounds_per_search):
    result = search.greedy_chain(clique_bridge(4), {"S", "C1"}, "C1")
    assert result.chain == ()
    assert_each_search_bounds_once(bounds_per_search, 1)


def test_tie_heavy_queries_compute_the_bound_once_each(bounds_per_search):
    """Replays the tie-heavy property's 300 cases, none of whose targets
    is a source."""
    test_searches_agree_on_tie_heavy_queries()
    assert_each_search_bounds_once(bounds_per_search, 300)


@pytest.mark.parametrize("params", [
    GenParams(4, (1, 1), (1, 2), 8, 0.75, 251),
    GenParams(5, (1, 1), (1, 2), 20, 1.0, 268),
    GenParams(6, (1, 1), (1, 2), 8, 1.0, 224),
], ids=["4-251", "5-268", "6-224"])
def test_searches_agree_where_full_capability_ranks_loosely(bounds_per_search, params):
    """On these instances, ranking by full capability pushed more chains
    than the graph has adapters before it popped a suffix of the answer;
    ranking by the forward bound from the first push returns the same
    chain as the references."""
    graph, source, target = random_instance(params)
    same_search(graph, {source}, target, UNIT_WEIGHTS)
    assert_each_search_bounds_once(bounds_per_search, 1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def agree_from_the_bridged_source(data):
    """The tie-heavy agreement on queries from S alone into a bridged
    clique of 3 to 6 interfaces, where ranking by full capability is loose
    inside the clique."""
    graph = data.draw(st.one_of(
        *(st.integers(3, 6).map(family)
          for family in (clique_bridge, lossy_clique, two_bridge))
    ))
    target = data.draw(st.sampled_from(sorted(set(graph.interfaces) - {"S"})))
    weights = WeightMap({
        (i.id, m.name, v): data.draw(st.sampled_from([0, 0.5, 1, 2]))
        for i in graph.interfaces.values()
        for m in i.methods
        for v in m.domain.non_bottom
    })
    answers = []
    for find in (search.greedy_chain, search.oracle_optimal, ref.greedy_chain):
        try:
            answers.append(find(graph, ["S"], target, weights))
        except NoChain:
            answers.append(NoChain)
    assert answers[0] == answers[1] == answers[2]


def test_searches_agree_from_the_bridged_source(bounds_per_search):
    """Replays the 100 cases of the property above: S is never the
    target."""
    agree_from_the_bridged_source()
    assert_each_search_bounds_once(bounds_per_search, 100)


@pytest.fixture
def adaptations(monkeypatch):
    """Records the (adapter, vector) pair of every apply_adaptation call
    made through either module. The list holds each adapter, so the
    identities of the recorded adapters are never reused."""
    calls = []
    original = semantics.apply_adaptation

    def counted(adapter, p):
        calls.append((adapter, p))
        return original(adapter, p)

    monkeypatch.setattr(semantics, "apply_adaptation", counted)
    monkeypatch.setattr(search, "apply_adaptation", counted, raising=False)
    return calls


@pytest.mark.parametrize("n", [2, 50, 200])
def test_greedy_adapts_linearly_on_a_lossless_path(adaptations, n):
    graph = lossless_path(n)
    result = search.greedy_chain(graph, {"P0000"}, f"P{n - 1:04d}")
    assert len(result.chain) == n - 1
    assert len(adaptations) <= 2 * n + 2


@pytest.mark.parametrize("k", [3, 6])
def test_oracle_adapts_no_more_than_one_pass_per_chain(adaptations, k):
    graph = lossy_clique(k)
    chains = ref.enumerate_chains(graph, "S", f"C{k - 1}")
    search.oracle_optimal(graph, {"S"}, f"C{k - 1}")
    assert 0 < len(adaptations) <= sum(len(c) for c in chains)


@pytest.mark.parametrize(
    "new, old",
    [(search.greedy_chain, ref.greedy_chain), (search.oracle_optimal, ref.oracle_optimal)],
    ids=["greedy", "oracle"],
)
def test_each_search_adapts_each_pair_once(adaptations, new, old):
    """On a lossy bridge into a lossless 6-clique, where many chains share
    each step, a search adapts each distinct (adapter, vector) pair exactly
    once. A second search on the same graph repeats every adaptation, so
    nothing is cached from one search to the next, and both answers are
    the reference's."""
    graph = clique_bridge(6)
    expected = old(graph, {"S"}, "C1")  # adapts through its own function
    counts = []
    for _ in range(2):
        adaptations.clear()
        assert new(graph, {"S"}, "C1") == expected
        counts.append(len(adaptations))
        pairs = {(id(adapter), p) for adapter, p in adaptations}
        assert 0 < len(adaptations) == len(pairs)
    assert counts[0] == counts[1]
