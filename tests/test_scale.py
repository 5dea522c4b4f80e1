"""Work counts at scale, each pinned exactly: a figure that grows means an
algorithm lost its bound.

- Tabulation adapts only atom rows: a 65,536-row table over 4 methods of
  4 values makes 9^4 = 6,561 lookups (adapting every row makes 5,308,416).
- Each search adapts each (adapter, vector) pair once: on a lossy bridge
  into a lossless 7-clique, greedy into C1 makes 43 adaptations (its
  forward bound included) and the oracle 32, one per distinct pair
  (adapting every step of every scored chain makes 2,933 and 652).
- The forward bound keeps greedy polynomial on that bridge: into C1 of a
  7- and a 9-clique it pushes 38 and 66 partial chains (ranking by full
  capability alone pushes 2,283 and 123,301).
- The bound keeps apart what different bridges bring, up to
  ``search._BOUND_WIDTH`` vectors per interface: two bridges that lose
  different values into a 6- to 9-clique push 28, 39, 52 and 67 partial
  chains (joining what they bring pushes 456, 2,609, 17,614 and 137,001),
  and eight into a 7-clique 45 (4,565); ``adaptchain chain`` answers on
  a 10-clique. Past the width the vectors are joined, and greedy still
  equals the oracle.
- Greedy ranks by the forward bound from its first push. A target fed by
  a lossless 9-clique that no source reaches is refused with no push (82
  when full capability ranked until the pushes passed the adapter count).
  Full capability is adapted only at sources, so wide interfaces pay the
  full product only on the adapters out of the source, and the bound
  adapts nothing into a source or back into its own start. A
  1,200-interface lossless path takes 1,200 pushes and 1,199 adaptations,
  the fixpoint's included.
- A parse checks each distinct method list and table once: the 1,200
  interfaces of a lossless path call ``build_interface`` once and hold one
  methods tuple, and its 1,199 identity adapters call ``build_adapter``
  once and hold one table (checking every copy calls them 1,200 and 1,199
  times).
- A parse lifts each distinct output list once per adapter and target
  method: the 7 adapters of a parsed ``wide_graph`` (seed 1), of 59 and
  60 rows, hold 3 output-set objects per target method (lifting every
  copy gives one per row).
"""

from __future__ import annotations

import io
import random

import pytest

from adaptchain import build_adapter, build_graph, build_interface, document, search, semantics
from adaptchain.cli import run_cli
from adaptchain.document import parse_document, serialize_graph
from adaptchain.errors import NoChain
from adaptchain.model import Adapter, full_vector
from adaptchain.semantics import tabulate_adaptation
from conftest import lossless_path
from test_search import clique_bridge, m_bridge, two_bridge


def test_tabulation_looks_up_atom_rows_only(monkeypatch):
    out = io.StringIO()
    assert run_cli([
        "gen", "--interfaces", "2", "--adapters", "1", "--methods", "4",
        "--values", "4", "--density", "0.3", "--seed", "1",
    ], out=out, err=io.StringIO()) == 0
    (adapter,) = parse_document(out.getvalue().encode()).adapters.values()
    calls = []
    lookup = Adapter.lookup
    monkeypatch.setattr(Adapter, "lookup", lambda self, x: calls.append(x) or lookup(self, x))
    assert (len(tabulate_adaptation(adapter).rows), len(calls)) == (65536, 6561)


@pytest.fixture
def counted(monkeypatch):
    """Records every prepend made by the searches and every adaptation.
    Every push but the identity at the target prepends one adapter."""
    calls = {"prepend": [], "adapt": []}
    prepend, adapt = search.prepend, semantics.apply_adaptation
    monkeypatch.setattr(
        search, "prepend", lambda a, p: calls["prepend"].append(a) or prepend(a, p)
    )
    monkeypatch.setattr(
        semantics, "apply_adaptation",
        lambda a, p: calls["adapt"].append((a, p)) or adapt(a, p),
    )
    return calls


def test_each_search_adapts_each_pair_once_on_a_7_clique(counted):
    calls = counted["adapt"]
    graph, counts = clique_bridge(7), []
    for find in (search.greedy_chain, search.oracle_optimal):
        calls.clear()
        assert find(graph, {"S"}, "C1").chain == ("B0", "K01")
        counts += [len(calls), len({(id(a), p) for a, p in calls})]
    assert counts == [43, 43, 32, 32]


@pytest.mark.parametrize("k,pushes", [(7, 38), (9, 66)])
def test_forward_bound_keeps_greedy_polynomial(counted, k, pushes):
    result = search.greedy_chain(clique_bridge(k), {"S"}, "C1")
    pushed = len(counted["prepend"]) + 1
    assert (result.chain, result.score, pushed) == (("B0", "K01"), 3.0, pushes)


@pytest.mark.parametrize("graph,score,pushes", [
    *((two_bridge(k), 3.0, pushes) for k, pushes in [(6, 28), (7, 39), (8, 52), (9, 67)]),
    (m_bridge(8, 7), 8.0, 45),
], ids=["two-6", "two-7", "two-8", "two-9", "eight-7"])
def test_the_bound_keeps_bridges_apart(counted, graph, score, pushes):
    result = search.greedy_chain(graph, {"S"}, "C1")
    pushed = len(counted["prepend"]) + 1
    assert (result.chain, result.score, pushed) == (("B0", "K01"), score, pushes)


def test_two_bridges_into_a_10_clique_answer_through_the_cli(tmp_path):
    """The command line on the two-bridge document: a bound that joined
    the bridges would pass the push cap (about 13 s) before answering."""
    doc = tmp_path / "two-bridge.json"
    doc.write_text(serialize_graph(two_bridge(10)), encoding="utf-8")
    out = io.StringIO()
    argv = ["chain", "--graph", str(doc), "--source", "S", "--target", "C9"]
    assert run_cli(argv, out=out, err=io.StringIO()) == 0
    assert "score: 3.0" in out.getvalue().splitlines()


@pytest.mark.parametrize("m", [9, 12])
def test_greedy_equals_the_oracle_past_the_bound_width(m):
    """m bridges into a 5-clique bring more vectors to C0 than the bound
    keeps, so it joins them into full capability there."""
    assert m > search._BOUND_WIDTH
    graph = m_bridge(m, 5)
    start = semantics.identity_pipeline(graph.interfaces["C1"])
    assert search._forward_bound(graph, ["S"], start)["C0"] == (
        full_vector(graph.interfaces["C0"]),
    )
    for target in ("C0", "C1", "C4"):
        greedy = search.greedy_chain(graph, {"S"}, target)
        assert greedy == search.oracle_optimal(graph, {"S"}, target)
        assert greedy.score == m


def test_greedy_stays_linear_on_a_lossless_path(counted):
    result = search.greedy_chain(lossless_path(1200), {"P0000"}, "P1199")
    assert len(result.chain) == 1199
    assert (len(counted["prepend"]) + 1, len(counted["adapt"])) == (1200, 1199)


def test_a_target_no_source_reaches_is_refused_with_no_push(counted):
    """T is fed by every interface of a lossless 9-clique, and the source S
    reaches neither."""
    values = ["a", "b", "c"]
    lossless = [((v,), [[v]]) for v in values]
    names = ["S", "T", *(f"C{i}" for i in range(9))]
    interfaces = {n: build_interface(n, [("m", values)]) for n in names}
    adapters = [
        build_adapter(f"K{i}{j}", interfaces[f"C{i}"], interfaces[f"C{j}"], lossless)
        for i in range(9) for j in range(9) if i != j
    ]
    adapters += [
        build_adapter(f"T{i}", interfaces[f"C{i}"], interfaces["T"], lossless)
        for i in range(9)
    ]
    with pytest.raises(NoChain):
        search.greedy_chain(build_graph(interfaces.values(), adapters), {"S"}, "T")
    assert counted["prepend"] == []


def test_the_bound_skips_self_loops_and_adapters_into_a_source(counted):
    """I0 and I1 are joined each way, and each to itself, by 50 parallel
    lossless adapters, as ``gen --interfaces 2`` draws them. Greedy from I0
    to I1 adapts only the 50 from I0 to I1; a bound that also adapted the
    self-loops and the adapters back into the source would make 200."""
    values = ["a", "b", "c"]
    lossless = [((v,), [[v]]) for v in values]
    i0, i1 = (build_interface(n, [("m", values)]) for n in ("I0", "I1"))
    adapters = [
        build_adapter(f"A{k:03d}", x, y, lossless)
        for k, (x, y) in enumerate([(i0, i1), (i0, i0), (i1, i1), (i1, i0)] * 50)
    ]
    result = search.greedy_chain(build_graph([i0, i1], adapters), {"I0"}, "I1")
    assert (result.chain, result.score) == (("A000",), 3.0)
    assert len(counted["adapt"]) == 50
    assert all((a.source, a.target) == (i0, i1) for a, _ in counted["adapt"])


def wide_graph(rng):
    """The wide-interface workload's shape at a smaller width: S, A, B and
    T of 6 methods of 3 values, joined S->A, S->B, A->B, B->A, A->T, B->T
    and S->T by sparse adapters whose outputs keep at most 2 values per
    method, so no vector adapted out of S is full capability again."""
    names = "SABT"
    interfaces = {
        n: build_interface(n, [(f"m{i}", ["x", "y", "z"]) for i in range(6)])
        for n in names
    }
    domains = [["bot", "x", "y", "z"]] * 6
    adapters = []
    for k, (x, y) in enumerate(["SA", "SB", "AB", "BA", "AT", "BT", "ST"]):
        pools = [rng.sample("xyz", 2) for _ in range(6)]
        inputs = {tuple(rng.choice(d) for d in domains) for _ in range(60)}
        entries = [
            (row, [rng.sample(p, rng.randint(1, 2)) for p in pools])
            for row in sorted(inputs)
        ]
        adapters.append(build_adapter(
            f"W{k}", interfaces[x], interfaces[y], entries, [p[:1] for p in pools]
        ))
    return build_graph(interfaces.values(), adapters)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_adapts_full_capability_only_at_sources(counted, seed):
    """Each full product is one adapter out of S (W0, W1 and W6): ranking
    a chain from A or B by full capability there would add W2-W5's."""
    graph = wide_graph(random.Random(seed))
    search.greedy_chain(graph, {"S"}, "T")
    full = sorted(
        a.id for a, p in counted["adapt"] if p == full_vector(a.source)
    )
    assert full == ["W0", "W1", "W6"]


def test_a_parse_checks_each_distinct_table_once(monkeypatch):
    text = serialize_graph(lossless_path(1200))
    calls = []
    build = document.build_adapter
    monkeypatch.setattr(
        document, "build_adapter", lambda *args: calls.append(args[0]) or build(*args)
    )
    adapters = parse_document(text).adapters.values()
    tables = {id(a.table) for a in adapters}
    assert (len(calls), len(adapters), len(tables)) == (1, 1199, 1)


def test_a_parse_lifts_each_distinct_output_list_once_per_method():
    adapters = parse_document(serialize_graph(wide_graph(random.Random(1)))).adapters
    sets = {
        a.id: [len({id(row[m]) for row in a.table.values()}) for m in range(6)]
        for a in adapters.values()
    }
    rows = [len(a.table) for a in adapters.values()]
    assert (sets, rows) == (dict.fromkeys(adapters, [3] * 6), [59, 59, 60, 60, 60, 60, 60])


def test_a_parse_checks_each_distinct_method_list_once(monkeypatch):
    text = serialize_graph(lossless_path(1200))
    calls = []
    build = document.build_interface
    monkeypatch.setattr(
        document, "build_interface", lambda *args: calls.append(args[0]) or build(*args)
    )
    interfaces = parse_document(text).interfaces.values()
    methods = {id(i.methods) for i in interfaces}
    assert (len(calls), len(interfaces), len(methods)) == (1, 1200, 1)
