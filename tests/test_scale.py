"""Work counts at scale, each pinned exactly: a figure that grows means an
algorithm lost its bound.

- Tabulation adapts only atom rows: a 65,536-row table over 4 methods of
  4 values makes 9^4 = 6,561 lookups (adapting every row makes 5,308,416).
- Each search adapts each (adapter, vector) pair once: on a lossy bridge
  into a lossless 7-clique, greedy into C1 makes 79 adaptations (its
  forward bound included) and the oracle 32, one per distinct pair
  (adapting every step of every scored chain makes 2,933 and 652).
- The forward bound keeps greedy polynomial on that bridge: into C1 of a
  7- and a 9-clique it pushes 48 and 80 partial chains (ranking by full
  capability alone pushes 2,283 and 123,301).
- A parse checks each distinct table once: the 1,199 identity adapters of
  a 1,200-interface lossless path call ``build_adapter`` once and hold one
  table (checking every copy calls it 1,199 times).
"""

from __future__ import annotations

import io

import pytest

from adaptchain import document, search, semantics
from adaptchain.cli import run_cli
from adaptchain.document import parse_document, serialize_graph
from adaptchain.model import Adapter
from adaptchain.semantics import tabulate_adaptation
from conftest import lossless_path
from test_search import clique_bridge


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


def test_each_search_adapts_each_pair_once_on_a_7_clique(monkeypatch):
    calls = []
    adapt = semantics.apply_adaptation
    monkeypatch.setattr(
        semantics, "apply_adaptation", lambda a, p: calls.append((a, p)) or adapt(a, p)
    )
    graph, counts = clique_bridge(7), []
    for find in (search.greedy_chain, search.oracle_optimal):
        calls.clear()
        assert find(graph, {"S"}, "C1").chain == ("B0", "K01")
        counts += [len(calls), len({(id(a), p) for a, p in calls})]
    assert counts == [79, 79, 32, 32]


@pytest.mark.parametrize("k,pushes", [(7, 48), (9, 80)])
def test_forward_bound_keeps_greedy_polynomial(monkeypatch, k, pushes):
    pushed = []
    prepend = search.prepend
    monkeypatch.setattr(search, "prepend", lambda a, p: pushed.append(a) or prepend(a, p))
    result = search.greedy_chain(clique_bridge(k), {"S"}, "C1")
    # The identity at the target is the first push.
    assert (result.chain, result.score, len(pushed) + 1) == (("B0", "K01"), 3.0, pushes)


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
