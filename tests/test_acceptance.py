"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Everything seeded here is recomputed a second time by criterion 8,
which demands byte-identical JSON reports.
"""

from __future__ import annotations

import io
import json
import math
import time

import pytest

from adaptchain import (
    apply_adaptation,
    apply_pipeline,
    build_adapter,
    build_graph,
    build_interface,
    count_abstract,
    function_sizes,
    greedy_chain,
    identity_pipeline,
    load_fixture,
    normalize_vector,
    oracle_optimal,
    prepend,
    tabulate_adaptation,
)
from adaptchain.cli import run_cli
from adaptchain.errors import NoChain
from adaptchain.generator import GenParams, random_instance
from adaptchain.model import BOT, AvailabilityVector
from adaptchain.search import UNIT_WEIGHTS, WeightMap
from conftest import VIDEO1_TO_VIDEO2_ROWS, random_subvector
from generator_reference import SplitMix64
from search_reference import tuple_subset, visited

DURATIONS: dict[str, float] = {}


def _vector_json(v: AvailabilityVector) -> list[list[str]]:
    return [[BOT, *sorted(c - {BOT})] for c in v.components]


def criterion_1() -> dict:
    """Paper example: Video1toVideo2 on [{bot,MOV,MKV},{bot,MP3}]."""
    graph = load_fixture("video-example")
    adapter = graph.adapters["Video1toVideo2"]
    p = normalize_vector(adapter.source, [{"MOV", "MKV"}, {"MP3"}])
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        q = apply_adaptation(adapter, p)
        best = min(best, time.perf_counter() - start)
    expected = (
        frozenset({"bot", "MP4", "DIVX", "THEORA"}),
        frozenset({"bot"}),
        frozenset({"bot"}),
        frozenset({"bot"}),
    )
    DURATIONS["criterion_1"] = best
    return {
        "exact_match": q.components == expected,
        "result": _vector_json(q),
    }


def criterion_2() -> dict:
    """All 16 dependency rows of the fixture match the published table."""
    graph = load_fixture("video-example")
    adapter = graph.adapters["Video1toVideo2"]
    mismatches = []
    for key, expected in VIDEO1_TO_VIDEO2_ROWS.items():
        actual = adapter.lookup(key)
        if actual != tuple(frozenset(s) for s in expected):
            mismatches.append(list(key))
    return {"rows_checked": len(VIDEO1_TO_VIDEO2_ROWS), "mismatches": mismatches}


def criterion_3() -> dict:
    """Size formulas via the stats subcommand."""
    out = io.StringIO()
    status = run_cli(
        ["stats", "--graph", "video-example", "--format", "json"], out=out
    )
    rows = {
        r["id"]: (r["dependency_size"], r["adaptation_size"])
        for r in json.loads(out.getvalue())["adapters"]
    }
    expected = {
        "Video1toVideo2": (16, 256),
        "Video1toAudio": (16, 256),
        "AudioToVideo3": (16, 256),
        "Video2toVideo3": (40, 2048),
        "Video3toAudio": (40, 2048),
        "Video3toVideo1": (40, 2048),
    }
    return {
        "exit_status": status,
        "sizes_match": rows == expected,
        "rows": {k: list(v) for k, v in sorted(rows.items())},
    }


def criterion_4() -> dict:
    """Monotonicity: adaptation on p <= q, and chain-extension scores."""
    start = time.perf_counter()
    rng = SplitMix64(401)
    adaptation_checks = 0
    adaptation_violations = 0
    seed = 0
    while adaptation_checks < 1000:
        graph, _, _ = random_instance(GenParams(3, (1, 3), (1, 3), 5, 0.5, seed))
        seed += 1
        for adapter in graph.adapters.values():
            for _ in range(4):
                q = random_subvector(rng, adapter.source)
                p = random_subvector(rng, adapter.source, within=q)
                if not tuple_subset(
                    apply_adaptation(adapter, p), apply_adaptation(adapter, q)
                ):
                    adaptation_violations += 1
                adaptation_checks += 1

    extension_checks = 0
    extension_violations = 0
    seed = 10_000
    walk_rng = SplitMix64(402)
    while extension_checks < 1000:
        graph, _, _ = random_instance(GenParams(4, (1, 2), (1, 3), 8, 0.5, seed))
        seed += 1
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
                extended = prepend(options[walk_rng.below(len(options))], pipe)
                if count_abstract(extended) > count_abstract(pipe) + 1e-12:
                    extension_violations += 1
                extension_checks += 1
                pipe = extended
    DURATIONS["criterion_4"] = time.perf_counter() - start
    return {
        "adaptation_checks": adaptation_checks,
        "adaptation_violations": adaptation_violations,
        "extension_checks": extension_checks,
        "extension_violations": extension_violations,
    }


def _random_line_chain(seed: int):
    """Four random interfaces in a line with three adapters between them."""
    rng = SplitMix64(seed)
    interfaces = []
    for i in range(4):
        methods = [
            (f"m{m}", [f"v{k}" for k in range(rng.between(1, 3))])
            for m in range(rng.between(1, 2))
        ]
        interfaces.append(build_interface(f"L{i}", methods))
    adapters = []
    for i in range(3):
        source, target = interfaces[i], interfaces[i + 1]
        entries = []
        import itertools

        for input_tuple in itertools.product(*(d.values for d in source.domains)):
            if rng.next_u64() >= 0.5 * 2.0**64:  # kept with probability 1/2
                continue
            output = []
            for domain in target.domains:
                pool = domain.non_bottom
                mask = 1 + rng.below(2 ** len(pool) - 1)
                output.append([v for k, v in enumerate(pool) if mask >> k & 1])
            entries.append((input_tuple, output))
        adapters.append(build_adapter(f"C{i}", source, target, entries))
    build_graph(interfaces, adapters)  # validity check
    return interfaces, adapters, rng


def criterion_5() -> dict:
    """Associativity: both groupings of a 3-chain agree pointwise."""
    checks = 0
    violations = 0
    for seed in range(200):
        interfaces, (a1, a2, a3), rng = _random_line_chain(20_000 + seed)
        full = prepend(a1, prepend(a2, prepend(a3, identity_pipeline(a3.target))))
        front = prepend(a1, prepend(a2, identity_pipeline(a2.target)))
        back = prepend(a2, prepend(a3, identity_pipeline(a3.target)))
        for _ in range(10):
            p = random_subvector(rng, interfaces[0])
            via_full = apply_pipeline(full, p)
            left = apply_adaptation(a3, apply_pipeline(front, p))
            right = apply_pipeline(back, apply_adaptation(a1, p))
            if not (via_full == left == right):
                violations += 1
            checks += 1
    return {"three_chains": 200, "checks": checks, "violations": violations}


def criterion_6() -> dict:
    """Tabulation agrees with direct evaluation on every key."""
    from search_reference import apply_adaptation as reference

    adapters_checked = 0
    violations = 0
    seed = 0
    while adapters_checked < 50:
        graph, _, _ = random_instance(GenParams(2, (1, 2), (1, 2), 1, 0.5, 30_000 + seed))
        seed += 1
        adapter = graph.adapters["A0"]
        tab = tabulate_adaptation(adapter)
        dep_size, adap_size = function_sizes(adapter)
        normalized_keys = 1
        for d in adapter.source.domains:
            normalized_keys *= 2 ** (d.size - 1)
        if tab.size != adap_size or len(tab.rows) != normalized_keys:
            violations += 1
        for key, row in tab.rows.items():
            if row != reference(adapter, key):
                violations += 1
        adapters_checked += 1
    return {"adapters_checked": adapters_checked, "violations": violations}


def seeded_instance(seed: int):
    """Criterion 7's instance for a seed: (graph, source, target, random
    weights)."""
    params = GenParams(
        interface_count=2 + seed % 5,
        methods_per_interface=(1, 3),
        values_per_method=(1, 3),
        adapter_count=4 + seed % 9,
        entry_density=0.4 + (seed % 5) * 0.1,
        seed=seed,
    )
    graph, source, target = random_instance(params)
    weight_rng = SplitMix64(seed + 50_000)
    random_weights = WeightMap(
        {
            (i.id, m.name, v): weight_rng.below(400) / 100.0
            for i in sorted(graph.interfaces.values(), key=lambda i: i.id)
            for m in i.methods
            for v in m.domain.non_bottom
        }
    )
    return graph, source, target, random_weights


def criterion_7() -> dict:
    """Greedy score equals oracle score on seeded random instances."""
    start = time.perf_counter()
    instances = 0
    no_chain = 0
    mismatches = []
    scores = []
    for seed in range(200):
        graph, source, target, random_weights = seeded_instance(seed)
        instances += 1
        for label, weights in (("unit", UNIT_WEIGHTS), ("random", random_weights)):
            try:
                greedy = greedy_chain(graph, {source}, target, weights)
            except NoChain:
                try:
                    oracle_optimal(graph, {source}, target, weights)
                    mismatches.append([seed, label, "greedy NoChain only"])
                except NoChain:
                    no_chain += 1
                continue
            oracle = oracle_optimal(graph, {source}, target, weights)
            if not math.isclose(greedy.score, oracle.score, rel_tol=1e-9, abs_tol=1e-9):
                mismatches.append([seed, label, greedy.score, oracle.score])
            scores.append([seed, label, greedy.score])
    DURATIONS["criterion_7"] = time.perf_counter() - start
    return {
        "instances": instances,
        "weight_settings": 2,
        "no_chain_agreements": no_chain,
        "mismatches": mismatches,
        "scores": scores,
    }


def build_report() -> dict:
    return {
        "criterion_1": criterion_1(),
        "criterion_2": criterion_2(),
        "criterion_3": criterion_3(),
        "criterion_4": criterion_4(),
        "criterion_5": criterion_5(),
        "criterion_6": criterion_6(),
        "criterion_7": criterion_7(),
    }


@pytest.fixture(scope="module")
def report():
    return build_report()


def test_criterion_1_paper_example(report):
    r = report["criterion_1"]
    assert r["exact_match"]
    assert DURATIONS["criterion_1"] < 0.001
    print(
        f"\nPASS criterion 1: paper example reproduced exactly in "
        f"{DURATIONS['criterion_1'] * 1000:.3f} ms"
    )


def test_criterion_2_dependency_table(report):
    r = report["criterion_2"]
    assert r["rows_checked"] == 16
    assert r["mismatches"] == []
    print("\nPASS criterion 2: all 16 dependency rows match the table")


def test_criterion_3_size_formulas(report):
    r = report["criterion_3"]
    assert r["exit_status"] == 0
    assert r["sizes_match"]
    print("\nPASS criterion 3: stats reports (16,256)x3 and (40,2048)x3")


def test_criterion_4_monotonicity(report):
    r = report["criterion_4"]
    assert r["adaptation_checks"] >= 1000 and r["adaptation_violations"] == 0
    assert r["extension_checks"] >= 1000 and r["extension_violations"] == 0
    assert DURATIONS["criterion_4"] < 30.0
    print(
        f"\nPASS criterion 4: {r['adaptation_checks']} adaptation + "
        f"{r['extension_checks']} extension checks, 0 violations, "
        f"{DURATIONS['criterion_4']:.1f}s"
    )


def test_criterion_5_associativity(report):
    r = report["criterion_5"]
    assert r["three_chains"] >= 200
    assert r["checks"] >= 2000
    assert r["violations"] == 0
    print(
        f"\nPASS criterion 5: {r['three_chains']} random 3-chains, "
        f"{r['checks']} pointwise checks, 0 violations"
    )


def test_criterion_6_tabulation(report):
    r = report["criterion_6"]
    assert r["adapters_checked"] >= 50
    assert r["violations"] == 0
    print(
        f"\nPASS criterion 6: {r['adapters_checked']} tabulated adapters "
        f"agree with direct evaluation"
    )


def test_criterion_7_greedy_vs_oracle(report):
    r = report["criterion_7"]
    assert r["instances"] >= 200
    assert r["mismatches"] == []
    assert DURATIONS["criterion_7"] < 300.0
    print(
        f"\nPASS criterion 7: {r['instances']} instances x 2 weight settings, "
        f"{len(r['scores'])} solved, {r['no_chain_agreements']} NoChain "
        f"agreements, 0 mismatches, {DURATIONS['criterion_7']:.1f}s"
    )


def test_criterion_8_determinism(report):
    first = json.dumps(report, sort_keys=True).encode()
    second = json.dumps(build_report(), sort_keys=True).encode()
    assert first == second
    print("\nPASS criterion 8: repeated run produced byte-identical JSON report")
