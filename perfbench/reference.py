"""Independent reference answers for the benchmark's queries.

Reads the JSON graph documents directly and imports nothing from the
program. Adaptation is the brute-force definition (union of dependency
outputs over the Cartesian product of the input vector), chains come from
an iterative simple-path DFS, so deep paths never hit the recursion limit.
"""

from __future__ import annotations

import itertools
import json
from math import prod

BOT = "bot"


class Mismatch(Exception):
    """A program answer disagrees with the reference."""


def _lift(values) -> frozenset:
    return frozenset(values) | {BOT}


def vector_json(methods, vec) -> dict:
    return {name: [BOT, *sorted(c - {BOT})] for name, c in zip(methods, vec)}


class RefGraph:
    """A graph document held as plain dicts, tuples and frozensets."""

    def __init__(self, doc: dict):
        self.methods: dict[str, tuple[str, ...]] = {}
        self.domains: dict[str, tuple[tuple[str, ...], ...]] = {}
        for interface in doc["interfaces"]:
            self.methods[interface["id"]] = tuple(m["name"] for m in interface["methods"])
            self.domains[interface["id"]] = tuple(
                (BOT, *sorted(set(m["values"]) - {BOT})) for m in interface["methods"]
            )
        self.adapters: dict[str, tuple[str, str, dict, tuple]] = {}
        self.out_edges: dict[str, list[str]] = {i: [] for i in self.methods}
        for a in doc["adapters"]:
            arity = len(self.methods[a["target"]])
            default = tuple(_lift(s) for s in (a.get("default_output") or [[]] * arity))
            table = {
                tuple(e["input"]): tuple(_lift(s) for s in e["output"])
                for e in a["entries"]
            }
            self.adapters[a["id"]] = (a["source"], a["target"], table, default)
            self.out_edges[a["source"]].append(a["id"])
        self._memo: dict = {}

    def full(self, interface: str) -> tuple[frozenset, ...]:
        return tuple(frozenset(d) for d in self.domains[interface])

    def adapt(self, adapter_id: str, vec: tuple[frozenset, ...]) -> tuple[frozenset, ...]:
        key = (adapter_id, vec)
        hit = self._memo.get(key)
        if hit is None:
            _, _, table, default = self.adapters[adapter_id]
            acc = [set((BOT,)) for _ in default]
            for x in itertools.product(*vec):
                for s, out in zip(acc, table.get(x, default)):
                    s |= out
            hit = self._memo[key] = tuple(frozenset(s) for s in acc)
        return hit

    def run(self, chain, vec):
        for adapter_id in chain:
            vec = self.adapt(adapter_id, vec)
        return vec

    def chains(self, source: str, target: str) -> list[tuple[str, ...]]:
        """Every simple path source -> target, by (length, adapter ids)."""
        if source == target:
            return [()]
        found = []
        stack = [(source, (), frozenset((source,)))]
        while stack:
            at, path, seen = stack.pop()
            for adapter_id in self.out_edges[at]:
                nxt = self.adapters[adapter_id][1]
                if nxt in seen:
                    continue
                if nxt == target:
                    found.append(path + (adapter_id,))
                else:
                    stack.append((nxt, path + (adapter_id,), seen | {nxt}))
        found.sort(key=lambda c: (len(c), c))
        return found

    def score(self, source: str, chain) -> int:
        return sum(len(c) - 1 for c in self.run(chain, self.full(source)))

    def end_of(self, source: str, chain) -> str:
        return self.adapters[chain[-1]][1] if chain else source

    # -- expected answers -------------------------------------------------

    def best(self, sources, target):
        """(best score, oracle's chain, oracle's source) or None for NoChain.

        Ties break by (length, adapter ids, source id) like the oracle."""
        candidates = sorted(
            (len(c), c, s) for s in sorted(set(sources)) for c in self.chains(s, target)
        )
        best = None
        for _, chain, src in candidates:
            score = self.score(src, chain)
            if best is None or score > best[0]:
                best = (score, chain, src)
        return best

    def chain_report(self, chain, source: str, target: str, method: str) -> dict:
        final = self.run(chain, self.full(source))
        return {
            "chain": list(chain),
            "source": source,
            "target": target,
            "final": vector_json(self.methods[target], final),
            "score": float(sum(len(c) - 1 for c in final)),
            "method": method,
        }

    def parse_vector(self, interface: str, text: str) -> tuple[frozenset, ...]:
        sets = {m: {BOT} for m in self.methods[interface]}
        for part in filter(None, text.split(";")):
            name, _, values = part.partition(":")
            sets[name] |= {v for v in values.split(",") if v}
        return tuple(frozenset(sets[m]) for m in self.methods[interface])

    def check_greedy(self, report: dict, sources, target: str, best_score) -> None:
        """A greedy answer is right when it is an acyclic chain from one of
        the sources to the target whose final vector and score match, and
        the score is optimal."""
        src, chain = report["source"], report["chain"]
        if src not in sources or report["target"] != target:
            raise Mismatch(f"greedy endpoints {src!r} -> {report['target']!r}")
        at, seen = src, {src}
        for adapter_id in chain:
            if adapter_id not in self.adapters:
                raise Mismatch(f"greedy chain uses unknown adapter {adapter_id!r}")
            a_src, a_tgt, _, _ = self.adapters[adapter_id]
            if a_src != at or a_tgt in seen:
                raise Mismatch(f"greedy chain {chain} is not an acyclic path")
            seen.add(a_tgt)
            at = a_tgt
        if at != target:
            raise Mismatch(f"greedy chain {chain} ends at {at!r}")
        if report != self.chain_report(chain, src, target, "greedy"):
            raise Mismatch(f"greedy report for {chain} has a wrong final vector or score")
        if report["score"] != best_score:
            raise Mismatch(f"greedy score {report['score']} is not optimal ({best_score})")

    def check_tabulation(self, table, adapter_id: str) -> None:
        """Every row of a tabulated adaptation equals brute force on its key."""
        source = self.adapters[adapter_id][0]
        sizes = [len(d) for d in self.domains[source]]
        if table.size != prod(2**d for d in sizes):
            raise Mismatch(f"tabulation size {table.size} for {adapter_id!r}")
        if len(table.rows) != prod(2 ** (d - 1) for d in sizes):
            raise Mismatch(f"tabulation of {adapter_id!r} has {len(table.rows)} rows")
        for key, value in table.rows.items():
            if key.interface_id != source or value.components != self.adapt(
                adapter_id, key.components
            ):
                raise Mismatch(f"tabulation row {key.components} of {adapter_id!r}")


def check_gen(text: str, params: dict) -> None:
    """Structural check of `gen` output: counts, domain sizes within the
    requested ranges, sorted ids and values, and canonical JSON text."""
    doc = json.loads(text)
    if text != json.dumps(doc, indent=2) + "\n":
        raise Mismatch("gen output is not canonical JSON")
    interfaces, adapters = doc["interfaces"], doc["adapters"]
    if doc["version"] != "1" or len(interfaces) != params["interfaces"]:
        raise Mismatch("gen interface count")
    if len(adapters) != params["adapters"]:
        raise Mismatch("gen adapter count")
    m_lo, m_hi = params["methods"]
    v_lo, v_hi = params["values"]
    arity = {}
    for interface in interfaces:
        methods = interface["methods"]
        if not m_lo <= len(methods) <= m_hi:
            raise Mismatch(f"gen interface {interface['id']} has {len(methods)} methods")
        for m in methods:
            values = m["values"]
            if not v_lo <= len(values) <= v_hi or values != sorted(values) or BOT in values:
                raise Mismatch(f"gen domain {values} of {interface['id']}")
        arity[interface["id"]] = len(methods)
    if [i["id"] for i in interfaces] != sorted(arity):
        raise Mismatch("gen interface ids are not sorted")
    if [a["id"] for a in adapters] != sorted(a["id"] for a in adapters):
        raise Mismatch("gen adapter ids are not sorted")
    for a in adapters:
        if a["source"] not in arity or a["target"] not in arity:
            raise Mismatch(f"gen adapter {a['id']} has an unknown endpoint")
        inputs = [tuple(e["input"]) for e in a["entries"]]
        if inputs != sorted(inputs) or len(set(inputs)) != len(inputs):
            raise Mismatch(f"gen adapter {a['id']} entries are not sorted and distinct")
        for e in a["entries"]:
            if len(e["input"]) != arity[a["source"]] or len(e["output"]) != arity[a["target"]]:
                raise Mismatch(f"gen adapter {a['id']} entry arity")
