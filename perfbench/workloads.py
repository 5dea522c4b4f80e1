"""Seeded workload generator: graph documents plus the queries run on them.

Everything here is derived from ``random.Random(f"{workload}:{seed}")``;
nothing comes from the program's own generator, so a change to the program
cannot change its inputs. Each family keeps its shape (sizes, topology,
domain sizes) fixed and lets the seed choose names, tables and which
endpoints are queried, so the cost of a query barely moves between seeds
while a new seed still gives an unseen instance set.

Every workload runs every query type, so each reports every end-to-end
metric; the types a workload was chosen for carry its weight. Within a
workload the queries of one type cost about the same (or most of them
do), so a type's median sits inside one mode rather than between two,
where it would swing with noise.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field

FIXTURE = "video-example"
CLIQUE_K = 7  # clique-bridge: interfaces in the lossless clique
PATH_LENGTH = 1200  # long-path: interfaces on the path
PATH_SEGMENT = 400  # long-path: interfaces on a segment, well inside the recursion limit


@dataclass
class Query:
    """One benchmark query.

    ``kind`` is one of validate, eval, chain, oracle, enumerate, gen
    (CLI commands) or tabulate (the library function). ``graph`` names a
    document of the workload; ``params`` holds the command's arguments.
    ``deep`` marks a query over the whole long path: where the program
    recurses once per interface it raises ``RecursionError``, which counts
    as a known failure rather than a broken run.
    """

    kind: str
    graph: str | None
    params: dict = field(default_factory=dict)
    deep: bool = False

    def argv(self, graph_arg: str | None) -> list[str]:
        p = self.params
        if self.kind == "gen":
            return [
                "gen", "--format=json",
                "--interfaces", str(p["interfaces"]),
                "--adapters", str(p["adapters"]),
                "--methods", "%d:%d" % p["methods"],
                "--values", "%d:%d" % p["values"],
                "--density", str(p["density"]),
                "--seed", str(p["seed"]),
            ]
        argv = [
            "chain" if self.kind == "oracle" else self.kind,
            "--graph", graph_arg, "--format=json",
        ]
        if self.kind == "eval":
            argv += ["--chain", ",".join(p["chain"]), "--vector", p["vector"]]
        elif self.kind in ("chain", "oracle"):
            argv += ["--sources", ",".join(p["sources"]), "--target", p["target"]]
            if self.kind == "oracle":
                argv.append("--oracle")
        elif self.kind == "enumerate":
            argv += ["--source", p["source"], "--target", p["target"]]
        return argv


@dataclass
class Workload:
    name: str
    docs: dict[str, dict]  # generated documents, written to disk before the run
    queries: list[Query]  # one cycle, in order


def _names(rng: random.Random, count: int, length: int = 3) -> list[str]:
    pool = set()
    while len(pool) < count:
        pool.add("".join(rng.choice(string.ascii_uppercase) for _ in range(length)))
    return sorted(pool)


def _interface(id: str, domains: list[list[str]]) -> dict:
    return {
        "id": id,
        "methods": [{"name": f"m{j}", "values": vals} for j, vals in enumerate(domains)],
    }


def _identity_adapter(id: str, source: dict, target: dict) -> dict:
    """Lossless adapter between two single-method interfaces with equal
    domains: each value maps to itself."""
    values = source["methods"][0]["values"]
    return {
        "id": id, "source": source["id"], "target": target["id"],
        "entries": [{"input": [v], "output": [[v]]} for v in values],
    }


def _vector_text(rng: random.Random, interface: dict, keep: int | None = None) -> str:
    """A random availability vector; ``keep`` fixes how many values each
    method keeps, otherwise each keeps a random (possibly empty) subset."""
    parts = []
    for m in interface["methods"]:
        k = keep if keep is not None else rng.randint(0, len(m["values"]))
        parts.append(m["name"] + ":" + ",".join(sorted(rng.sample(m["values"], k))))
    return ";".join(parts)


def _gen(rng: random.Random, interfaces, adapters, methods, values, density) -> Query:
    return Query("gen", None, {
        "interfaces": interfaces, "adapters": adapters, "methods": methods,
        "values": values, "density": density, "seed": rng.randrange(2**32),
    })


def _cycle(workload: str, queries: list[Query]) -> list[Query]:
    """Spread repeated and cheap queries through the cycle, in one order for
    every seed: what runs before a query (and what it leaves in the caches)
    then does not change with the seed."""
    random.Random(workload).shuffle(queries)
    return queries


def _random_graph(rng: random.Random) -> dict:
    """8 interfaces of 1-2 methods with 1-2 values, 30 random adapters."""
    interfaces = [
        _interface(f"I{i}", [
            sorted(rng.sample(["a", "b", "c", "d"], rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2))
        ])
        for i in range(8)
    ]
    adapters = []
    for k in range(30):
        src, tgt = rng.sample(interfaces, 2)
        entries = []
        for x in itertools.product(*(["bot", *m["values"]] for m in src["methods"])):
            if rng.random() < 0.5:
                output = [
                    rng.sample(m["values"], rng.randint(1, len(m["values"])))
                    for m in tgt["methods"]
                ]
                entries.append({"input": list(x), "output": output})
        adapters.append({
            "id": f"A{k:02d}", "source": src["id"], "target": tgt["id"], "entries": entries,
        })
    return {"version": "1", "interfaces": interfaces, "adapters": adapters}


def _relabel(rng: random.Random, doc: dict, queries: list[Query]) -> dict:
    """Rename a graph's interfaces and adapters by seeded permutations, in
    the document and in its queries. The structure, and so the work each
    query does, is kept; only names and the id order ties break on move."""
    def permutation(ids):
        shuffled = rng.sample(ids, len(ids))
        return dict(zip(ids, shuffled))

    imap = permutation([i["id"] for i in doc["interfaces"]])
    amap = permutation([a["id"] for a in doc["adapters"]])
    for q in queries:
        p = q.params
        for key in ("source", "target"):
            if key in p:
                p[key] = imap[p[key]]
        if "sources" in p:
            p["sources"] = [imap[x] for x in p["sources"]]
        if "chain" in p:
            p["chain"] = [amap[x] for x in p["chain"]]
        if "adapter" in p:
            p["adapter"] = amap[p["adapter"]]
    return {
        "version": "1",
        "interfaces": [{**i, "id": imap[i["id"]]} for i in doc["interfaces"]],
        "adapters": [
            {**a, "id": amap[a["id"]], "source": imap[a["source"]], "target": imap[a["target"]]}
            for a in doc["adapters"]
        ],
    }


def _graph_queries(rng: random.Random, name: str, doc: dict) -> list[Query]:
    from reference import RefGraph

    ref = RefGraph(doc)
    ids = sorted(ref.methods)
    by_id = {i["id"]: i for i in doc["interfaces"]}
    pairs = [(s, t) for s in ids for t in ids if s != t]
    reachable = [(s, t) for s, t in pairs if ref.chains(s, t)]
    queries = [Query("validate", name) for _ in range(2)]
    for s, t in rng.sample(pairs, 2):
        queries.append(Query("chain", name, {"sources": [s], "target": t}))
    s, t = rng.choice(pairs)
    queries.append(Query("oracle", name, {"sources": [s], "target": t}))
    s1, s2 = rng.sample(ids, 2)
    t = rng.choice([i for i in ids if i not in (s1, s2)])
    queries.append(Query("chain", name, {"sources": [s1, s2], "target": t}))
    for s, t in rng.sample(pairs, 2):
        queries.append(Query("enumerate", name, {"source": s, "target": t}))
    for s, t in rng.sample(reachable, min(2, len(reachable))):
        queries.append(Query("eval", name, {
            "chain": list(rng.choice(ref.chains(s, t))), "vector": _vector_text(rng, by_id[s]),
        }))
    queries.append(Query("tabulate", name, {"adapter": rng.choice(sorted(ref.adapters))}))
    return queries


def fixture_mix(rng: random.Random, fixture_doc: dict) -> Workload:
    """The random graphs and their queries come from one fixed shape seed
    and the workload seed only renames them: the search cost of a random
    graph is heavy-tailed, so fresh structures per seed would make the
    chain tail measure the instance draw rather than the program."""
    shape = random.Random("fixture-mix:shape")
    queries = _graph_queries(shape, FIXTURE, fixture_doc)
    docs = {}
    for g in range(5):
        name = f"rand{g}"
        doc = _random_graph(shape)
        graph_queries = _graph_queries(shape, name, doc)
        docs[name] = _relabel(rng, doc, graph_queries)
        queries += graph_queries
    queries += [_gen(rng, 8, 30, (2, 2), (2, 2), 0.5) for _ in range(3)]
    return Workload("fixture-mix", docs, _cycle("fixture-mix", queries))


def _sparse_adapter(rng, id, src, tgt, entries) -> dict:
    """A 6x5-style adapter with small outputs: each target method draws from
    a fixed subset of 3 values, the first of which every unlisted input
    keeps, so adapted vectors stay small but are never all-bot."""
    pools = [rng.sample(m["values"], 3) for m in tgt["methods"]]
    domains = [["bot", *m["values"]] for m in src["methods"]]
    inputs = set()
    while len(inputs) < entries:
        inputs.add(tuple(rng.choice(d) for d in domains))
    rows = []
    for x in sorted(inputs):
        rows.append({
            "input": list(x),
            "output": [sorted(rng.sample(p, rng.randint(1, 2))) for p in pools],
        })
    return {
        "id": id, "source": src["id"], "target": tgt["id"],
        "default_output": [p[:1] for p in pools],
        "entries": rows,
    }


def wide_interface(rng: random.Random) -> Workload:
    names = _names(rng, 5)
    wide = [
        _interface(n, [sorted(rng.sample(string.ascii_lowercase, 5)) for _ in range(6)])
        for n in names[:4]
    ]
    s, a, b, t = wide
    narrow = _interface(names[4], [sorted(rng.sample(string.ascii_lowercase, 3)) for _ in range(4)])
    edges = [(s, a), (s, b), (a, b), (b, a), (a, t), (b, t), (s, t)]
    adapters = [
        _sparse_adapter(rng, f"W{k}", x, y, entries=200) for k, (x, y) in enumerate(edges)
    ]
    tab = _sparse_adapter(rng, "N0", narrow, s, entries=40)
    adapters.append(tab)
    doc = {"version": "1", "interfaces": [*wide, narrow], "adapters": adapters}
    g = "wide"
    sid, tid = s["id"], t["id"]
    queries = [
        *[Query("validate", g)] * 3,
        # three full-vector evals (46656 lookups each) outnumber the two
        # partial ones, so the median is a full-vector eval
        *[Query("eval", g, {"chain": [a], "vector": _vector_text(rng, s, keep=5)})
          for a in ("W0", "W1", "W6")],
        Query("eval", g, {"chain": ["W0", "W4"], "vector": _vector_text(rng, s, keep=3)}),
        Query("eval", g, {"chain": ["W1", "W3"], "vector": _vector_text(rng, s, keep=3)}),
        *[Query("chain", g, {"sources": [sid], "target": tid})] * 2,
        *[Query("oracle", g, {"sources": [sid], "target": tid})] * 2,
        *[Query("enumerate", g, {"source": sid, "target": tid})] * 3,
        *[Query("tabulate", g, {"adapter": "N0"})] * 2,
        *[_gen(rng, 3, 3, (4, 4), (3, 3), 0.2) for _ in range(3)],
    ]
    return Workload("wide-interface", {g: doc}, _cycle("wide-interface", queries))


def clique_bridge(rng: random.Random) -> Workload:
    k = CLIQUE_K
    names = _names(rng, k + 1)
    values = sorted(rng.sample(string.ascii_lowercase, 4))
    source_id, clique_ids = names[0], names[1:]
    rng.shuffle(clique_ids)
    entry = clique_ids[0]  # the bridge's end, C0
    source = _interface(source_id, [values])
    clique = [_interface(c, [values]) for c in clique_ids]
    lost = rng.choice(values)
    bridge = {
        "id": "B0", "source": source_id, "target": entry,
        "entries": [{"input": [v], "output": [[v]]} for v in values if v != lost],
    }
    adapters = [bridge] + [
        _identity_adapter(f"K{x}{y}", clique[x], clique[y])
        for x in range(k) for y in range(k) if x != y
    ]
    doc = {"version": "1", "interfaces": [source, *clique], "adapters": adapters}
    g = "clique"
    t1, t2 = rng.sample(clique_ids[1:], 2)
    chain_to_t1 = ["B0", f"K0{clique_ids.index(t1)}"]
    queries = [
        Query("validate", g),
        Query("chain", g, {"sources": [source_id], "target": t1}),
        Query("oracle", g, {"sources": [source_id], "target": t1}),
        Query("enumerate", g, {"source": source_id, "target": t1}),
        Query("chain", g, {"sources": [source_id], "target": t2}),
        Query("oracle", g, {"sources": [source_id], "target": t2}),
        Query("enumerate", g, {"source": source_id, "target": t2}),
        Query("eval", g, {"chain": chain_to_t1, "vector": _vector_text(rng, source, keep=2)}),
        Query("tabulate", g, {"adapter": "B0"}),
        _gen(rng, k + 1, k * (k - 1), (1, 1), (4, 4), 0.5),
    ]
    return Workload("clique-bridge", {g: doc}, _cycle("clique-bridge", queries))


def long_path(rng: random.Random) -> Workload:
    """Greedy and eval run the whole path. ``enumerate`` and ``--oracle``
    run it once each as deep queries (the known RecursionError) and
    otherwise run seeded segments of PATH_SEGMENT interfaces, which
    supply their latency samples."""
    length = PATH_LENGTH
    names = _names(rng, length, length=4)
    rng.shuffle(names)
    values = sorted(rng.sample(string.ascii_lowercase, 3))
    path = [_interface(n, [values]) for n in names]
    adapters = [
        _identity_adapter(f"E{i:04d}", path[i], path[i + 1]) for i in range(length - 1)
    ]
    doc = {"version": "1", "interfaces": path, "adapters": adapters}
    g = "path"
    first, last = names[0], names[-1]
    everything = [a["id"] for a in adapters]
    queries = [
        *[Query("validate", g)] * 5,
        # greedy takes seconds here: two per cycle give its median more samples
        *[Query("chain", g, {"sources": [first], "target": last})] * 2,
        *[Query("eval", g, {
            "chain": everything, "vector": _vector_text(rng, path[0], keep=2),
        }) for _ in range(3)],
        Query("enumerate", g, {"source": first, "target": last}, deep=True),
        Query("oracle", g, {"sources": [first], "target": last}, deep=True),
    ]
    for _ in range(3):
        i = rng.randrange(length - PATH_SEGMENT)
        s, t = names[i], names[i + PATH_SEGMENT - 1]
        queries += [
            Query("enumerate", g, {"source": s, "target": t}),
            Query("oracle", g, {"sources": [s], "target": t}),
        ]
    queries += [
        *[Query("tabulate", g, {"adapter": a}) for a in rng.sample(everything, 10)],
        *[_gen(rng, length, length - 1, (1, 1), (3, 3), 0.5) for _ in range(3)],
    ]
    return Workload("long-path", {g: doc}, _cycle("long-path", queries))


def build(name: str, seed: int, fixture_doc: dict) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "fixture-mix":
        return fixture_mix(rng, fixture_doc)
    return {"wide-interface": wide_interface, "clique-bridge": clique_bridge,
            "long-path": long_path}[name](rng)
