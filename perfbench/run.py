"""adaptchain benchmark: CLI query latency on seeded workloads.

Single process, single thread, closed loop with one client: it calls the
public entry point ``adaptchain.cli.run_cli(argv, out, err)`` in-process
with ``--format=json`` and issues the next query only after the previous
one returns (``tabulate`` calls the library's ``tabulate_adaptation``).
Every answer is checked against an independent reference.

    python3 perfbench/run.py --workload long-path --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
span tracer, prints the per-layer metrics and checks that the workload
loads the layer it was chosen for. The last line of stdout is one JSON
object: correct, attempted, failed, metrics. A wrong answer, a query that
raises or exits with another code than the reference expects, or a failed
workload-design check exits 1 without that line. The one known failure is
a deep long-path query (whole-path ``enumerate`` and ``chain --oracle``)
that raises ``RecursionError``: it counts in ``failed`` and gives no
latency sample. Latencies come only from queries that succeed.

Every time reported is scaled to a reference machine speed by
calibrations run through the timed phase (``calibration.py``); the
unscaled wall times are printed beside them.

Workload reasons and the per-layer metrics' names, units and directions
are read from ``BENCHMARK.json``; ``layers.json`` maps each per-layer
metric to the end-to-end metrics and workloads it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KINDS = ("validate", "eval", "chain", "oracle", "enumerate", "gen", "tabulate")
SETUP_REPEATS = 21
KNOWN_FAILURE = RecursionError  # of a deep query, see workloads.Query
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCH["workloads"]}

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
import tracer as tracing  # noqa: E402
from reference import Mismatch, RefGraph  # noqa: E402


class QueryFailed(Exception):
    """A query raised, or exited with another code than the reference expects."""

SETUP_CHILD = r"""
import io, sys, time
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
speed = [calibrate() for _ in range(5)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import adaptchain
from adaptchain.cli import run_cli
if not adaptchain.__file__.startswith(sys.argv[2]):
    sys.exit("adaptchain imported from outside the checkout")
for g in sys.argv[3:]:
    if run_cli(["validate", "--graph", g, "--format=json"], io.StringIO(), io.StringIO()):
        sys.exit("validate failed on " + g)
wall = time.perf_counter() - t0
speed += [calibrate() for _ in range(5)]
print(wall, *speed)
"""


def import_program():
    sys.path.insert(0, str(SRC))
    import adaptchain
    import adaptchain.cli
    import adaptchain.document
    import adaptchain.semantics

    if not Path(adaptchain.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"adaptchain imported from {adaptchain.__file__}, not from {SRC}")
    return adaptchain


class Prepared:
    """A query with its program input and the reference's expectation."""

    def __init__(self, query, graph_arg, expected_rc, check, target=None):
        self.kind = query.kind
        self.deep = query.deep
        self.argv = query.argv(graph_arg) if query.kind != "tabulate" else None
        self.expected_rc = expected_rc
        self.check = check  # raises Mismatch on a wrong answer
        self.target = target  # tabulate: the program's Adapter object
        self.seen = None  # first checked answer; identical later answers pass


def prepare(workload, refs, graph_args, graph_bytes, program) -> list[Prepared]:
    parsed = {}
    prepared = []
    for q in workload.queries:
        ref = refs.get(q.graph)
        p = q.params
        if q.kind == "validate":
            want = {"interfaces": len(ref.methods), "adapters": len(ref.adapters), "valid": True}
            prepared.append(Prepared(q, graph_args[q.graph], 0, _equals(want)))
        elif q.kind == "eval":
            src = ref.adapters[p["chain"][0]][0]
            tgt = ref.end_of(src, p["chain"])
            vec = ref.parse_vector(src, p["vector"])
            want = {
                "chain": p["chain"], "source": src, "target": tgt,
                "input": reference.vector_json(ref.methods[src], vec),
                "output": reference.vector_json(ref.methods[tgt], ref.run(p["chain"], vec)),
            }
            prepared.append(Prepared(q, graph_args[q.graph], 0, _equals(want)))
        elif q.kind in ("chain", "oracle"):
            best = ref.best(p["sources"], p["target"])
            if best is None:
                check = None
            elif q.kind == "oracle":
                _, chain, src = best
                check = _equals(ref.chain_report(chain, src, p["target"], "oracle"))
            else:
                check = _greedy(ref, p["sources"], p["target"], best[0])
            prepared.append(Prepared(q, graph_args[q.graph], 1 if best is None else 0, check))
        elif q.kind == "enumerate":
            want = {
                "source": p["source"], "target": p["target"],
                "chains": [list(c) for c in ref.chains(p["source"], p["target"])],
            }
            prepared.append(Prepared(q, graph_args[q.graph], 0, _equals(want)))
        elif q.kind == "gen":
            prepared.append(Prepared(q, None, 0, lambda text, p=p: reference.check_gen(text, p)))
        elif q.kind == "tabulate":
            if q.graph not in parsed:
                parsed[q.graph] = program.document.parse_document(graph_bytes[q.graph])
            adapter = parsed[q.graph].adapters[p["adapter"]]
            check = lambda table, r=ref, a=p["adapter"]: r.check_tabulation(table, a)
            prepared.append(Prepared(q, None, 0, check, target=adapter))
    return prepared


def _equals(want):
    def check(text):
        got = json.loads(text)
        if got != want:
            raise Mismatch(f"expected {json.dumps(want)[:300]}, got {text[:300]}")
    return check


def _greedy(ref, sources, target, best_score):
    return lambda text: ref.check_greedy(json.loads(text), sources, target, best_score)


def _fixture_path() -> Path:
    return SRC / "adaptchain" / "fixtures" / f"{workloads.FIXTURE}.json"


def run_one(pq: Prepared, program):
    """Run one query. Returns (start, end, error): error is None on success,
    else the exception raised or the unexpected exit's text."""
    if pq.kind == "tabulate":
        start = perf_counter()
        try:
            table = program.semantics.tabulate_adaptation(pq.target)
        except Exception as exc:  # every exception is a failed query
            return start, perf_counter(), exc
        end = perf_counter()
        if pq.seen is None or table.rows != pq.seen.rows or table.size != pq.seen.size:
            pq.check(table)
            pq.seen = table
        return start, end, None
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        rc = program.cli.run_cli(pq.argv, out, err)
    except Exception as exc:  # RecursionError included
        return start, perf_counter(), exc
    end = perf_counter()
    if rc != pq.expected_rc:
        return start, end, f"exit {rc} (expected {pq.expected_rc}): {err.getvalue().strip()[:200]}"
    text = out.getvalue()
    if rc == 0 and text != pq.seen:
        pq.check(text)
        pq.seen = text
    return start, end, None


class Sample:
    __slots__ = ("kind", "deep", "ok", "start", "wall")

    def __init__(self, kind, deep, ok, start, wall):
        self.kind = kind
        self.deep = deep  # a whole-path long-path query
        self.ok = ok
        self.start = start  # perf_counter at the call
        self.wall = wall  # s, calibration time inside the query taken out


class Tally:
    """Queries run and their times. With a ``calibration.Speed`` the timed
    phase samples the machine's speed and times are reported scaled to the
    reference speed; without one they are wall times."""

    def __init__(self, speed: calibration.Speed | None = None):
        self.samples: list[Sample] = []
        self.speed = speed
        self.cycle_ends: list[int] = []  # len(samples) at the end of each cycle
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.errors: dict[str, str] = {}

    def cycle(self, prepared, program, tracer=None, after_query=None):
        for i, pq in enumerate(prepared):
            if tracer is not None:
                tracer.query_id += 1
            gc.collect()  # every query starts from the same collector state
            with self.speed.query() if self.speed else contextlib.nullcontext():
                start, end, error = run_one(pq, program)
            if tracer is not None:
                tracer.reset_stack()
            latency = end - start - (self.speed.inside(start, end) if self.speed else 0.0)
            self.attempted[pq.kind] += 1
            if error is not None:
                if not (pq.deep and isinstance(error, KNOWN_FAILURE)):
                    argv = " ".join(pq.argv) if pq.argv else "tabulate_adaptation"
                    raise QueryFailed(f"{pq.kind} query #{i} ({argv[:200]}): {error!r}")
                self.failed[pq.kind] += 1
                self.errors.setdefault(f"{pq.kind}#{i}", f"{type(error).__name__} (deep query)")
            self.samples.append(
                Sample(pq.kind, pq.deep, error is None, start, latency))
            if after_query:
                after_query()
        self.cycle_ends.append(len(self.samples))

    def run_for(self, seconds, prepared, program, tracer=None, on_cycle=None, after_query=None):
        """Whole cycles, at least one, until ``seconds`` have passed."""
        start = perf_counter()
        if self.speed:
            self.speed.start()
        try:
            while not self.cycle_ends or perf_counter() - start < seconds:
                self.cycle(prepared, program, tracer, after_query)
                if on_cycle:
                    on_cycle()
        finally:
            if self.speed:
                self.speed.stop()

    def scaled(self, sample) -> float:
        if not self.speed:
            return sample.wall
        return sample.wall * self.speed.factor(sample.start, sample.start + sample.wall)

    def latency_ms(self, kind, deep=False, scaled=True) -> list[float]:
        """Latencies of the queries of ``kind`` that succeeded."""
        return [
            1000.0 * (self.scaled(s) if scaled else s.wall)
            for s in self.samples if s.kind == kind and s.deep == deep and s.ok
        ]

    def cycle_seconds(self) -> list[float]:
        """Query time of each cycle, failed queries included."""
        starts = [0, *self.cycle_ends[:-1]]
        return [sum(self.scaled(s) for s in self.samples[a:b])
                for a, b in zip(starts, self.cycle_ends)]

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())


def tail(samples):
    """Highest percentile with at least 10 samples beyond it: the sample at
    rank n-10 (the maximum when n <= 10). Returns (value, percentile, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup_once(graph_args) -> tuple[float, float]:
    """Import and first validate in a fresh process: (wall s, scaled s),
    scaled by calibrations made in that process just before and after."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(HERE), str(SRC), *graph_args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode:
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()[-500:]}")
    wall, *speed = map(float, proc.stdout.split())
    return wall, wall * calibration.scale(statistics.median(speed))


class SetupSampler:
    """SETUP_REPEATS fresh-process set-up times, taken between queries at
    even intervals through the timed phase, so that their median sees the
    machine over the same window as the latencies."""

    def __init__(self, graph_args, seconds):
        self.graph_args = graph_args
        self.interval = seconds / SETUP_REPEATS
        self.start = perf_counter()
        self.times: list[float] = []

    def between_queries(self):
        due = (perf_counter() - self.start) >= len(self.times) * self.interval
        if due and len(self.times) < SETUP_REPEATS:
            self.times.append(setup_once(self.graph_args))

    def medians(self) -> tuple[float, float]:
        """(wall, scaled) medians."""
        while len(self.times) < SETUP_REPEATS:
            self.times.append(setup_once(self.graph_args))
        return tuple(statistics.median(t[i] for t in self.times) for i in (0, 1))


def settle() -> None:
    """Move the benchmark's own long-lived objects (documents, reference
    answers) out of the collector's way, so collections during the timed
    phase only walk what the program allocates."""
    gc.collect()
    gc.freeze()


def emit(result: dict) -> None:
    print(json.dumps(result, sort_keys=True))


def metric_line(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def run_workload(args) -> int:
    program = import_program()
    fixture_doc = json.loads(_fixture_path().read_bytes())
    workload = workloads.build(args.workload, args.seed, fixture_doc)
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run_in(args, program, fixture_doc, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(args, program, fixture_doc, workload, work) -> int:
    graph_args, graph_bytes, refs = {}, {}, {}
    if any(q.graph == workloads.FIXTURE for q in workload.queries):
        data = _fixture_path().read_bytes()
        graph_args[workloads.FIXTURE] = workloads.FIXTURE  # the bundled fixture, by name
        graph_bytes[workloads.FIXTURE] = data
        refs[workloads.FIXTURE] = RefGraph(fixture_doc)
        print(f"input {workloads.FIXTURE} (bundled) sha256="
              f"{hashlib.sha256(data).hexdigest()[:16]} bytes={len(data)}")
    for name, doc in workload.docs.items():
        data = json.dumps(doc).encode()
        path = work / f"{name}.json"
        path.write_bytes(data)
        graph_args[name] = str(path)
        graph_bytes[name] = data
        refs[name] = RefGraph(doc)
        print(f"input {name} sha256={hashlib.sha256(data).hexdigest()[:16]} bytes={len(data)}")
    print(f"workload {workload.name} seed={args.seed}: {len(workload.queries)} queries per cycle;"
          f" {WHY[workload.name]}")

    prepared = prepare(workload, refs, graph_args, graph_bytes, program)
    try:
        warm = Tally()
        warm.cycle(prepared, program)  # every answer checked before timing
        if args.trace:
            return run_traced(args, program, prepared, workload)
        settle()
        tally = Tally(calibration.Speed())
        setup = SetupSampler(list(graph_args.values()), args.seconds)
        tally.run_for(args.seconds, prepared, program, after_query=setup.between_queries)
    except Mismatch as exc:
        print(f"WRONG ANSWER on {workload.name}: {exc}", file=sys.stderr)
        return 1
    except QueryFailed as exc:
        print(f"QUERY FAILED on {workload.name}: {exc}", file=sys.stderr)
        return 1

    metrics, notes = {}, {}
    for kind in KINDS:
        if samples := tally.latency_ms(kind):
            name = f"{kind}_ms_p50"
            metrics[name] = (statistics.median(samples), "ms")
            wall = statistics.median(tally.latency_ms(kind, scaled=False))
            notes[name] = f"(n={len(samples)}; unscaled {wall:.6g} ms)"
    timed = sum(tally.cycle_seconds())
    completed = tally.total_attempted - tally.total_failed
    metrics["queries_per_s"] = (completed / timed, "1/s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    setup_wall, setup_scaled = setup.medians()
    metrics["setup_s"] = (setup_scaled, "s")
    notes["setup_s"] = f"(median of {SETUP_REPEATS}; unscaled {setup_wall:.6g} s)"

    report_failures(tally)
    speed = statistics.median(tally.speed.seconds)
    print(f"timed {len(tally.cycle_ends)} cycles, {tally.total_attempted} queries,"
          f" {timed:.3f} s of scaled query time; calibration median {speed * 1e3:.4f} ms,"
          f" times scaled by {calibration.scale(speed):.4f} at the median")
    for name, (value, unit) in metrics.items():
        metric_line(name, value, unit, notes.get(name, ""))
    # Printed, not bounded: on fixture-mix it is set by the host's slowest
    # phase in the run, and ten runs of the same code spread it past 0.25.
    value, pct, n = tail(tally.latency_ms("chain"))
    wall, _, _ = tail(tally.latency_ms("chain", scaled=False))
    metric_line("chain_ms_tail", value, "ms", f"(p{pct:.1f} of {n} chain samples,"
                f" {10 if n > 10 else 0} beyond; unscaled {wall:.6g} ms)")
    frac = tally.total_failed / tally.total_attempted
    metric_line("failed_frac", frac, "ratio", f"({tally.total_failed}/{tally.total_attempted})")
    emit({
        "correct": True,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return 0


def report_failures(tally):
    for kind in KINDS:
        if tally.failed[kind]:
            print(f"failures {kind}: {tally.failed[kind]}/{tally.attempted[kind]}")
    for where, error in sorted(tally.errors.items()):
        print(f"failure {where}: {error}")
    for kind in KINDS:
        if samples := tally.latency_ms(kind, deep=True):
            print(f"deep {kind} p50 = {statistics.median(samples):.6g} ms"
                  f" (n={len(samples)}; whole path, not an end-to-end metric)")


# -- traced run -------------------------------------------------------------

def layer_specs() -> list[dict]:
    """Per-layer metrics: name, unit and direction from BENCHMARK.json, in
    its order, with the moves/on mapping of layers.json."""
    mapping = json.loads((HERE / "layers.json").read_text())["metrics"]
    declared = [m["name"] for m in BENCH["per_layer"]]
    if sorted(declared) != sorted(mapping):
        raise SystemExit("BENCHMARK.json per_layer and layers.json name different metrics: "
                         f"{sorted(set(declared) ^ set(mapping))}")
    return [{**m, **mapping[m["name"]]} for m in BENCH["per_layer"]]


def run_traced(args, program, prepared, workload) -> int:
    layers = layer_specs()
    settle()
    plain = Tally()
    plain.run_for(args.seconds / 3, prepared, program)
    tracer = tracing.Tracer()
    tracer.install()
    traced = Tally()
    cycles = [tracer.snapshot()]

    def on_cycle():
        cycles.append(tracer.snapshot())

    try:
        traced.run_for(args.seconds * 2 / 3, prepared, program, tracer, on_cycle)
    finally:
        tracer.uninstall()
    cycles = [tracing.diff(after, before) for before, after in zip(cycles, cycles[1:])]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{workload.name}.jsonl")

    for kind in ("calls", "counters"):
        if any(c[kind] != cycles[0][kind] for c in cycles):
            print(f"{kind} differ between traced cycles", file=sys.stderr)
            return 1
    plain_cycle = statistics.median(plain.cycle_seconds())
    overhead = statistics.median(traced.cycle_seconds()) - plain_cycle
    values = {}
    for spec in layers:
        name = spec["name"]
        if name == "trace.overhead_s":
            values[name] = overhead
        elif spec["unit"] == "s":
            values[name] = statistics.median(layer_value(name, c) for c in cycles)
        else:
            values[name] = layer_value(name, cycles[0])

    report_failures(traced)
    print(f"traced {len(cycles)} cycles ({len(tracer.spans)} spans kept,"
          f" {tracer.dropped} dropped); untraced cycle"
          f" {plain_cycle:.4f} s")
    for spec in layers:
        moves = ", ".join(spec["moves"]) or "-"
        metric_line(spec["name"], values[spec["name"]], spec["unit"],
                    f"(moves {moves} on {', '.join(spec['on'])})")
    ok, text = design_check(workload, cycles[0], values)
    print(f"design-check {workload.name}: {'PASS' if ok else 'FAIL'} {text}")
    if not ok:
        print(f"workload-design check failed on {workload.name}: {text}", file=sys.stderr)
        return 1
    emit({
        "correct": True,
        "attempted": traced.total_attempted,
        "failed": traced.total_failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in layers},
    })
    return 0


def module_self(cycle, module):
    return sum(v for k, v in cycle["self"].items() if k.split(".")[0] == module)


def layer_value(name, cycle):
    calls, counters = cycle["calls"], cycle["counters"]
    derived = {
        "semantics.lookups_per_adaptation": lambda: (
            calls["model.Adapter.lookup"] / calls["semantics.apply_adaptation"]),
        "semantics.adaptations_per_pipeline": lambda: (
            counters["semantics.pipeline_adaptations"] / calls["semantics.apply_pipeline"]),
        "search.greedy.push_yield": lambda: (
            counters["search.greedy.answer_chains"] / counters["search.greedy.scored"]),
    }
    if name in derived:
        return derived[name]()
    if name in tracing.COUNTERS:
        return counters.get(name, 0)
    fn, _, stat = name.rpartition(".")
    if stat == "self_s" and "." not in fn:
        return module_self(cycle, fn)
    table = {"calls": calls, "busy_s": cycle["busy"], "self_s": cycle["self"]}[stat]
    if fn not in table:
        raise KeyError(f"layer {fn} recorded no {stat} in a cycle")
    return table[fn]


def design_check(workload, cycle, values):
    """Does the workload load the layer it was chosen for? (ok, text)"""
    if workload.name == "fixture-mix":
        s = (module_self(cycle, "cli") + module_self(cycle, "document")) / sum(
            cycle["self"].values())
        return s > 0.5, f"cli+document self share {s:.3f} > 0.5"
    if workload.name == "wide-interface":
        selfs = cycle["self"]
        s = selfs["semantics.apply_adaptation"] / sum(selfs.values())
        top = max(selfs, key=selfs.get)
        return (s > 0.5 and top == "semantics.apply_adaptation",
                f"apply_adaptation self share {s:.3f} > 0.5 and largest (largest: {top})")
    if workload.name == "clique-bridge":
        scored = cycle["counters"]["search.greedy.scored"]
        answers = cycle["counters"]["search.greedy.answer_chains"]
        return (scored >= 10 * answers,
                f"count_abstract calls {scored} >= 10 x (result length + 1) {answers}")
    length = len(workload.docs["path"]["interfaces"])
    per = values["semantics.adaptations_per_pipeline"]
    return (per >= length / 4,
            f"adaptations_per_pipeline {per:.1f} >= path length / 4 = {length / 4:.0f}")


# -- all workloads ------------------------------------------------------------

def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WHY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            print(f"[{name}] exited {proc.returncode}")
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        emit(combined)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
