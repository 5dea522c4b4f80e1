"""Command-line surface.

Subcommands: validate, eval, chain, enumerate, stats, gen. Exit codes:
0 success, 1 domain error (validation failures, no chain found), 2 usage
error, 141 (128 + SIGPIPE) when the reader closes stdout early.
``--format=json`` emits byte-stable reports with sorted keys.

Each subcommand is a function ``(args, graph) -> (report, text)`` that
computes its answer and nothing more. ``run_cli`` owns the boundary: it
parses the arguments, loads ``--graph``, renders the report as JSON or the
text as is, writes its output and error streams, and sets the exit status.
It also pauses the cyclic garbage collector for the command: the package
builds no reference cycles, so collections during a parse would free none
of its objects; the library itself never touches ``gc``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from .document import load_fixture, parse_document, serialize_graph
from .errors import AdapterChainError, GraphSyntaxError, InvalidParams, digits
from .generator import GenParams, random_instance
from .model import AdapterGraph, AvailabilityVector, Interface, normalize_vector
from .search import (
    WeightMap,
    chain_pipeline,
    enumerate_chains,
    greedy_chain,
    oracle_optimal,
)
from .semantics import apply_pipeline, function_sizes


def _read_text(path: str, what: str, error: type[AdapterChainError]) -> str:
    """Read a UTF-8 file named on the command line; failures raise ``error``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            "{} file {!r} is not UTF-8 (byte {})", what, path, exc.start
        ) from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise error("cannot read {} file {!r}: {}", what, path, reason) from None


def _load_graph(spec: str) -> AdapterGraph:
    path_like = "/" in spec or "\\" in spec or spec.endswith(".json")
    if not path_like and not os.path.exists(spec):  # False for any bad name
        return load_fixture(spec)
    return parse_document(_read_text(spec, "graph", GraphSyntaxError))


def _parse_vector(interface: Interface, text: str) -> AvailabilityVector:
    """Parse "method:V1,V2;method2:V3"; unlisted methods get only bot."""
    sets: dict[str, set[str]] = {m.name: set() for m in interface.methods}
    for part in filter(None, (p.strip() for p in text.split(";"))):
        name, _, values = part.partition(":")
        name = name.strip()
        if name not in sets:
            raise InvalidParams("interface {!r} has no method {!r}", interface.id, name)
        sets[name] |= {v.strip() for v in values.split(",") if v.strip()}
    return normalize_vector(interface, list(sets.values()))


def _parse_weights(path: str) -> WeightMap:
    """Weight files: one `interface.method.value = weight` per line;
    blank lines and #-comments ignored. A key may be given once."""
    weights: dict[tuple[str, str, str], float] = {}
    first_line: dict[tuple[str, str, str], int] = {}
    text = _read_text(path, "weights", InvalidParams)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        parts = key.strip().rsplit(".", 2)  # interface ids may hold dots
        if not sep or len(parts) != 3:
            raise InvalidParams(
                "{}:{}: expected 'interface.method.value = weight'", path, lineno
            )
        try:
            weight = float(value.strip())
        except ValueError:
            raise InvalidParams(
                "{}:{}: weight {!r} is not a number", path, lineno, value.strip()
            ) from None
        key = tuple(parts)
        if key in first_line:
            raise InvalidParams(
                "{}:{}: weight for {}.{}.{} was already given on line {}",
                path, lineno, *key, first_line[key],
            )
        first_line[key] = lineno
        weights[key] = weight
    return WeightMap(weights)


def _format_vector(interface: Interface, v: AvailabilityVector) -> str:
    return " ".join(
        f"{m.name}:{{{','.join(c)}}}"
        for m, c in zip(interface.methods, v.canonical())
    )


def _vector_json(interface: Interface, v: AvailabilityVector) -> dict:
    return {m.name: list(c) for m, c in zip(interface.methods, v.canonical())}


def _cmd_validate(args, graph: AdapterGraph) -> tuple[dict, str]:
    interfaces, adapters = len(graph.interfaces), len(graph.adapters)
    report = {"interfaces": interfaces, "adapters": adapters, "valid": True}
    return report, f"OK: {interfaces} interfaces, {adapters} adapters"


def _cmd_eval(args, graph: AdapterGraph) -> tuple[dict, str]:
    chain = [a for a in args.chain.split(",") if a]
    if not chain:
        raise InvalidParams("--chain must list at least one adapter id")
    if chain[0] not in graph.adapters:
        raise InvalidParams("graph has no adapter {!r}", chain[0])
    source = graph.adapters[chain[0]].source
    pipeline = chain_pipeline(graph, chain, source.id)
    p = _parse_vector(source, args.vector)
    q = apply_pipeline(pipeline, p)
    target = pipeline.target
    report = {
        "chain": chain,
        "source": source.id,
        "target": target.id,
        "input": _vector_json(source, p),
        "output": _vector_json(target, q),
    }
    return report, _format_vector(target, q)


def _cmd_chain(args, graph: AdapterGraph) -> tuple[dict, str]:
    if args.sources is not None:
        sources = [s for s in args.sources.split(",") if s]
    elif args.source:
        sources = [args.source]
    else:
        raise InvalidParams("one of --source or --sources is required")
    weights = _parse_weights(args.weights) if args.weights else WeightMap()
    search = oracle_optimal if args.oracle else greedy_chain
    result = search(graph, sources, args.target, weights)
    target = graph.interfaces[result.target]
    report = {
        "chain": list(result.chain),
        "source": result.source,
        "target": result.target,
        "final": _vector_json(target, result.final_vector),
        "score": result.score,
        "method": "oracle" if args.oracle else "greedy",
    }
    return report, "\n".join(
        [
            "chain: " + (" -> ".join(result.chain) if result.chain else "(identity)"),
            f"source: {result.source}",
            f"target: {result.target}",
            "final: " + _format_vector(target, result.final_vector),
            f"score: {result.score}",
        ]
    )


def _cmd_enumerate(args, graph: AdapterGraph) -> tuple[dict, str]:
    chains = enumerate_chains(graph, args.source, args.target)
    report = {
        "source": args.source,
        "target": args.target,
        "chains": [list(c) for c in chains],
    }
    return report, "\n".join(
        " -> ".join(c) if c else "(identity)" for c in chains
    ) or "(no chains)"


def _size(size: int) -> int | str:
    """A function size for both renderings: the int, or the string of its
    digits when it has too many for the interpreter (and ``json``) to turn
    into text."""
    try:
        str(size)
    except ValueError:
        return digits(size)
    return size


def _cmd_stats(args, graph: AdapterGraph) -> tuple[dict, str]:
    rows = []
    for adapter_id in sorted(graph.adapters):
        dep, adap = function_sizes(graph.adapters[adapter_id])
        rows.append((adapter_id, _size(dep), _size(adap)))
    width = max([len("adapter"), *(len(r[0]) for r in rows)])
    lines = [f"{'adapter':<{width}}  dependency_size  adaptation_size"]
    for adapter_id, dep, adap in rows:
        lines.append(f"{adapter_id:<{width}}  {dep:>15}  {adap:>15}")
    report = {
        "adapters": [
            {"id": r[0], "dependency_size": r[1], "adaptation_size": r[2]}
            for r in rows
        ]
    }
    return report, "\n".join(lines)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        return (int(lo), int(hi)) if sep else (int(lo), int(lo))
    except ValueError:
        raise InvalidParams("range {!r} must be N or LO:HI", text) from None


def _cmd_gen(args, graph: None) -> tuple[None, str]:
    """The document itself, or a note naming the file written; ``--format``
    does not change either."""
    params = GenParams(
        interface_count=args.interfaces,
        methods_per_interface=_parse_range(args.methods),
        values_per_method=_parse_range(args.values),
        adapter_count=args.adapters,
        entry_density=args.density,
        seed=args.seed,
    )
    graph, source, target = random_instance(params)
    text = serialize_graph(graph)
    if not args.output:
        return None, text[:-1]  # run_cli prints the document's last newline
    try:
        Path(args.output).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise InvalidParams("cannot write {!r}: {}", args.output, reason) from None
    return None, f"wrote {args.output} (source {source}, target {target})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptchain",
        description="Analyze loss in lossy interface adapter chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graph: bool = True) -> None:
        if graph:
            p.add_argument(
                "--graph", required=True,
                help="graph document path or bundled fixture name",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="parse and validate a graph document")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="apply an adapter chain to a vector")
    common(p)
    p.add_argument("--chain", required=True, help="comma-separated adapter ids")
    p.add_argument(
        "--vector", required=True,
        help='availability vector, e.g. "playVideo:MOV,MKV;playAudio:MP3"',
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("chain", help="find the loss-optimal chain")
    common(p)
    given = p.add_mutually_exclusive_group()
    given.add_argument("--source", help="single source interface id")
    given.add_argument("--sources", help="comma-separated source interface ids")
    p.add_argument("--target", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="brute-force search instead of greedy")
    p.add_argument("--weights", help="weight file (interface.method.value = w)")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("enumerate", help="list all acyclic chains")
    common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="per-adapter function sizes")
    common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    common(p, graph=False)
    p.add_argument("--interfaces", type=int, required=True)
    p.add_argument("--methods", default="1:2", help="methods per interface (LO:HI)")
    p.add_argument("--values", default="1:2", help="non-bot values per method (LO:HI)")
    p.add_argument("--adapters", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the graph document here")
    p.set_defaults(func=_cmd_gen)

    return parser


def run_cli(argv: list[str], out=None, err=None) -> int:
    """Dispatch a command line; returns the process exit status. Everything
    is written to ``out`` and ``err`` (the process streams by default),
    argparse's usage errors and help included. A graph error comes before
    any error in the command's other arguments; running out of memory while
    loading the graph or running the command is one error line too.

    The cyclic garbage collector is paused for the command, however it
    ends, and enabled again only once the command's objects are released;
    a collector already disabled is left so. The package builds no
    reference cycles, so the pause skips only collections that would free
    none of its objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv, out, err)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str], out, err) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        graph = _load_graph(args.graph) if "graph" in args else None
        report, text = args.func(args, graph)
    except AdapterChainError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except MemoryError:
        print(f"error: out of memory running {args.command!r}", file=err)
        return 1
    if report is not None and args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    print(text, file=out)
    return 0


def main() -> None:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # Unbuffered stdout (``python -u``, PYTHONUNBUFFERED): the text layer
        # writes to the raw file and drops a short count, so a reader that
        # leaves mid-write would go unnoticed. A buffered writer finishes
        # short writes, so a closed pipe raises BrokenPipeError below.
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(sys.stdout.buffer),
            encoding=sys.stdout.encoding,
            errors=sys.stdout.errors,
        )
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe must fail here, inside the try
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at devnull so the
        # interpreter's flush at exit cannot raise again, and exit the way
        # a shell reports a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # 128 + SIGPIPE (13)
    sys.exit(status)


if __name__ == "__main__":
    main()
