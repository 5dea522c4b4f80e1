"""In-memory span tracer wrapped around the program's public functions.

Installed from the benchmark's own files: every public module-level
function of each traced module, plus a few declared methods, is replaced
by a wrapper wherever the ``adaptchain`` package binds it (``apply_pipeline``
is imported by name into ``search`` and ``cli``, for example). A function
named by a per-layer metric that cannot be found stops the run, so a later
rename or inlining shows as a missing layer rather than a silent zero.

Each call records a span (id, name, start, end, parent id, query id) in a
list that is written out at the end, and adds to per-function call counts,
busy time (outermost call only) and self time (duration minus child spans).
``Adapter.lookup`` runs millions of times per query, so it is only counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "document", "model", "semantics", "search", "generator")
METHODS = {
    "model.Adapter.lookup": "count",
    "model.AdapterGraph.incoming": "span",
    "model.AdapterGraph.outgoing": "span",
}
# Functions a per-layer metric depends on; missing ones fail the run.
REQUIRED = (
    "cli.run_cli", "document.parse_document", "document.serialize_graph",
    "generator.random_instance", "model.build_graph", "model.build_adapter",
    "semantics.apply_adaptation", "semantics.tabulate_adaptation",
    "semantics.apply_pipeline", "semantics.prepend", "search.chain_pipeline",
    "search.greedy_chain", "search.count_abstract", "search.oracle_optimal",
    "search.enumerate_chains", *METHODS,
)
# (function, enclosing function) -> counter of calls made inside it.
INSIDE = {
    "model.AdapterGraph.incoming": ("search.greedy_chain", "search.greedy.expanded"),
    "semantics.apply_adaptation": ("semantics.apply_pipeline", "semantics.pipeline_adaptations"),
    "search.count_abstract": ("search.greedy_chain", "search.greedy.scored"),
}
ON_CALL = {
    "document.parse_document": ("document.bytes_parsed", lambda args: len(args[0])),
}
ON_RETURN = {
    "semantics.tabulate_adaptation": ("semantics.tabulated_rows", lambda r: len(r.rows)),
    "search.enumerate_chains": ("search.chains_enumerated", len),
    "search.greedy_chain": ("search.greedy.answer_chains", lambda r: len(r.chain) + 1),
}

SPAN_CAP = 50_000  # spans kept in memory; later ones are only counted as dropped

COUNTERS = (
    {c for _, c in INSIDE.values()}
    | {c for c, _ in ON_CALL.values()}
    | {c for c, _ in ON_RETURN.values()}
)


class MissingLayer(Exception):
    pass


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [span id, child time]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.query_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn):
        calls, busy, self_time = self.calls, self.busy, self.self_time
        active, stack, spans, counters = self.active, self.stack, self.spans, self.counters
        inside = INSIDE.get(name)
        on_call = ON_CALL.get(name)
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if inside and active[inside[0]]:
                counters[inside[1]] += 1
            if on_call:
                counters[on_call[0]] += on_call[1](args)
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                dur = end - start
                if not active[name]:
                    busy[name] += dur
                self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, parent, self.query_id))
                else:
                    self.dropped += 1
            if on_return:
                counters[on_return[0]] += on_return[1](result)
            return result

        return spanned

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = [
            m for n, m in sys.modules.items() if n == "adaptchain" or n.startswith("adaptchain.")
        ]
        wrapped: dict[str, object] = {}
        for layer in MODULES:
            module = sys.modules[f"adaptchain.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapper = self._spanned(name, fn)
                    wrapped[name] = fn
                    for m in package:
                        for bound, value in list(vars(m).items()):
                            if value is fn:
                                self._undo.append((m, bound, fn))
                                setattr(m, bound, wrapper)
        for name, mode in METHODS.items():
            layer, cls_name, attr = name.split(".")
            cls = getattr(sys.modules[f"adaptchain.{layer}"], cls_name, None)
            fn = cls and cls.__dict__.get(attr)
            if not inspect.isfunction(fn):
                continue
            wrapper = (self._counted if mode == "count" else self._spanned)(name, fn)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
            wrapped[name] = fn
        missing = [n for n in REQUIRED if n not in wrapped]
        if missing:
            self.uninstall()
            raise MissingLayer(f"traced functions not found: {', '.join(missing)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- bookkeeping ------------------------------------------------------

    def reset_stack(self) -> None:
        """After a query: a query that died mid-span leaves frames behind."""
        if self.stack:
            self.counters["trace.unbalanced_queries"] += 1
            self.stack.clear()
        for name in [n for n, depth in self.active.items() if depth]:
            self.active[name] = 0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, query in self.spans:
                f.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "query": query,
                }) + "\n")
            f.write(json.dumps({"dropped": self.dropped}) + "\n")


def diff(after: dict, before: dict) -> dict:
    """Per-cycle figures: the difference of two snapshots."""
    return {
        kind: {k: v - before[kind].get(k, 0) for k, v in after[kind].items()}
        for kind in after
    }
