"""Reference graph document: the plain-dict builder that ``serialize_graph``
replaced, kept as a test oracle.

``json.dumps(reference_document(graph), indent=2) + "\\n"`` is the canonical
text the library writes directly; differential tests compare the two.
"""

from __future__ import annotations

from adaptchain.document import FORMAT_VERSION
from adaptchain.model import BOT, Adapter, AdapterGraph


def _values_out(values) -> list[str]:
    return sorted(set(values) - {BOT})


def _adapter_to_obj(adapter: Adapter) -> dict:
    obj = {
        "id": adapter.id,
        "source": adapter.source.id,
        "target": adapter.target.id,
    }
    if any(s != frozenset((BOT,)) for s in adapter.default_output):
        obj["default_output"] = [_values_out(s) for s in adapter.default_output]
    obj["entries"] = [
        {"input": list(input), "output": [_values_out(s) for s in output]}
        for input, output in sorted(adapter.table.items())
    ]
    return obj


def reference_document(graph: AdapterGraph) -> dict:
    """Canonical plain-dict form of a graph, ready for JSON emission."""
    return {
        "version": FORMAT_VERSION,
        "interfaces": [
            {
                "id": interface.id,
                "methods": [
                    {"name": m.name, "values": list(m.domain.non_bottom)}
                    for m in interface.methods
                ],
            }
            for interface in sorted(graph.interfaces.values(), key=lambda i: i.id)
        ],
        "adapters": [
            _adapter_to_obj(a)
            for a in sorted(graph.adapters.values(), key=lambda a: a.id)
        ],
    }
