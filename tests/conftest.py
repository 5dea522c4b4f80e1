from __future__ import annotations

import pytest

from adaptchain import load_fixture
from adaptchain.model import BOT, AvailabilityVector, Interface
from generator_reference import SplitMix64

# The Video1toVideo2 dependency table, written out literally so tests can
# check the bundled fixture and the adaptation semantics against an
# independent source instead of the code under test.
VIDEO1_TO_VIDEO2_ROWS = {
    ("bot", "bot"): ({"bot"}, {"bot"}, {"bot"}, {"bot"}),
    ("bot", "MP3"): ({"bot"}, {"bot"}, {"bot"}, {"bot"}),
    ("bot", "OGG"): ({"bot"}, {"bot"}, {"bot"}, {"bot"}),
    ("bot", "WAV"): ({"bot"}, {"bot"}, {"bot"}, {"bot"}),
    ("MOV", "bot"): ({"bot", "MP4"}, {"bot"}, {"bot"}, {"bot"}),
    ("MOV", "MP3"): ({"bot", "MP4"}, {"bot"}, {"bot"}, {"bot"}),
    ("MOV", "OGG"): ({"bot", "MP4"}, {"bot"}, {"bot"}, {"bot"}),
    ("MOV", "WAV"): ({"bot", "MP4"}, {"bot"}, {"bot"}, {"bot"}),
    ("AVI", "bot"): ({"bot", "INDEO", "DIVX"}, {"bot"}, {"bot"}, {"bot"}),
    ("AVI", "MP3"): ({"bot", "INDEO", "DIVX"}, {"bot"}, {"bot"}, {"bot"}),
    ("AVI", "OGG"): ({"bot", "INDEO", "DIVX"}, {"bot"}, {"bot"}, {"bot"}),
    ("AVI", "WAV"): ({"bot", "INDEO", "DIVX"}, {"bot"}, {"bot"}, {"bot"}),
    ("MKV", "bot"): ({"bot", "MP4", "DIVX", "THEORA"}, {"bot"}, {"bot"}, {"bot"}),
    ("MKV", "MP3"): ({"bot", "MP4", "DIVX", "THEORA"}, {"bot"}, {"bot"}, {"bot"}),
    ("MKV", "OGG"): ({"bot", "MP4", "DIVX", "THEORA"}, {"bot"}, {"bot"}, {"bot"}),
    ("MKV", "WAV"): ({"bot", "MP4", "DIVX", "THEORA"}, {"bot"}, {"bot"}, {"bot"}),
}

# The unordered forms of a list of items, which every reader that keeps
# its caller's order refuses: a dict (read as its keys), a set, a frozenset
# and a dict's keys view (each read in an order the hash seed may decide).
UNORDERED = {
    "dict": dict.fromkeys,
    "set": set,
    "frozenset": frozenset,
    "keys": lambda items: dict.fromkeys(items).keys(),
}

# A two-interface, one-adapter graph document.
MINIMAL = {
    "version": "1",
    "interfaces": [
        {"id": "A", "methods": [{"name": "m", "values": ["X", "Y"]}]},
        {"id": "B", "methods": [{"name": "n", "values": ["Z"]}]},
    ],
    "adapters": [
        {
            "id": "AtoB",
            "source": "A",
            "target": "B",
            "entries": [{"input": ["X"], "output": [["Z"]]}],
        }
    ],
}

DELETE = object()


def mutated(doc, path, value):
    """``doc`` with the field at ``path`` set to ``value``, or removed for
    DELETE. A field that an earlier change removed is left alone."""
    if not path:
        return doc if value is DELETE else value
    *parents, key = path
    obj = doc
    try:
        for k in parents:
            obj = obj[k]
        if value is DELETE:
            del obj[key]
        elif isinstance(obj, dict) or key < len(obj):
            obj[key] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


@pytest.fixture(scope="session")
def video_graph():
    return load_fixture("video-example")


def random_subvector(
    rng: SplitMix64, interface: Interface, within: AvailabilityVector | None = None
) -> AvailabilityVector:
    """A random bot-normalized vector over the interface, optionally a
    componentwise subset of ``within``."""
    components = []
    for i, domain in enumerate(interface.domains):
        pool = sorted(
            (within.components[i] if within is not None else set(domain.non_bottom))
            - {BOT}
        )
        mask = rng.below(2 ** len(pool)) if pool else 0
        chosen = {v for k, v in enumerate(pool) if mask >> k & 1}
        components.append(frozenset(chosen) | {BOT})
    return AvailabilityVector(interface.id, tuple(components))


def lossless_path(n: int):
    """A path of n one-method interfaces P0000 -> ... joined by identity
    adapters E0000, ...; every chain along it loses nothing."""
    from adaptchain.model import build_adapter, build_graph, build_interface

    values = ["a", "b", "c"]
    interfaces = [build_interface(f"P{i:04d}", [("m", values)]) for i in range(n)]
    adapters = [
        build_adapter(
            f"E{i:04d}", interfaces[i], interfaces[i + 1],
            [((v,), [[v]]) for v in values],
        )
        for i in range(n - 1)
    ]
    return build_graph(interfaces, adapters)
