"""The value types: named tuples and two slotted classes. Every field
refuses assignment, a slotted class's constructor fills each slot from
its argument, pipelines compare by identity, and importing the CLI loads
none of the ``dataclasses`` machinery."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from adaptchain import (
    AdaptationPipeline,
    Adapter,
    GenParams,
    WeightMap,
    full_vector,
    greedy_chain,
    identity_pipeline,
    load_fixture,
    prepend,
    tabulate_adaptation,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def values():
    """One instance of each of the 11 value types, with one of its fields."""
    graph = load_fixture("video-example")
    adapter = graph.adapters["Video1toVideo2"]
    interface = adapter.source
    method = interface.methods[0]
    return {
        "AbstractDomain": (method.domain, "values"),
        "MethodSpec": (method, "domain"),
        "Interface": (interface, "methods"),
        "AvailabilityVector": (full_vector(interface), "components"),
        "Adapter": (adapter, "table"),
        "AdapterGraph": (graph, "adapters"),
        "AdaptationPipeline": (identity_pipeline(interface), "source"),
        "TabulatedAdaptation": (tabulate_adaptation(adapter), "rows"),
        "GenParams": (GenParams(1, (1, 1), (1, 1), 0, 0.5, 0), "seed"),
        "WeightMap": (WeightMap(), "weights"),
        "ChainResult": (greedy_chain(graph, ["Video1"], "Video2"), "score"),
    }


@pytest.mark.parametrize("name", list(values()))
def test_a_field_refuses_assignment(name):
    value, field = values()[name]
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", ["Adapter", "AdaptationPipeline"])
def test_a_slotted_field_refuses_deletion(name):
    value, field = values()[name]
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert hasattr(value, field)


@pytest.mark.parametrize("cls", [Adapter, AdaptationPipeline])
def test_the_constructor_fills_each_slot_from_its_argument(cls):
    fields = [object() for _ in cls.__slots__]
    value = cls(*fields)
    assert [getattr(value, name) for name in cls.__slots__] == fields


def test_equal_pipelines_are_not_equal():
    adapter = load_fixture("video-example").adapters["Video1toVideo2"]
    first, second = (
        prepend(adapter, identity_pipeline(adapter.target)) for _ in range(2)
    )
    assert first != second and first == first
    assert identity_pipeline(adapter.source) != identity_pipeline(adapter.source)


def test_an_adapter_hashes_without_its_table():
    adapter = load_fixture("video-example").adapters["Video1toVideo2"]
    other = Adapter(
        adapter.id, adapter.source, adapter.target, {}, adapter.default_output
    )
    assert hash(other) == hash(adapter) and other != adapter


def test_importing_the_cli_loads_no_dataclass_machinery():
    # ``-I`` ignores PYTHONPATH, so the child puts ``src`` on its path.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); start = set(sys.modules); "
        "import adaptchain.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - start)))"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
