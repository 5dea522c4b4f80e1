"""Golden CLI output: the exact stdout of every subcommand, in text and
JSON, on the bundled fixture and on three seeded generated instances.

Each case's expected stdout is a file in ``tests/golden/``. After an
intended output change, rewrite them with ``python tests/test_golden.py``
and review the diff. Every JSON output must be standard JSON: ``Infinity``
and ``NaN``, which ``json.dumps`` writes for non-finite floats, fail.
"""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path

import pytest

from adaptchain.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (gen arguments or None for the fixture, source, target,
#          eval chain, eval vector, weight file text)
INSTANCES = {
    "video": (
        None, "Video1", "Video2", "Video1toVideo2,Video2toVideo3",
        "playVideo:MOV,AVI,MKV;playAudio:MP3",
        "Video2.play.MP4 = 2.0\nVideo2.play.DIVX = 0.5\n",
    ),
    "gen1": (
        ["--interfaces", "8", "--adapters", "30", "--density", "0.3",
         "--seed", "1", "--methods", "1:3", "--values", "1:3"],
        "I0", "I7", "A15,A4", "m0:v0,v1;m2:v1",
        "I7.m1.v1 = 2.5\nI7.m0.v0 = 0.5\n",
    ),
    "gen2": (
        ["--interfaces", "6", "--adapters", "16", "--density", "0.5",
         "--seed", "3", "--methods", "2:3", "--values", "1:2"],
        "I0", "I5", "A14,A11", "m0:v0;m1:v0,v1;m2:v1",
        "I5.m1.v0 = 3\n",
    ),
    "gen3": (
        ["--interfaces", "7", "--adapters", "20", "--density", "0.3",
         "--seed", "5", "--methods", "1:2", "--values", "2:3"],
        "I0", "I6", "A10", "m0:v1",
        "I6.m1.v2 = 0.25\nI6.m0.v2 = 4\n",
    ),
}


def _queries(name: str) -> dict[str, list[str]]:
    gen, source, target, chain, vector, _ = INSTANCES[name]
    route = ["--source", source, "--target", target]
    queries = {
        "validate": ["validate"],
        "stats": ["stats"],
        "eval": ["eval", "--chain", chain, "--vector", vector],
        "chain": ["chain", *route],
        "oracle": ["chain", *route, "--oracle"],
        "weighted": ["chain", *route, "--weights", "{weights}"],
        "weighted-oracle": ["chain", *route, "--oracle", "--weights", "{weights}"],
        "enumerate": ["enumerate", *route],
    }
    queries = {k: [v[0], "--graph", "{graph}", *v[1:]] for k, v in queries.items()}
    if gen is None:
        queries["sources"] = [
            "chain", "--graph", "{graph}", "--sources", "Video1,Video3",
            "--target", "Audio",
        ]
    else:
        queries["gen"] = ["gen", *gen]
    return queries


CASES = [
    (name, query, fmt)
    for name in INSTANCES
    for query in _queries(name)
    for fmt in ("text", "json")
]


def _strict_json(text: str) -> object:
    def refuse(constant: str) -> None:
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    status = run_cli(argv, out=out, err=err)
    assert (status, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def _materialize(name: str, workdir: Path) -> dict[str, str]:
    """Write the instance's graph and weight files; returns the argv
    placeholders that point at them."""
    gen, *_, weights = INSTANCES[name]
    graph = "video-example"
    if gen is not None:
        graph = str(workdir / f"{name}.json")
        Path(graph).write_text(_run(["gen", *gen]))
    weight_file = workdir / f"{name}.weights"
    weight_file.write_text(weights)
    return {"graph": graph, "weights": str(weight_file)}


def _stdout(name: str, query: str, fmt: str, files: dict[str, str]) -> str:
    argv = [arg.format(**files) for arg in _queries(name)[query]]
    return _run([*argv, "--format", fmt])


def _golden_path(name: str, query: str, fmt: str) -> Path:
    return GOLDEN / f"{name}-{query}.{fmt}"


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return {name: _materialize(name, workdir) for name in INSTANCES}


@pytest.mark.parametrize(
    "name,query,fmt", CASES, ids=[f"{n}-{q}-{f}" for n, q, f in CASES]
)
def test_stdout_matches_golden(name, query, fmt, instance_files):
    expected = _golden_path(name, query, fmt).read_text(encoding="utf-8")
    assert _stdout(name, query, fmt, instance_files[name]) == expected
    if fmt == "json":
        _strict_json(expected)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["greedy", "oracle"])
def test_weights_that_overflow_are_one_error_line(oracle, fmt, tmp_path):
    """Four finite weights whose sum has no finite float: no chain is
    scored, and no output holds Infinity."""
    weights = tmp_path / "overflow.weights"
    weights.write_text("".join(
        f"Audio.{key} = 1e308\n" for key in (
            "play.OGG", "play.WAV", "adjustAudio.EQUALIZER", "adjustAudio.VOLUME",
        )
    ))
    out, err = io.StringIO(), io.StringIO()
    status = run_cli([
        "chain", "--graph", "video-example", "--sources", "Video1,Video3",
        "--target", "Audio", "--weights", str(weights), *oracle, "--format", fmt,
    ], out=out, err=err)
    if fmt == "json" and out.getvalue():
        _strict_json(out.getvalue())
    assert (status, out.getvalue(), err.getvalue()) == (
        1, "", "error: weights on 'Audio' sum past the largest float\n"
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: _materialize(name, Path(tmp)) for name in INSTANCES}
        for name, query, fmt in CASES:
            _golden_path(name, query, fmt).write_text(
                _stdout(name, query, fmt, files[name]), encoding="utf-8"
            )
