from __future__ import annotations

import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import adaptchain
from adaptchain.cli import run_cli
from adaptchain.document import parse_document, serialize_graph
from adaptchain.errors import ArityMismatch, UnknownInterface, UnknownValue
from conftest import MINIMAL, lossless_path, mutated
from test_search import complete_graph

README = Path(__file__).parents[1] / "README.md"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = run_cli(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


class TestValidate:
    def test_fixture_ok(self):
        status, out, _ = run(["validate", "--graph", "video-example"])
        assert status == 0
        assert "4 interfaces" in out and "6 adapters" in out

    def test_missing_file(self):
        status, _, err = run(["validate", "--graph", "./nope.json"])
        assert status == 1
        assert "error:" in err

    def test_invalid_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        status, _, err = run(["validate", "--graph", str(bad)])
        assert status == 1
        assert "error:" in err and "Traceback" not in err

    def test_directory_is_a_domain_error(self, tmp_path):
        status, _, err = run(["validate", "--graph", str(tmp_path)])
        assert status == 1
        assert "cannot read graph file" in err

    def test_non_utf8_is_a_domain_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"version": "1", "interfaces": ["\xff"]}')
        status, _, err = run(["validate", "--graph", str(bad)])
        assert status == 1
        assert "UTF-8" in err


VALUES = ("interfaces", 0, "methods", 0, "values")
INPUT = ("adapters", 0, "entries", 0, "input")
OUTPUT = ("adapters", 0, "entries", 0, "output")
DEFAULT = ("adapters", 0, "default_output")
SOURCE = ("adapters", 0, "source")


class TestBadInput:
    """Bad values and unreadable files end in exit 1 and an error line
    naming the bad element, never a traceback."""

    @pytest.mark.parametrize("field,value,error,named", [
        (VALUES, [1, "X"], UnknownValue, ["1", "'m'", "'A'"]),
        (VALUES, [1], UnknownValue, ["1", "'m'", "'A'"]),
        (VALUES, [["X"]], UnknownValue, ["['X']", "'m'", "'A'"]),
        (OUTPUT, [5], UnknownValue, ["'AtoB'", "('X',)", "'n'", "5"]),
        (OUTPUT, ["xy"], UnknownValue, ["'AtoB'", "('X',)", "'n'", "'xy'"]),
        (OUTPUT, [[["Z"]]], UnknownValue, ["'AtoB'", "('X',)", "'n'", "[['Z']]"]),
        (OUTPUT, [{"Z": 1}], UnknownValue, ["'AtoB'", "('X',)", "'n'", "{'Z': 1}"]),
        (OUTPUT, [[1, "Q"]], UnknownValue, ["'AtoB'", "('X',)", "'n'", "'Q'"]),
        (DEFAULT, 5, ArityMismatch, ["'AtoB'", "default output", "5"]),
        (DEFAULT, "Z", UnknownValue, ["'AtoB'", "default output", "'n'", "'Z'"]),
        # Huge values are cut to 80 characters and their length.
        (OUTPUT, [[]] * 100_000, ArityMismatch,
         ["'AtoB'", "('X',)", "'B'", "[[], [],", "(400000 characters)"]),
        (OUTPUT, [["Z" * 200_000]], UnknownValue,
         ["'AtoB'", "('X',)", "'n'", "'ZZZ", "(200002 characters)"]),
        (INPUT, ["X" * 200_000], UnknownValue,
         ["'AtoB'", "'m'", "'XXX", "(200002 characters)"]),
        (INPUT, ["X"] * 100_000, ArityMismatch,
         ["'AtoB'", "('X', 'X',", "(500000 characters)", "100000 components"]),
        (SOURCE, "A" * 100_000, UnknownInterface,
         ["'AtoB'", "'AAA", "(100002 characters)"]),
    ], ids=[
        "values-mixed", "values-int", "values-nested", "output-int",
        "output-string", "output-unhashable", "output-object", "output-mixed",
        "default-int", "default-string", "output-huge-arity",
        "output-huge-value", "input-huge-value", "input-huge-arity",
        "source-huge-id",
    ])
    def test_bad_value_in_document(self, tmp_path, field, value, error, named):
        doc = mutated(json.loads(json.dumps(MINIMAL)), field, value)
        with pytest.raises(error) as exc:
            parse_document(json.dumps(doc))
        assert len(str(exc.value)) < 300
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        status, _, err = run(["validate", "--graph", str(path)])
        assert status == 1 and err.startswith("error:") and len(err) < 300
        assert all(name in err for name in named), err

    @pytest.mark.parametrize("kind", ["directory", "missing", "non-utf8"])
    def test_unreadable_weights(self, tmp_path, kind):
        weights = tmp_path / "w.txt"
        if kind == "directory":
            weights.mkdir()
        elif kind == "non-utf8":
            weights.write_bytes(b"Video2.play.MP4 = 2\n\xff\n")
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights),
        ])
        assert status == 1 and err.startswith("error:")
        assert str(weights) in err
        assert ("UTF-8" if kind == "non-utf8" else "cannot read weights file") in err

    def test_deeply_nested_document(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 2000 + "]" * 2000)
        status, out, err = run(["validate", "--graph", str(path)])
        assert (status, out) == (1, "")
        assert err == "error: document nests too deeply to parse\n"

    def test_gen_output_unwritable(self, tmp_path):
        status, _, err = run([
            "gen", "--interfaces", "3", "--adapters", "4",
            "--output", str(tmp_path),
        ])
        assert status == 1 and err.startswith("error:")
        assert f"cannot write {str(tmp_path)!r}" in err

    def test_huge_weight_is_cut(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("Video2.play.MP4 = " + "9" * 100_000 + "x\n")
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights),
        ])
        assert status == 1 and len(err) < 300
        assert f"{weights}:1: weight '999" in err
        assert "(100003 characters) is not a number" in err

    def test_huge_weight_key_is_cut(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("Video2.play." + "M" * 100_000 + " = 1\n")
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights),
        ])
        assert status == 1 and err.startswith("error:") and len(err) < 300
        assert "weight for Video2.play.MMM" in err
        assert "(100000 characters): no such value" in err

    def test_weight_on_undeclared_value(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("Video2.play.MP4 = 5\nNope.m.x = 3\n")
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights),
        ])
        assert (status, err) == (1, "error: weight for Nope.m.x: no such value\n")

    @pytest.mark.parametrize("case", [
        "eval-endpoints", "chain-greedy", "chain-oracle", "gen-output",
        "graph-path", "document-version", "fixture-name", "tabulate-cap",
    ])
    def test_huge_value_gives_a_short_line(self, tmp_path, monkeypatch, case):
        huge = "H" * 100_000
        doc = json.loads(json.dumps(MINIMAL))
        doc["interfaces"][0]["id"] = doc["adapters"][0]["source"] = huge + "A"
        doc["interfaces"][1]["id"] = doc["adapters"][0]["target"] = huge + "B"
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(doc))
        version = tmp_path / "v.json"
        version.write_text(json.dumps({**MINIMAL, "version": huge}))
        if case == "tabulate-cap":
            monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "9" * 100_000 + "x")
        chain = ["chain", "--graph", str(graph), "--source", huge + "B",
                 "--target", huge + "A"]
        gen = ["gen", "--interfaces", "2", "--adapters", "1"]
        argv, shown = {
            "eval-endpoints": (
                ["eval", "--graph", str(graph), "--chain", "AtoB,AtoB", "--vector", ""],
                "adapter 'AtoB' targets 'HHH",
            ),
            "chain-greedy": (chain, "no acyclic chain reaches 'HHH"),
            "chain-oracle": ([*chain, "--oracle"], "no acyclic chain reaches 'HHH"),
            "gen-output": ([*gen, "--output", str(tmp_path / huge)], "cannot write '"),
            "graph-path": (
                ["validate", "--graph", str(tmp_path / huge)],
                "cannot read graph file '",
            ),
            "document-version": (
                ["validate", "--graph", str(version)],
                "unsupported format version 'HHH",
            ),
            "fixture-name": (
                ["validate", "--graph", "\x01" * 100],
                "no bundled fixture named '\\x01\\x01",
            ),
            "tabulate-cap": (
                gen, "ADAPTCHAIN_TABULATE_CAP must be a positive integer, got '999"
            ),
        }[case]
        status, out, err = run(argv)
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {shown}"), err[:300]
        assert len(err) < 300 and err.count("\n") == 1 and " characters)" in err

    @pytest.mark.parametrize("argv,shown", [
        (["validate", "--graph", "a\0b"], "no bundled fixture named 'a\\x00b'"),
        (["validate", "--graph", "a/\0b.json"],
         "cannot read graph file 'a/\\x00b.json': embedded null byte"),
        (["chain", "--graph", "video-example", "--source", "Video1",
          "--target", "Video2", "--weights", "w\0"],
         "cannot read weights file 'w\\x00': embedded null byte"),
        (["gen", "--interfaces", "2", "--adapters", "1", "--output", "o\0"],
         "cannot write 'o\\x00': embedded null byte"),
    ], ids=["graph-fixture", "graph-path", "weights", "output"])
    def test_nul_byte_in_a_path(self, argv, shown):
        # No real argv carries a NUL byte, but a library caller can pass one.
        assert run(argv) == (1, "", f"error: {shown}\n")

    def test_overlong_fixture_name_from_a_shell(self):
        # Too long for a file name: looking it up fails with ENAMETOOLONG.
        src = Path(adaptchain.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "adaptchain.cli",
             "validate", "--graph", "x" * 5000],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: no bundled fixture named 'xxx")
        assert proc.stderr.endswith("(5002 characters)\n")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("case", ["no-chain", "endpoints", "weight-key", "document"])
    def test_braces_show_verbatim(self, tmp_path, case):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interfaces"][1]["id"] = doc["adapters"][0]["target"] = "{0}"
        doc["adapters"][0]["id"] = "{}"
        if case == "document":
            doc["adapters"][0]["source"] = "}{"
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(doc))
        weights = tmp_path / "w.txt"
        weights.write_text("{0}.n.{x} = 1\n")
        argv, shown = {
            "no-chain": (
                ["chain", "--source", "{0}", "--target", "A"],
                "no acyclic chain reaches 'A' from any of ['{0}']",
            ),
            "endpoints": (
                ["eval", "--chain", "{},{}", "--vector", ""],
                "adapter '{}' targets '{0}', pipeline starts at 'A'",
            ),
            "weight-key": (
                ["chain", "--source", "A", "--target", "{0}", "--weights", str(weights)],
                "weight for {0}.n.{x}: no such value",
            ),
            "document": (
                ["validate"], "adapter '{}' references undeclared interface '}{'"
            ),
        }[case]
        assert run([*argv, "--graph", str(graph)]) == (1, "", f"error: {shown}\n")


# Arguments that each --graph subcommand needs besides --graph.
GRAPH_COMMANDS = {
    "validate": [],
    "eval": ["--chain", "Video1toVideo2", "--vector", "playVideo:MOV"],
    "chain": ["--source", "Video1", "--target", "Video2"],
    "enumerate": ["--source", "Video1", "--target", "Video2"],
    "stats": [],
}


class TestGraphLoading:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", list(GRAPH_COMMANDS))
    def test_missing_graph_file(self, tmp_path, command, fmt):
        missing = str(tmp_path / "nope.json")
        status, out, err = run([
            command, "--graph", missing, "--format", fmt,
            *GRAPH_COMMANDS[command],
        ])
        assert (status, out) == (1, "")
        assert err.startswith(f"error: cannot read graph file {missing!r}")

    def test_graph_error_comes_before_an_empty_chain(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        status, out, err = run([
            "eval", "--graph", missing, "--chain", "", "--vector", "",
        ])
        assert (status, out) == (1, "")
        assert err.startswith(f"error: cannot read graph file {missing!r}")


class TestEval:
    def test_paper_example(self):
        status, out, _ = run([
            "eval", "--graph", "video-example",
            "--chain", "Video1toVideo2",
            "--vector", "playVideo:MOV,MKV;playAudio:MP3",
        ])
        assert status == 0
        assert out.strip() == (
            "play:{bot,DIVX,MP4,THEORA} stop:{bot} skip:{bot} caption:{bot}"
        )

    def test_two_adapter_chain(self):
        status, out, _ = run([
            "eval", "--graph", "video-example",
            "--chain", "Video1toVideo2,Video2toVideo3",
            "--vector", "playVideo:MOV,AVI,MKV;playAudio:",
            "--format", "json",
        ])
        assert status == 0
        report = json.loads(out)
        assert report["target"] == "Video3"
        assert report["output"]["play"] == ["bot", "AVI", "MKV", "MOV"]

    def test_unknown_method(self):
        status, _, err = run([
            "eval", "--graph", "video-example",
            "--chain", "Video1toVideo2", "--vector", "nope:MOV",
        ])
        assert status == 1
        assert "nope" in err


class TestChain:
    def test_greedy_equals_oracle_on_fixture(self):
        greedy = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2", "--format", "json",
        ])
        oracle = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2", "--oracle",
            "--format", "json",
        ])
        assert greedy[0] == oracle[0] == 0
        assert json.loads(greedy[1])["score"] == json.loads(oracle[1])["score"]

    def test_prints_chain_vector_and_score(self):
        status, out, _ = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
        ])
        assert status == 0
        assert "chain: Video1toVideo2" in out
        assert "score: 4.0" in out
        assert "final: play:{bot,DIVX,INDEO,MP4,THEORA}" in out

    def test_multi_source(self):
        status, out, _ = run([
            "chain", "--graph", "video-example",
            "--sources", "Video1,Video3", "--target", "Audio",
            "--format", "json",
        ])
        assert status == 0
        assert json.loads(out)["source"] in {"Video1", "Video3"}

    def test_weights_file(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text(
            "# boost MP4\nVideo2.play.MP4 = 2.0\n"
        )
        status, out, _ = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights), "--format", "json",
        ])
        assert status == 0
        assert json.loads(out)["score"] == 5.0

    def test_bot_weight_rejected(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("Video2.play.bot = 1.0\n")
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights),
        ])
        assert status == 1
        assert "bot" in err

    def test_nan_weight_rejected(self, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("Video2.play.MP4 = nan\n")
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2",
            "--weights", str(weights),
        ])
        assert status == 1
        assert "Video2.play.MP4" in err

    def test_no_chain_is_domain_error(self, tmp_path):
        doc = {
            "version": "1",
            "interfaces": [
                {"id": "A", "methods": [{"name": "m", "values": ["X"]}]},
                {"id": "B", "methods": [{"name": "n", "values": ["Y"]}]},
            ],
            "adapters": [],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        status, _, err = run([
            "chain", "--graph", str(path), "--source", "A", "--target", "B",
        ])
        assert status == 1
        assert "no acyclic chain" in err


class TestEnumerate:
    def test_fixture(self):
        status, out, _ = run([
            "enumerate", "--graph", "video-example",
            "--source", "Video1", "--target", "Video3", "--format", "json",
        ])
        assert status == 0
        assert json.loads(out)["chains"] == [
            ["Video1toAudio", "AudioToVideo3"],
            ["Video1toVideo2", "Video2toVideo3"],
        ]


class TestStats:
    def test_fixture_sizes(self):
        status, out, _ = run([
            "stats", "--graph", "video-example", "--format", "json",
        ])
        assert status == 0
        rows = {
            r["id"]: (r["dependency_size"], r["adaptation_size"])
            for r in json.loads(out)["adapters"]
        }
        assert rows == {
            "Video1toVideo2": (16, 256),
            "Video1toAudio": (16, 256),
            "AudioToVideo3": (16, 256),
            "Video2toVideo3": (40, 2048),
            "Video3toAudio": (40, 2048),
            "Video3toVideo1": (40, 2048),
        }


class TestGen:
    def test_gen_round_trips(self, tmp_path):
        out_path = tmp_path / "g.json"
        status, _, _ = run([
            "gen", "--interfaces", "3", "--adapters", "4",
            "--methods", "1:2", "--values", "1:2",
            "--density", "0.5", "--seed", "42",
            "--output", str(out_path),
        ])
        assert status == 0
        assert run(["validate", "--graph", str(out_path)])[0] == 0

    def test_gen_deterministic(self):
        args = [
            "gen", "--interfaces", "3", "--adapters", "4", "--seed", "42",
        ]
        assert run(args)[1] == run(args)[1]

    def test_gen_over_cap_is_a_domain_error(self):
        status, out, err = run([
            "gen", "--interfaces", "2", "--adapters", "1",
            "--methods", "8", "--values", "8", "--density", "0.01",
        ])
        assert (status, out) == (1, "")
        assert err.startswith("error:") and "43046721" in err


class TestClosedPipe:
    """``adaptchain ... | head -c 10``: hundreds of kB into a pipe whose
    reader leaves after 10 bytes, with stdout buffered and unbuffered."""

    @pytest.fixture(scope="class")
    def k9(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pipe") / "k9.json"
        path.write_text(serialize_graph(complete_graph(9)))
        return str(path)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["gen", "enumerate"])
    def test_reader_closing_early_is_not_a_traceback(self, k9, command, unbuffered):
        argv = {
            # one 240 kB write of the whole document
            "gen": ["gen", "--interfaces", "20", "--adapters", "200",
                    "--methods", "2", "--values", "2"],
            # 1.5 MB of chains
            "enumerate": ["enumerate", "--graph", k9, "--source", "I0",
                          "--target", "I8", "--format", "json"],
        }[command]
        src = Path(adaptchain.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "adaptchain.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == ""


def readme_commands() -> list[list[str]]:
    """The ``adaptchain`` command lines of the ``sh`` block under README's
    ``## CLI``, with lines ending in a backslash joined to the next."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("adaptchain ")]


class TestReadme:
    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_cli_example_runs(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        status, out, err = run(argv)
        assert (status, err) == (0, ""), err
        assert out


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_missing_required_flag(self):
        assert run(["stats"])[0] == 2

    def test_json_output_is_stable(self):
        args = [
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video3", "--format", "json",
        ]
        assert run(args)[1] == run(args)[1]


class TestDeepPath:
    """Whole-path queries on a 1200-interface path, deeper than Python's
    recursion limit."""

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deep") / "path.json"
        path.write_text(serialize_graph(lossless_path(1200)))
        return str(path)

    CHAIN = [f"E{i:04d}" for i in range(1199)]

    def test_enumerate(self, graph_file):
        status, out, err = run([
            "enumerate", "--graph", graph_file,
            "--source", "P0000", "--target", "P1199", "--format", "json",
        ])
        assert (status, err) == (0, "")
        assert json.loads(out)["chains"] == [self.CHAIN]

    def test_oracle(self, graph_file):
        status, out, err = run([
            "chain", "--graph", graph_file, "--oracle",
            "--source", "P0000", "--target", "P1199", "--format", "json",
        ])
        assert (status, err) == (0, "")
        assert json.loads(out)["chain"] == self.CHAIN
