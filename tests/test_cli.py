from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaptchain
from adaptchain import cli
from adaptchain.cli import run_cli
from adaptchain.document import parse_document, serialize_graph
from adaptchain.errors import (
    ArityMismatch,
    DuplicateId,
    EmptyDomain,
    GraphSyntaxError,
    UnknownInterface,
    UnknownValue,
)
from adaptchain.model import AdapterGraph
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
        # "Z" is B's only value, so only the string check refuses it.
        (OUTPUT, ["Z"], UnknownValue,
         ["'AtoB'", "('X',)", "'n'", "needs a list of value names, got 'Z'"]),
        (OUTPUT, [[["Z"]]], UnknownValue, ["'AtoB'", "('X',)", "'n'", "[['Z']]"]),
        (OUTPUT, [{"Z": 1}], UnknownValue, ["'AtoB'", "('X',)", "'n'", "{'Z': 1}"]),
        (OUTPUT, [[1, "Q"]], UnknownValue, ["'AtoB'", "('X',)", "'n'", "'Q'"]),
        (DEFAULT, 5, ArityMismatch, ["'AtoB'", "default output", "5"]),
        (DEFAULT, "Z", UnknownValue, ["'AtoB'", "default output", "'n'", "'Z'"]),
        (DEFAULT, None, GraphSyntaxError,
         ["error: adapter 'AtoB': field 'default_output' must be a list\n"]),
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
        (("interfaces", 0, "id"), "", EmptyDomain,
         ["error: interface id must be nonempty\n"]),
        # Every object holds exactly its documented fields.
        (("adaptors",), [], GraphSyntaxError,
         ["error: document: unknown field 'adaptors'\n"]),
        (("interfaces", 0, "method"), [], GraphSyntaxError,
         ["error: interface 'A': unknown field 'method'\n"]),
        (("interfaces", 0, "methods", 0, "value"), ["X"], GraphSyntaxError,
         ["error: method 'm' of 'A': unknown field 'value'\n"]),
        (("adapters", 0, "defualt_output"), [["Z"]], GraphSyntaxError,
         ["error: adapter 'AtoB': unknown field 'defualt_output'\n"]),
        (("adapters", 0, "entries", 0, "outputs"), [["Z"]], GraphSyntaxError,
         ["error: adapter 'AtoB' entry: unknown field 'outputs'\n"]),
        (("adapters", 0, "Q" * 100_000), 1, GraphSyntaxError,
         ["'AtoB'", "unknown field 'QQQ", "(100002 characters)"]),
        # The adapter's "X" is in the first A's domain, not the second's.
        (("interfaces",), [
            {"id": "A", "methods": [{"name": "m", "values": ["X"]}]},
            {"id": "A", "methods": [{"name": "m", "values": ["Y"]}]},
            {"id": "B", "methods": [{"name": "n", "values": ["Z"]}]},
        ], DuplicateId, ["error: interface 'A' declared twice\n"]),
    ], ids=[
        "values-mixed", "values-int", "values-nested", "output-int",
        "output-string", "output-bare-value", "output-unhashable", "output-object", "output-mixed",
        "default-int", "default-string", "default-null", "output-huge-arity",
        "output-huge-value", "input-huge-value", "input-huge-arity",
        "source-huge-id", "interface-empty-id", "unknown-root-field",
        "unknown-interface-field", "unknown-method-field",
        "unknown-adapter-field", "unknown-entry-field", "unknown-huge-field",
        "interface-declared-twice",
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

    def test_empty_adapter_id(self, tmp_path):
        # An empty id would print as "(no chains)" or a blank chain line.
        path = tmp_path / "bad.json"
        doc = mutated(json.loads(json.dumps(MINIMAL)), ("adapters", 0, "id"), "")
        path.write_text(json.dumps(doc))
        assert run(["validate", "--graph", str(path)]) == (
            1, "", "error: adapter id must be nonempty\n"
        )

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

    @pytest.mark.parametrize("path", ["w.txt", "nl\nx/w.txt"], ids=["plain", "newline"])
    def test_weights_line_without_equals(self, tmp_path, monkeypatch, path):
        # A newline in the path is shown escaped: the error stays one line.
        monkeypatch.chdir(tmp_path)
        weights = tmp_path / path
        weights.parent.mkdir(exist_ok=True)
        weights.write_text("garbage\n")
        status, out, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2", "--weights", path,
        ])
        assert (status, out) == (1, "")
        shown = path.replace("\n", "\\n")
        assert err == f"error: {shown}:1: expected 'interface.method.value = weight'\n"

    @pytest.mark.parametrize("argv,shown", [
        (["eval", "--chain", ",", "--vector", ""],
         "--chain must list at least one adapter id"),
        (["eval", "--chain", "Nope", "--vector", ""], "graph has no adapter 'Nope'"),
        (["chain", "--target", "Video2"], "one of --source or --sources is required"),
        (["chain", "--target", "Video2", "--sources", ""], "sources must be nonempty"),
    ], ids=[
        "eval-empty-chain", "eval-unknown-adapter", "chain-no-source",
        "chain-empty-sources",
    ])
    def test_bad_argument(self, argv, shown):
        assert run([*argv, "--graph", "video-example"]) == (1, "", f"error: {shown}\n")

    def test_gen_bad_range(self):
        argv = ["gen", "--interfaces", "1", "--adapters", "1", "--methods", "x"]
        assert run(argv) == (1, "", "error: range 'x' must be N or LO:HI\n")

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

    def test_repeated_weight_key(self, tmp_path, monkeypatch):
        # The last weight used to win without a word.
        monkeypatch.chdir(tmp_path)
        Path("w.txt").write_text(
            "Video2.play.MP4 = 5\n# again:\nVideo2.play.MP4 = 1\n"
        )
        status, _, err = run([
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video2", "--weights", "w.txt",
        ])
        assert (status, err) == (
            1, "error: w.txt:3: weight for Video2.play.MP4 was already given "
            "on line 1\n",
        )

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

    def test_weights_name_dotted_interface_ids(self, tmp_path):
        # The key splits at its last two dots: the interface id keeps its own.
        doc = json.loads(json.dumps(MINIMAL))
        doc["interfaces"] = [
            {"id": f"com.example.{name}",
             "methods": [{"name": "play", "values": ["x", "y"]}]}
            for name in ("A", "B")
        ]
        doc["adapters"] = [{
            "id": "AtoB", "source": "com.example.A", "target": "com.example.B",
            "entries": [{"input": [v], "output": [[v]]} for v in ("x", "y")],
        }]
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(doc))
        weights = tmp_path / "w.txt"
        weights.write_text("com.example.B.play.x = 3\n")
        status, out, err = run([
            "chain", "--graph", str(graph), "--source", "com.example.A",
            "--target", "com.example.B", "--weights", str(weights),
            "--format", "json",
        ])
        assert (status, err) == (0, "")
        assert json.loads(out)["score"] == 4.0

    def test_source_and_sources_together_is_a_usage_error(self):
        assert run([
            "chain", "--graph", "video-example", "--source", "Audio",
            "--sources", "Video1", "--target", "Video2",
        ])[0] == 2

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

    def test_no_chains_text(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(MINIMAL))
        assert run([
            "enumerate", "--graph", str(path), "--source", "B", "--target", "A",
        ]) == (0, "(no chains)\n", "")


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

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        """One adapter on an interface of 5000 two-value methods: its
        adaptation size, 2**15000, has more digits (4516) than the
        interpreter turns into text."""
        methods = [{"name": f"m{i}", "values": ["a", "b"]} for i in range(5000)]
        path = tmp_path_factory.mktemp("stats") / "wide.json"
        path.write_text(json.dumps({
            "version": "1",
            "interfaces": [{"id": "I", "methods": methods}],
            "adapters": [{"id": "A", "source": "I", "target": "I", "entries": []}],
        }))
        return str(path)

    def test_huge_sizes_in_text(self, wide):
        status, out, err = run(["stats", "--graph", wide])
        assert (status, err) == (0, "")
        header, row = out.splitlines()
        assert header == "adapter  dependency_size  adaptation_size"
        id, dependency, adaptation = row.split()
        assert (id, dependency, len(adaptation)) == ("A", str(3**5000), 4516)
        assert Decimal(adaptation) == 2**15000

    def test_short_ids_keep_sizes_under_their_headings(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(MINIMAL))
        status, out, err = run(["stats", "--graph", str(path)])
        assert (status, err) == (0, "")
        header, row = out.splitlines()
        assert row.split() == ["AtoB", "3", "8"]
        for heading, size in (("dependency_size", "3"), ("adaptation_size", "8")):
            end = header.index(heading) + len(heading)
            assert row[:end].endswith(" " + size)

    def test_huge_sizes_in_json(self, wide):
        status, out, err = run(["stats", "--graph", wide, "--format", "json"])
        assert (status, err) == (0, "")
        (row,) = json.loads(out)["adapters"]
        adaptation = row.pop("adaptation_size")
        assert row == {"id": "A", "dependency_size": 3**5000}
        assert isinstance(adaptation, str) and Decimal(adaptation) == 2**15000


# Report-shaped values, nested as deep as reports nest: every leaf kind a
# report holds, among them floats that json spells specially, digit strings
# for sizes too long to print as ints, and non-ASCII and control text.
REPORT_LEAVES = st.one_of(
    st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from([0.1, 1e16, 1.0000000000000002e16, -0.0, cli._size(2**15000)]),
)


def report_level(inner):
    return st.one_of(
        inner,
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4),
    )


class TestJsonReport:
    """``--format=json`` reports equal ``json.dumps(report, sort_keys=True,
    indent=2)``, written without the ``json`` module's Python encoder."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(), report_level(report_level(REPORT_LEAVES))))
    @example({})
    @example({"chain": [], "final": {"caf\u00e9": ["bot"], "n": []}, "score": 0.1})
    @example({"adapters": [{"id": "\ud800", "dependency_size": 10**400}], "x": {}})
    def test_matches_the_standard_library(self, report):
        assert cli._json(report) == json.dumps(report, sort_keys=True, indent=2)


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

    def test_gen_at_scale_is_pinned(self, tmp_path):
        """A 1200-interface, 1199-adapter instance, byte for byte: the
        generator's draws and the document writer at a size the small gen
        goldens do not reach."""
        path = tmp_path / "g.json"
        status, _, _ = run([
            "gen", "--interfaces", "1200", "--adapters", "1199",
            "--methods", "1", "--values", "3", "--density", "0.5",
            "--seed", "5", "--output", str(path),
        ])
        assert status == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "85a33d8d52217da7bb1b7fb733cf8c5ec670bc9b7144fd3bdde452a249bdcd2f"
        )

    def test_gen_over_cap_is_a_domain_error(self):
        status, out, err = run([
            "gen", "--interfaces", "2", "--adapters", "1",
            "--methods", "8", "--values", "8", "--density", "0.01",
        ])
        assert (status, out) == (1, "")
        assert err.startswith("error:") and "43046721" in err

    def test_gen_cap_bounds_the_whole_run(self, monkeypatch):
        # Three adapters of 9 input tuples each: the third takes the run
        # to 27 draws, past a cap of 20, and is refused before it draws.
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "20")
        status, out, err = run([
            "gen", "--interfaces", "2", "--adapters", "3",
            "--methods", "2:2", "--values", "2:2", "--seed", "4",
        ])
        assert (status, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: adapter A2 ") and "27" in err

    @pytest.mark.parametrize("shape,shown", [
        (["--interfaces", "11"], "11 interfaces x 1 methods x 1 values"),
        (["--interfaces", "1", "--values", "11:11"],
         "1 interfaces x 1 methods x 11 values"),
    ], ids=["interfaces", "values"])
    def test_gen_refuses_an_oversized_instance_before_building_it(
        self, monkeypatch, shape, shown
    ):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "10")
        status, out, err = run(
            ["gen", "--adapters", "0", "--methods", "1", "--values", "1", *shape]
        )
        assert (status, out) == (1, "")
        assert err == (
            f"error: {shown} would declare 11 abstract values, exceeding the "
            "cap of 10\n"
        )

    def test_gen_size_past_the_digit_limit(self):
        status, out, err = run([
            "gen", "--interfaces", "1", "--adapters", "1",
            "--methods", "15000", "--values", "1",
        ])
        assert (status, out) == (1, "")
        first_80_digits = 2**15000 // 10 ** (4516 - 80)
        assert err == (
            f"error: adapter A0 from 'I0' would draw over {first_80_digits}... "
            "(4516 characters) input tuples, exceeding the cap of 1048576\n"
        )


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


def text_mutations(text: bytes) -> list[bytes]:
    """Seeded byte-level damage to a document: every 7th-byte truncation,
    JSON punctuation and bad UTF-8 bytes inserted at random offsets, a
    byte-order mark, and nesting 100,000 levels deep."""
    rng = random.Random(9)
    texts = [text[:end] for end in range(0, len(text), 7)]
    for byte in [b"{", b"[", b"]", b"}", b'"', b"\\", b"\xff", b"\xc3", b"\x00"]:
        texts += [text[:at] + byte + text[at:] for at in rng.sample(range(len(text)), 12)]
    return texts + [
        b"\xef\xbb\xbf" + text,
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
    ]


class TestTextMutations:
    def test_damaged_text_is_one_error_line(self, tmp_path, monkeypatch):
        # One parser serves every call; building it per call would make
        # argparse most of this test's time.
        monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
        fixture = resources.files("adaptchain").joinpath("fixtures", "video-example.json")
        statuses = []
        for i, text in enumerate(text_mutations(fixture.read_bytes())):
            path = tmp_path / f"{i}.json"
            path.write_bytes(text)
            status, _, err = run(["validate", "--graph", str(path)])
            statuses.append(status)
            assert status in (0, 1, 2), (text[:80], status)
            if status == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
        assert statuses.count(1) > 1000


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_missing_required_flag(self):
        assert run(["stats"])[0] == 2

    def test_usage_error_goes_to_the_given_err(self, capsys):
        status, out, err = run(["stats"])
        assert (status, out) == (2, "")
        assert err.startswith("usage: ") and "--graph" in err
        assert capsys.readouterr() == ("", "")

    def test_help_goes_to_the_given_out(self, capsys):
        status, out, err = run(["--help"])
        assert (status, err) == (0, "")
        assert out.startswith("usage: ") and "validate" in out
        assert capsys.readouterr() == ("", "")

    def test_json_output_is_stable(self):
        args = [
            "chain", "--graph", "video-example",
            "--source", "Video1", "--target", "Video3", "--format", "json",
        ]
        assert run(args)[1] == run(args)[1]


# Each subcommand's help, command function and options, as the parser
# holds them: (option strings, action, required, default, choices, type,
# help). "--source" and "--sources" of "chain" form the one mutually
# exclusive group.
GRAPH = (("--graph",), "_StoreAction", True, None, None, None,
         "graph document path or bundled fixture name")
FORMAT = (("--format",), "_StoreAction", False, "text", ("text", "json"), None, None)
SURFACE = {
    "validate": ("parse and validate a graph document", cli._cmd_validate, [
        GRAPH, FORMAT,
    ]),
    "eval": ("apply an adapter chain to a vector", cli._cmd_eval, [
        GRAPH, FORMAT,
        (("--chain",), "_StoreAction", True, None, None, None,
         "comma-separated adapter ids"),
        (("--vector",), "_StoreAction", True, None, None, None,
         'availability vector, e.g. "playVideo:MOV,MKV;playAudio:MP3"'),
    ]),
    "chain": ("find the loss-optimal chain", cli._cmd_chain, [
        GRAPH, FORMAT,
        (("--source",), "_StoreAction", False, None, None, None,
         "single source interface id"),
        (("--sources",), "_StoreAction", False, None, None, None,
         "comma-separated source interface ids"),
        (("--target",), "_StoreAction", True, None, None, None, None),
        (("--oracle",), "_StoreTrueAction", False, False, None, None,
         "brute-force search instead of greedy"),
        (("--weights",), "_StoreAction", False, None, None, None,
         "weight file (interface.method.value = w)"),
    ]),
    "enumerate": ("list all acyclic chains", cli._cmd_enumerate, [
        GRAPH, FORMAT,
        (("--source",), "_StoreAction", True, None, None, None, None),
        (("--target",), "_StoreAction", True, None, None, None, None),
    ]),
    "stats": ("per-adapter function sizes", cli._cmd_stats, [GRAPH, FORMAT]),
    "gen": ("generate a seeded random instance", cli._cmd_gen, [
        FORMAT,
        (("--interfaces",), "_StoreAction", True, None, None, int, None),
        (("--methods",), "_StoreAction", False, "1:2", None, None,
         "methods per interface (LO:HI)"),
        (("--values",), "_StoreAction", False, "1:2", None, None,
         "non-bot values per method (LO:HI)"),
        (("--adapters",), "_StoreAction", True, None, None, int, None),
        (("--density",), "_StoreAction", False, 0.5, None, float, None),
        (("--seed",), "_StoreAction", False, 0, None, int, None),
        (("--output",), "_StoreAction", False, None, None, None,
         "write the graph document here"),
    ]),
}


class TestParser:
    """The parser's declared surface, read from its objects rather than
    from formatted help, whose layout varies with the argparse version."""

    def test_top_level(self):
        parser = cli._build_parser()
        assert (parser.prog, parser.description) == (
            "adaptchain", "Analyze loss in lossy interface adapter chains."
        )
        [sub] = [a for a in parser._actions if a.choices is not None]
        assert (sub.dest, sub.required) == ("command", True)
        assert list(sub.choices) == list(SURFACE)
        assert {a.dest: a.help for a in sub._choices_actions} == {
            name: help for name, (help, _, _) in SURFACE.items()
        }

    @pytest.mark.parametrize("name", list(SURFACE))
    def test_subcommand(self, name):
        [sub] = [a for a in cli._build_parser()._actions if a.choices is not None]
        parser = sub.choices[name]
        _, func, options = SURFACE[name]
        assert parser.get_default("func") is func
        assert [
            (tuple(a.option_strings), type(a).__name__, a.required, a.default,
             a.choices, a.type, a.help)
            for a in parser._actions if a.dest != "help"
        ] == options
        groups = [
            tuple(a.option_strings[0] for a in g._group_actions)
            for g in parser._mutually_exclusive_groups if not g.required
        ]
        assert len(parser._mutually_exclusive_groups) == len(groups)
        assert groups == ([("--source", "--sources")] if name == "chain" else [])


def out_of_memory(*args, **kwargs):
    raise MemoryError


class TestOutOfMemory:
    """Running out of memory while loading ``--graph`` or running the
    command is one error line naming the command, and exit 1."""

    def test_while_running_the_command(self, monkeypatch):
        monkeypatch.setattr(cli, "random_instance", out_of_memory)
        assert run([
            "gen", "--interfaces", "4", "--methods", "1", "--values", "1",
            "--adapters", "0",
        ]) == (1, "", "error: out of memory running 'gen'\n")

    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_while_loading_the_graph(self, tmp_path, monkeypatch, command):
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps(MINIMAL))
        monkeypatch.setattr(cli, "parse_document", out_of_memory)
        assert run([command, "--graph", str(doc)]) == (
            1, "", f"error: out of memory running {command!r}\n"
        )


GEN = ["gen", "--interfaces", "4", "--methods", "1", "--values", "1", "--adapters", "0"]


class Unexpected(Exception):
    pass


def unexpected(*args, **kwargs):
    raise Unexpected


def standard_library_cycles(argv: list[str]) -> int:
    """The cyclic garbage the standard library alone leaves for a command
    line: argparse's parser, run on ``argv``. Reports are rendered without
    the ``json`` module's pure-Python encoder, whose closures would add a
    cycle under ``--format=json``."""
    cli._build_parser().parse_args(argv)
    return gc.collect()


class TestCollectorPause:
    """``run_cli`` pauses the cyclic collector while a command runs and
    leaves it as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv,status", [
        (["validate", "--graph", "video-example"], 0),
        (["validate", "--graph", "no-such-fixture"], 1),
        (["validate", "--graph"], 2),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_every_exit_restores_the_state(self, collector, monkeypatch, argv, status):
        during = []
        load = cli._load_graph
        monkeypatch.setattr(
            cli, "_load_graph", lambda spec: during.append(gc.isenabled()) or load(spec)
        )
        assert run(argv)[0] == status
        assert gc.isenabled() is collector
        assert during == ([] if status == 2 else [False])

    def test_running_out_of_memory_restores_the_state(self, collector, monkeypatch):
        monkeypatch.setattr(cli, "random_instance", out_of_memory)
        assert run(GEN) == (1, "", "error: out of memory running 'gen'\n")
        assert gc.isenabled() is collector

    def test_an_unexpected_exception_restores_the_state(self, collector, monkeypatch):
        monkeypatch.setattr(cli, "random_instance", unexpected)
        with pytest.raises(Unexpected):
            run(GEN)
        assert gc.isenabled() is collector

    def test_commands_leave_only_the_standard_librarys_cycles(self, tmp_path, monkeypatch):
        # With the collector off, each command's cyclic garbage is counted
        # and compared with what the standard library alone leaves for the
        # same command line, computed here because it differs between
        # Python versions. Equal counts mean the package built no cycle,
        # so the pause skips only collections that would free nothing of
        # the package's. A usage error (exit 2) runs nothing of the package
        # past the parser, and is left out: on Python 3.10 argparse keeps
        # the error's traceback in a cycle that takes in its callers'
        # frames, so that count depends on the caller.
        doc = str(tmp_path / "gen.json")
        gen = ["gen", "--interfaces", "6", "--adapters", "12", "--methods", "1:2",
               "--values", "1:3", "--seed", "7"]
        assert run([*gen, "--output", doc])[0] == 0
        ends = ["--source", "I0", "--target", "I5"]
        commands = [
            *([c, "--graph", "video-example", *a] for c, a in GRAPH_COMMANDS.items()),
            ["chain", "--graph", "video-example", "--oracle", *GRAPH_COMMANDS["chain"]],
            ["validate", "--graph", doc],
            ["chain", "--graph", doc, *ends],
            ["chain", "--graph", doc, "--oracle", *ends],
            ["enumerate", "--graph", doc, *ends],
            ["stats", "--graph", doc],
            ["stats", "--graph", doc, "--format=json"],
            gen,
            ["validate", "--graph", "no-such-fixture"],
            ["chain", "--graph", doc, "--source", "I0", "--target", "nope"],
        ]
        left = {}

        def count(argv):
            gc.collect()
            status = run(argv)[0]
            cycles = gc.collect()
            left[shlex.join(argv)] = (status, cycles, standard_library_cycles(argv))

        was = gc.isenabled()
        gc.disable()
        try:
            for argv in commands:
                count(argv)
            monkeypatch.setattr(cli, "random_instance", out_of_memory)
            count(GEN)
        finally:
            if was:
                gc.enable()
        assert {status for status, _, _ in left.values()} == {0, 1}
        assert {k: c for k, (_, c, _) in left.items()} == {
            k: expected for k, (_, _, expected) in left.items()
        }


class TestDashIds:
    """An id that begins with ``-`` is given with ``=``: argparse reads a
    separate ``-A`` as an option."""

    @pytest.fixture
    def doc(self, tmp_path):
        path = tmp_path / "dash.json"
        path.write_text(json.dumps({
            "version": "1",
            "interfaces": [
                {"id": "-A", "methods": [{"name": "m", "values": ["X"]}]},
                {"id": "B", "methods": [{"name": "n", "values": ["Z"]}]},
            ],
            "adapters": [{
                "id": "-AtoB", "source": "-A", "target": "B",
                "entries": [{"input": ["X"], "output": [["Z"]]}],
            }],
        }))
        return str(path)

    @pytest.mark.parametrize("argv,shown", [
        (["chain", "--source=-A", "--target", "B"], "chain: -AtoB"),
        (["enumerate", "--source=-A", "--target", "B"], "-AtoB"),
        (["eval", "--chain=-AtoB", "--vector", "m:X"], "n:{bot,Z}"),
    ], ids=["chain", "enumerate", "eval"])
    def test_given_with_equals(self, doc, argv, shown):
        status, out, err = run([*argv, "--graph", doc])
        assert (status, err) == (0, "")
        assert out.splitlines()[0] == shown

    def test_given_apart_is_a_usage_error(self, doc):
        status, out, err = run([
            "chain", "--graph", doc, "--source", "-A", "--target", "B",
        ])
        assert (status, out) == (2, "")
        assert "argument --source: expected one argument" in err


def dead_end_graph(k):
    """S -> T by the adapter Z_out, and a lossless k-clique C0..C{k-1} that
    S enters by the adapter A_in, walked first, from which T is unreachable.
    A walk from S extends Z_out and the sum_j (k-1)!/(k-1-j)! simple paths
    A_in, A_in E0_1, ... into the clique: 66 partial chains for k = 5."""
    from adaptchain.model import build_adapter, build_graph, build_interface

    names = ["S", "T", *(f"C{i}" for i in range(k))]
    interfaces = {n: build_interface(n, [("m", ["X"])]) for n in names}
    lossless = [(("X",), [["X"]])]

    def adapter(adapter_id, source, target):
        return build_adapter(
            adapter_id, interfaces[source], interfaces[target], lossless
        )

    adapters = [adapter("A_in", "S", "C0"), adapter("Z_out", "S", "T")]
    adapters += [
        adapter(f"E{i}_{j}", f"C{i}", f"C{j}")
        for i in range(k) for j in range(k) if i != j
    ]
    return build_graph(list(interfaces.values()), adapters)


class TestWorkCap:
    """ADAPTCHAIN_TABULATE_CAP bounds the partial chains each enumerate and
    oracle walk extends, dead ends included."""

    SEARCHES = {"enumerate": ["enumerate"], "oracle": ["chain", "--oracle"]}

    @pytest.fixture(scope="class")
    def dead_end(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cap") / "dead-end.json"
        path.write_text(serialize_graph(dead_end_graph(5)))
        return str(path)

    def walk(self, search, graph):
        return [*self.SEARCHES[search], "--graph", graph,
                "--source", "S", "--target", "T"]

    @pytest.mark.parametrize("search", SEARCHES)
    def test_dead_ends_count_against_the_cap(self, dead_end, monkeypatch, search):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "65")
        assert run(self.walk(search, dead_end)) == (1, "", (
            "error: search from 'S' to 'T' extends more than 65 partial "
            "chains; raise ADAPTCHAIN_TABULATE_CAP\n"
        ))

    @pytest.mark.parametrize("search", SEARCHES)
    def test_a_cap_of_all_the_steps_lets_the_walk_finish(
        self, dead_end, monkeypatch, search
    ):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "66")
        status, out, err = run(self.walk(search, dead_end))
        assert (status, err) == (0, "")
        assert "Z_out" in out

    def test_greedy_is_not_bounded_by_the_walk(self, dead_end, monkeypatch):
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "65")
        status, out, err = run([
            "chain", "--graph", dead_end, "--source", "S", "--target", "T",
        ])
        assert (status, err) == (0, "")
        assert "chain: Z_out\n" in out

    @pytest.mark.parametrize("search", SEARCHES)
    def test_walk_stops_within_cap_plus_one_extensions(
        self, dead_end, monkeypatch, search
    ):
        # The walk asks for the source's adapters once, then once more per
        # extension that does not reach the target.
        calls = 0
        outgoing = AdapterGraph.outgoing

        def counted(self, interface_id):
            nonlocal calls
            calls += 1
            return outgoing(self, interface_id)

        monkeypatch.setattr(AdapterGraph, "outgoing", counted)
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "20")
        assert run(self.walk(search, dead_end))[0] == 1
        assert 0 < calls <= 21

    def test_enumerate_refuses_a_dense_clique(self, tmp_path, monkeypatch):
        path = tmp_path / "k7.json"
        path.write_text(serialize_graph(complete_graph(7)))
        # 326 chains I0 -> I6, found by 651 extensions.
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "500")
        status, out, err = run([
            "enumerate", "--graph", str(path), "--source", "I0", "--target", "I6",
        ])
        assert (status, out) == (1, "")
        assert err.startswith("error: search from 'I0' to 'I6' extends more than 500 ")

    @pytest.mark.parametrize("argv,status", [
        (["gen", "--interfaces", "2", "--adapters", "1"], 1),
        (["enumerate", "--graph", "video-example",
          "--source", "Video1", "--target", "Video3"], 1),
        (["chain", "--graph", "video-example", "--oracle",
          "--source", "Video1", "--target", "Video3"], 1),
        (["chain", "--graph", "video-example",
          "--source", "Video1", "--target", "Video3"], 1),
        (["eval", "--graph", "video-example", "--chain", "Video1toVideo2",
          "--vector", "playVideo:MKV"], 0),
    ], ids=["gen", "enumerate", "oracle", "greedy", "eval"])
    def test_cap_of_one(self, monkeypatch, argv, status):
        # Only the steps the cap bounds refuse; the error is one line.
        monkeypatch.setenv("ADAPTCHAIN_TABULATE_CAP", "1")
        got, out, err = run(argv)
        assert got == status
        assert err.count("\n") == (status == 1)


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

    def test_greedy(self, graph_file):
        status, out, err = run([
            "chain", "--graph", graph_file,
            "--source", "P0000", "--target", "P1199", "--format", "json",
        ])
        assert (status, err) == (0, "")
        assert json.loads(out)["chain"] == self.CHAIN

    @pytest.mark.parametrize("vector", ["m:b", "m:a,b,c"])
    def test_eval_loses_nothing(self, graph_file, vector):
        status, out, err = run([
            "eval", "--graph", graph_file, "--chain", ",".join(self.CHAIN),
            "--vector", vector, "--format", "json",
        ])
        assert (status, err) == (0, "")
        report = json.loads(out)
        assert (report["source"], report["target"]) == ("P0000", "P1199")
        assert report["output"] == report["input"]
        assert report["output"]["m"] == ["bot", *vector[2:].split(",")]
