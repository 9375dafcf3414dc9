"""Tests of the benchmark itself: tracer bindings, span arithmetic, the gate.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (ROOT / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import gate  # noqa: E402
from gate import Gate  # noqa: E402
from inproc import run_commands  # noqa: E402
from layers import METRICS, layer_metrics  # noqa: E402
from tracer import Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

import sharctool.cli  # noqa: E402,F401  (loads every module the tracer patches)
import sharctool.corpus  # noqa: E402
import sharctool.markers  # noqa: E402
from sharctool.corpus import ClassLabel, write_corpus  # noqa: E402
from sharctool.synthcorpus import SplitSpec, generate_split  # noqa: E402

TINY_SPEC = SplitSpec(
    name="tiny",
    seed=5,
    class_counts={ClassLabel.IRRELEVANT: 10, ClassLabel.YES: 30, ClassLabel.NO: 30, ClassLabel.MORE: 30},
    tree_count=60,
)


def test_traced_counts_equal_an_independent_count(tmp_path, monkeypatch):
    """Every binding of tokenize and lcs_match is patched, or the counts would differ."""
    write_corpus(tmp_path / "tiny.jsonl", generate_split(TINY_SPEC))
    commands = [
        ["annotate", "--in", "tiny.jsonl", "--out", "markers.jsonl"],
        ["tune", "--in", "tiny.jsonl", "--out", "params.json"],
        ["baseline", "--in", "tiny.jsonl", "--params", "params.json", "--out", "pred.jsonl"],
        ["evaluate", "--gold", "tiny.jsonl", "--pred", "pred.jsonl", "--out", "eval.json"],
    ]
    originals = {
        sharctool.corpus.tokenize.__code__: "corpus.tokenize",
        sharctool.markers.lcs_match.__code__: "markers.lcs_match",
    }
    profiled = Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            profiled[originals[frame.f_code]] += 1

    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    with tracer:
        sys.setprofile(profiler)
        try:
            outcomes = run_commands(commands, tracer)
        finally:
            sys.setprofile(None)
    assert [o["code"] for o in outcomes] == [0, 0, 0, 0], [o["output"] for o in outcomes]
    assert sharctool.markers.tokenize is sharctool.corpus.tokenize  # uninstall restored the bindings

    metrics = layer_metrics(
        tracer.to_dict(), plain_wall_s=1.0, traced_wall_s=1.0, plain_cpu_s=1.0,
        import_s={"sharctool.cli": 0.0, "sharctool.probe": 0.0}, generate_s=0.0, build_manifest=None,
    )
    assert profiled["corpus.tokenize"] > 0 and profiled["markers.lcs_match"] > 0
    assert metrics["corpus.tokenize_calls"] == profiled["corpus.tokenize"]
    assert metrics["markers.lcs_match_calls"] == profiled["markers.lcs_match"]
    assert metrics["baseline.grid_points"] == 81


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0, "hot_direct_s": 0.5},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps span 1
        {"id": 3, "parent": 0, "start": 8.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    # Root: 10 s minus the union [1, 6] + [8, 10] of its children, minus 0.5 s of hot calls.
    assert self_times(spans) == {0: 2.5, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert covered((0.0, 10.0), []) == 0.0


def test_tracer_folds_hot_calls_into_their_owner_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("markers.lcs_pairs", lambda a, b: None)
    hot = tracer.wrap("corpus.content_hash", lambda: leaf("ab", "abc"))
    root = tracer.wrap("cli.main", lambda: [hot(), hot()])
    root()
    (span,) = tracer.to_dict()["spans"]
    # Clock reads: main 0; hash 1, pairs 2-3, hash 4; hash 5, pairs 6-7, hash 8; main 9.
    assert (span["start"], span["end"]) == (0.0, 9.0)
    assert span["hot"] == {"markers.lcs_pairs": [2, 2.0, 2.0], "corpus.content_hash": [2, 6.0, 4.0]}
    assert span["hot_direct_s"] == 6.0
    assert self_times([span]) == {0: 3.0}
    assert tracer.counters == {"markers.lcs_cells": 12}


def _write_artifact(workdir: Path, command: Command, body: bytes) -> None:
    """Write the artifact and a manifest that records its true digest."""
    (workdir / command.artifacts[0]).write_bytes(body)
    manifest = {"started": "now", "output_digests": gate.artifact_digests(workdir, [command])}
    (workdir / command.manifest).write_text(json.dumps(manifest), encoding="utf-8")


def test_gate_fails_when_one_artifact_byte_changes(tmp_path):
    command = Command(("annotate",), ("markers.jsonl",))
    body = bytearray(b'{"utterance_id":"train-00000"}\n')
    _write_artifact(tmp_path, command, bytes(body))
    recorder = Gate(tmp_path, [command], None)
    recorder.check_pass([(0, "")])
    assert (recorder.attempted, recorder.failed) == (1, 0)
    expected = recorder.reference

    body[5] ^= 1
    _write_artifact(tmp_path, command, bytes(body))  # the manifest agrees with the changed file
    for checker in (Gate(tmp_path, [command], expected), recorder):  # recorded and first-pass reference
        checker.check_pass([(0, "")])
        assert checker.failed == 1
        assert checker.problems[-1].startswith("annotate: markers.jsonl: sha256")


def test_gate_checks_manifest_digests_against_the_files(tmp_path):
    command = Command(("annotate",), ("markers.jsonl",))
    _write_artifact(tmp_path, command, b"a\n")
    (tmp_path / "markers.jsonl").write_bytes(b"b\n")
    problems = gate.check_command(tmp_path, command, 0, "", gate.artifact_digests(tmp_path, [command]), None)
    assert len(problems) == 1 and "manifest.json: records markers.jsonl" in problems[0]


def test_gate_counts_exit_code_traceback_and_missing_output(tmp_path):
    command = Command(("tune",), ("params.json",))
    problems = gate.check_command(tmp_path, command, 1, "Traceback (most recent call last):\n", {}, None)
    assert problems[:3] == ["exit code 1", "printed a traceback", "params.json: missing"]


def test_benchmark_json_names_every_workload_and_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
