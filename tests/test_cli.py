"""End-to-end checks of the command line interface on a small corpus."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sharctool
from sharctool import cli
from sharctool.cli import DATA_DIR_ENV, main
from sharctool.corpus import ClassLabel, iter_corpus, load_corpus, read_json, write_corpus
from sharctool.evaluate import bleu
from sharctool.synthcorpus import SplitSpec, generate_split

CLI_SPEC = SplitSpec(
    name="clitoy",
    seed=41,
    class_counts={
        ClassLabel.IRRELEVANT: 10,
        ClassLabel.YES: 30,
        ClassLabel.NO: 30,
        ClassLabel.MORE: 30,
    },
    tree_count=50,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_corpus(root / "corpus.jsonl", generate_split(CLI_SPEC))
    return root


@pytest.fixture(scope="module")
def corpus_file(workdir):
    return workdir / "corpus.jsonl"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def test_validate_reports_audit(corpus_file, capsys):
    assert main(["validate", "--in", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "records read:        100" in out
    assert "instances kept:      100" in out


def test_validate_writes_canonical_copy_and_manifest(corpus_file, tmp_path):
    out = tmp_path / "canonical.jsonl"
    assert main(["validate", "--in", str(corpus_file), "--strict", "--out", str(out)]) == 0
    assert len(load_corpus(out)) == 100
    manifest = json.loads((tmp_path / "canonical.jsonl.manifest.json").read_text())
    assert manifest["config"]["strictness"] == "strict"
    assert manifest["output_digests"][str(out)] == _sha256(out)


def test_validate_missing_input_fails(tmp_path, capsys):
    assert main(["validate", "--in", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_checks_the_digest_before_writing(corpus_file, tmp_path, capsys):
    out = tmp_path / "canonical.jsonl"
    code = main(["validate", "--in", str(corpus_file), "--out", str(out), "--expect-digest", "0" * 64])
    assert code == 1
    assert "digest mismatch" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "canonical.jsonl.manifest.json").exists()


# --------------------------------------------------------------------------
# probe
# --------------------------------------------------------------------------


def test_probe_writes_report_and_manifest(corpus_file, tmp_path, capsys):
    out = tmp_path / "probe.json"
    argv = ["probe", "--in", str(corpus_file), "--out", str(out), "--split-name", "toy"]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["instance_count"] == 100
    assert set(report["class_distribution"]) == {"Irrelevant", "Yes", "No", "More"}

    manifest = json.loads((tmp_path / "probe.json.manifest.json").read_text())
    assert manifest["argv"] == argv
    assert manifest["input_digests"][str(corpus_file)] == _sha256(corpus_file)
    assert manifest["output_digests"][str(out)] == _sha256(out)
    assert manifest["config_digest"]
    assert manifest["tool_version"]
    assert "probe[toy]: 100 instances" in capsys.readouterr().out


def test_expect_digest_guard(corpus_file, tmp_path, capsys):
    out = tmp_path / "probe.json"
    bad = "0" * 64
    code = main(["probe", "--in", str(corpus_file), "--out", str(out), "--expect-digest", bad])
    assert code == 1
    assert "digest mismatch" in capsys.readouterr().err

    good = _sha256(corpus_file)
    assert main(["probe", "--in", str(corpus_file), "--out", str(out), "--expect-digest", good]) == 0


@pytest.mark.parametrize("digest", ["", "0" * 63, "0" * 65, "g" * 64, " " + "0" * 63],
                         ids=["empty", "short", "long", "not-hex", "space"])
def test_an_expect_digest_that_is_no_sha256_exits_2_naming_the_flag(corpus_file, tmp_path, capsys, digest):
    out = tmp_path / "probe.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["probe", "--in", str(corpus_file), "--out", str(out), "--expect-digest", digest])
    assert exit_info.value.code == 2
    assert "argument --expect-digest: " in capsys.readouterr().err
    assert not out.exists()


def test_a_split_name_utf8_cannot_encode_exits_2_naming_the_flag(corpus_file, tmp_path, capsys):
    out = tmp_path / "probe.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["probe", "--in", str(corpus_file), "--out", str(out), "--split-name", "\udcff"])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["sharctool probe: error: argument --split-name: '\\udcff' is not UTF-8 text"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,flag", [("annotate", "--out"), ("tune", "--trials"), ("baseline", "--cues"),
                                          ("validate", "--in"), ("report", "--original")])
def test_a_path_utf8_cannot_encode_exits_2_naming_the_flag(corpus_file, tmp_path, capsys, command, flag):
    # Under a POSIX locale the argv bytes b"\xff.jsonl" reach the command as "\udcff.jsonl",
    # which no manifest can record.
    bad = str(tmp_path / "\udcff.jsonl")
    if command == "report":
        paths = {"--original": str(corpus_file), "--augmented": str(corpus_file)}
    else:
        paths = {"--in": str(corpus_file), "--out": str(tmp_path / "out.json")}
    paths[flag] = bad
    with pytest.raises(SystemExit) as exit_info:
        main([command, *(part for pair in paths.items() for part in pair)])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"sharctool {command}: error: argument {flag}: {bad!r} is not UTF-8 text"]
    assert os.listdir(tmp_path) == []


def test_expect_digest_takes_the_digest_in_upper_case(corpus_file, tmp_path):
    out = tmp_path / "probe.json"
    upper = _sha256(corpus_file).upper()
    assert main(["probe", "--in", str(corpus_file), "--out", str(out), "--expect-digest", upper]) == 0


def test_an_input_is_digested_only_for_a_manifest_or_expect_digest_and_at_most_once(corpus_file, monkeypatch):
    digested = []
    monkeypatch.setattr(cli, "_sha256", lambda path: digested.append(path.name) or _sha256(path))
    argv = ["probe", "--in", str(corpus_file), "--out", os.devnull]
    assert main(argv) == 0
    assert digested == []  # /dev/null is written as it is: no manifest records the input
    assert main([*argv, "--expect-digest", _sha256(corpus_file)]) == 0
    assert digested == [corpus_file.name]


# --------------------------------------------------------------------------
# augment
# --------------------------------------------------------------------------


def test_augment_requires_an_explicit_seed(corpus_file, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["augment", "--in", str(corpus_file), "--out", str(tmp_path / "a.jsonl")])
    assert excinfo.value.code == 2


def test_augment_is_byte_deterministic(corpus_file, tmp_path):
    paths = [tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"]
    for path in paths:
        argv = [
            "augment", "--in", str(corpus_file), "--seed", "13",
            "--total", "150", "--out", str(path),
        ]
        assert main(argv) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    third = tmp_path / "a3.jsonl"
    assert main([
        "augment", "--in", str(corpus_file), "--seed", "14",
        "--total", "150", "--out", str(third),
    ]) == 0
    assert third.read_bytes() != paths[0].read_bytes()


def test_augment_writes_build_manifest(corpus_file, tmp_path, capsys):
    out = tmp_path / "aug.jsonl"
    build = tmp_path / "build.json"
    argv = [
        "augment", "--in", str(corpus_file), "--seed", "13", "--total", "150",
        "--targets", "irr=25,yes=25,no=25,more=25", "--out", str(out), "--manifest", str(build),
    ]
    assert main(argv) == 0
    payload = json.loads(build.read_text())
    assert payload["seed"] == 13
    assert payload["total_target"] == 150
    assert payload["class_targets"] == {"Irrelevant": 25.0, "Yes": 25.0, "No": 25.0, "More": 25.0}
    assert payload["achieved_total"] == sum(payload["achieved_counts"].values())
    run_manifest = json.loads((tmp_path / "aug.jsonl.manifest.json").read_text())
    assert str(build) in run_manifest["output_digests"]
    assert "augmented corpus:" in capsys.readouterr().out


def test_augment_prints_the_classes_it_could_not_fill(corpus_file, tmp_path, capsys):
    out = tmp_path / "aug.jsonl"
    assert main(["augment", "--in", str(corpus_file), "--seed", "13", "--total", "300", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"augmented corpus: 242 instances -> {out}\n"
        "  Yes: 25.62%\n"
        "  No: 29.34%\n"
        "  Irrelevant: 27.69%\n"
        "  More: 17.36%\n"
        "  shortfalls: {'Yes': 19, 'No': 13, 'More': 25}\n"
    )


def test_augment_rejects_incomplete_targets(corpus_file, tmp_path, capsys):
    code = main([
        "augment", "--in", str(corpus_file), "--seed", "13", "--total", "150",
        "--targets", "irr=40,yes=30,no=30", "--out", str(tmp_path / "a.jsonl"),
    ])
    assert code == 1
    assert "all four classes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,error,loads",
    [
        (["--total", "50"], "error: --total 50 is below the corpus size 100 while originals are kept", 1),
        (["--targets", "irr=10,yes=10,no=10,more=10"], "error: --targets sum to 40.0, expected 100 ± 0.05", 0),
    ],
    ids=["total-below-the-corpus", "targets-off-100"],
)
def test_augment_config_errors_name_their_flag(corpus_file, tmp_path, capsys, monkeypatch, flags, error, loads):
    calls = []
    monkeypatch.setattr(cli, "load_corpus", lambda *a, **k: calls.append(a) or load_corpus(*a, **k))
    assert main(["augment", "--in", str(corpus_file), "--seed", "13", *flags, "--out", str(tmp_path / "a.jsonl")]) == 1
    assert _one_error_line(capsys) == error + "\n"
    assert len(calls) == loads  # the targets' sum is checked before the corpus is read
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------------
# annotate
# --------------------------------------------------------------------------


def test_annotate_emits_one_record_per_instance(corpus_file, tmp_path, capsys):
    out = tmp_path / "markers.jsonl"
    assert main(["annotate", "--in", str(corpus_file), "--out", str(out), "--stopwords", "basic"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 100
    record = json.loads(lines[0])
    assert set(record) == {
        "utterance_id", "tokens", "history_marker", "turn_index",
        "scenario_marker", "gold_span", "flags", "scenario_marker_source",
    }
    assert len(record["tokens"]) == len(record["history_marker"]) == len(record["turn_index"])
    assert "gold-span coverage" in capsys.readouterr().out


def test_annotate_prints_the_flagged_count(tmp_path, capsys, make_instance):
    rule = "You qualify if you are over 60."
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "markers.jsonl"
    write_corpus(corpus, [
        make_instance(utterance_id="m-1", rule_text=rule, gold_answer="Are you over 60?"),
        make_instance(utterance_id="m-2", rule_text=rule, gold_answer="Any zebras nearby?"),  # shares no token
        make_instance(utterance_id="y-1", rule_text=rule, gold_answer="Yes"),
    ])
    assert main(["annotate", "--in", str(corpus), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"annotated 3 instances -> {out}\n"
        "  gold-span coverage on More: 50.00%\n"
        "  flags: {'empty_gold_span': 1}\n"
    )
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["gold_span"], r["flags"]) for r in records] == [([0, 6], []), (None, ["empty_gold_span"]), (None, [])]


# --------------------------------------------------------------------------
# baseline / tune / evaluate / report
# --------------------------------------------------------------------------


def test_baseline_needs_out_or_tune_mode(corpus_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["baseline", "--in", str(corpus_file)])
    assert excinfo.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--out" in errors[0]


def test_baseline_predicts_every_instance(corpus_file, tmp_path, capsys):
    out = tmp_path / "pred.jsonl"
    assert main(["baseline", "--in", str(corpus_file), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 100
    assert set(json.loads(lines[0])) == {"utterance_id", "answer"}
    # the step keys print as strings, in step order
    assert capsys.readouterr().out == (
        f"baseline predictions: 100 -> {out}\n"
        "  policy steps fired: {'1': 14, '2': 8, '4': 27, '5': 37, '6': 14}\n"
    )


def test_baseline_tune_mode_writes_params(corpus_file, tmp_path):
    params_path = tmp_path / "params.json"
    assert main(["baseline", "tune", "--in", str(corpus_file), "--out", str(params_path)]) == 0
    params = json.loads(params_path.read_text())
    assert set(params) == {"tau_irr", "rho", "rho_s", "l_max"}


def test_tune_then_baseline_with_params(corpus_file, tmp_path):
    params_path = tmp_path / "params.json"
    trials_path = tmp_path / "trials.json"
    assert main([
        "tune", "--in", str(corpus_file), "--out", str(params_path), "--trials", str(trials_path),
    ]) == 0
    trials = json.loads(trials_path.read_text())
    assert len(trials["trials"]) == 81  # 3^4 default grid
    assert trials["best_params"] == json.loads(params_path.read_text())

    out = tmp_path / "pred.jsonl"
    assert main([
        "baseline", "--in", str(corpus_file), "--out", str(out), "--params", str(params_path),
    ]) == 0


def test_evaluate_scores_predictions(corpus_file, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    assert main(["baseline", "--in", str(corpus_file), "--out", str(pred)]) == 0
    out = tmp_path / "eval.json"
    assert main([
        "evaluate", "--gold", str(corpus_file), "--pred", str(pred), "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert 0.0 <= report["micro_accuracy"] <= 100.0
    assert report["instance_count"] == 100
    manifest = json.loads((tmp_path / "eval.json.manifest.json").read_text())
    assert str(pred) in manifest["input_digests"]
    assert "gold \\ pred" in capsys.readouterr().out


def test_evaluate_sentence_bleu_averages_per_pair_scores(tmp_path, make_instance):
    followups = [
        ("Are you over 60 years old?", "Are you over 60 years old?"),  # (gold, predicted)
        ("Do you live in England now?", "Do you live in Wales?"),
    ]
    gold = [make_instance(utterance_id=f"m{n}", gold_answer=answer) for n, (answer, _) in enumerate(followups)]
    gold.append(make_instance(utterance_id="y", gold_answer="Yes"))
    write_corpus(tmp_path / "gold.jsonl", gold)
    answers = [(f"m{n}", output) for n, (_, output) in enumerate(followups)] + [("y", "No")]
    (tmp_path / "pred.jsonl").write_text(
        "".join(json.dumps({"utterance_id": uid, "answer": output}) + "\n" for uid, output in answers), encoding="utf-8"
    )
    reports = {}
    for name, switch in (("pooled", []), ("averaged", ["--sentence-bleu"])):
        out = tmp_path / f"{name}.json"
        assert main(["evaluate", "--gold", str(tmp_path / "gold.jsonl"), "--pred", str(tmp_path / "pred.jsonl"),
                     "--out", str(out), *switch]) == 0
        reports[name] = json.loads(out.read_text())
        config = json.loads((tmp_path / f"{name}.json.manifest.json").read_text())["config"]
        assert config == {"sentence_bleu": bool(switch)}
    pairs = [(output, answer) for answer, output in followups]
    for key, order in (("bleu1", 1), ("bleu4", 4)):
        assert reports["averaged"][key] == bleu(pairs, max_order=order, sentence_average=True)
        assert reports["pooled"][key] == bleu(pairs, max_order=order)
        assert reports["averaged"][key] != reports["pooled"][key]
    assert reports["averaged"]["bleu_instance_count"] == 2


def test_report_side_by_side_for_probes(corpus_file, tmp_path, capsys):
    probe_path = tmp_path / "probe.json"
    assert main(["probe", "--in", str(corpus_file), "--out", str(probe_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "compare.txt"
    assert main([
        "report", "--original", str(probe_path), "--augmented", str(probe_path), "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "Irrelevant %" in text
    assert "agreement %" in text
    assert "P(empty | Irrelevant)" in text
    assert out.read_text().strip() in text


def test_report_side_by_side_for_evals(corpus_file, tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    main(["baseline", "--in", str(corpus_file), "--out", str(pred)])
    eval_path = tmp_path / "eval.json"
    main(["evaluate", "--gold", str(corpus_file), "--pred", str(pred), "--out", str(eval_path)])
    capsys.readouterr()
    assert main(["report", "--original", str(eval_path), "--augmented", str(eval_path)]) == 0
    text = capsys.readouterr().out
    assert "micro accuracy" in text
    assert "BLEU-4" in text


def test_cli_import_loads_neither_numpy_nor_scipy():
    code = "import sys, sharctool.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    src = Path(sharctool.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


# --------------------------------------------------------------------------
# bad files and paths: one error line, exit 1
# --------------------------------------------------------------------------


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return err


@pytest.mark.parametrize("command", ["validate", "probe", "annotate"])
def test_out_pointing_at_a_directory_is_one_error_line(corpus_file, tmp_path, capsys, command):
    assert main([command, "--in", str(corpus_file), "--out", str(tmp_path)]) == 1
    assert "Is a directory" in _one_error_line(capsys)


def test_a_summary_stdout_cannot_print_fails_before_the_commit(corpus_file, tmp_path, capsys, monkeypatch):
    # A strict ASCII stdout (PYTHONIOENCODING=ascii, say) cannot print the output path in the summary line.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    out = tmp_path / "m\u00e4rkers.jsonl"
    out.write_text("old markers\n", encoding="utf-8")
    assert main(["annotate", "--in", str(corpus_file), "--out", str(out)]) == 1
    assert _one_error_line(capsys).startswith("error: stdout cannot print the summary: 'ascii' codec can't encode")
    stdout.flush()
    assert stdout.buffer.getvalue() == b""
    assert out.read_text(encoding="utf-8") == "old markers\n"
    assert os.listdir(tmp_path) == [out.name]


def test_failing_replace_keeps_the_old_probe_report_and_no_temp_file(corpus_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "probe.json"
    out.write_text("old report\n", encoding="utf-8")

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["probe", "--in", str(corpus_file), "--out", str(out)]) == 1
    assert "cannot replace" in _one_error_line(capsys)
    assert out.read_text(encoding="utf-8") == "old report\n"
    assert os.listdir(tmp_path) == ["probe.json"]


def test_a_key_error_is_a_bug_and_keeps_its_traceback(corpus_file, tmp_path, monkeypatch):
    # No input reaches a KeyError: every dict read keyed by input is checked first. So one can only be a bug.
    def broken(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(cli, "probe_corpus", broken)
    with pytest.raises(KeyError, match="x"):
        main(["probe", "--in", str(corpus_file), "--out", str(tmp_path / "probe.json")])


def test_bad_params_file_is_one_error_line(corpus_file, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text('{"rho": 0.5, "bogus": 1}', encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    assert main(["baseline", "--in", str(corpus_file), "--params", str(params), "--out", str(out)]) == 1
    assert f"{params}: unknown parameter 'bogus'" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "second_line,message",
    [
        ('{"utterance_id": "x"}', ":2: field 'answer' is missing"),
        ('{"utterance_id": "x", "answer": "No"}', ":2: duplicate utterance_id 'x'"),
    ],
)
def test_bad_predictions_file_is_one_error_line(corpus_file, tmp_path, capsys, second_line, message):
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"utterance_id": "x", "answer": "Yes"}\n' + second_line + "\n", encoding="utf-8")
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--gold", str(corpus_file), "--pred", str(pred), "--out", str(out)]) == 1
    assert f"{pred}{message}" in _one_error_line(capsys)
    assert not out.exists()


# --------------------------------------------------------------------------
# input resolution
# --------------------------------------------------------------------------


def test_data_dir_env_resolves_bare_names(corpus_file, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(DATA_DIR_ENV, str(corpus_file.parent))
    monkeypatch.chdir(tmp_path)  # no corpus.jsonl here
    assert main(["validate", "--in", "corpus.jsonl"]) == 0
    assert "instances kept:      100" in capsys.readouterr().out


def test_absolute_path_beats_data_dir(corpus_file, monkeypatch, tmp_path):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))  # empty directory
    assert main(["validate", "--in", str(corpus_file)]) == 0


def _cli_child(argv, env=(), **kwargs):
    """Run ``sharctool`` in a child process with this tree on its path; a child that hangs fails after 60 s."""
    src = Path(sharctool.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", **dict(env)}
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-m", "sharctool.cli", *argv], env=env, timeout=60, **kwargs)


def test_a_data_dir_utf8_cannot_encode_is_one_error_line_and_writes_nothing(corpus_file, tmp_path):
    # Under the C locale the directory's byte 0xff reaches the interpreter as the lone surrogate \udcff.
    data_dir = os.path.join(os.fsencode(tmp_path), b"x\xff")
    os.mkdir(data_dir)
    with open(os.path.join(data_dir, b"d.jsonl"), "wb") as corpus:
        corpus.write(corpus_file.read_bytes())
    before = _files(tmp_path)
    result = _cli_child(["annotate", "--in", "d.jsonl", "--out", "m.jsonl"], cwd=tmp_path,
                        env={"LC_ALL": "C", DATA_DIR_ENV: b"x\xff"})
    assert result.returncode == 1
    assert result.stderr.decode() == f"error: {DATA_DIR_ENV}: 'x\\udcff/d.jsonl' is not UTF-8 text\n"
    assert _files(tmp_path) == before


@pytest.fixture(scope="module")
def reports(workdir, corpus_file):
    """One probe report and one eval report of the CLI corpus."""
    paths = {"probe": workdir / "probe.json", "eval": workdir / "eval.json"}
    pred = workdir / "pred.jsonl"
    assert main(["probe", "--in", str(corpus_file), "--out", str(paths["probe"])]) == 0
    assert main(["baseline", "--in", str(corpus_file), "--out", str(pred)]) == 0
    assert main(["evaluate", "--gold", str(corpus_file), "--pred", str(pred), "--out", str(paths["eval"])]) == 0
    return paths


@pytest.mark.parametrize("original,augmented", [("probe", "eval"), ("eval", "probe")])
def test_report_refuses_mixed_report_kinds(reports, tmp_path, capsys, original, augmented):
    capsys.readouterr()
    out = tmp_path / "compare.txt"
    argv = ["report", "--original", str(reports[original]), "--augmented", str(reports[augmented])]
    assert main(argv + ["--out", str(out)]) == 1
    assert _one_error_line(capsys).startswith(f"error: {reports[augmented]}: ")
    assert not out.exists()


@pytest.mark.parametrize("side", ["original", "augmented"])
@pytest.mark.parametrize("text", ['{"split_name": "dev"}', "[1, 2]", "not json"], ids=["object", "list", "text"])
def test_report_refuses_a_file_that_is_no_report(reports, tmp_path, capsys, side, text):
    capsys.readouterr()
    bogus = tmp_path / "bogus.json"
    bogus.write_text(text, encoding="utf-8")
    paths = {"original": reports["probe"], "augmented": reports["probe"], side: bogus}
    assert main(["report", "--original", str(paths["original"]), "--augmented", str(paths["augmented"])]) == 1
    assert _one_error_line(capsys).startswith(f"error: {bogus}: ")


@pytest.mark.parametrize(
    "body,message",
    [
        (b"\xff{}", ":1: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"not json", ": invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["bytes", "syntax"],
)
def test_report_names_a_file_that_is_not_utf8_or_not_json(reports, tmp_path, capsys, body, message):
    capsys.readouterr()
    bogus = tmp_path / "bogus.json"
    bogus.write_bytes(body)
    assert main(["report", "--original", str(bogus), "--augmented", str(reports["probe"])]) == 1
    assert _one_error_line(capsys) == f"error: {bogus}{message}\n"


@pytest.mark.parametrize("flag", ["--params", "--original"])
def test_a_lone_surrogate_in_a_json_document_is_one_error_line_naming_its_line(corpus_file, reports, tmp_path, capsys,
                                                                              flag):
    capsys.readouterr()
    bad, out = tmp_path / "bad.json", tmp_path / "out.txt"
    bad.write_text('{\n  "rho": "\\ud800"\n}\n', encoding="utf-8")
    argv = {
        "--params": ["baseline", "--in", str(corpus_file), "--params", str(bad)],
        "--original": ["report", "--original", str(bad), "--augmented", str(reports["probe"])],
    }[flag]
    assert main([*argv, "--out", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {bad}:2: lone surrogate escape \\ud800, which UTF-8 cannot encode\n"
    assert not out.exists()


# A value the decoder refuses although its syntax is fine: nesting past the
# recursion limit, and an integer past the interpreter's digit limit.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_UNDECODABLE = [
    pytest.param(b"[" * 100_000, "maximum recursion depth exceeded", id="deep"),
    pytest.param(b"1" * (_DIGIT_LIMIT + 1), f"Exceeds the limit ({_DIGIT_LIMIT} digits)", id="digits",
                 marks=pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter has no integer digit limit")),
]


@pytest.mark.parametrize("value,reason", _UNDECODABLE)
@pytest.mark.parametrize(
    "argv,body,line",
    [
        (["probe", "--in", "{bad}", "--out", "{out}"], b'\n{"answer": %s}\n', 2),
        (["probe", "--in", "{bad}", "--out", "{out}"], b'[{"answer": %s}]', None),
        (["baseline", "--in", "{corpus}", "--params", "{bad}", "--out", "{out}"], b'{"rho": %s}', None),
        (["evaluate", "--gold", "{corpus}", "--pred", "{bad}", "--out", "{out}"], b'{"answer": %s}\n', 1),
        (["report", "--original", "{bad}", "--augmented", "{bad}", "--out", "{out}"], b'{"bleu4": %s}', None),
    ],
    ids=["jsonl-corpus", "list-corpus", "params", "pred", "report"],
)
def test_a_value_the_decoder_refuses_is_one_line_naming_the_file(corpus_file, tmp_path, capsys, argv, body, line,
                                                                  value, reason):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_bytes(body % value)
    argv = [arg.format(bad=bad, out=out, corpus=corpus_file) for arg in argv]
    assert main(argv) == 1
    where = bad if line is None else f"{bad}:{line}"
    assert _one_error_line(capsys).startswith(f"error: {where}: invalid JSON: {reason}")
    assert not out.exists()


# --------------------------------------------------------------------------
# the command frame: every path is checked before anything is written
# --------------------------------------------------------------------------


def _files(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def _fails_and_changes_nothing(argv, root, capsys):
    """Run ``argv``: exit 1, one error line, every file under ``root`` as it was, no new file."""
    before = _files(root)
    capsys.readouterr()
    assert main(argv) == 1
    err = _one_error_line(capsys)
    assert _files(root) == before
    return err


def test_augment_with_a_directory_as_manifest_keeps_the_previous_output_set(corpus_file, tmp_path, capsys):
    out = tmp_path / "aug.jsonl"
    argv = ["augment", "--in", str(corpus_file), "--total", "150", "--out", str(out)]
    assert main([*argv, "--seed", "1"]) == 0
    (tmp_path / "build-dir").mkdir()
    err = _fails_and_changes_nothing([*argv, "--seed", "2", "--manifest", str(tmp_path / "build-dir")], tmp_path, capsys)
    assert err.startswith(f"error: --manifest {tmp_path / 'build-dir'}: Is a directory")


def test_tune_with_a_directory_as_trials_writes_nothing(corpus_file, tmp_path, capsys):
    (tmp_path / "trials").mkdir()
    argv = ["tune", "--in", str(corpus_file), "--out", str(tmp_path / "p2.json"), "--trials", str(tmp_path / "trials")]
    assert "--trials" in _fails_and_changes_nothing(argv, tmp_path, capsys)
    assert not (tmp_path / "p2.json").exists()


def test_output_in_a_missing_directory_writes_nothing(corpus_file, tmp_path, capsys):
    (tmp_path / "probe.json").write_text("old report\n", encoding="utf-8")
    argv = ["probe", "--in", str(corpus_file), "--out", str(tmp_path / "missing" / "probe.json")]
    err = _fails_and_changes_nothing(argv, tmp_path, capsys)
    assert err.startswith(f"error: --out {tmp_path / 'missing' / 'probe.json'}: ")
    assert "is not a directory" in err


def test_out_equal_to_manifest_writes_nothing(corpus_file, tmp_path, capsys):
    out = tmp_path / "aug.jsonl"
    out.write_text("old corpus\n", encoding="utf-8")
    argv = ["augment", "--in", str(corpus_file), "--seed", "1", "--out", str(out), "--manifest", str(out)]
    err = _fails_and_changes_nothing(argv, tmp_path, capsys)
    assert err.startswith(f"error: --manifest {out}: same file as --out {out}")


@pytest.mark.parametrize("command, out_name", [("annotate", "d.jsonl"), ("validate", "link.jsonl")])
def test_out_that_resolves_to_an_input_writes_nothing(corpus_file, tmp_path, capsys, command, out_name):
    data = tmp_path / "d.jsonl"
    data.write_bytes(corpus_file.read_bytes())
    (tmp_path / "link.jsonl").symlink_to(data)
    out = tmp_path / out_name
    err = _fails_and_changes_nothing([command, "--in", str(data), "--out", str(out)], tmp_path, capsys)
    assert err == f"error: --out {out}: same file as --in {data}\n"


def test_manifest_records_params_and_cues_digests(corpus_file, tmp_path):
    params = tmp_path / "params.json"
    params.write_text('{"rho": 0.5}', encoding="utf-8")
    cues = tmp_path / "cues.txt"
    cues.write_text("conj and\ndisj or\n", encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    argv = ["baseline", "--in", str(corpus_file), "--params", str(params), "--cues", str(cues), "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "pred.jsonl.manifest.json").read_text())
    assert manifest["input_digests"] == {str(path): _sha256(path) for path in (corpus_file, params, cues)}
    assert manifest["config"]["params"]["rho"] == 0.5


def test_report_out_gets_a_manifest(reports, tmp_path):
    out = tmp_path / "compare.txt"
    argv = ["report", "--original", str(reports["probe"]), "--augmented", str(reports["probe"]), "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "compare.txt.manifest.json").read_text())
    assert manifest["input_digests"] == {str(reports["probe"]): _sha256(reports["probe"])}
    assert manifest["output_digests"] == {str(out): _sha256(out)}


def test_baseline_tune_writes_what_tune_writes(corpus_file, tmp_path, monkeypatch):
    written = []
    for name, argv in [("alias", ["baseline", "tune", "--in", str(corpus_file)]),
                       ("tune", ["tune", "--in", str(corpus_file), "--out", "params.json"])]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
        written.append((tmp_path / name / "params.json").read_bytes())
        manifest = json.loads((tmp_path / name / "params.json.manifest.json").read_text())
        assert manifest["argv"] == argv
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "spec",
    ["irr=inf,yes=-inf,no=50,more=50", "irr=-5,yes=50,no=50,more=5", "irr=nan,yes=50,no=25,more=25",
     "irr=many,yes=50,no=25,more=25", "irr=90,yes=27.09,no=28.11,more=22.39,irr=22.41"],
    ids=["infinite", "negative", "nan", "not-a-number", "class-twice"],
)
def test_targets_outside_the_domain_exit_2_naming_the_flag(corpus_file, tmp_path, capsys, spec):
    argv = ["augment", "--in", str(corpus_file), "--seed", "1", "--targets", spec, "--out", str(tmp_path / "a.jsonl")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.count("argument --targets: ") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["probe", "--min-support", "-5"], "--min-support"),
        (["augment", "--seed", "1", "--total", "-5", "--no-keep-original"], "--total"),
        (["augment", "--seed", "1", "--total", "0"], "--total"),
        (["augment", "--seed", "1", "--max-perms", "0"], "--max-perms"),
        (["augment", "--seed", "1", "--total", str(2**53 + 1)], "--total"),
        (["augment", "--seed", "1", "--total", "1" + "0" * 400], "--total"),
    ],
    ids=["negative-min-support", "negative-total", "zero-total", "zero-max-perms", "total-past-2**53",
         "total-past-a-float"],
)
def test_counts_below_their_minimum_exit_2_naming_the_flag(corpus_file, tmp_path, capsys, argv, flag):
    command, *rest = argv
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--in", str(corpus_file), *rest, "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["validate", "annotate", "probe"])
def test_a_pipe_as_input_is_one_error_line_and_writes_nothing(corpus_file, tmp_path, capsys, command):
    read_end, write_end = os.pipe()
    os.write(write_end, b"".join(corpus_file.read_bytes().splitlines(keepends=True)[:6]))
    os.close(write_end)
    infile = f"/dev/fd/{read_end}"
    try:
        assert main([command, "--in", infile, "--out", str(tmp_path / "out")]) == 1
    finally:
        os.close(read_end)
    assert capsys.readouterr().err == f"error: --in {infile}: not a regular file\n"
    assert os.listdir(tmp_path) == []


def test_a_second_command_in_one_process_builds_no_parser(corpus_file, monkeypatch):
    assert main(["validate", "--in", str(corpus_file)]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(kwargs.get("prog")) or init(self, *args, **kwargs))
    assert main(["validate", "--in", str(corpus_file)]) == 0
    assert built == []


def test_no_manifest_beside_an_output_that_is_not_a_regular_file(corpus_file, tmp_path, capsys):
    sink = tmp_path / "sink"
    sink.symlink_to(os.devnull)
    assert main(["validate", "--in", str(corpus_file), "--out", str(sink)]) == 0
    assert "instances kept:      100" in capsys.readouterr().out
    assert os.listdir(tmp_path) == ["sink"]
    assert os.path.realpath(sink) == os.path.realpath(os.devnull)


def test_a_manifest_linked_to_a_device_is_written_through_and_the_output_keeps_its_mode(corpus_file, tmp_path):
    out = tmp_path / "canonical.jsonl"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o600)
    (tmp_path / "canonical.jsonl.manifest.json").symlink_to(os.devnull)
    assert main(["validate", "--in", str(corpus_file), "--out", str(out)]) == 0
    assert out.read_bytes() == corpus_file.read_bytes() and out.stat().st_mode & 0o777 == 0o600
    assert os.path.realpath(tmp_path / "canonical.jsonl.manifest.json") == os.path.realpath(os.devnull)


def _first_lines(corpus_file, root, count):
    subset = root / f"first-{count}.jsonl"
    subset.write_bytes(b"".join(corpus_file.read_bytes().splitlines(keepends=True)[:count]))
    return subset


def test_a_fifo_as_trials_is_written_as_it_is_and_left_out_of_the_manifest(corpus_file, tmp_path):
    fifo, params = tmp_path / "trials.fifo", tmp_path / "params.json"
    os.mkfifo(fifo)
    piped = []
    reader = threading.Thread(target=lambda: piped.append(fifo.read_bytes()))
    reader.start()
    try:
        result = _cli_child(["tune", "--in", str(corpus_file), "--out", str(params), "--trials", str(fifo)])
    finally:
        with contextlib.suppress(OSError):  # a reader still waiting for a writer gets an empty read
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert result.returncode == 0, result.stderr
    assert len(json.loads(piped[0])["trials"]) == 81
    assert read_json(tmp_path / "params.json.manifest.json")["output_digests"] == {str(params): _sha256(params)}


def test_a_pipe_as_trials_gets_the_bytes_a_file_gets(corpus_file, tmp_path, capsys):
    read_end, write_end = os.pipe()  # the trials of a 100-instance corpus fit in the pipe's buffer
    with os.fdopen(read_end, "rb") as pipe:
        try:
            argv = ["tune", "--in", str(corpus_file), "--out", str(tmp_path / "p1.json")]
            assert main([*argv, "--trials", f"/dev/fd/{write_end}"]) == 0
        finally:
            os.close(write_end)
        piped = pipe.read()
    assert main(["tune", "--in", str(corpus_file), "--out", str(tmp_path / "p2.json"),
                 "--trials", str(tmp_path / "trials.json")]) == 0
    assert piped == (tmp_path / "trials.json").read_bytes()
    assert list(read_json(tmp_path / "p1.json.manifest.json")["output_digests"]) == [str(tmp_path / "p1.json")]


@pytest.mark.parametrize("stdout", ["file", "pipe"])
def test_an_output_linked_to_stdout_is_written_through_it_before_the_summary(corpus_file, tmp_path, capsys, stdout):
    # out -> /proc/self/fd/1 names the child's own stdout. Replacing what it resolves to would orphan stdout's file,
    # so the output is written through the descriptor: no staging, no digest, no manifest.
    assert main(["probe", "--in", str(corpus_file), "--out", str(tmp_path / "probe.json")]) == 0
    expected = (tmp_path / "probe.json").read_bytes() + capsys.readouterr().out.encode()
    work = tmp_path / "work"
    work.mkdir()
    (work / "out").symlink_to("/proc/self/fd/1")
    argv = ["probe", "--in", str(corpus_file), "--out", "out"]
    if stdout == "pipe":
        result = _cli_child(argv, cwd=work)
        written = result.stdout
    else:
        with open(work / "captured.txt", "wb") as captured:
            result = _cli_child(argv, cwd=work, stdout=captured)
        written = (work / "captured.txt").read_bytes()
    assert result.returncode == 0, result.stderr
    assert written == expected
    assert sorted(os.listdir(work)) == sorted(["out"] + (["captured.txt"] if stdout == "file" else []))


def test_a_manifest_over_the_file_size_limit_leaves_the_first_run_as_it_was(corpus_file, tmp_path, capsys):
    params, manifest = tmp_path / "params.json", tmp_path / "params.json.manifest.json"
    assert main(["tune", "--in", str(corpus_file), "--out", str(params)]) == 0
    subset = _first_lines(corpus_file, tmp_path, 5)
    before = {path: (path.stat().st_ino, path.read_bytes()) for path in (params, manifest)}
    assert params.stat().st_size < 600 < manifest.stat().st_size
    # The limit binds the child alone: its new params.json fits, its manifest does not.
    result = _cli_child(["tune", "--in", str(subset), "--out", str(params)],
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (600, 600)))
    assert result.returncode == 1 and b"File too large" in result.stderr
    assert {path: (path.stat().st_ino, path.read_bytes()) for path in (params, manifest)} == before
    assert sorted(os.listdir(tmp_path)) == ["first-5.jsonl", "params.json", "params.json.manifest.json"]


def test_a_commit_cut_short_leaves_no_manifest_that_disagrees_with_the_files(corpus_file, tmp_path, capsys,
                                                                              monkeypatch):
    params, trials = tmp_path / "params.json", tmp_path / "trials.json"
    outputs = ["--out", str(params), "--trials", str(trials)]
    assert main(["tune", "--in", str(_first_lines(corpus_file, tmp_path, 5)), *outputs]) == 0
    replaced = []
    replace = os.replace

    def second_fails(source, target):
        replaced.append(target)
        if len(replaced) == 2:
            raise OSError(f"cannot replace {target}")
        replace(source, target)

    monkeypatch.setattr(os, "replace", second_fails)
    assert main(["tune", "--in", str(corpus_file), *outputs]) == 1
    assert _one_error_line(capsys).startswith("error: cannot replace ")
    assert len(replaced) == 2
    manifest = tmp_path / "params.json.manifest.json"
    if manifest.exists():
        assert read_json(manifest)["output_digests"] == {str(path): _sha256(path) for path in (params, trials)}
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_a_bad_params_file_fails_before_the_corpus_is_loaded(corpus_file, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "iter_corpus", lambda *a, **k: calls.append(a) or iter_corpus(*a, **k))
    params = tmp_path / "params.json"
    params.write_bytes(b'{"rho": \xff}')
    out = tmp_path / "pred.jsonl"
    assert main(["baseline", "--in", str(corpus_file), "--params", str(params), "--out", str(out)]) == 1
    assert _one_error_line(capsys).startswith(f"error: {params}:1: not valid UTF-8: ")
    assert calls == []
    assert main(["baseline", "--in", str(corpus_file), "--out", str(out)]) == 0
    assert len(calls) == 1


# --------------------------------------------------------------------------
# streaming commands: a bad record part way through changes nothing
# --------------------------------------------------------------------------

# The last line of each corpus, after the 100 good ones, and the error it gives.
_BAD_LAST_LINES = {
    "duplicate": (None, "error: in.jsonl[100]: duplicate utterance_id 'clitoy-00000'"),
    "malformed": (b'{"utterance_id": "u-bad",}\n',
                  "error: {path}:101: invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 26 (char 25)"),
}


@pytest.mark.parametrize(
    "argv,output,last",
    [
        (["annotate"], "markers.jsonl", "duplicate"),
        (["annotate"], "markers.jsonl", "malformed"),
        (["validate", "--strict"], "train.valid.jsonl", "duplicate"),
        (["validate"], "train.valid.jsonl", "malformed"),
        (["probe"], "probe.json", "duplicate"),
        (["probe"], "probe.json", "malformed"),
        (["baseline"], "pred.jsonl", "duplicate"),
        (["baseline"], "pred.jsonl", "malformed"),
        (["tune"], "params.json", "duplicate"),
        (["tune"], "params.json", "malformed"),
    ],
    ids=["annotate-duplicate", "annotate-malformed", "validate-strict-duplicate", "validate-malformed",
         "probe-duplicate", "probe-malformed", "baseline-duplicate", "baseline-malformed",
         "tune-duplicate", "tune-malformed"],
)
def test_a_bad_last_record_keeps_the_previous_outputs(corpus_file, tmp_path, capsys, argv, output, last):
    infile, out_dir = tmp_path / "in.jsonl", tmp_path / "out"
    out_dir.mkdir()
    _a_bad_last_record_changes_nothing([*argv, "--in", str(infile)], corpus_file, infile, out_dir / output, last,
                                       capsys)


@pytest.mark.parametrize("last", ["duplicate", "malformed"])
def test_a_bad_last_gold_record_keeps_the_previous_report(corpus_file, tmp_path, capsys, last):
    gold, pred, out_dir = tmp_path / "in.jsonl", tmp_path / "pred.jsonl", tmp_path / "out"
    out_dir.mkdir()
    assert main(["baseline", "--in", str(corpus_file), "--out", str(pred)]) == 0
    _a_bad_last_record_changes_nothing(["evaluate", "--gold", str(gold), "--pred", str(pred)], corpus_file, gold,
                                       out_dir / "eval.json", last, capsys)


def _a_bad_last_record_changes_nothing(argv, corpus_file, infile, out, last, capsys):
    """Run ``argv`` on a good ``infile``, then on one with a bad last record: the outputs stay as they were."""
    good = corpus_file.read_bytes()
    infile.write_bytes(good)
    argv = [*argv, "--out", str(out)]
    assert main(argv) == 0
    assert sorted(os.listdir(out.parent)) == [out.name, f"{out.name}.manifest.json"]

    line, message = _BAD_LAST_LINES[last]
    infile.write_bytes(good + (line or good.splitlines(keepends=True)[0]))
    err = _fails_and_changes_nothing(argv, out.parent, capsys)
    assert err == message.format(path=infile) + "\n"


# --------------------------------------------------------------------------
# manifest metrics
# --------------------------------------------------------------------------


def test_manifest_metrics_are_numeric_and_outside_the_config_digest(corpus_file, tmp_path):
    out = tmp_path / "markers.jsonl"
    argv = ["annotate", "--in", str(corpus_file), "--out", str(out), "--stopwords", "basic"]
    manifests = []
    for _ in range(2):
        assert main(argv) == 0
        manifests.append(json.loads((tmp_path / "markers.jsonl.manifest.json").read_text()))
    for manifest in manifests:
        metrics = manifest["metrics"]
        assert sorted(metrics) == ["compute_s", "peak_rss_at_start_mib", "peak_rss_mib"]
        assert all(isinstance(value, float) and value >= 0 for value in metrics.values())
        assert 0 < metrics["peak_rss_at_start_mib"] <= metrics["peak_rss_mib"]
        assert "metrics" not in manifest["config"]
    # The digest covers the config alone, as before the block existed.
    assert manifests[0]["config_digest"] == manifests[1]["config_digest"] == hashlib.sha256(
        b'{"raw_tokens":false,"stopwords":"basic"}').hexdigest()


# --------------------------------------------------------------------------
# fuzz: mutated corpora through every command that reads one
# --------------------------------------------------------------------------

_FIELDS = ("utterance_id", "tree_id", "snippet", "question", "scenario", "history", "evidence", "answer")
_TURNS = ("history", "evidence")
_ODD_VALUES = (None, 0, 1.5, True, "", "Maybe", [], {}, ["Yes"], {"follow_up_question": "Over 60?"})
_BAD_TURNS = (
    42, "Yes", [], {"follow_up_answer": "Yes"}, {"follow_up_question": "Over 60?"},
    {"follow_up_question": " ", "follow_up_answer": "Yes"},
    {"follow_up_question": "Over 60?", "follow_up_answer": "Maybe"},
    {"follow_up_question": "Over 60?", "follow_up_answer": None},
)
_STRAY_BYTES = (b"\xff", b"\xc3", b"\x00", b"\n", b"{", b"]", b",", b'"', b"\\")

_record_edit = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 5), st.sampled_from(_FIELDS), st.sampled_from(_ODD_VALUES)),
    st.tuples(st.just("drop"), st.integers(0, 5), st.sampled_from(_FIELDS)),
    st.tuples(st.just("turn"), st.integers(0, 5), st.sampled_from(_TURNS), st.sampled_from(_BAD_TURNS)),
)
_byte_edit = st.one_of(
    st.tuples(st.just("stray"), st.integers(0, 1 << 16), st.sampled_from(_STRAY_BYTES)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
)

# Each command that reads a corpus: its flags after the corpus, and its outputs.
_FUZZ_COMMANDS = {
    "validate": ([], []),
    "validate --strict --out": (["--strict", "--out", "{root}/canonical.jsonl"], ["canonical.jsonl"]),
    "probe": (["--out", "{root}/probe.json"], ["probe.json"]),
    "annotate": (["--out", "{root}/markers.jsonl"], ["markers.jsonl"]),
    "baseline": (["--out", "{root}/pred.jsonl"], ["pred.jsonl"]),
    "tune": (["--out", "{root}/params.json"], ["params.json"]),
    "augment": (["--seed", "13", "--total", "30", "--out", "{root}/aug.jsonl"], ["aug.jsonl", "aug.jsonl.build.json"]),
    "evaluate": (["--pred", "{root}/given-pred.jsonl", "--out", "{root}/eval.json"], ["eval.json"]),
}


def _mutated_corpus(records, layout, record_edits, byte_edits):
    for kind, index, key, *value in record_edits:
        record = records[index % len(records)]
        if kind == "flip":
            record[key] = value[0]
        elif kind == "drop":
            record.pop(key, None)
        elif isinstance(record.get(key), list):
            record[key] = [*record[key], value[0]]
    text = "".join(json.dumps(r) + "\n" for r in records) if layout == "jsonl" else json.dumps(records)
    data = text.encode("utf-8")
    for kind, at, *stray in byte_edits:
        at %= len(data) + 1
        data = data[:at] + stray[0] + data[at:] if kind == "stray" else data[:at]
    return data


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
    layout=st.sampled_from(["jsonl", "list"]),
    record_edits=st.lists(_record_edit, max_size=3),
    byte_edits=st.lists(_byte_edit, max_size=2),
)
def test_a_mutated_corpus_gives_a_result_or_one_error_line_and_changes_nothing(
    corpus_file, command, layout, record_edits, byte_edits
):
    records = [json.loads(line) for line in corpus_file.read_text(encoding="utf-8").splitlines()[:6]]
    flags, outputs = _FUZZ_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "given-pred.jsonl").write_text(
            "".join(json.dumps({"utterance_id": r["utterance_id"], "answer": "Yes"}) + "\n" for r in records),
            encoding="utf-8")
        corpus = root / ("corpus.jsonl" if layout == "jsonl" else "corpus.json")
        corpus.write_bytes(_mutated_corpus(records, layout, record_edits, byte_edits))
        for name in [*outputs, *(f"{name}.manifest.json" for name in outputs[:1])]:
            (root / name).write_text(f"previous {name}\n", encoding="utf-8")
        before = _files(root)
        argv = [command.split()[0], "--gold" if command == "evaluate" else "--in", str(corpus),
                *(flag.format(root=root) for flag in flags)]
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.enable()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert gc.isenabled()
        err = stderr.getvalue()
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert _files(root) == before
        assert not [path.name for path in root.iterdir() if path.name.endswith(".tmp")]


# --------------------------------------------------------------------------
# fuzz: argv drawn from each subcommand's flags, with edge values
# --------------------------------------------------------------------------

# Each subcommand's flags and the kind of value each takes, "!" marking those argparse requires; the
# main input comes first.
_ARGV_GRAMMAR = {
    "validate": {"--in": "corpus!", "--expect-digest": "digest", "--strict": "switch", "--out": "output"},
    "probe": {"--in": "corpus!", "--out": "output!", "--split-name": "text", "--min-support": "number"},
    "augment": {"--in": "corpus!", "--seed": "number!", "--total": "number", "--targets": "targets",
                "--max-perms": "number", "--no-keep-original": "switch", "--drop-replaced-history": "switch",
                "--out": "output!", "--manifest": "output"},
    "annotate": {"--in": "corpus!", "--out": "output!", "--stopwords": "text", "--raw-tokens": "switch"},
    "baseline": {"--in": "corpus!", "--out": "output!", "--params": "params", "--cues": "cues"},
    "tune": {"--in": "corpus!", "--out": "output!", "--trials": "output", "--cues": "cues"},
    "evaluate": {"--gold": "corpus!", "--pred": "pred!", "--out": "output!", "--sentence-bleu": "switch"},
    "report": {"--original": "report!", "--augmented": "report!", "--out": "output"},
}
# Each kind's values, a good one first. A FIFO or a pipe is drawn only as an input: as an
# output it is written as it is, but a FIFO waits for a reader, as `cat > fifo` does.
_INPUTS = ("good", "dir", "missing", "not-utf8", "fifo", "pipe", "")
_EDGE_VALUES = {
    "number": ("30", "-1", "0", "nan", "inf", "-inf", str(2**53 + 1), "1" + "0" * 400, ""),
    "output": ("new", "existing", "dir", "missing/out", "input", ""),
    "text": ("none", "basic", "", "train"),
    "targets": ("irr=25,yes=25,no=25,more=25", "irr=nan,yes=50,no=25,more=25", "irr=inf,yes=0,no=0,more=0",
                "irr=-5,yes=55,no=25,more=25", "irr=100", ""),
    "digest": ("good", "0" * 64, ""),
    "switch": (None,),
    **dict.fromkeys(("corpus", "params", "cues", "pred", "report"), _INPUTS),
}


def _argv_value(kind):
    """An absent flag (None, for flags argparse does not require) or a 1-tuple: the good value half the time."""
    values = _EDGE_VALUES[kind.rstrip("!")]
    value = st.tuples(st.just(values[0]) | st.sampled_from(values))
    return value if kind.endswith("!") else st.none() | value


def _side_files(root, records):
    """The good file of each input kind, written under ``root``."""
    files = {
        "corpus": "".join(json.dumps(record) + "\n" for record in records),
        "params": json.dumps({"tau_irr": 0.2, "rho": 0.6, "rho_s": 0.6, "l_max": 5}),
        "cues": "conj  and \ndisj  or \n",
        "pred": "".join(json.dumps({"utterance_id": r["utterance_id"], "answer": "Yes"}) + "\n" for r in records),
        "report": json.dumps({"class_distribution": {"Yes": 100.0}, "instance_count": len(records)}),
    }
    for kind, text in files.items():
        (root / kind).write_text(text, encoding="utf-8")
    return files


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_argv_from_each_commands_flags_gives_a_result_a_usage_error_or_one_error_line(corpus_file, data):
    command = data.draw(st.sampled_from(sorted(_ARGV_GRAMMAR)), label="command")
    grammar = _ARGV_GRAMMAR[command]
    drawn = {flag: data.draw(_argv_value(kind), label=flag) for flag, kind in grammar.items()}
    records = [json.loads(line) for line in corpus_file.read_text(encoding="utf-8").splitlines()[:6]]
    pipes: list[int] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = _side_files(root, records)
        (root / "dir").mkdir()
        (root / "not-utf8").write_bytes(b'{"utterance_id": "\xff"}\n')
        os.mkfifo(root / "fifo")
        (root / "existing").write_text("previous output\n", encoding="utf-8")
        (root / "input").symlink_to(root / next(iter(grammar.values())).rstrip("!"))

        def value(kind, choice):
            if choice == "good" and kind == "digest":
                return hashlib.sha256(files["corpus"].encode("utf-8")).hexdigest()
            if choice == "good":
                return str(root / kind)
            if choice == "pipe":
                read_end, write_end = os.pipe()
                pipes.append(read_end)
                os.write(write_end, files[kind].encode("utf-8"))
                os.close(write_end)
                return f"/dev/fd/{read_end}"
            return str(root / choice) if choice and kind in ("output", *files) else choice

        argv = [command]
        for flag, choice in drawn.items():
            if choice is not None:
                argv += [flag] if choice[0] is None else [flag, value(grammar[flag].rstrip("!"), choice[0])]
        before = _files(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        finally:
            for read_end in pipes:
                os.close(read_end)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
        if code != 0:
            assert _files(root) == before, argv
        assert not [path.name for path in root.rglob("*") if path.name.endswith(".tmp")]
