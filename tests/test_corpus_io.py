"""Corpus file I/O: loader error messages, audits, writer byte stability."""

import dataclasses
import gc
import hashlib
import json
import os
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from sharctool import cli
from sharctool.augment import AugmentConfig, AugmentedInstance, Provenance, build_augmented_corpus, write_augmented
from sharctool.baseline import PolicyParams, tune, write_predictions
from sharctool.cli import main
from sharctool.corpus import (
    ClassLabel,
    CorpusError,
    DialogTurn,
    Instance,
    LoadAudit,
    _fd_link,
    content_hash,
    content_key,
    iter_corpus,
    load_corpus,
    load_corpus_audited,
    read_json,
    read_jsonl,
    write_corpus,
    write_json,
    write_jsonl,
)
from sharctool.evaluate import cells, evaluate, gold_view
from sharctool.markers import MARKER_PHI, write_markers
from sharctool.probe import probe_corpus
from sharctool.synthcorpus import SplitSpec, generate_split

from reference import augmented_to_record, dumps_record, escaped_row, instance_to_record, markers_record


def _record(**overrides):
    record = {
        "utterance_id": "u-1",
        "tree_id": "t-1",
        "snippet": "You can claim if you are over 60.",
        "question": "Can I claim?",
        "scenario": "",
        "history": [],
        "evidence": [],
        "answer": "Yes",
    }
    record.update(overrides)
    return record


def _turn(question="Over 60?", answer="Yes"):
    return {"follow_up_question": question, "follow_up_answer": answer}


def _write_lines(tmp_path, *records):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# Every loader error, word for word
# --------------------------------------------------------------------------

_MISSING_TREE = _record()
del _MISSING_TREE["tree_id"]

LOADER_ERRORS = {
    "record-not-object": (["just a string"], "corpus.jsonl[0]: record is not an object"),
    "field-missing": ([_MISSING_TREE], "corpus.jsonl[0]: field 'tree_id' is missing or not a string"),
    "field-not-string": (
        [_record(answer=7)],
        "corpus.jsonl[0]: field 'answer' is missing or not a string",
    ),
    "history-not-list": (
        [_record(history="Over 60? Yes")],
        "corpus.jsonl[0]: history and evidence must be lists",
    ),
    "evidence-not-list": (
        [_record(evidence={"a": 1})],
        "corpus.jsonl[0]: history and evidence must be lists",
    ),
    "turn-not-object": (
        [_record(history=[_turn(), ["Over 60?", "Yes"]])],
        "corpus.jsonl[0]: history[1]: turn is not an object: ['Over 60?', 'Yes']",
    ),
    "question-missing": (
        [_record(history=[{"follow_up_answer": "Yes"}])],
        "corpus.jsonl[0]: history[0]: missing or empty follow_up_question",
    ),
    "question-empty": (
        [_record(history=[_turn(question="   ")])],
        "corpus.jsonl[0]: history[0]: missing or empty follow_up_question",
    ),
    "answer-missing": (
        [_record(history=[{"follow_up_question": "Over 60?"}])],
        "corpus.jsonl[0]: history[0]: missing follow_up_answer",
    ),
    "answer-not-string": (
        [_record(history=[_turn(answer=True)])],
        "corpus.jsonl[0]: history[0]: missing follow_up_answer",
    ),
    "answer-not-polar": (
        [_record(history=[_turn(), _turn("Living in London?", "Maybe")])],
        "corpus.jsonl[0]: history[1]: follow_up_answer must be Yes or No, got 'Maybe'",
    ),
    "second-record": (
        [_record(), _record(utterance_id="u-2", history=[_turn(answer="")])],
        "corpus.jsonl[1]: history[0]: follow_up_answer must be Yes or No, got ''",
    ),
    "evidence-malformed": (
        [_record(evidence=[_turn(), _turn(answer="Perhaps")])],
        "corpus.jsonl[0]: evidence[1]: follow_up_answer must be Yes or No, got 'Perhaps'",
    ),
    "evidence-not-object": (
        [_record(evidence=[42])],
        "corpus.jsonl[0]: evidence[0]: turn is not an object: 42",
    ),
    "duplicate-id": (
        [_record(), _record(question="Same id, new text?")],
        "corpus.jsonl[1]: duplicate utterance_id 'u-1'",
    ),
}


@pytest.mark.parametrize("records, message", LOADER_ERRORS.values(), ids=LOADER_ERRORS.keys())
def test_strict_loader_error_messages(tmp_path, records, message):
    path = _write_lines(tmp_path, *records)
    with pytest.raises(CorpusError) as raised:
        load_corpus_audited(path, strict=True)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "body,message",
    [
        (json.dumps(_record()) + "\n\n{not json\n",
         "3: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (json.dumps(_record()) + '\n\n{"a": 1} x\n', "3: invalid JSON: Extra data: line 1 column 10 (char 9)"),
        ("\ufeff" + json.dumps(_record()) + "\n",
         "1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (json.dumps(_record()) + '\n\n{"a": 1\n', "3: invalid JSON: Expecting ',' delimiter: line 2 column 1 (char 8)"),
    ],
    ids=["not-json", "extra-data", "bom", "truncated"],
)
def test_invalid_json_line_names_the_path_and_line(tmp_path, body, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(CorpusError) as raised:
        load_corpus_audited(path, strict=False)
    assert str(raised.value) == f"{path}:{message}"


def test_read_jsonl_gives_what_json_loads_gives_on_each_non_blank_line(tmp_path):
    # CRLF endings, lines of only spaces, tabs or a form feed (blank to str.strip,
    # not JSON whitespace), values between spaces, a NaN and no final newline.
    body = '{"a": 1}\r\n   \r\n\t\t\n \x0c\n  [1, 2.5, "\u2028"]  \r\n\n{"b": NaN}\t\n 7'
    path = tmp_path / "values.jsonl"
    path.write_bytes(body.encode("utf-8"))
    expected = [(n, json.loads(line)) for n, line in enumerate(body.split("\n"), start=1) if line.strip()]
    assert [n for n, _ in expected] == [1, 5, 7, 8]
    assert repr(list(read_jsonl(path))) == repr(expected)  # repr, as NaN equals no NaN


def test_invalid_json_list_names_the_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('[{"a": 1},\n oops]\n', encoding="utf-8")
    with pytest.raises(CorpusError) as raised:
        load_corpus(path)
    assert str(raised.value) == f"{path}: invalid JSON: Expecting value: line 2 column 2 (char 12)"
    assert main(["validate", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: invalid JSON: Expecting value: line 2 column 2 (char 12)\n"


_NOT_UTF8 = "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"


@pytest.mark.parametrize("kind", ["corpus", "predictions"])
def test_invalid_utf8_line_names_the_path_and_line(tmp_path, capsys, kind):
    path = tmp_path / f"bad-{kind}.jsonl"
    path.write_bytes(json.dumps(_record()).encode() + b"\n\n{\xff}\n")
    gold = _write_lines(tmp_path, _record())
    argv = {
        "corpus": ["validate", "--in", str(path)],
        "predictions": ["evaluate", "--gold", str(gold), "--pred", str(path), "--out", str(tmp_path / "eval.json")],
    }[kind]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {_NOT_UTF8}\n"


# json.dumps escapes every character outside ASCII, so a lone surrogate
# reaches the file as the escape \ud800, which the decoder accepts.
@pytest.mark.parametrize("layout", ["jsonl", "list"])
@pytest.mark.parametrize(
    "argv",
    [["validate"], ["validate", "--strict"], ["validate", "--out", "{out}"], ["probe", "--out", "{out}"],
     ["annotate", "--out", "{out}"], ["baseline", "--out", "{out}"]],
    ids=["validate-lenient", "validate-strict", "validate-out", "probe", "annotate", "baseline"],
)
def test_a_lone_surrogate_is_one_error_line_naming_the_path_and_line(tmp_path, capsys, argv, layout):
    records = [_record(), _record(utterance_id="u-2", scenario="I am \ud800 over 60.")]
    path, out = tmp_path / f"bad.{layout}", tmp_path / "out.json"
    if layout == "jsonl":
        text = "".join(json.dumps(record) + "\n" for record in records)
    else:
        text = json.dumps(records, indent=1)
    path.write_text(text, encoding="utf-8")
    line = text[:text.index("\\ud800")].count("\n") + 1
    assert line == 2 if layout == "jsonl" else line > 2
    assert main([argv[0], "--in", str(path), *(arg.format(out=out) for arg in argv[1:])]) == 1
    message = f"error: {path}:{line}: lone surrogate escape \\ud800, which UTF-8 cannot encode\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize(
    "text, refused",
    [
        (r'{"a": "\ud800"}', r"\ud800"),
        (r'{"a": ["x", "\uDC00y"]}', r"\uDC00"),
        (r'{"a": "\ude00\ud83d"}', r"\ude00"),  # a low surrogate before its high one pairs with nothing
        (r'{"a": "\ud83d\ud83d\ude00"}', r"\ud83d"),  # two high ones: the second takes the low one
        (r'{"a": "\\\udbff"}', r"\udbff"),  # an escaped backslash, then the lone escape
        (r'{"\udbff": 1}', r"\udbff"),
        (r'{"a": "\ud83d\ude00", "b": "\uD83D\uDE00"}', None),
        (r'{"a": "\\ud800"}', None),  # an escaped backslash, then the letters ud800
    ],
    ids=["high", "low-in-list", "reversed-pair", "two-highs", "after-backslash", "key", "pair", "escaped-backslash"],
)
def test_read_jsonl_refuses_only_a_lone_surrogate(tmp_path, text, refused):
    path = tmp_path / "lines.jsonl"
    path.write_text(f'{{"b": 2}}\n{text}\n', encoding="utf-8")
    if refused is None:
        assert [value for _, value in read_jsonl(path)] == [{"b": 2}, json.loads(text)]
    else:
        with pytest.raises(CorpusError) as raised:
            list(read_jsonl(path))
        assert str(raised.value) == f"{path}:2: lone surrogate escape {refused}, which UTF-8 cannot encode"


@pytest.mark.parametrize("layout", ["jsonl", "list"])
def test_an_escaped_surrogate_pair_round_trips(tmp_path, layout):
    records = [_record(scenario="I am over 60 \U0001f600", history=[_turn("Over 60 \U0001f600?")])]
    path, first, second = tmp_path / f"pair.{layout}", tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    text = json.dumps(records[0]) + "\n" if layout == "jsonl" else json.dumps(records)
    assert "\\ud83d\\ude00" in text
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--strict", "--in", str(path), "--out", str(first)]) == 0
    assert main(["validate", "--strict", "--in", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "\U0001f600" in first.read_text(encoding="utf-8")
    assert [instance_to_record(i) for i in load_corpus(first)] == [instance_to_record(i) for i in load_corpus(path)]


def test_lenient_audit_counts_and_reasons(tmp_path):
    path = _write_lines(
        tmp_path,
        _record(),
        "just a string",
        _record(utterance_id="u-2", history=[_turn(answer="Maybe")]),
        _record(question="Same id again?"),
        _record(utterance_id="u-3", evidence=[_turn(), _turn(answer="Perhaps"), {"follow_up_question": "Q?"}]),
        _record(utterance_id="u-4", evidence=[7, _turn(answer="no")]),
        _record(utterance_id="u-5", history=[_turn(answer=" yes ")]),
    )
    instances, audit = load_corpus_audited(path, strict=False)
    assert [i.utterance_id for i in instances] == ["u-1", "u-3", "u-4", "u-5"]
    assert [len(i.evidence) for i in instances] == [0, 1, 1, 0]
    assert instances[2].evidence[0].follow_up_answer == "No"
    assert instances[3].history[0].follow_up_answer == "Yes"
    assert dataclasses.asdict(audit) == {
        "records_read": 7,
        "instances_kept": 4,
        "dropped_instances": 3,
        "dropped_evidence_items": 3,
        "duplicate_ids_dropped": 1,
        "reasons": {
            "duplicate_utterance_id": 1,
            "evidence_malformed": 2,
            "evidence_missing_answer": 1,
            "instance_malformed": 2,
        },
    }


# Records for the reader's two modes: in strict mode only what both modes
# drop (an evidence item with no answer); in lenient mode every kind of drop.
_STREAM_RECORDS = {
    "strict": [_record(), _record(utterance_id="u-2", evidence=[_turn(), {"follow_up_question": "Q?"}])],
    "lenient": [
        _record(),
        "just a string",
        _record(question="Same id again?"),
        _record(utterance_id="u-3", evidence=[_turn(), _turn(answer="Perhaps"), {"follow_up_question": "Q?"}]),
    ],
}


@pytest.mark.parametrize("layout", ["jsonl", "json-list"])
@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_load_corpus_audited_is_the_streaming_reader_listed(tmp_path, strictness, layout):
    records, strict = _STREAM_RECORDS[strictness], strictness == "strict"
    if layout == "jsonl":
        path = _write_lines(tmp_path, *records)
    else:
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(records), encoding="utf-8")
    instances, audit = load_corpus_audited(path, strict=strict)
    streamed_audit = LoadAudit()
    assert list(iter_corpus(path, strict=strict, audit=streamed_audit)) == instances
    assert streamed_audit == audit
    assert audit.instances_kept == 2 and audit.dropped_evidence_items >= 1


def _write_layout(tmp_path, layout, *records):
    if layout == "jsonl":
        return _write_lines(tmp_path, *records)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


@pytest.mark.parametrize("layout", ["jsonl", "json-list"])
@pytest.mark.parametrize("read", [load_corpus, lambda path: list(iter_corpus(path))], ids=["load", "iter"])
def test_equal_strings_load_as_one_object(tmp_path, read, layout):
    history = [_turn("Over 60?", "yes"), _turn("Retired?", "No")]
    records = [_record(history=history), _record(utterance_id="u-2", scenario="I am 70.", history=history[::-1])]
    first, second = read(_write_layout(tmp_path, layout, *records))
    for name in ("tree_id", "rule_text", "question", "gold_answer"):
        assert getattr(first, name) is getattr(second, name), name
    assert first.history[0].follow_up_question is second.history[1].follow_up_question
    assert first.history[1].follow_up_question is second.history[0].follow_up_question
    assert first.history[1].follow_up_answer is second.history[0].follow_up_answer


@pytest.mark.parametrize("layout", ["jsonl", "json-list"])
def test_equal_canonical_turns_are_one_object_within_a_read(tmp_path, layout):
    records = [
        _record(history=[_turn("Over 60?", "Yes"), _turn("Retired?", "No")], evidence=[_turn("Retired?", "No")]),
        _record(utterance_id="u-2", history=[_turn("Retired?", "No"), _turn("Over 60?", "No")],
                evidence=[_turn("Over 60?", "Yes")]),
    ]
    first, second = iter_corpus(_write_layout(tmp_path, layout, *records))
    over_60, retired = first.history
    assert first.evidence[0] is retired
    assert second.history[0] is retired
    assert second.evidence[0] is over_60
    assert second.history[1] == DialogTurn("Over 60?", "No") and second.history[1] is not over_60
    assert second.history[1].follow_up_question is over_60.follow_up_question


def test_two_reads_share_no_turn_object(tmp_path):
    path = _write_lines(tmp_path, _record(history=[_turn()], evidence=[_turn()]))
    (first,), (second,) = load_corpus(path), iter_corpus(path)
    assert first.history[0] is first.evidence[0]
    assert second.history[0] == first.history[0]
    assert second.history[0] is not first.history[0]


def test_answers_not_in_canonical_form_still_normalize(tmp_path):
    path = _write_lines(tmp_path, _record(
        history=[_turn("Over 60?", " yes "), _turn("Retired?", "no")], evidence=[_turn("Over 60?", "Yes")]))
    (instance,) = load_corpus(path)
    assert instance.history == [DialogTurn("Over 60?", "Yes"), DialogTurn("Retired?", "No")]
    assert instance.evidence == [DialogTurn("Over 60?", "Yes")]
    assert instance.history[0].follow_up_answer is instance.evidence[0].follow_up_answer


def test_iter_corpus_yields_each_instance_before_reading_the_next_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_record()) + "\n{not json\n", encoding="utf-8")
    audit = LoadAudit()
    stream = iter_corpus(path, strict=True, audit=audit)
    assert next(stream).utterance_id == "u-1"
    assert audit.records_read == audit.instances_kept == 1
    with pytest.raises(CorpusError, match=f"{path}:2: invalid JSON"):
        next(stream)


# --------------------------------------------------------------------------
# write_augmented output, pinned
# --------------------------------------------------------------------------

PIN_SPEC = SplitSpec(
    name="pin",
    seed=5,
    class_counts={ClassLabel.IRRELEVANT: 10, ClassLabel.YES: 40, ClassLabel.NO: 40, ClassLabel.MORE: 40},
    tree_count=40,
)


def test_write_augmented_bytes_are_pinned(tmp_path):
    # Recorded before the per-parent RNG streams became lazy; every stream
    # depends only on (seed, purpose, parent id), so the bytes must not move.
    items, manifest = build_augmented_corpus(generate_split(PIN_SPEC), AugmentConfig(seed=13, total_target=260))
    assert manifest.duplicates_dropped == 108
    assert manifest.shortfalls == {"Irrelevant": 0, "Yes": 0, "No": 0, "More": 4}
    path = tmp_path / "aug.jsonl"
    write_augmented(path, items)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b08c93de032719e77f6c61b26c8e80f267338d8cea26a95bbe3bdbcc804071c0"
    )


# Configs where the round-robin's limits bind: one admitted shuffle per
# parent; rule replacement without history; generated instances only; and a
# total far beyond the unique variants, where every class ends short, rule
# replacement runs all 64 passes and the shuffles hit their attempt cap.
@pytest.mark.parametrize(
    ("overrides", "aug_sha", "build_sha"),
    [
        (
            {"total_target": 260, "max_permutations_per_instance": 1},
            "aa230ea5da481d83d6c13a4e09cf772056d0f6633622544938c482241809a0e5",
            "923e1d78b3a59f68c80eabf7f2a5337d7524dc86dc960c1c08cc0390be533e88",
        ),
        (
            {"total_target": 260, "drop_replaced_history": True},
            "470cbf9272f161f7fdfd5f51220369f67d1c0b478dccafc3748b31e42e424d86",
            "f7228fa7f06db63ac850a71c4b199f619afcf0602de487b129cf3f242844d086",
        ),
        (
            {"total_target": 60, "keep_original": False},
            "aafc380fc3287ae777b8161a476bb2eecaa43047ce491bde59c09ec124ba07bc",
            "0c139ceb6cbf9d8025f46f2fcc739f85d90fed64e4504f0f46c4fb3f3aa5711b",
        ),
        (
            {"total_target": 20000},
            "9181080c070521dd67c730ba58bde802de5305b37dc2091b4fea8e66f2cff596",
            "eef18a99cca9c0ca8ffe8e2e5513892ab606398b0a5e3209cb03c44711e713ee",
        ),
    ],
    ids=["one-perm", "drop-history", "generated-only", "shortfalls"],
)
def test_augment_bytes_are_pinned_where_the_fill_limits_bind(tmp_path, overrides, aug_sha, build_sha):
    items, build = build_augmented_corpus(generate_split(PIN_SPEC), AugmentConfig(seed=13, **overrides))
    write_augmented(tmp_path / "aug.jsonl", items)
    write_json(tmp_path / "build.json", dataclasses.asdict(build))
    assert hashlib.sha256((tmp_path / "aug.jsonl").read_bytes()).hexdigest() == aug_sha
    assert hashlib.sha256((tmp_path / "build.json").read_bytes()).hexdigest() == build_sha


# --------------------------------------------------------------------------
# JSON reports: pinned bytes, and each one's keys are its dataclass fields
# --------------------------------------------------------------------------


def test_report_bytes_are_pinned(tmp_path):
    # Recorded while each to_dict still listed its keys by hand.
    corpus = str(tmp_path / "pin.jsonl")
    write_corpus(corpus, generate_split(PIN_SPEC))
    for argv in (
        ["probe", "--in", corpus, "--out", f"{tmp_path}/probe.json", "--split-name", "pin", "--min-support", "5"],
        ["tune", "--in", corpus, "--out", f"{tmp_path}/params.json", "--trials", f"{tmp_path}/trials.json"],
        ["baseline", "--in", corpus, "--params", f"{tmp_path}/params.json", "--out", f"{tmp_path}/pred.jsonl"],
        ["evaluate", "--gold", corpus, "--pred", f"{tmp_path}/pred.jsonl", "--out", f"{tmp_path}/eval.json"],
        ["annotate", "--in", corpus, "--out", f"{tmp_path}/markers.jsonl"],
        ["annotate", "--in", corpus, "--raw-tokens", "--out", f"{tmp_path}/markers-raw.jsonl"],
        ["annotate", "--in", corpus, "--stopwords", "basic", "--out", f"{tmp_path}/markers-basic.jsonl"],
    ):
        assert main(argv) == 0
    # pred.jsonl and the three markers.jsonl modes were recorded while each
    # token still carried its own strings and character offsets.
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("probe.json", "eval.json", "params.json", "trials.json", "pred.jsonl", "markers.jsonl",
                         "markers-raw.jsonl", "markers-basic.jsonl")} == {
        "probe.json": "630504cdb97550abbbe9e4dd67aec33da255787162cb0ed75f52f13da5f53e82",
        "eval.json": "c3b48e385ecf7dd9ff46e5af9bef90eae25b670d0a755303447039570b82d7f6",
        "params.json": "f814ad6050e68d7da753b00cfba79585f22b9b85e11860f1d74d3ec2e649e288",
        "trials.json": "85e554a05324b539d53c2cb3460c8c7fbc6d7313d38181e1a9ee6b3b6b430fbb",
        "pred.jsonl": "622836432f169df394d7d6122026bfc89ec11ffca74635bbc934820da8948ac6",
        "markers.jsonl": "fdc8975c460c8151a4c34d1a02c25d0e9a06d0923b2d13278bf2ccb4ec3a4870",
        "markers-raw.jsonl": "40db3e055fd1319bf359667a15783507af64b0a828b83df973516278105a61ed",
        "markers-basic.jsonl": "72c4a0429d1b1d59980285c2bc84f0e68e5f94e43b503eb3e012022af06a01be",
    }


@pytest.fixture(scope="module")
def reports():
    corpus = generate_split(PIN_SPEC)[:40]
    return {
        "EvalReport": evaluate(cells(gold_view(corpus), {instance.utterance_id: "Yes" for instance in corpus})),
        "TuneResult": tune(corpus, grid={"tau_irr": (0.2,), "rho": (0.6,), "rho_s": (0.6,), "l_max": (3, 5)}),
        "PolicyParams": PolicyParams(),
        "LoadAudit": LoadAudit(reasons={"missing answer": 2, "bad history": 1}),
        "ProbeReport": probe_corpus(corpus, "pin", min_support=5),
        "AugmentManifest": build_augmented_corpus(corpus, AugmentConfig(seed=13, total_target=60))[1],
    }


@pytest.mark.parametrize("name", ["EvalReport", "TuneResult", "PolicyParams", "LoadAudit", "ProbeReport",
                                  "AugmentManifest"])
def test_each_report_lists_its_fields_in_declared_order(reports, tmp_path, name):
    report = reports[name]
    assert type(report).__name__ == name
    write_json(tmp_path / "report.json", dataclasses.asdict(report))
    assert list(read_json(tmp_path / "report.json")) == [field.name for field in dataclasses.fields(report)]


# --------------------------------------------------------------------------
# A load leaves the collector as it was found
# --------------------------------------------------------------------------


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled_before", [True, False])
@pytest.mark.parametrize("outcome", ["success", "raise"])
def test_load_leaves_the_collector_as_it_was(tmp_path, restore_gc, enabled_before, outcome):
    records = [_record()] if outcome == "success" else [_record(), _record()]
    path = _write_lines(tmp_path, *records)
    (gc.enable if enabled_before else gc.disable)()
    if outcome == "success":
        assert len(load_corpus(path)) == 1
    else:
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)
    assert gc.isenabled() is enabled_before


# --------------------------------------------------------------------------
# Every command runs with the collector off and gives the caller's setting back
# --------------------------------------------------------------------------

FRAME_SPEC = SplitSpec(name="frame", seed=3, class_counts={label: 10 for label in ClassLabel}, tree_count=10)

COMMANDS = ("validate", "probe", "augment", "annotate", "baseline", "tune", "evaluate", "report")


@pytest.fixture(scope="module")
def frame_instances():
    return generate_split(FRAME_SPEC)


def _command_argvs(root, instances, failing=False):
    """One argv per subcommand over ``instances``, writing into ``root``.

    With ``failing`` the corpus ends in a duplicate id and the second report
    is of neither kind, so every command stops with an ``error:`` line part
    way through its load.
    """
    write_corpus(root / "corpus.jsonl", instances)
    lines = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (root / "bad.jsonl").write_text("".join(lines + lines[:1]), encoding="utf-8")
    write_jsonl(root / "given-pred.jsonl", ({"utterance_id": i.utterance_id, "answer": "Yes"} for i in instances),
                json.dumps)
    write_json(root / "probe-report.json", {"class_distribution": {"Yes": 100.0}, "instance_count": len(instances)})
    write_json(root / "bad-report.json", {"neither": "kind"})
    corpus = str(root / ("bad.jsonl" if failing else "corpus.jsonl"))
    second_report = str(root / ("bad-report.json" if failing else "probe-report.json"))
    return {
        "validate": ["validate", "--in", corpus, "--strict", "--out", str(root / "canonical.jsonl")],
        "probe": ["probe", "--in", corpus, "--out", str(root / "probe.json")],
        "augment": ["augment", "--in", corpus, "--seed", "13", "--total", str(3 * len(instances)),
                    "--out", str(root / "aug.jsonl")],
        "annotate": ["annotate", "--in", corpus, "--out", str(root / "markers.jsonl")],
        "baseline": ["baseline", "--in", corpus, "--out", str(root / "pred.jsonl")],
        "tune": ["tune", "--in", corpus, "--out", str(root / "params.json")],
        "evaluate": ["evaluate", "--gold", corpus, "--pred", str(root / "given-pred.jsonl"),
                     "--out", str(root / "eval.json")],
        "report": ["report", "--original", str(root / "probe-report.json"), "--augmented", second_report,
                   "--out", str(root / "report.txt")],
    }


@pytest.mark.parametrize("outcome", ["success", "error"])
@pytest.mark.parametrize("enabled_before", [True, False])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_gives_the_collector_back_as_it_was(
    tmp_path, capsys, restore_gc, frame_instances, command, enabled_before, outcome
):
    argv = _command_argvs(tmp_path, frame_instances[:4], failing=outcome == "error")[command]
    (gc.enable if enabled_before else gc.disable)()
    assert main(argv) == (0 if outcome == "success" else 1)
    assert gc.isenabled() is enabled_before
    if outcome == "error":
        assert capsys.readouterr().err.startswith("error:")


# What ``gc.isenabled()`` read at each spied load and at each step of a walk over what a load returned.
_collector_states: dict[str, list[bool]] = {"load": [], "walk": []}


class _SpyList(list):
    def __iter__(self):
        _collector_states["walk"].append(gc.isenabled())
        return super().__iter__()


def _spy(load):
    """Wrap a loader so that the load and every later walk of what it returns record ``gc.isenabled()``."""

    def walk(items):
        for item in items:
            _collector_states["walk"].append(gc.isenabled())
            yield item

    def spied(*args, **kwargs):
        _collector_states["load"].append(gc.isenabled())
        loaded = load(*args, **kwargs)
        if isinstance(loaded, list):
            return _SpyList(loaded)
        return walk(loaded) if isinstance(loaded, Iterator) else loaded

    return spied


@pytest.mark.parametrize("command", COMMANDS)
def test_the_collector_is_off_while_a_command_loads_and_computes(
    tmp_path, monkeypatch, capsys, restore_gc, frame_instances, command
):
    for name in ("iter_corpus", "load_corpus", "load_params", "load_cues", "load_predictions", "_load_report"):
        monkeypatch.setattr(cli, name, _spy(getattr(cli, name)))
    argv = _command_argvs(tmp_path, frame_instances[:4])[command]
    for states in _collector_states.values():
        states.clear()
    gc.enable()
    assert main(argv) == 0
    loads, walks = _collector_states["load"], _collector_states["walk"]
    # Every command but report walks its corpus inside compute.
    assert loads and (walks or command == "report")
    assert not any(loads + walks)
    assert gc.isenabled()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_leaves_no_more_cyclic_garbage_on_a_larger_corpus(
    tmp_path, capsys, restore_gc, frame_instances, command
):
    found = []
    # The first run only warms up whatever a command builds once per process.
    for run, size in enumerate((4, 4, 40)):
        root = tmp_path / str(run)
        root.mkdir()
        argv = _command_argvs(root, frame_instances[:size])[command]
        gc.disable()
        gc.collect()
        assert main(argv) == 0
        found.append(gc.collect())
    assert found[1] == found[2]


# --------------------------------------------------------------------------
# Every command's manifest reads back and records the bytes it committed
# --------------------------------------------------------------------------

def test_every_manifest_reads_back_and_records_each_staged_output(tmp_path, capsys, frame_instances):
    argvs = _command_argvs(tmp_path, frame_instances[:4])
    # Then tune with a trials file, and augment and tune with their second output a device, which is
    # written as it is and which no manifest lists.
    runs = [*argvs.values(), [*argvs["tune"], "--trials", str(tmp_path / "trials.json")],
            [*argvs["augment"], "--manifest", os.devnull], [*argvs["tune"], "--trials", os.devnull]]
    for argv in runs:
        assert main(argv) == 0, argv
        outputs = [argv[argv.index(flag) + 1] for flag in ("--out", "--manifest", "--trials") if flag in argv]
        if argv[0] == "augment" and "--manifest" not in argv:
            outputs.append(outputs[0] + ".build.json")
        assert read_json(outputs[0] + ".manifest.json")["output_digests"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in outputs if os.path.isfile(path)
        }, argv


# --------------------------------------------------------------------------
# Atomic JSONL and JSON writes
# --------------------------------------------------------------------------


def _write_jsonl_failing_at_3(target):
    def encode(record):
        if record == 3:
            raise ValueError("cannot encode 3")
        return json.dumps(record)

    write_jsonl(target, range(5), encode)


@pytest.mark.parametrize(
    "write,error",
    [
        (_write_jsonl_failing_at_3, (ValueError, "cannot encode 3")),
        (lambda target: write_json(target, {"a": 1, "b": {2}}), (TypeError, "not JSON serializable")),
    ],
    ids=["write_jsonl", "write_json"],
)
def test_encoder_failing_mid_stream_leaves_the_target_and_no_temp_file(tmp_path, write, error):
    target = tmp_path / "out.jsonl"
    target.write_text("old contents\n", encoding="utf-8")
    with pytest.raises(error[0], match=error[1]):
        write(target)
    assert target.read_text(encoding="utf-8") == "old contents\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


@pytest.mark.parametrize(
    "write",
    [lambda path: write_jsonl(path, [{"a": 1}], json.dumps), lambda path: write_json(path, {"a": 1})],
    ids=["write_jsonl", "write_json"],
)
def test_failing_replace_removes_the_temp_file(tmp_path, monkeypatch, write):
    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write(tmp_path / "out.jsonl")
    assert os.listdir(tmp_path) == []


def test_write_json_writes_what_json_dumps_writes(tmp_path):
    document = {"b": [1, 2.5, None], "a": {"\u00e9": "caf\u00e9 \u2028"}, "c": []}
    write_json(tmp_path / "doc.json", document)
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"


def test_write_jsonl_replaces_the_target_and_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.jsonl"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    write_jsonl(link, [{"b": 1, "a": "\u00e9"}], dumps_record)
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == '{"a":"\u00e9","b":1}\n'
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real.jsonl"]


def test_write_jsonl_keeps_the_target_permissions(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o600)
    write_jsonl(target, [{"a": 1}], dumps_record)
    assert target.read_text(encoding="utf-8") == '{"a":1}\n'
    assert target.stat().st_mode & 0o777 == 0o600


def test_fd_link_names_the_descriptor_a_path_resolves_through(tmp_path):
    pid = os.getpid()
    (tmp_path / "fds").symlink_to("/proc/self/fd")  # a link in the middle of the path
    (tmp_path / "err").symlink_to(tmp_path / "fds" / "2")
    (tmp_path / "chain").symlink_to("err")
    (tmp_path / "plain").write_text("", encoding="utf-8")
    (tmp_path / "to-plain").symlink_to("plain")
    assert _fd_link("/dev/stdout") == (pid, 1)
    assert _fd_link(tmp_path / "fds" / "1") == (pid, 1)
    assert _fd_link(tmp_path / "chain") == (pid, 2)
    assert [_fd_link(tmp_path / name) for name in ("plain", "to-plain", "missing")] == [None] * 3


def test_write_jsonl_writes_through_a_descriptor_link_at_its_offset(tmp_path):
    target = tmp_path / "held.jsonl"
    with open(target, "w", encoding="utf-8") as held:
        held.write("head\n")
        held.flush()
        (tmp_path / "out").symlink_to(f"/proc/self/fd/{held.fileno()}")
        inode = target.stat().st_ino
        write_jsonl(tmp_path / "out", [{"a": 1}], dumps_record)
        held.write("tail\n")
    assert target.read_text(encoding="utf-8") == 'head\n{"a":1}\ntail\n'
    assert target.stat().st_ino == inode  # written through, not replaced
    assert sorted(os.listdir(tmp_path)) == ["held.jsonl", "out"]


def test_out_pointing_at_a_directory_leaves_no_temp_file(tmp_path, capsys):
    corpus = tmp_path / "in" / "corpus.jsonl"
    corpus.parent.mkdir()
    _write_lines(corpus.parent, _record())
    out = tmp_path / "out"
    out.mkdir()
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert main(["validate", "--in", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Is a directory" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------

# Any Unicode but lone surrogates, which UTF-8 cannot encode, with the
# characters an encoder can get wrong drawn often: a quote, a backslash,
# control characters, U+0085, U+2028 and U+2029 (which the writer leaves raw
# inside strings) and characters outside the Basic Multilingual Plane.
_tricky = st.sampled_from(['"', "\\", "\x00", "\n", "\r", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\U0001f600"])
_text = st.text(st.one_of(_tricky, st.characters(blacklist_categories=("Cs",))), max_size=12)
_question = _text.filter(str.strip)


def _shared(draw, strategy):
    """``strategy``, or often one of up to three values drawn for the whole example, so writes meet strings again."""
    return st.one_of(st.sampled_from(draw(st.lists(strategy, min_size=1, max_size=3))), strategy)


@st.composite
def _raw_corpus(draw):
    text = _shared(draw, _text)
    turn = st.fixed_dictionaries(
        {
            "follow_up_question": _shared(draw, _question),
            "follow_up_answer": st.sampled_from(["Yes", "No", "yes", " NO ", "no"]),
        }
    )
    records = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "tree_id": text,
                    "snippet": text,
                    "question": text,
                    "scenario": text,
                    "history": st.lists(turn, max_size=3),
                    "evidence": st.lists(turn, max_size=2),
                    "answer": text,
                }
            ),
            max_size=4,
        )
    )
    ids = draw(st.lists(_text, min_size=len(records), max_size=len(records), unique=True))
    for record, uid in zip(records, ids):
        record["utterance_id"] = uid
    return records


@settings(max_examples=60, deadline=None)
@given(records=_raw_corpus(), ensure_ascii=st.booleans())
def test_load_write_round_trip_is_byte_stable(tmp_path_factory, records, ensure_ascii):
    tmp = tmp_path_factory.mktemp("round-trip")
    source = tmp / "source.jsonl"
    source.write_text(
        "".join(json.dumps(r, ensure_ascii=ensure_ascii) + "\n" for r in records), encoding="utf-8"
    )
    first, second = tmp / "first.jsonl", tmp / "second.jsonl"
    write_corpus(first, load_corpus(source))
    write_corpus(second, load_corpus(first))
    assert first.read_bytes() == second.read_bytes()
    assert [i.utterance_id for i in load_corpus(second)] == [r["utterance_id"] for r in records]
    lines = [dumps_record(instance_to_record(instance)) for instance in load_corpus(source)]
    assert first.read_bytes().decode("utf-8").split("\n") == lines + [""]


@st.composite
def _augmented_items(draw):
    text = _shared(draw, _text)
    turns = st.lists(st.builds(DialogTurn, _shared(draw, _question), st.sampled_from(["Yes", "No"])), max_size=3)
    instance = st.builds(Instance, utterance_id=_text, tree_id=text, rule_text=text, question=text, scenario=text,
                         history=turns, evidence=turns, gold_answer=text)
    permutation = st.none() | st.lists(st.integers(0, 10**6), max_size=12)  # write_augmented joins the ints itself
    return draw(st.lists(st.builds(AugmentedInstance, instance, st.sampled_from(Provenance), _text, permutation),
                         max_size=5))


_SHUFFLED = Instance("u-1", "t", "Rule", "Q?", "", [DialogTurn("B?", "No"), DialogTurn("A?", "Yes")], [], "Yes")


@settings(max_examples=60, deadline=None)
@given(items=_augmented_items())
@example(items=[AugmentedInstance(_SHUFFLED, Provenance.HISTORY_SHUFFLED, "u-0", [])])
@example(items=[AugmentedInstance(_SHUFFLED, Provenance.ORIGINAL, "u-1", None)])
def test_each_written_augmented_line_is_dumps_record_of_its_record(tmp_path_factory, items):
    path = tmp_path_factory.mktemp("augmented") / "aug.jsonl"
    write_augmented(path, items)
    lines = [dumps_record(augmented_to_record(item)) for item in items]
    assert path.read_bytes().decode("utf-8").split("\n") == lines + [""]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_text, _text, st.none() | st.integers(1, 9), st.integers(1, 6)), max_size=5))
def test_each_written_prediction_line_is_dumps_record_of_its_record(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("predictions") / "pred.jsonl"
    write_predictions(path, rows)
    lines = [dumps_record({"utterance_id": utterance_id, "answer": output}) for utterance_id, output, _, _ in rows]
    assert path.read_bytes().decode("utf-8").split("\n") == lines + [""]


@st.composite
def _marker_rows(draw):
    # Rows often share one token tuple (one rule text) and repeat marker values, as an annotated corpus does,
    # so a write meets an array and a value it has escaped before.
    token_tuples = _shared(draw, st.lists(_shared(draw, _text), max_size=6).map(tuple))
    marker = _shared(draw, st.sampled_from([MARKER_PHI, "Yes", "No"]) | _text)
    rows = []
    for utterance_id in draw(st.lists(_text, max_size=4)):
        tokens = draw(token_tuples)
        per_token = st.lists(marker, min_size=len(tokens), max_size=len(tokens))
        turns = st.lists(st.integers(0, 12), min_size=len(tokens), max_size=len(tokens))
        span = st.none() | st.tuples(st.integers(0, 99), st.integers(0, 99))
        rows.append((utterance_id, tokens, draw(per_token), draw(turns), draw(per_token), draw(span),
                     draw(st.booleans())))
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=_marker_rows())
def test_each_written_marker_line_is_dumps_of_its_record(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("markers") / "markers.jsonl"
    write_markers(path, map(escaped_row, rows))
    lines = [json.dumps(markers_record(row), ensure_ascii=False) for row in rows]
    assert path.read_bytes().decode("utf-8").split("\n") == lines + [""]


_word = st.sampled_from(["", "a", "b", "Yes", "\u2028"])
_instance = st.builds(
    Instance,
    utterance_id=_word,
    tree_id=_word,
    rule_text=_word,
    question=_word,
    scenario=_word,
    history=st.lists(st.builds(DialogTurn, _word, st.sampled_from(["Yes", "No"])), max_size=2),
    evidence=st.lists(st.builds(DialogTurn, _word, st.sampled_from(["Yes", "No"])), max_size=1),
    gold_answer=_word,
)


@given(a=_instance, b=_instance)
def test_content_key_and_content_hash_agree(a, b):
    assert (content_key(a) == content_key(b)) == (content_hash(a) == content_hash(b))


def test_content_key_sees_history_order_but_not_ids(make_instance, turn):
    t1, t2 = turn("Over 60?", "Yes"), turn("In London?", "No")
    a = make_instance(utterance_id="a", tree_id="t-1", history=[t1, t2], evidence=[t1])
    b = make_instance(utterance_id="b", tree_id="t-2", history=[t1, t2])
    c = make_instance(utterance_id="a", tree_id="t-1", history=[t2, t1], evidence=[t1])
    assert content_key(a) == content_key(b) and content_hash(a) == content_hash(b)
    assert content_key(a) != content_key(c) and content_hash(a) != content_hash(c)
