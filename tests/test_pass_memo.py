"""The pass-scoped memo: same results inside a pass as outside, nothing kept after."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from sharctool import baseline, evaluate as evaluate_module
from sharctool.baseline import PolicyParams, predict_corpus, tune
from sharctool.corpus import PASS_KINDS, ClassLabel, Memo, corpus_pass, pass_memo, tokenize
from sharctool.evaluate import bleu, cells, evaluate, gold_view
from sharctool.markers import (
    BASIC_STOPWORDS,
    annotate_corpus,
    lcs_match,
    write_markers,
)
from sharctool.ruleparse import ClauseKind, parse_rule
from sharctool.synthcorpus import SplitSpec, generate_split

from reference import annotate_history, decide, escaped_row, extract_gold_span, markers_record

MEMO_SPEC = SplitSpec(
    name="memotoy",
    seed=23,
    class_counts={
        ClassLabel.IRRELEVANT: 10,
        ClassLabel.YES: 30,
        ClassLabel.NO: 30,
        ClassLabel.MORE: 30,
    },
    tree_count=40,
)
KINDS = ("tokenize", "coverage", "bleu")
SMALL_GRID = {"tau_irr": (0.1, 0.3), "rho": (0.4, 0.8), "l_max": (3, 8)}


@pytest.fixture(scope="module")
def corpus():
    return generate_split(MEMO_SPEC)


def _memo_is_empty():
    return all(pass_memo(kind) is None for kind in KINDS)


# --------------------------------------------------------------------------
# the one memo type
# --------------------------------------------------------------------------


@given(st.lists(st.integers(-3, 3), max_size=30))
def test_memo_computes_each_key_exactly_once(keys):
    computed = []
    memo = Memo(lambda key: computed.append(key) or key * key)
    assert [memo[key] for key in keys] == [key * key for key in keys]
    assert computed == list(dict.fromkeys(keys))  # each key once, at its first lookup
    assert memo == {key: key * key for key in keys}


def test_every_kind_computes_each_entry_once_in_a_pass_over_the_corpus(corpus, monkeypatch):
    computed = dict.fromkeys(KINDS, 0)

    def counted(kind, compute):
        def wrapper(key):
            computed[kind] += 1
            return compute(key)

        return wrapper

    assert set(PASS_KINDS) == set(KINDS)
    for kind in KINDS:
        monkeypatch.setitem(PASS_KINDS, kind, counted(kind, PASS_KINDS[kind]))
    with corpus_pass():
        annotate_corpus(corpus)
        rows, _ = predict_corpus(corpus)
        tune(corpus, grid=SMALL_GRID)
        evaluate(cells(gold_view(corpus), {utterance_id: output for utterance_id, output, _, _ in rows}))
        tables = {kind: pass_memo(kind) for kind in KINDS}
    assert all(isinstance(table, Memo) for table in tables.values())
    assert {kind: len(table) for kind, table in tables.items()} == computed
    assert all(computed.values())
    assert _memo_is_empty()


# --------------------------------------------------------------------------
# lifetime
# --------------------------------------------------------------------------


def test_memo_exists_only_inside_a_pass():
    assert _memo_is_empty()
    assert tokenize("a b") is not tokenize("a b")
    with corpus_pass():
        assert tokenize("a b") is tokenize("a b")
        assert "a b" in pass_memo("tokenize")
    assert _memo_is_empty()


def test_memo_is_dropped_when_the_pass_raises():
    with pytest.raises(AttributeError):
        annotate_corpus([object()])
    assert _memo_is_empty()
    with pytest.raises(RuntimeError):
        with corpus_pass():
            lcs_match(tokenize("a b"), tokenize("b"))
            raise RuntimeError("boom")
    assert _memo_is_empty()


def test_nested_pass_shares_and_keeps_the_outer_memo():
    with corpus_pass():
        outer = tokenize("x y")
        with corpus_pass():
            assert tokenize("x y") is outer
        assert pass_memo("tokenize")["x y"] is outer
    assert _memo_is_empty()


def test_memoized_lcs_match_returns_a_fresh_list_per_call():
    rule, question = tokenize("you live in England"), tokenize("Do you live in England?")
    with corpus_pass():
        first = lcs_match(rule, question)
        first.clear()
        assert lcs_match(rule, question) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_lcs_modes_do_not_share_entries():
    rule, question = tokenize("Do you live in England"), tokenize("do YOU live in england?")
    modes = [
        {},
        {"use_normalized": False},
        {"stopwords": BASIC_STOPWORDS},
        {"use_normalized": False, "stopwords": BASIC_STOPWORDS},
    ]
    outside = [lcs_match(rule, question, **mode) for mode in modes]
    with corpus_pass():
        inside = [lcs_match(rule, question, **mode) for mode in modes]
    assert inside == outside
    assert len({tuple(pairs) for pairs in outside}) > 1


# --------------------------------------------------------------------------
# corpus passes agree with the per-instance functions
# --------------------------------------------------------------------------


def _annotated_alone(instance, mode):
    """An instance's ``annotate_corpus`` row in plain values, from the per-instance annotators outside any pass."""
    rule = tokenize(instance.rule_text)
    history_marker, turn_index = annotate_history(rule, instance.history, **mode)
    more = instance.label is ClassLabel.MORE
    gold_span = extract_gold_span(rule, instance.gold_answer, **mode) if more else None
    return (instance.utterance_id, rule.surfaces, history_marker, turn_index,
            annotate_history(rule, instance.evidence, **mode)[0], gold_span, more and gold_span is None)


_ANNOTATE_MODES = pytest.mark.parametrize(
    "mode", [{}, {"use_normalized": False}, {"stopwords": BASIC_STOPWORDS}], ids=["default", "raw", "stopwords"]
)


@_ANNOTATE_MODES
def test_annotate_corpus_matches_per_instance_annotators(corpus, mode):
    rows, _ = annotate_corpus(corpus, **mode)
    assert _memo_is_empty()
    for instance, row in zip(corpus, rows, strict=True):
        utterance_id, tokens, history_marker, turn_index, scenario_marker, gold_span, flagged = row
        rule = tokenize(instance.rule_text)
        assert (utterance_id, tokens) == (instance.utterance_id, rule.surfaces)
        expected = escaped_row(_annotated_alone(instance, mode))  # the arrays in their JSON form
        assert (history_marker, turn_index) == expected[2:4]
        assert scenario_marker == expected[4]
        more = instance.label is ClassLabel.MORE
        assert gold_span == (extract_gold_span(rule, instance.gold_answer, **mode) if more else None)
        assert flagged == (more and gold_span is None)


@_ANNOTATE_MODES
def test_written_annotate_rows_are_the_per_instance_records(corpus, mode, tmp_path):
    annotate_corpus(corpus, **mode, sink=lambda rows: write_markers(tmp_path / "markers.jsonl", rows))
    lines = [json.dumps(markers_record(_annotated_alone(instance, mode)), ensure_ascii=False) for instance in corpus]
    assert (tmp_path / "markers.jsonl").read_text(encoding="utf-8").split("\n") == lines + [""]


def test_predict_corpus_matches_deciding_each_instance_alone(corpus):
    params = PolicyParams(tau_irr=0.3, rho=0.4, rho_s=0.6, l_max=3)
    rows, _ = predict_corpus(corpus, params)
    assert _memo_is_empty()
    assert rows == [(instance.utterance_id, *decide(instance, params)) for instance in corpus]


def test_tune_matches_evaluate_outside_a_pass(corpus):
    result = tune(corpus, grid=SMALL_GRID)
    assert _memo_is_empty()
    assert len(result.trials) == 8
    gold = gold_view(corpus)
    for trial in result.trials:
        params = PolicyParams(**trial["params"])
        outputs = {i.utterance_id: decide(i, params)[0] for i in corpus}
        report = evaluate(cells(gold, outputs))
        assert (trial["combined"], trial["micro"]) == (report.combined, report.micro_accuracy)


@pytest.mark.parametrize(
    "run", [lambda corpus: predict_corpus(corpus), lambda corpus: tune(corpus, grid=SMALL_GRID)],
    ids=["predict_corpus", "tune"],
)
def test_per_rule_work_runs_once_per_distinct_rule_text(corpus, run, monkeypatch):
    calls = {"parse_rule": 0, "generate_followup": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(baseline, name, counted(name, getattr(baseline, name)))
    run(corpus)
    rule_texts = {instance.rule_text for instance in corpus}
    # every askable clause is a non-header clause
    non_header = sum(
        1 for text in rule_texts for clause in parse_rule(text).clauses if clause.kind is not ClauseKind.HEADER
    )
    assert len(rule_texts) < len(corpus)
    assert calls["parse_rule"] <= len(rule_texts)
    assert 0 < calls["generate_followup"] <= non_header


def test_evaluate_reads_one_gold_view_per_corpus_in_a_pass(corpus):
    golds = [(gold, gold_view(gold)) for gold in (corpus, corpus[::2])]
    runs = []
    for params in (PolicyParams(), PolicyParams(tau_irr=0.3, rho=0.4, rho_s=0.6, l_max=3)):
        for gold, view in golds:
            outputs = {i.utterance_id: decide(i, params)[0] for i in gold}
            runs.append((gold, view, outputs))
    outside = [asdict(evaluate(cells(gold_view(gold), outputs))) for gold, _, outputs in runs]
    with corpus_pass():
        inside = [asdict(evaluate(cells(view, outputs))) for _, view, outputs in runs]
    assert inside == outside
    assert _memo_is_empty()


# --------------------------------------------------------------------------
# BLEU statistics
# --------------------------------------------------------------------------


def test_one_evaluate_outside_a_pass_counts_each_distinct_pair_once(corpus, monkeypatch):
    calls = []

    def counted(pair):
        calls.append(pair)
        return evaluate_module._pair_stats(pair)

    monkeypatch.setitem(PASS_KINDS, "bleu", counted)
    outputs = {instance.utterance_id: decide(instance)[0] for instance in corpus}
    drawn = list(cells(gold_view(corpus), outputs))
    report = evaluate(drawn)
    pairs = [(output, followup) for (_, followup, output), _ in drawn if followup is not None]
    assert len(set(pairs)) < len(pairs) == report.bleu_instance_count
    assert sorted(calls) == sorted(set(pairs))
    assert _memo_is_empty()

_TEXTS = st.one_of(
    st.sampled_from(["", " ", "?", "## *", "...", "Do you live in England?", "do you live in england"]),
    st.text(alphabet="ab .?#'", max_size=16),
    st.lists(st.sampled_from("you live in England over 60 ?".split()), max_size=8).map(" ".join),
)
_PAIRS = st.lists(st.tuples(_TEXTS, _TEXTS), min_size=1, max_size=6)


def _scores(pairs):
    return (
        bleu(pairs, max_order=1),
        bleu(pairs),
        bleu(pairs, sentence_average=True),
        bleu(pairs, max_order=1, sentence_average=True),
    )


@given(_PAIRS)
def test_bleu_is_the_same_float_inside_and_outside_a_pass(pairs):
    doubled = pairs + pairs
    outside = (_scores(pairs), _scores(doubled))
    with corpus_pass():
        inside = (_scores(pairs), _scores(doubled))  # the second set reads the memo
    assert inside == outside
