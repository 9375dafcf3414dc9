"""Scoring: confusion counts, accuracies, corpus BLEU, combined metric."""

import math
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from sharctool.corpus import ClassLabel, read_json, write_json
from sharctool.evaluate import (
    EvalReport,
    bleu,
    cells,
    combined_metric,
    evaluate,
    gold_view,
    macro_accuracy,
    micro_accuracy,
    per_class_accuracy,
    render_report,
)


def _toy_eval(make_instance, turn):
    gold = [
        make_instance(utterance_id="y1", gold_answer="Yes"),
        make_instance(utterance_id="y2", gold_answer="Yes"),
        make_instance(utterance_id="n1", gold_answer="No"),
        make_instance(utterance_id="m1", gold_answer="Where do you live?"),
    ]
    predictions = {
        "y1": "Yes",
        "y2": "yes",  # class words are matched case-insensitively
        "n1": "Could you repeat that?",  # free text counts as a follow-up
        "m1": "Where do you live?",
    }
    return gold, predictions


# --------------------------------------------------------------------------
# classification metrics
# --------------------------------------------------------------------------


def test_confusion_matrix_counts(make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    matrix = evaluate(cells(gold_view(gold), predictions)).confusion
    assert matrix[ClassLabel.YES][ClassLabel.YES] == 2
    assert matrix[ClassLabel.NO][ClassLabel.MORE] == 1
    assert matrix[ClassLabel.NO][ClassLabel.NO] == 0
    assert matrix[ClassLabel.MORE][ClassLabel.MORE] == 1
    assert sum(sum(row.values()) for row in matrix.values()) == 4


def test_confusion_matrix_requires_exact_id_cover(make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    with pytest.raises(ValueError, match=r"^predictions missing 1 ids \(e\.g\. \['y1'\]\)$"):
        evaluate(cells(gold_view(gold), {k: v for k, v in predictions.items() if k != "y1"}))
    with pytest.raises(ValueError, match=r"^predictions contain 1 unknown ids \(e\.g\. \['ghost'\]\)$"):
        evaluate(cells(gold_view(gold), {**predictions, "ghost": "Yes"}))
    with pytest.raises(ValueError, match="duplicate"):
        gold_view(gold + [gold[0]])


def test_accuracies(make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    matrix = evaluate(cells(gold_view(gold), predictions)).confusion
    assert micro_accuracy(matrix) == pytest.approx(75.0)
    recalls = per_class_accuracy(matrix)
    assert recalls[ClassLabel.YES] == pytest.approx(100.0)
    assert recalls[ClassLabel.NO] == pytest.approx(0.0)
    assert recalls[ClassLabel.MORE] == pytest.approx(100.0)
    assert recalls[ClassLabel.IRRELEVANT] is None
    # macro averages only over classes present in the gold set
    assert macro_accuracy(matrix) == pytest.approx(200.0 / 3.0)


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


def test_bleu_exact_match_is_100_in_both_orders():
    sentence = "do you get benefits"
    assert bleu([(sentence, sentence)], max_order=1) == pytest.approx(100.0)
    assert bleu([(sentence, sentence)], max_order=4) == pytest.approx(100.0)


def test_bleu1_subset_candidate():
    # candidate misses one reference word: unigram precision 1, brevity 4/5
    score = bleu([("do you get benefits", "do you get housing benefits")], max_order=1)
    assert score == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0))
    assert score == pytest.approx(77.88, abs=0.01)


def test_bleu1_is_direction_sensitive():
    # swapped: precision 4/5, no brevity penalty for a longer candidate
    score = bleu([("do you get housing benefits", "do you get benefits")], max_order=1)
    assert score == pytest.approx(80.0)


def test_bleu_short_exact_pairs_ignore_vacuous_orders():
    assert bleu([("yes", "yes")], max_order=4) == pytest.approx(100.0)


def test_bleu_zero_overlap_is_zero():
    assert bleu([("a b", "c d")], max_order=4) == 0.0


def test_bleu_empty_pair_set_is_none():
    assert bleu([], max_order=4) is None


def test_bleu_pools_counts_across_pairs():
    pairs = [("a b", "a b"), ("a x", "a b")]
    pooled = bleu(pairs, max_order=2)
    # unigrams 3/4, bigrams 1/2, no brevity penalty
    assert pooled == pytest.approx(100.0 * math.sqrt(0.75 * 0.5))
    averaged = bleu(pairs, max_order=2, sentence_average=True)
    assert averaged == pytest.approx(50.0)  # (100 + 0) / 2


def test_bleu_rejects_bad_order():
    with pytest.raises(ValueError):
        bleu([("a", "a")], max_order=0)


_SENTENCES = st.lists(
    st.sampled_from("alpha beta gamma delta".split()), min_size=1, max_size=6
).map(" ".join)


@given(_SENTENCES)
def test_bleu_identity_is_always_100(sentence):
    assert bleu([(sentence, sentence)]) == pytest.approx(100.0)


@given(st.lists(st.tuples(_SENTENCES, _SENTENCES), min_size=1, max_size=5))
def test_bleu_is_invariant_under_pair_duplication(pairs):
    assert bleu(pairs + pairs) == pytest.approx(bleu(pairs))


# --------------------------------------------------------------------------
# combined metric
# --------------------------------------------------------------------------


def test_combined_metric_products():
    assert combined_metric(71.25, 47.78) == pytest.approx(34.04, abs=0.01)
    assert combined_metric(44.09, 21.24) == pytest.approx(9.36, abs=0.01)
    assert combined_metric(None, 50.0) is None
    assert combined_metric(50.0, None) is None


# --------------------------------------------------------------------------
# evaluate + reports
# --------------------------------------------------------------------------


def test_evaluate_end_to_end(make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    report = evaluate(cells(gold_view(gold), predictions))
    assert report.instance_count == 4
    assert report.micro_accuracy == pytest.approx(75.0)
    assert report.macro_accuracy == pytest.approx(200.0 / 3.0)
    assert report.bleu_instance_count == 1
    assert report.bleu1 == pytest.approx(100.0)
    assert report.bleu4 == pytest.approx(100.0)
    assert report.combined == pytest.approx(200.0 / 3.0)
    assert report.per_class_accuracy["Irrelevant"] is None


def test_evaluate_without_followups_leaves_bleu_undefined(make_instance):
    gold = [
        make_instance(utterance_id="y1", gold_answer="Yes"),
        make_instance(utterance_id="n1", gold_answer="No"),
    ]
    report = evaluate(cells(gold_view(gold), {"y1": "Yes", "n1": "No"}))
    assert report.micro_accuracy == pytest.approx(100.0)
    assert report.bleu1 is None
    assert report.bleu4 is None
    assert report.combined is None
    assert report.bleu_instance_count == 0


_CELLS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([ClassLabel.YES, ClassLabel.NO, ClassLabel.IRRELEVANT]).map(lambda label: (label, None)),
            st.sampled_from(["Do you live in England?", "Are you over 60?"]).map(lambda f: (ClassLabel.MORE, f)),
        ),
        st.sampled_from(["Yes", "no", "IRRELEVANT", "Do you live in England?", "are you over 60", "?"]),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=12,
).map(lambda rows: [((label, followup, output), count) for (label, followup), output, count in rows])


@given(_CELLS)
def test_merging_equal_cells_leaves_every_score_as_it_is(drawn):
    merged = Counter()
    for cell, count in drawn:
        merged[cell] += count
    assert asdict(evaluate(drawn)) == asdict(evaluate(merged.items()))


def test_render_report_smoke(make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    text = render_report(evaluate(cells(gold_view(gold), predictions)), title="toy")
    assert "== toy (4 instances) ==" in text
    assert "micro" in text and "combined" in text
    assert "recall --" in text  # the Irrelevant row is undefined


def test_report_round_trip(tmp_path, make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    report = evaluate(cells(gold_view(gold), predictions))
    path = tmp_path / "report.json"
    write_json(path, asdict(report))
    payload = read_json(path)
    assert payload["micro_accuracy"] == pytest.approx(75.0)
    assert payload["confusion"]["Yes"]["Yes"] == 2
    assert payload["per_class_accuracy"]["Irrelevant"] is None
    assert payload["bleu_instance_count"] == 1


def test_a_report_takes_its_fields_by_keyword_only(make_instance, turn):
    gold, predictions = _toy_eval(make_instance, turn)
    fields = asdict(evaluate(cells(gold_view(gold), predictions)))
    assert EvalReport(**fields) == evaluate(cells(gold_view(gold), predictions))
    with pytest.raises(TypeError):
        EvalReport(*fields.values())
