"""Dataset-statistics probes on small hand-built corpora."""

import json
import math
import warnings
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from sharctool.corpus import ClassLabel, DialogTurn, Instance
from sharctool.evaluate import cells, evaluate, gold_view
from sharctool.probe import (
    AgreementStat,
    IrrelevantContextStats,
    TurnRate,
    _spearman,
    followup_rate_spearman,
    probe_corpus,
)


def test_class_distribution_percentages(make_instance):
    corpus = [
        make_instance(utterance_id="a", gold_answer="Yes"),
        make_instance(utterance_id="b", gold_answer="Yes"),
        make_instance(utterance_id="c", gold_answer="No"),
        make_instance(utterance_id="d", gold_answer="Irrelevant"),
    ]
    distribution = probe_corpus(corpus).class_distribution
    assert distribution[ClassLabel.YES] == 50.0
    assert distribution[ClassLabel.NO] == 25.0
    assert distribution[ClassLabel.IRRELEVANT] == 25.0
    assert distribution[ClassLabel.MORE] == 0.0
    assert sum(distribution.values()) == pytest.approx(100.0)


def test_class_distribution_rejects_empty_corpus():
    with pytest.raises(ValueError):
        probe_corpus([])


def test_last_followup_agreement_counts(make_instance, turn):
    corpus = [
        # agrees: gold Yes, last answer Yes
        make_instance(utterance_id="a", history=[turn("q1?", "No"), turn("q2?", "Yes")], gold_answer="Yes"),
        # disagrees: gold No, last answer Yes
        make_instance(utterance_id="b", history=[turn("q1?", "Yes")], gold_answer="No"),
        # out of scope: empty history
        make_instance(utterance_id="c", gold_answer="Yes"),
        # out of scope by default: a follow-up answer
        make_instance(utterance_id="d", history=[turn("q1?", "Yes")], gold_answer="Another question?"),
    ]
    stat = probe_corpus(corpus).last_followup_agreement
    assert (stat.numerator, stat.denominator) == (1, 2)
    assert stat.percent == pytest.approx(50.0)

    stricter = probe_corpus(corpus).last_followup_agreement_including_followups
    assert (stricter.numerator, stricter.denominator) == (1, 3)


def test_last_followup_agreement_is_position_sensitive(make_instance, turn):
    history = [turn("q1?", "Yes"), turn("q2?", "No")]
    agree = make_instance(history=history, gold_answer="No")
    disagree = make_instance(history=list(reversed(history)), gold_answer="No")
    assert probe_corpus([agree]).last_followup_agreement.percent == pytest.approx(100.0)
    assert probe_corpus([disagree]).last_followup_agreement.percent == pytest.approx(0.0)


def test_last_followup_agreement_undefined_when_empty(make_instance):
    stat = probe_corpus([make_instance(gold_answer="Yes")]).last_followup_agreement
    assert stat.percent is None
    assert stat.denominator == 0


def test_irrelevant_context_stats(make_instance, turn):
    corpus = [
        make_instance(utterance_id="a", gold_answer="Irrelevant"),  # irrelevant + empty
        make_instance(utterance_id="b", gold_answer="Irrelevant", scenario="I am 70."),
        make_instance(utterance_id="c", gold_answer="Yes"),  # empty but not irrelevant
        make_instance(utterance_id="d", gold_answer="Yes", history=[turn("q?", "Yes")]),
    ]
    stats = probe_corpus(corpus).irrelevant_context
    assert stats.irrelevant_count == 2
    assert stats.empty_context_count == 2
    assert stats.irrelevant_and_empty_context == 1
    assert stats.p_empty_context_given_irrelevant == pytest.approx(0.5)
    assert stats.p_irrelevant_given_empty_context == pytest.approx(0.5)


def test_irrelevant_context_stats_undefined_sides(make_instance):
    stats = probe_corpus([make_instance(scenario="Context.", gold_answer="Yes")]).irrelevant_context
    assert stats.p_empty_context_given_irrelevant is None
    assert stats.p_irrelevant_given_empty_context is None


def _rate_corpus(make_instance, turn, spec):
    """spec: {history_length: (followups, total)}."""
    corpus = []
    for k, (more, total) in spec.items():
        history = [turn(f"q{i}?", "Yes") for i in range(k)]
        for i in range(total):
            gold = "What else?" if i < more else "Yes"
            corpus.append(
                make_instance(utterance_id=f"u-{k}-{i}", history=list(history), gold_answer=gold)
            )
    return corpus


def test_followup_rate_by_turn(make_instance, turn):
    corpus = _rate_corpus(make_instance, turn, {0: (8, 10), 1: (5, 10), 2: (1, 10)})
    rates = probe_corpus(corpus).followup_rate_by_turn
    assert sorted(rates) == [0, 1, 2]
    assert rates[0].rate == pytest.approx(0.8)
    assert rates[1].rate == pytest.approx(0.5)
    assert rates[2].rate == pytest.approx(0.1)
    assert rates[2].followups == 1 and rates[2].total == 10


def test_spearman_perfectly_decreasing(make_instance, turn):
    corpus = _rate_corpus(make_instance, turn, {0: (9, 10), 1: (6, 10), 2: (3, 10), 3: (0, 10)})
    rates = probe_corpus(corpus).followup_rate_by_turn
    assert followup_rate_spearman(rates, min_support=10) == pytest.approx(-1.0)


def test_spearman_perfectly_increasing(make_instance, turn):
    corpus = _rate_corpus(make_instance, turn, {0: (1, 10), 1: (5, 10), 2: (9, 10)})
    rates = probe_corpus(corpus).followup_rate_by_turn
    assert followup_rate_spearman(rates, min_support=10) == pytest.approx(1.0)


def test_spearman_ignores_small_buckets(make_instance, turn):
    # the k=3 bucket would flip the sign but has too little support
    spec = {0: (9, 30), 1: (5, 30), 2: (1, 30), 3: (29, 29)}
    rates = probe_corpus(_rate_corpus(make_instance, turn, spec)).followup_rate_by_turn
    assert followup_rate_spearman(rates, min_support=30) == pytest.approx(-1.0)
    assert followup_rate_spearman(rates, min_support=29) != pytest.approx(-1.0)


def test_spearman_undefined_cases(make_instance, turn):
    one_bucket = probe_corpus(_rate_corpus(make_instance, turn, {0: (5, 40)})).followup_rate_by_turn
    assert followup_rate_spearman(one_bucket) is None
    constant = probe_corpus(
        _rate_corpus(make_instance, turn, {0: (20, 40), 1: (20, 40), 2: (20, 40)})
    ).followup_rate_by_turn
    assert followup_rate_spearman(constant) is None
    assert followup_rate_spearman({}) is None
    assert _spearman([0, 1, 2], [0.4, 0.4, 0.4]) is None
    assert _spearman([2, 2, 2], [0.1, 0.2, 0.3]) is None


# (ks, rates, closed form, the float scipy.stats.spearmanr returns). The
# closed forms are worked out by hand from average ranks; the exact floats
# pin the operation order, which moves the last bit.
SPEARMAN_FIXTURES = {
    "ties in the rates": ([0, 1, 2, 3], [0.5, 0.2, 0.2, 0.1], -math.sqrt(0.9), -0.9486832980505139),
    "ties in k": ([1, 1, 2, 3], [0.1, 0.3, 0.2, 0.4], math.sqrt(0.4), 0.632455532033676),
    "ties in both": ([0, 0, 1, 1], [0.2, 0.2, 0.2, 0.5], 1 / math.sqrt(3), 0.5773502691896257),
    "order-sensitive": (
        [0, 1, 2, 3, 4, 5], [0.7, 0.2, 0.0, 0.4, 0.0, 0.5], -3.5 / math.sqrt(297.5), -0.20291986247835697,
    ),
    "two points": ([0, 1], [0.3, 0.7], 1.0, 0.9999999999999999),
    "perfect +1": ([0, 1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4, 0.5], 1.0, 0.9999999999999999),
    "perfect -1": ([0, 1, 2, 3, 4], [0.9, 0.7, 0.5, 0.3, 0.1], -1.0, -0.9999999999999999),
}


@pytest.mark.parametrize("ks,rates,closed_form,exact", SPEARMAN_FIXTURES.values(), ids=list(SPEARMAN_FIXTURES))
def test_spearman_fixtures(ks, rates, closed_form, exact):
    rho = _spearman(ks, rates)
    assert rho == pytest.approx(closed_form, abs=1e-15)
    assert rho == exact
    if len(set(ks)) == len(ks):  # distinct ks: the same through the public probe
        buckets = {k: TurnRate(rate=r, followups=0, total=30) for k, r in zip(ks, rates)}
        assert followup_rate_spearman(buckets) == exact


@pytest.fixture(scope="module")
def spearmanr():
    return pytest.importorskip("scipy.stats").spearmanr


def _scipy_rho(spearmanr, xs, ys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input: scipy warns and returns nan
        rho = spearmanr(xs, ys).statistic
    return None if math.isnan(rho) else float(rho)


# Small integer grids, so ties in either series are common.
_SERIES = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 7)), min_size=2, max_size=40)


@given(series=_SERIES)
def test_spearman_is_scipys_float(spearmanr, series):
    xs = [x for x, _ in series]
    ys = [y / 7 for _, y in series]
    assert _spearman(xs, ys) == _scipy_rho(spearmanr, xs, ys)


@given(buckets=st.dictionaries(st.integers(0, 60), st.integers(0, 30), max_size=40))
def test_followup_rate_spearman_is_scipys_float(spearmanr, buckets):
    rates = {k: TurnRate(rate=f / 30, followups=f, total=30) for k, f in buckets.items()}
    expected = None
    if len(rates) >= 2:
        ks = sorted(rates)
        expected = _scipy_rho(spearmanr, ks, [rates[k].rate for k in ks])
    assert followup_rate_spearman(rates) == expected


def test_probe_corpus_assembles_everything(make_instance, turn):
    corpus = _rate_corpus(make_instance, turn, {0: (8, 10), 1: (2, 10)})
    report = probe_corpus(corpus, split_name="toy", min_support=10)
    assert report.split_name == "toy"
    assert report.instance_count == 20
    assert report.class_counts[ClassLabel.MORE] == 10
    assert report.followup_rate_spearman == pytest.approx(-1.0)
    payload = json.loads(json.dumps(asdict(report)))  # what probe.json holds
    assert payload["class_distribution"]["More"] == pytest.approx(50.0)
    assert payload["followup_rate_by_turn"]["0"]["total"] == 10
    assert payload["last_followup_agreement"]["denominator"] == 8


def test_probe_corpus_derives_each_class_once(make_instance, turn, monkeypatch):
    import sharctool.corpus

    calls = []
    derive = sharctool.corpus.derive_label

    def counting(answer):
        calls.append(answer)
        return derive(answer)

    monkeypatch.setattr(sharctool.corpus, "derive_label", counting)
    answers = ["Yes", "No", "Irrelevant", "Do you work?", " yes ", "Are you 60?"]
    corpus = [
        make_instance(
            utterance_id=f"u-{i}",
            scenario="I am 70." if i % 2 else "",
            history=[turn("Over 60?", "Yes" if i % 3 else "No")] * (i % 3),
            gold_answer=answer,
        )
        for i, answer in enumerate(answers * 5)
    ]
    probe_corpus(corpus, split_name="fixture", min_support=1)
    assert 0 < len(calls) <= len(corpus)


# --------------------------------------------------------------------------
# Reference: each statistic as its own loop over the corpus
# --------------------------------------------------------------------------


def _reference_class_counts(corpus):
    counts = {label: 0 for label in ClassLabel}
    for instance in corpus:
        counts[instance.label] += 1
    return counts


def _reference_class_distribution(corpus):
    if not corpus:
        raise ValueError("cannot compute a class distribution over an empty corpus")
    total = len(corpus)
    return {label: 100.0 * count / total for label, count in _reference_class_counts(corpus).items()}


def _reference_agreement(corpus, include_followup_labels=False):
    numerator = 0
    denominator = 0
    for instance in corpus:
        if not instance.history:
            continue
        label = instance.label
        if label not in (ClassLabel.YES, ClassLabel.NO) and not include_followup_labels:
            continue
        if label is ClassLabel.IRRELEVANT:
            continue
        denominator += 1
        if label.value == instance.history[-1].follow_up_answer:
            numerator += 1
    percent = 100.0 * numerator / denominator if denominator else None
    return AgreementStat(percent=percent, numerator=numerator, denominator=denominator)


def _reference_irrelevant_context(corpus):
    irrelevant = 0
    empty_context = 0
    both = 0
    for instance in corpus:
        is_irrelevant = instance.label is ClassLabel.IRRELEVANT
        is_empty = instance.has_empty_context
        irrelevant += is_irrelevant
        empty_context += is_empty
        both += is_irrelevant and is_empty
    return IrrelevantContextStats(
        p_empty_context_given_irrelevant=both / irrelevant if irrelevant else None,
        p_irrelevant_given_empty_context=both / empty_context if empty_context else None,
        irrelevant_count=irrelevant,
        empty_context_count=empty_context,
        irrelevant_and_empty_context=both,
    )


def _reference_rate_by_turn(corpus):
    followups = {}
    totals = {}
    for instance in corpus:
        k = len(instance.history)
        totals[k] = totals.get(k, 0) + 1
        if instance.label is ClassLabel.MORE:
            followups[k] = followups.get(k, 0) + 1
    return {
        k: TurnRate(rate=followups.get(k, 0) / total, followups=followups.get(k, 0), total=total)
        for k, total in sorted(totals.items())
    }


def _reference_report(corpus, split_name, min_support):
    """The probe report's JSON document, built key by key from the reference loops."""

    def agreement(stat):
        return {"percent": stat.percent, "numerator": stat.numerator, "denominator": stat.denominator}

    context = _reference_irrelevant_context(corpus)
    rates = _reference_rate_by_turn(corpus)
    return {
        "split_name": split_name,
        "instance_count": len(corpus),
        "class_distribution": {k.value: v for k, v in _reference_class_distribution(corpus).items()},
        "class_counts": {k.value: v for k, v in _reference_class_counts(corpus).items()},
        "last_followup_agreement": agreement(_reference_agreement(corpus)),
        "last_followup_agreement_including_followups": agreement(_reference_agreement(corpus, True)),
        "irrelevant_context": {
            "p_empty_context_given_irrelevant": context.p_empty_context_given_irrelevant,
            "p_irrelevant_given_empty_context": context.p_irrelevant_given_empty_context,
            "irrelevant_count": context.irrelevant_count,
            "empty_context_count": context.empty_context_count,
            "irrelevant_and_empty_context": context.irrelevant_and_empty_context,
        },
        "followup_rate_by_turn": {
            str(k): {"rate": tr.rate, "followups": tr.followups, "total": tr.total} for k, tr in rates.items()
        },
        "followup_rate_spearman": followup_rate_spearman(rates, min_support=min_support),
        "min_support": min_support,
        "notes": [],
    }


# Few distinct values per field, so classes, history lengths, last answers
# and empty contexts collide often and every denominator can be empty.
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["Yes", "No", "Irrelevant", " yes ", "Do you work?", "Are you 60?"]),
        st.sampled_from(["", "  ", "I am 70."]),
        st.lists(st.sampled_from(["Yes", "No"]), max_size=4),
    ),
    max_size=40,
)


def _corpus(rows):
    return [
        Instance(f"u-{i}", "t-0", "You can claim if you are over 60.", "Can I claim?", scenario,
                 [DialogTurn(f"q{j}?", answer) for j, answer in enumerate(answers)], [], gold)
        for i, (gold, scenario, answers) in enumerate(rows)
    ]


@given(rows=_ROWS, min_support=st.integers(0, 4))
def test_every_statistic_equals_its_reference_loop(rows, min_support):
    corpus = _corpus(rows)
    if not corpus:
        with pytest.raises(ValueError, match="empty corpus"):
            probe_corpus(corpus)
        return
    report = probe_corpus(corpus, split_name="gen", min_support=min_support)
    assert report.last_followup_agreement == _reference_agreement(corpus)
    assert report.last_followup_agreement_including_followups == _reference_agreement(corpus, True)
    assert report.irrelevant_context == _reference_irrelevant_context(corpus)
    assert report.followup_rate_by_turn == _reference_rate_by_turn(corpus)
    assert report.class_distribution == _reference_class_distribution(corpus)
    # Serialized, so the key order of probe.json is compared too.
    assert json.dumps(asdict(report)) == json.dumps(_reference_report(corpus, "gen", min_support))


@given(rows=_ROWS.filter(bool))
def test_a_one_shot_stream_gives_what_the_list_gives(rows):
    corpus = _corpus(rows)
    assert probe_corpus(instance for instance in corpus) == probe_corpus(corpus)
    # Every third prediction echoes the gold answer; the rest say Yes.
    outputs = {inst.utterance_id: inst.gold_answer if i % 3 else "Yes" for i, inst in enumerate(corpus)}
    streamed = asdict(evaluate(cells(gold_view(instance for instance in corpus), outputs)))
    assert streamed == asdict(evaluate(cells(gold_view(corpus), outputs)))
