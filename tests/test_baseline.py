"""The rule-based policy: templating, decision steps, tuning, serialization."""

import itertools
import json
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from sharctool import baseline
from sharctool.corpus import (ClassLabel, CorpusError, DialogTurn, Instance, derive_label, pass_memo, tokenize,
                              write_json)
from sharctool.baseline import (
    PolicyParams,
    generate_followup,
    load_params,
    load_predictions,
    predict_corpus,
    tune,
    write_predictions,
)
from sharctool.ruleparse import Clause, ClauseKind, LogicType

from reference import decide, tune as reference_tune

CONJ_RULE = (
    "You can claim the grant if all of the following apply:\n"
    "\n"
    "* you are over 60\n"
    "* you live in England\n"
)
DISJ_RULE = (
    "You qualify if any of the following apply:\n"
    "\n"
    "* you are a carer\n"
    "* you are over 80\n"
)
UNKNOWN_RULE = "You must be a resident. You must be over 60."
SINGLE_RULE = "You can claim if you are over 60 and you live in England."

ON_TOPIC = "Can I claim the grant?"
OFF_TOPIC = "Do I need a fishing licence?"


# --------------------------------------------------------------------------
# follow-up templating
# --------------------------------------------------------------------------


def _clause(text, kind=ClauseKind.BULLET):
    return Clause(kind, text, (0, len(text)), 1)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("caring for someone 35 hours a week", "Are you caring for someone 35 hours a week?"),
        ("be over 60", "Are you over 60?"),
        ("to have a valid permit", "Are you have a valid permit?"),
        ("you live in England", "Do you live in England?"),
        ("a valid passport", "Do you get a valid passport?"),
        ("not working", "Are you working?"),  # asks the positive form
        ("- be over 60", "Are you over 60?"),  # residual bullet markers stripped
        ("you live in England.", "Do you live in England?"),  # trailing punctuation
        ("do you have a partner", "Do do you have a partner?"),
    ],
)
def test_generate_followup(text, expected):
    assert generate_followup(_clause(text)) == expected


def test_generate_followup_rejects_headers_and_empty_clauses():
    with pytest.raises(ValueError):
        generate_followup(_clause("Eligibility", kind=ClauseKind.HEADER))
    with pytest.raises(ValueError):
        generate_followup(_clause("* ..."))


# --------------------------------------------------------------------------
# decision steps
# --------------------------------------------------------------------------


def _run(make_instance, rule, params=PolicyParams(), **overrides):
    """``(output, asked ordinal, step fired)`` for one instance of ``rule``."""
    return decide(make_instance(rule_text=rule, **overrides), params)


def test_step1_offtopic_empty_context_is_irrelevant(make_instance):
    output, ordinal, step = _run(make_instance, CONJ_RULE, question=OFF_TOPIC)
    assert output == "Irrelevant"
    assert derive_label(output) is ClassLabel.IRRELEVANT
    assert (ordinal, step) == (None, 1)


def test_step1_needs_an_empty_context(make_instance):
    output, _, _ = _run(make_instance, CONJ_RULE, question=OFF_TOPIC, scenario="I am 70.")
    assert derive_label(output) is not ClassLabel.IRRELEVANT


def test_step1_spares_on_topic_questions(make_instance):
    output, ordinal, step = _run(make_instance, CONJ_RULE, question=ON_TOPIC)
    # overlap 2/9 clears the default threshold; the first bullet gets asked
    assert output == "Do you are over 60?"
    assert derive_label(output) is ClassLabel.MORE
    assert ordinal == 2  # the lead-in sentence is not askable
    assert step == 4


def test_step2_disjunctive_yes_short_circuits(make_instance, turn):
    decision = _run(
        make_instance, DISJ_RULE, question="Do I qualify?",
        history=[turn("Are you a carer?", "Yes")],
    )
    assert decision == ("Yes", None, 2)


def test_step2_conjunctive_no_short_circuits(make_instance, turn):
    decision = _run(
        make_instance, CONJ_RULE, question=ON_TOPIC,
        history=[turn("Are you over 60?", "No"), turn("Do you live in England?", "Yes")],
    )
    assert decision == ("No", None, 2)


def test_step4_skips_clauses_already_asked(make_instance, turn):
    decision = _run(
        make_instance, CONJ_RULE, question=ON_TOPIC,
        history=[turn("Are you over 60?", "Yes")],
    )
    assert decision == ("Do you live in England?", 3, 4)


def test_step4_skips_clauses_resolved_by_the_scenario(make_instance):
    decision = _run(make_instance, CONJ_RULE, question=ON_TOPIC, scenario="You are over 60.")
    assert decision == ("Do you live in England?", 3, 4)


def test_rho_s_above_one_disables_scenario_resolution(make_instance):
    params = PolicyParams(rho_s=1.01)
    decision = _run(make_instance, CONJ_RULE, question=ON_TOPIC, scenario="You are over 60.", params=params)
    assert decision == ("Do you are over 60?", 2, 4)


def test_step5_echoes_last_answer_once_budget_is_spent(make_instance, turn):
    params = PolicyParams(l_max=1)
    decision = _run(
        make_instance, UNKNOWN_RULE, question="Must I register?",
        history=[turn("Are you a resident?", "No")], params=params,
    )
    # the Unknown fallback would say Yes; the echo repeats the last answer
    assert decision == ("No", None, 5)


@pytest.mark.parametrize(
    "rule,expected",
    [
        (CONJ_RULE, "Yes"),
        (DISJ_RULE, "No"),
        (UNKNOWN_RULE, "Yes"),
        (SINGLE_RULE, "Yes"),
    ],
)
def test_step6_fallback_by_logic_type(make_instance, rule, expected):
    params = PolicyParams(l_max=0)  # no follow-up budget, no history to echo
    decision = _run(make_instance, rule, question="Am I covered?", scenario="I am 70.", params=params)
    assert decision == (expected, None, 6)


def test_predictions_are_deterministic(make_instance, turn):
    instance = make_instance(rule_text=CONJ_RULE, question=ON_TOPIC, history=[turn("Are you over 60?", "Yes")])
    assert len({decide(instance) for _ in range(5)}) == 1


# --------------------------------------------------------------------------
# batch prediction
# --------------------------------------------------------------------------


def test_predict_corpus_counts_steps(make_instance):
    corpus = [
        make_instance(utterance_id="c1", rule_text=CONJ_RULE, question=ON_TOPIC),
        make_instance(utterance_id="c2", rule_text=CONJ_RULE, question=OFF_TOPIC),
        make_instance(utterance_id="d1", rule_text=DISJ_RULE, question="Do I qualify?", scenario="x"),
    ]
    rows, steps = predict_corpus(corpus)
    assert [row[0] for row in rows] == ["c1", "c2", "d1"]
    assert rows == [(instance.utterance_id, *decide(instance)) for instance in corpus]
    assert steps.total() == 3
    assert steps[1] == 1  # the off-topic empty-context instance
    assert steps == Counter(row[3] for row in rows)


def test_predict_corpus_hands_each_prediction_to_the_sink_inside_the_pass(make_instance):
    def corpus():
        yield make_instance(utterance_id="c1", rule_text=CONJ_RULE, question=ON_TOPIC)
        yield make_instance(utterance_id="c2", rule_text=CONJ_RULE, question=OFF_TOPIC)
        raise CorpusError("record 2 is bad")

    received = []

    def sink(rows):
        for utterance_id, *_ in rows:
            assert pass_memo("tokenize") is not None
            received.append(utterance_id)
        return len(received)

    with pytest.raises(CorpusError, match="record 2"):
        predict_corpus(corpus(), sink=sink)
    assert received == ["c1", "c2"]
    assert pass_memo("tokenize") is None

    received.clear()
    counted, steps = predict_corpus([make_instance(utterance_id="c1", rule_text=CONJ_RULE)], sink=sink)
    assert counted == steps.total() == 1


def test_predictions_file_round_trip(tmp_path, make_instance):
    corpus = [
        make_instance(utterance_id="a", rule_text=CONJ_RULE, question=ON_TOPIC),
        make_instance(utterance_id="b", rule_text=CONJ_RULE, question=OFF_TOPIC),
    ]
    rows, _ = predict_corpus(corpus)
    path = tmp_path / "predictions.jsonl"
    write_predictions(path, rows)

    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert set(json.loads(line)) == {"utterance_id", "answer"}

    loaded = load_predictions(path)
    assert loaded == {utterance_id: output for utterance_id, output, _, _ in rows}


def test_params_file_round_trip(tmp_path):
    params = PolicyParams(tau_irr=0.1, rho=0.4, rho_s=1.01, l_max=8)
    path = tmp_path / "params.json"
    write_json(path, asdict(params))
    assert load_params(path) == params


@pytest.mark.parametrize(
    "body,message",
    [
        ('{"rho": 0.5, "threads": 4}', "unknown parameter 'threads'"),
        ('{"rho": "high"}', "parameter 'rho' must be a number"),
        ("[0.5]", "not a JSON object"),
        ('{"rho": ', "invalid JSON"),
        ('{"rho": \udcff}', "not valid UTF-8: 'utf-8' codec can't decode byte 0xff"),  # written as the raw byte 0xff
        ('{"tau_irr": -1, "l_max": 2.5}', "parameter 'tau_irr' must be finite and >= 0, got -1"),
        ('{"rho": NaN}', "parameter 'rho' must be finite and >= 0, got nan"),
        ('{"rho_s": Infinity}', "parameter 'rho_s' must be finite and >= 0, got inf"),
        ('{"l_max": -1}', "parameter 'l_max' must be finite and >= 0, got -1"),
        ('{"l_max": 2.5}', "parameter 'l_max' must be an integer, got 2.5"),
        ('{"l_max": 3.0}', "parameter 'l_max' must be an integer, got 3.0"),
    ],
)
def test_load_params_names_the_path_and_the_problem(tmp_path, body, message):
    path = tmp_path / "params.json"
    path.write_text(body, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError) as excinfo:
        load_params(path)
    # The decoder names the line of a byte that is not UTF-8.
    where = f"{path}:1" if "UTF-8" in message else path
    assert str(excinfo.value).startswith(f"{where}: ")
    assert message in str(excinfo.value)


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"utterance_id": "b", "answer": ', "invalid JSON"),
        ('{"utterance_id": "b"}', "field 'answer' is missing"),
        ('{"utterance_id": "b", "answer": 3}', "field 'answer' is missing or not a string"),
        ('["b", "Yes"]', "record is not an object"),
    ],
)
def test_load_predictions_names_the_path_and_line(tmp_path, line, message):
    path = tmp_path / "predictions.jsonl"
    path.write_text('{"utterance_id": "a", "answer": "Yes"}\n\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_predictions(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")
    assert message in str(excinfo.value)


def test_load_predictions_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "predictions.jsonl"
    path.write_text(
        '{"utterance_id": "a", "answer": "Yes"}\n{"utterance_id": "a", "answer": "No"}\n', encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r":2: duplicate utterance_id 'a'"):
        load_predictions(path)


# --------------------------------------------------------------------------
# tuning
# --------------------------------------------------------------------------


def _tuning_corpus(make_instance):
    return [
        make_instance(utterance_id="irr", question=OFF_TOPIC, rule_text=CONJ_RULE, gold_answer="Irrelevant"),
        make_instance(
            utterance_id="more",
            question=ON_TOPIC,
            rule_text=CONJ_RULE,
            gold_answer="Do you are over 60?",
        ),
    ]


def test_tune_picks_the_winning_threshold(make_instance):
    corpus = _tuning_corpus(make_instance)
    # tau 0.3 swallows the on-topic question (overlap 2/9 = 0.22) into
    # Irrelevant; tau 0.2 lets the policy ask the right follow-up
    result = tune(corpus, grid={"tau_irr": (0.3, 0.2)})
    assert result.best_params.tau_irr == 0.2
    assert result.best_combined == pytest.approx(100.0)
    assert result.instance_count == 2
    assert len(result.trials) == 2
    assert result.trials[0]["combined"] == pytest.approx(0.0)
    # unspecified axes keep their defaults
    assert result.best_params.rho == 0.6
    assert result.best_params.l_max == 5


def test_tune_ties_keep_the_first_grid_point(make_instance):
    corpus = _tuning_corpus(make_instance)
    result = tune(corpus, grid={"tau_irr": (0.2, 0.1)})
    assert result.best_params.tau_irr == 0.2


def test_tune_matches_live_prediction(make_instance):
    corpus = _tuning_corpus(make_instance)
    result = tune(corpus, grid={"tau_irr": (0.3, 0.2)})
    rows, _ = predict_corpus(corpus, result.best_params)
    assert {utterance_id: output for utterance_id, output, _, _ in rows} == {
        "irr": "Irrelevant",
        "more": "Do you are over 60?",
    }


def test_tune_reads_a_one_shot_stream_as_it_reads_the_list(make_instance):
    corpus = _tuning_corpus(make_instance)
    assert tune(instance for instance in corpus) == tune(corpus)


# Values at, between and around the default grid's thresholds, so every comparison goes both ways.
_FRACTIONS = st.sampled_from([0.0, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.01])


@st.composite
def _features(draw):
    clauses = draw(st.integers(0, 4))
    plan = baseline._RulePlan(
        draw(st.sampled_from(LogicType)),
        set(),
        tuple(baseline._AskableClause(ordinal, tokenize("x"), f"Ask {ordinal}?") for ordinal in range(1, clauses + 1)),
    )
    fractions = st.lists(_FRACTIONS, min_size=clauses, max_size=clauses)
    return baseline._Features(plan, draw(st.booleans()), draw(_FRACTIONS),
                              draw(st.lists(st.sampled_from(["Yes", "No"]), max_size=9)), draw(fractions),
                              draw(fractions))


_GRIDS = st.just(baseline.DEFAULT_GRID) | st.fixed_dictionaries(
    {"l_max": st.lists(st.integers(0, 9), min_size=1, max_size=3)},
    optional={name: st.lists(_FRACTIONS, min_size=1, max_size=3) for name in ("tau_irr", "rho", "rho_s")},
)


@given(grid=_GRIDS, instances=st.lists(_features(), max_size=12))
def test_the_tally_decides_each_instance_as_decide_does_at_every_grid_point(grid, instances):
    points = [PolicyParams(**dict(zip(grid, values))) for values in itertools.product(*grid.values())]
    outputs = baseline._grid_outputs(points)  # one for all instances, as tune uses it
    for features in instances:
        assert outputs(features) == tuple(baseline._decide(features, point)[0] for point in points)


# Small pools, so that many rows share their outputs. Echoed answers give class words in any case and a follow-up.
_FOLLOWUPS = ["Are you over 60?", "Are you a carer?", "Do you get it?"]
_CORPORA = st.lists(
    st.builds(
        Instance,
        utterance_id=st.just(""),
        tree_id=st.just("t-0"),
        rule_text=st.sampled_from([CONJ_RULE, DISJ_RULE, UNKNOWN_RULE, SINGLE_RULE]),
        question=st.sampled_from([ON_TOPIC, OFF_TOPIC]),
        scenario=st.sampled_from(["", "I am over 60.", "I live in England."]),
        history=st.lists(st.builds(DialogTurn, st.sampled_from(_FOLLOWUPS),
                                   st.sampled_from(["Yes", "No", " yes", "NO", "Why?"])), max_size=4),
        gold_answer=st.sampled_from(["Yes", "No", "Irrelevant", *_FOLLOWUPS]),
    ),
    min_size=1,
    max_size=30,
).map(lambda instances: [replace(inst, utterance_id=f"u-{k}") for k, inst in enumerate(instances)])


@settings(max_examples=60, deadline=None)
@given(grid=_GRIDS, corpus=_CORPORA)
def test_tune_over_merged_cells_equals_scoring_every_tally_row(grid, corpus):
    if all(instance.label is not ClassLabel.MORE for instance in corpus):
        # BLEU-4, and so the combined metric, is undefined at every grid point: both refuse to pick one
        for run in (tune, reference_tune):
            with pytest.raises(ValueError, match="^no gold answer is a follow-up question, so the combined metric"):
                run(corpus, grid=grid)
        return
    result = tune(corpus, grid=grid)
    expected = reference_tune(corpus, grid=grid)
    assert (result.trials, result.best_params, result.best_combined) == (
        expected.trials, expected.best_params, expected.best_combined)
    assert result.instance_count == expected.instance_count == len(corpus)
