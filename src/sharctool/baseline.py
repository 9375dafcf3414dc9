"""A deterministic rule-based policy built to exploit the corpus clues.

The policy answers from surface signals only: an empty context with low
question/rule overlap means Irrelevant, a single decisive history answer
short-circuits cued conjunctive/disjunctive rules, uncovered clauses get a
templated follow-up while the turn budget lasts, and otherwise the last
follow-up answer is echoed. Every threshold is an exposed parameter so the
policy can be tuned by grid search and ablated.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .corpus import (
    ClassLabel,
    Instance,
    Memo,
    TokenizedText,
    corpus_pass,
    derive_label,
    read_json,
    read_jsonl,
    tokenize,
    write_jsonl,
)
from .evaluate import evaluate
from .markers import content_words, coverage, jaccard
from .ruleparse import Clause, ClauseKind, CueSet, DEFAULT_CUES, LogicType, RuleStructure, parse_rule

__all__ = [
    "PolicyParams",
    "TuneResult",
    "generate_followup",
    "load_params",
    "load_predictions",
    "predict_corpus",
    "tune",
    "write_predictions",
]

_T = TypeVar("_T")
_Row = tuple[str, str, Optional[int], int]  # (utterance_id, output, asked ordinal or None, step fired)


@dataclass(frozen=True)
class PolicyParams:
    """Thresholds of the rule-based policy."""

    tau_irr: float = 0.2  # Jaccard overlap below which an empty-context question is off-topic
    rho: float = 0.6  # LCS coverage at which a clause counts as asked
    rho_s: float = 0.6  # scenario coverage at which a clause counts as resolved (1.01 disables)
    l_max: int = 5  # stop asking follow-ups once the history reaches this many turns


# --------------------------------------------------------------------------
# Follow-up templating
# --------------------------------------------------------------------------

_BULLET_MARKER_RE = re.compile(r"^[*\-•]+\s*")
_GERUND_RE = re.compile(r"^\w{3,}ing$")


def generate_followup(clause: Clause) -> str:
    """Turn a clause into a yes/no follow-up question.

    A verb phrase led by a gerund, bare ``be``, or ``to``-infinitive becomes
    "Are you ...?", a clause already containing the pronoun "you" becomes
    "Do ...?", and a bare noun phrase becomes "Do you get ...?". A leading
    "not" is dropped so the question asks the positive form.
    """
    if clause.kind is ClauseKind.HEADER:
        raise ValueError("header clauses cannot be asked as follow-ups")
    text = _BULLET_MARKER_RE.sub("", clause.text.strip()).strip().rstrip(".!?:;,").strip()
    if not text:
        raise ValueError("cannot build a follow-up from an empty clause")
    words = text.split()
    if words[0].lower() == "not" and len(words) > 1:
        words = words[1:]
        text = " ".join(words)
    first = words[0].lower()
    if _GERUND_RE.match(first):
        question = f"Are you {text}?"
    elif first in ("be", "to") and len(words) > 1:
        question = f"Are you {' '.join(words[1:])}?"
    elif "you" in tokenize(text).matchable()[1]:
        question = f"Do {text}?"
    else:
        question = f"Do you get {text}?"
    return question[0].upper() + question[1:]


# --------------------------------------------------------------------------
# Decision
# --------------------------------------------------------------------------


def _is_lead_in(clause: Clause) -> bool:
    """Sentence clauses ending in a colon introduce a list; they are not conditions."""
    return clause.kind is ClauseKind.SENTENCE and clause.text.rstrip().endswith(":")


@dataclass(frozen=True)
class _AskableClause:
    ordinal: int
    tokens: TokenizedText  # at least one token is matchable
    followup: str


@dataclass(frozen=True)
class _RulePlan:
    """What the policy reads from one rule text, built once per distinct text."""

    logic: LogicType
    content: set[str]  # the rule's content tokens, for question overlap
    clauses: tuple[_AskableClause, ...]  # askable clauses in document order


def _plan(rule_text: str, structure: RuleStructure) -> _RulePlan:
    clauses = []
    for clause in structure.clauses:
        if clause.kind is ClauseKind.HEADER or _is_lead_in(clause):
            continue
        tokens = tokenize(clause.text)
        if tokens.matchable()[0]:
            clauses.append(_AskableClause(clause.ordinal, tokens, generate_followup(clause)))
    return _RulePlan(structure.logic, content_words(tokenize(rule_text)), tuple(clauses))


@dataclass
class _Features:
    """Everything threshold-free that the decision steps consume."""

    plan: _RulePlan
    empty_context: bool
    question_overlap: float
    answers: list[str]
    asked_fraction: list[float]  # per plan clause: best LCS coverage by a history question
    scenario_fraction: list[float]  # per plan clause: LCS coverage by the scenario


def _features(instance: Instance, plan: _RulePlan) -> _Features:
    history = [tokenize(turn.follow_up_question) for turn in instance.history]
    scenario = tokenize(instance.scenario) if instance.scenario.strip() else None
    return _Features(
        plan=plan,
        empty_context=instance.has_empty_context,
        question_overlap=jaccard(content_words(tokenize(instance.question)), plan.content),
        answers=[turn.follow_up_answer for turn in instance.history],
        asked_fraction=[max((coverage(c.tokens, q) for q in history), default=0.0) for c in plan.clauses],
        scenario_fraction=[0.0 if scenario is None else coverage(c.tokens, scenario) for c in plan.clauses],
    )


def _corpus_features(corpus: Iterable[Instance], cues: CueSet) -> Iterator[tuple[Instance, _Features]]:
    """Yield each instance with its features inside one corpus pass, planning each distinct rule text once."""
    plans = Memo(lambda rule_text: _plan(rule_text, parse_rule(rule_text, cues)))
    with corpus_pass():
        for instance in corpus:
            yield instance, _features(instance, plans[instance.rule_text])


_FALLBACK_OUTPUT = {
    LogicType.DISJUNCTIVE: "No",  # nothing satisfied any clause
    LogicType.CONJUNCTIVE: "Yes",  # nothing violated any clause
    LogicType.SINGLE: "Yes",
    LogicType.UNKNOWN: "Yes",
}


def _decide(features: _Features, params: PolicyParams) -> tuple[str, Optional[int], int]:
    """Apply the six policy steps; returns (output, asked ordinal, step fired)."""
    logic = features.plan.logic
    # (1) empty context + off-topic question
    if features.empty_context and features.question_overlap < params.tau_irr:
        return ClassLabel.IRRELEVANT.value, None, 1
    # (2) decisive answer under cued logic
    if logic is LogicType.DISJUNCTIVE and "Yes" in features.answers:
        return "Yes", None, 2
    if logic is LogicType.CONJUNCTIVE and "No" in features.answers:
        return "No", None, 2
    # (3)+(4) clause coverage, then a follow-up while the turn budget lasts
    if len(features.answers) < params.l_max:
        for clause, asked, resolved in zip(features.plan.clauses, features.asked_fraction, features.scenario_fraction):
            if asked < params.rho and resolved < params.rho_s:
                return clause.followup, clause.ordinal, 4
    # (5) echo the last follow-up answer
    if features.answers:
        return features.answers[-1], None, 5
    # (6) fallback by logic type
    return _FALLBACK_OUTPUT[logic], None, 6


def predict_corpus(
    corpus: Iterable[Instance],
    params: PolicyParams = PolicyParams(),
    cues: CueSet = DEFAULT_CUES,
    *,
    sink: Callable[[Iterator[_Row]], _T] = list,
) -> tuple[_T, Counter[int]]:
    """Decide every instance, parsing each distinct rule text once; return ``(sink(rows), steps)``.

    ``sink`` gets one ``(utterance_id, output, asked ordinal or None, step)``
    row per instance, as an iterator inside one corpus pass. ``steps``
    counts the policy steps that fired and is complete once the rows are
    used up.
    """
    steps: Counter[int] = Counter()

    def rows() -> Iterator[_Row]:
        for instance, features in _corpus_features(corpus, cues):
            output, ordinal, step = _decide(features, params)
            steps[step] += 1
            yield instance.utterance_id, output, ordinal, step

    return sink(rows()), steps


# --------------------------------------------------------------------------
# Tuning
# --------------------------------------------------------------------------

DEFAULT_GRID: dict[str, Sequence] = {
    "tau_irr": (0.1, 0.2, 0.3),
    "rho": (0.4, 0.6, 0.8),
    "rho_s": (0.4, 0.6, 1.01),
    "l_max": (3, 5, 8),
}


@dataclass
class TuneResult:
    best_params: PolicyParams
    best_combined: float
    instance_count: int
    trials: list[dict] = field(default_factory=list)


def _grid_outputs(points: Sequence[PolicyParams]) -> Callable[[_Features], tuple[str, ...]]:
    """A function giving ``_decide(features, point)[0]`` for each of ``points``, in order.

    ``_decide`` reads ``tau_irr`` only in ``empty_context and question_overlap < tau_irr`` and ``l_max`` only in
    ``len(answers) < l_max``. Points that agree on both tests and on ``(rho, rho_s)`` decide alike, so ``_decide``
    runs once per such class; the classes are worked out once per distinct triple of those three features.
    """

    def shape(tested: tuple[bool, float, int]) -> list[int]:
        empty, overlap, turns = tested
        keys = [(empty and overlap < p.tau_irr, turns < p.l_max, p.rho, p.rho_s) for p in points]
        first: dict[tuple, int] = {}
        return [first.setdefault(key, k) for k, key in enumerate(keys)]

    shapes = Memo(shape)  # the triple -> each point's class, as the index of its first point

    def outputs(features: _Features) -> tuple[str, ...]:
        classes = shapes[features.empty_context, features.question_overlap, len(features.answers)]
        decided = {k: _decide(features, points[k])[0] for k in set(classes)}
        return tuple(map(decided.__getitem__, classes))

    return outputs


def tune(
    corpus: Iterable[Instance],
    grid: Optional[Mapping[str, Sequence]] = None,
    cues: CueSet = DEFAULT_CUES,
) -> TuneResult:
    """Grid-search the policy thresholds, maximizing the combined metric.

    One pass over the corpus, which may be a stream, plans each rule text once, computes each instance's
    features once and decides it at every grid point through :func:`_decide` (by :func:`_grid_outputs`), as
    :func:`predict_corpus` does, so tuning cannot drift from live prediction. Only a tally is kept: a count
    of each distinct row of gold class, gold follow-up if More, and outputs; a row whose gold is not More
    keeps only its outputs' class words, as only their classes are scored there, so each distinct output is
    labeled once. Each grid point merges the rows into its distinct (gold class, gold follow-up, output)
    cells and is scored by one :func:`~sharctool.evaluate.evaluate` of them, weighted by their counts, all
    inside one pass, so each distinct (output, gold) pair's BLEU statistics are counted once. The scores sum
    integers, so they are the floats a per-instance evaluation gives. Ties keep the first grid point in
    iteration order. Raises ``ValueError`` before scoring when no gold answer is a follow-up: combined is undefined.
    """
    grid = dict(DEFAULT_GRID if grid is None else grid)
    points = [replace(PolicyParams(), **dict(zip(grid, values))) for values in itertools.product(*grid.values())]
    outputs = _grid_outputs(points)
    rows: Counter[tuple[ClassLabel, Optional[str], tuple[str, ...]]] = Counter()
    trials: list[dict] = []
    with corpus_pass():
        for instance, features in _corpus_features(corpus, cues):
            label = instance.label
            rows[label, instance.gold_answer if label is ClassLabel.MORE else None, outputs(features)] += 1
        if all(followup is None for _, followup, _ in rows):
            raise ValueError("no gold answer is a follow-up question, so the combined metric is undefined")
        words = Memo(lambda output: derive_label(output).value)
        tally: Counter[tuple[ClassLabel, Optional[str], tuple[str, ...]]] = Counter()
        for (label, followup, decided), count in rows.items():
            tally[label, followup, decided if followup is not None else tuple(map(words.__getitem__, decided))] += count
        for index, params in enumerate(points):
            cells: dict[tuple[ClassLabel, Optional[str], str], int] = {}
            for (label, followup, decided), count in tally.items():
                cell = label, followup, decided[index]
                cells[cell] = cells.get(cell, 0) + count
            report = evaluate(cells.items())
            trials.append({"params": asdict(params), "combined": report.combined, "micro": report.micro_accuracy})
    best = max(range(len(trials)), key=lambda index: trials[index]["combined"])  # the first of equal scores
    return TuneResult(
        best_params=points[best],
        best_combined=trials[best]["combined"],
        instance_count=sum(rows.values()),
        trials=trials,
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def _encode_row(row: _Row) -> str:
    return f'{{"answer":{encode_basestring(row[1])},"utterance_id":{encode_basestring(row[0])}}}'


def write_predictions(path: str | Path, rows: Iterable[_Row]) -> None:
    """Write each decision row as the line ``{"answer":output,"utterance_id":id}`` with non-ASCII raw, atomically."""
    write_jsonl(path, rows, _encode_row)


def load_predictions(path: str | Path) -> dict[str, str]:
    """Read a predictions file into a {utterance_id: answer} map.

    Raises ``ValueError`` naming ``<path>:<line>`` for a line that is not a
    JSON object with string ``utterance_id`` and ``answer``, and for an
    ``utterance_id`` that occurs twice.
    """
    outputs: dict[str, str] = {}
    for lineno, record in read_jsonl(path):
        where = f"{path}:{lineno}"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: record is not an object")
        for key in ("utterance_id", "answer"):
            if not isinstance(record.get(key), str):
                raise ValueError(f"{where}: field {key!r} is missing or not a string")
        if record["utterance_id"] in outputs:
            raise ValueError(f"{where}: duplicate utterance_id {record['utterance_id']!r}")
        outputs[record["utterance_id"]] = record["answer"]
    return outputs


def load_params(path: str | Path) -> PolicyParams:
    """Read a parameter file; keys it omits keep their defaults.

    Raises ``ValueError`` naming the path for anything but a JSON object of
    known parameter names with finite, non-negative numeric values, ``l_max``
    a JSON integer.
    """
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: parameter file is not a JSON object")
    known = asdict(PolicyParams())
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"{path}: unknown parameter {key!r} (want one of {', '.join(known)})")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: parameter {key!r} must be a number, got {value!r}")
        if not 0 <= value < math.inf:
            raise ValueError(f"{path}: parameter {key!r} must be finite and >= 0, got {value!r}")
        if key == "l_max" and not isinstance(value, int):
            raise ValueError(f"{path}: parameter 'l_max' must be an integer, got {value!r}")
    return PolicyParams(**data)
