"""Scoring: classification accuracy and generation BLEU.

The classification side maps every free-text output onto the four classes
and reports micro accuracy plus macro-averaged per-class recall. The
generation side scores predicted follow-up questions against gold ones with
corpus-level BLEU over instances whose gold answer is a follow-up; a
prediction that is actually a class word still enters the pool literally
(and scores near zero), so dodging follow-ups is not free.

This scorer is self-contained and is not bit-compatible with any official
ShARC scoring script; the deviations are spelled out in
:data:`SCORING_NOTES` and repeated in every report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .corpus import PASS_KINDS, ClassLabel, Instance, corpus_pass, derive_label, pass_memo, tokenize

__all__ = [
    "SCORING_NOTES",
    "EvalReport",
    "bleu",
    "cells",
    "combined_metric",
    "evaluate",
    "gold_view",
    "macro_accuracy",
    "micro_accuracy",
    "per_class_accuracy",
    "render_report",
]

LABEL_ORDER = (ClassLabel.YES, ClassLabel.NO, ClassLabel.IRRELEVANT, ClassLabel.MORE)

SCORING_NOTES = (
    "classes derived from output text: exact class word (case-insensitive) or else More",
    "BLEU is corpus-level: n-gram counts pooled over all pairs, geometric mean, brevity penalty",
    "BLEU tokens are lowercased surface tokens incl. punctuation; no smoothing",
    "orders with an empty pooled candidate count are dropped from the geometric mean",
    "macro accuracy averages per-class recall over classes present in the gold set",
    "combined = macro/100 * BLEU-4; undefined (null) when the gold set has no follow-ups",
)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------


_Cell = tuple[tuple[ClassLabel, Optional[str], str], int]  # ((gold class, gold follow-up or None, output), count)


def gold_view(instances: Iterable[Instance]) -> dict[Hashable, tuple[ClassLabel, Optional[str]]]:
    """Each gold id's class and follow-up (None unless More), in corpus order, from one pass over a list or stream;
    raise on duplicate ids.

    Build it once and score any number of prediction sets against it through :func:`cells`.
    """
    gold, count = {}, 0
    for count, inst in enumerate(instances, start=1):
        label = inst.label
        gold[inst.utterance_id] = label, inst.gold_answer if label is ClassLabel.MORE else None
    if len(gold) != count:
        raise ValueError("gold corpus contains duplicate utterance ids")
    return gold


def cells(
    gold: Mapping[Hashable, tuple[ClassLabel, Optional[str]]], predictions: Mapping[Hashable, str]
) -> Iterator[_Cell]:
    """One count-1 cell per gold instance, in corpus order; raises ``ValueError`` unless the prediction ids are the
    gold ids."""
    if predictions.keys() != gold.keys():
        missing = gold.keys() - predictions.keys()
        if missing:
            raise ValueError(f"predictions missing {len(missing)} ids (e.g. {sorted(missing)[:3]})")
        extra = predictions.keys() - gold.keys()
        raise ValueError(f"predictions contain {len(extra)} unknown ids (e.g. {sorted(extra)[:3]})")
    return (((label, followup, predictions[uid]), 1) for uid, (label, followup) in gold.items())


def micro_accuracy(matrix: Mapping[ClassLabel, Mapping[ClassLabel, int]]) -> float:
    total = sum(sum(row.values()) for row in matrix.values())
    if not total:
        raise ValueError("empty confusion matrix")
    correct = sum(matrix[label][label] for label in matrix)
    return 100.0 * correct / total


def per_class_accuracy(
    matrix: Mapping[ClassLabel, Mapping[ClassLabel, int]]
) -> dict[ClassLabel, Optional[float]]:
    """Per-class recall in percent; None for classes absent from the gold set."""
    out: dict[ClassLabel, Optional[float]] = {}
    for label in LABEL_ORDER:
        row_total = sum(matrix[label].values())
        out[label] = 100.0 * matrix[label][label] / row_total if row_total else None
    return out


def macro_accuracy(matrix: Mapping[ClassLabel, Mapping[ClassLabel, int]]) -> float:
    recalls = [r for r in per_class_accuracy(matrix).values() if r is not None]
    if not recalls:
        raise ValueError("empty confusion matrix")
    return sum(recalls) / len(recalls)


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


def _bleu_tokens(text: str) -> list[str]:
    return [surface.lower() for surface in tokenize(text).surfaces]


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


# Orders kept per pair in a pass's BLEU memo: enough for BLEU-1 and BLEU-4.
_MEMO_ORDERS = 4
PASS_KINDS["bleu"] = lambda pair: _pair_stats(*pair, _MEMO_ORDERS)


def _pair_stats(candidate_text: str, reference_text: str, max_order: int) -> tuple[int, ...]:
    """Sufficient statistics of one pair for corpus BLEU.

    ``(cand_len, ref_len, match_1, total_1, ..., match_n, total_n)``: the
    token lengths, then per order the clipped n-gram matches and the
    candidate n-gram count. Corpus BLEU sums these over pairs, so a pair's
    statistics can be computed once and reused for any lower order.
    """
    candidate = _bleu_tokens(candidate_text)
    reference = _bleu_tokens(reference_text)
    stats = [len(candidate), len(reference)]
    for order in range(1, max_order + 1):
        cand_ngrams = _ngram_counts(candidate, order)
        ref_ngrams = _ngram_counts(reference, order)
        stats.append(sum(min(count, ref_ngrams[gram]) for gram, count in cand_ngrams.items()))
        stats.append(sum(cand_ngrams.values()))
    return tuple(stats)


def bleu(
    candidates_and_references: Sequence[tuple[str, str]],
    max_order: int = 4,
    *,
    sentence_average: bool = False,
    weights: Optional[Sequence[int]] = None,
) -> Optional[float]:
    """Corpus-level BLEU in [0, 100]; None when the pair set is empty.

    Modified n-gram precisions are pooled over all pairs and combined by a
    geometric mean with equal weights, times the brevity penalty
    ``exp(min(0, 1 - ref_len/cand_len))``. Orders whose pooled candidate
    count is zero carry no signal and are excluded from the mean, so a
    corpus of exact matches scores 100 even when every pair is shorter than
    ``max_order``. A zero precision at any contributing order gives 0.

    ``sentence_average`` instead scores each pair alone and returns the
    arithmetic mean — useful for diagnostics, never for headline numbers.
    ``weights``, one integer per pair, counts each pair that many times.

    Inside a :func:`~sharctool.corpus.corpus_pass`, each distinct pair's
    statistics are computed once; the pooled counts are integers, so the
    score is the same float either way.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if not candidates_and_references:
        return None
    weights = [1] * len(candidates_and_references) if weights is None else weights
    if sentence_average:
        scores = [weight * bleu([pair], max_order) for pair, weight in zip(candidates_and_references, weights)]
        return sum(scores) / sum(weights)

    memo = pass_memo("bleu") if max_order <= _MEMO_ORDERS else None
    rows = [_pair_stats(candidate, reference, max_order) if memo is None else memo[candidate, reference]
            for candidate, reference in candidates_and_references]
    cand_len, ref_len, *counts = [sum(map(mul, column, weights)) for column in islice(zip(*rows), 2 + 2 * max_order)]

    if cand_len == 0:
        return 0.0
    log_precisions = []
    for match, total in zip(counts[0::2], counts[1::2]):
        if total == 0:
            continue  # vacuous order: no candidate was long enough
        if match == 0:
            return 0.0
        log_precisions.append(math.log(match / total))
    if not log_precisions:
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return 100.0 * brevity * math.exp(sum(log_precisions) / len(log_precisions))


def combined_metric(macro: Optional[float], bleu4: Optional[float]) -> Optional[float]:
    """Scalar for model selection: macro accuracy (as a fraction) times BLEU-4."""
    if macro is None or bleu4 is None:
        return None
    return macro / 100.0 * bleu4


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


@dataclass(kw_only=True)
class EvalReport:
    """The scores of one run, fields in ``eval.json``'s key order."""

    notes: tuple[str, ...] = SCORING_NOTES
    instance_count: int
    micro_accuracy: float
    macro_accuracy: float
    per_class_accuracy: dict[str, Optional[float]]
    bleu1: Optional[float]
    bleu4: Optional[float]
    combined: Optional[float]
    bleu_instance_count: int
    confusion: dict[str, dict[str, int]]


def evaluate(cells: Iterable[_Cell], *, sentence_average_bleu: bool = False) -> EvalReport:
    """Score (gold class, gold follow-up or None, output) cells, each weighted by its count: every cell's class and
    BLEU over the cells with a follow-up, inside one pass. The scores sum integers, so merging equal cells leaves
    every float as it is."""
    matrix = {g: {p: 0 for p in LABEL_ORDER} for g in LABEL_ORDER}
    pairs, weights = [], []
    for (label, followup, output), count in cells:
        matrix[label][derive_label(output)] += count
        if followup is not None:
            pairs.append((output, followup))
            weights.append(count)
    with corpus_pass():
        bleu1 = bleu(pairs, max_order=1, sentence_average=sentence_average_bleu, weights=weights)
        bleu4 = bleu(pairs, max_order=4, sentence_average=sentence_average_bleu, weights=weights)
    macro = macro_accuracy(matrix)
    per_class = per_class_accuracy(matrix)
    return EvalReport(
        micro_accuracy=micro_accuracy(matrix),
        macro_accuracy=macro,
        per_class_accuracy={label.value: per_class[label] for label in LABEL_ORDER},
        bleu1=bleu1,
        bleu4=bleu4,
        combined=combined_metric(macro, bleu4),
        bleu_instance_count=sum(weights),
        instance_count=sum(sum(row.values()) for row in matrix.values()),
        confusion={g.value: {p.value: matrix[g][p] for p in LABEL_ORDER} for g in LABEL_ORDER},
    )


def _fmt(value: Optional[float]) -> str:
    return "--" if value is None else f"{value:6.2f}"


def render_report(report: EvalReport, title: str = "evaluation") -> str:
    """Human-readable summary table (percentages; '--' where undefined)."""
    lines = [f"== {title} ({report.instance_count} instances) =="]
    lines.append(
        f"micro {_fmt(report.micro_accuracy)}  macro {_fmt(report.macro_accuracy)}  "
        f"bleu1 {_fmt(report.bleu1)}  bleu4 {_fmt(report.bleu4)}  combined {_fmt(report.combined)}"
    )
    lines.append(f"bleu pool: {report.bleu_instance_count} follow-up instances")
    header = "gold \\ pred" + "".join(f"{label.value:>12}" for label in LABEL_ORDER)
    lines.append(header)
    for gold_label in LABEL_ORDER:
        row = report.confusion[gold_label.value]
        cells = "".join(f"{row[p.value]:>12}" for p in LABEL_ORDER)
        recall = report.per_class_accuracy[gold_label.value]
        lines.append(f"{gold_label.value:>11}{cells}   recall {_fmt(recall)}")
    return "\n".join(lines)
