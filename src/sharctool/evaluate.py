"""Scoring: classification accuracy and generation BLEU.

The classification side maps every free-text output onto the four classes
and reports micro accuracy plus macro-averaged per-class recall. The
generation side scores predicted follow-up questions against gold ones with
corpus-level BLEU over instances whose gold answer is a follow-up; a
prediction that is actually a class word still enters the pool literally
(and scores near zero), so dodging follow-ups is not free. Float means add
left to right, as ``sum`` did before Python 3.12, or exactly in fractions,
so every supported Python gives the same floats.

This scorer is self-contained and is not bit-compatible with any official
ShARC scoring script; the deviations are spelled out in the notes of the
BLEU mode in force (:data:`SCORING_NOTES` when pooled) in every report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
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
_SENTENCE_NOTES = (SCORING_NOTES[0], "BLEU is sentence-averaged (diagnostic): each pair scored alone, then the mean",
                   SCORING_NOTES[2], "orders with no candidate n-gram in a pair are dropped from its geometric mean",
                   *SCORING_NOTES[4:])


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


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


def _bleu_tokens(text: str) -> list[str]:
    return [surface.lower() for surface in tokenize(text).surfaces]


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def _pair_stats(pair: tuple[str, str]) -> tuple[int, ...]:
    """Sufficient statistics of one (candidate, reference) pair for corpus BLEU of orders 1 to 4.

    ``(cand_len, ref_len, match_1, total_1, ..., match_4, total_4)``: the
    token lengths, then per order the clipped n-gram matches and the
    candidate n-gram count. Corpus BLEU sums these over pairs, so a pair's
    statistics serve every order.
    """
    candidate, reference = map(_bleu_tokens, pair)
    stats = [len(candidate), len(reference)]
    for order in range(1, 5):
        cand_ngrams = _ngram_counts(candidate, order)
        ref_ngrams = _ngram_counts(reference, order)
        stats.append(sum(min(count, ref_ngrams[gram]) for gram, count in cand_ngrams.items()))
        stats.append(sum(cand_ngrams.values()))
    return tuple(stats)


PASS_KINDS["bleu"] = _pair_stats


def _score(stats: Sequence[int]) -> float:
    """BLEU of one row ``(cand_len, ref_len, match_1, total_1, ...)`` of :func:`_pair_stats`, up to its order."""
    cand_len, ref_len, *counts = stats
    log_precisions = []
    for match, total in zip(counts[0::2], counts[1::2]):
        if total == 0:
            continue  # vacuous order: no candidate was long enough
        if match == 0:
            return 0.0
        log_precisions.append(math.log(match / total))
    if not log_precisions:  # every order vacuous: the candidates are empty
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return 100.0 * brevity * math.exp(reduce(add, log_precisions) / len(log_precisions))


def bleu(
    candidates_and_references: Sequence[tuple[str, str]],
    max_order: int = 4,
    *,
    sentence_average: bool = False,
    weights: Optional[Sequence[int]] = None,
) -> Optional[float]:
    """Corpus-level BLEU of order ``max_order``, 1 to 4, in [0, 100]; None when the pair set is empty.

    Modified n-gram precisions are pooled over all pairs and combined by a
    geometric mean with equal weights, times the brevity penalty
    ``exp(min(0, 1 - ref_len/cand_len))``. Orders whose pooled candidate
    count is zero carry no signal and are excluded from the mean, so a
    corpus of exact matches scores 100 even when every pair is shorter than
    ``max_order``. A zero precision at any contributing order gives 0.

    ``sentence_average`` instead returns the mean of each pair's ``bleu([pair])``, taken exactly in fractions, for
    diagnostics only. ``weights``, one integer per pair, counts each pair that many times, so merging equal pairs
    changes neither mode. Both score one table of the pairs' statistics, one row per pair, each distinct pair's
    computed once inside a :func:`~sharctool.corpus.corpus_pass`.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("max_order must be 1 to 4")
    if not candidates_and_references:
        return None
    weights = [1] * len(candidates_and_references) if weights is None else weights
    memo = pass_memo("bleu")
    stats = _pair_stats if memo is None else memo.__getitem__
    table = [row[: 2 + 2 * max_order] for row in map(stats, candidates_and_references)]
    if sentence_average:
        from fractions import Fraction  # here, as every command imports this module and few take this path
        return float(sum(map(mul, map(Fraction, map(_score, table)), weights)) / sum(weights))
    return _score([sum(map(mul, column, weights)) for column in zip(*table)])


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

    notes: tuple[str, ...]
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
    BLEU over the cells with a follow-up, inside one pass, with the notes of the BLEU mode in force. Merging equal
    cells leaves every score as it is, as neither the counts nor either BLEU mode depend on how cells split."""
    matrix = {g: {p: 0 for p in LABEL_ORDER} for g in LABEL_ORDER}
    pairs, weights = [], []
    for (label, followup, output), count in cells:
        matrix[label][derive_label(output)] += count
        if followup is not None:
            pairs.append((output, followup))
            weights.append(count)
    total = sum(sum(row.values()) for row in matrix.values())
    if not total:
        raise ValueError("empty confusion matrix")
    per_class: dict[str, Optional[float]] = {}
    for label in LABEL_ORDER:
        row_total = sum(matrix[label].values())
        per_class[label.value] = 100.0 * matrix[label][label] / row_total if row_total else None
    recalls = [recall for recall in per_class.values() if recall is not None]
    macro = reduce(add, recalls) / len(recalls)  # over the classes present in the gold set
    with corpus_pass():
        bleu1 = bleu(pairs, max_order=1, sentence_average=sentence_average_bleu, weights=weights)
        bleu4 = bleu(pairs, max_order=4, sentence_average=sentence_average_bleu, weights=weights)
    return EvalReport(
        notes=_SENTENCE_NOTES if sentence_average_bleu else SCORING_NOTES,
        micro_accuracy=100.0 * sum(matrix[label][label] for label in LABEL_ORDER) / total,
        macro_accuracy=macro,
        per_class_accuracy=per_class,
        bleu1=bleu1,
        bleu4=bleu4,
        combined=combined_metric(macro, bleu4),
        bleu_instance_count=sum(weights),
        instance_count=total,
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
    mode = "sentence average" if report.notes == _SENTENCE_NOTES else "pool"
    lines.append(f"bleu {mode}: {report.bleu_instance_count} follow-up instances")
    header = "gold \\ pred" + "".join(f"{label.value:>12}" for label in LABEL_ORDER)
    lines.append(header)
    for gold_label in LABEL_ORDER:
        row = report.confusion[gold_label.value]
        cells = "".join(f"{row[p.value]:>12}" for p in LABEL_ORDER)
        recall = report.per_class_accuracy[gold_label.value]
        lines.append(f"{gold_label.value:>11}{cells}   recall {_fmt(recall)}")
    return "\n".join(lines)
