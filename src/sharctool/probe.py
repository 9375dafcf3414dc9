"""Statistical probes for spurious patterns in a conversational QA corpus.

Three dataset-level clues are measured: how often a Yes/No answer simply
equals the last follow-up answer in the history, how strongly an empty
context (no history, no scenario) predicts the Irrelevant class, and how the
probability of needing another follow-up falls with the number of turns
already asked.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .corpus import ClassLabel, Instance

__all__ = [
    "AgreementStat",
    "IrrelevantContextStats",
    "ProbeReport",
    "TurnRate",
    "followup_rate_spearman",
    "probe_corpus",
]


@dataclass(frozen=True)
class AgreementStat:
    """A percentage together with the counts it came from."""

    percent: Optional[float]
    numerator: int
    denominator: int


@dataclass(frozen=True)
class TurnRate:
    """Follow-up rate among instances with a given history length."""

    rate: float
    followups: int
    total: int


@dataclass(frozen=True)
class IrrelevantContextStats:
    p_empty_context_given_irrelevant: Optional[float]
    p_irrelevant_given_empty_context: Optional[float]
    irrelevant_count: int
    empty_context_count: int
    irrelevant_and_empty_context: int


def _tally(corpus: Iterable[Instance]) -> Counter:
    """Count the instances per (class, history length, last follow-up answer or None, empty context).

    Every statistic below is a sum over this one key, so a single pass over
    a stream serves them all.
    """
    return Counter((inst.label, len(inst.history), inst.history[-1].follow_up_answer if inst.history else None,
                    inst.has_empty_context) for inst in corpus)


def _class_counts(tally: Counter) -> dict[ClassLabel, int]:
    return {label: sum(n for (of, *_), n in tally.items() if of is label) for label in ClassLabel}


def _class_distribution(tally: Counter) -> dict[ClassLabel, float]:
    """Percentage of instances per class. Errors on an empty corpus."""
    total = tally.total()
    if not total:
        raise ValueError("cannot compute a class distribution over an empty corpus")
    return {label: 100.0 * count / total for label, count in _class_counts(tally).items()}


def _agreement(tally: Counter, include_followup_labels: bool) -> AgreementStat:
    """How often the gold class equals the last follow-up answer.

    Measured over instances with a non-empty history whose gold label is Yes
    or No; with ``include_followup_labels`` the denominator also admits
    More-labeled instances (which can never agree), the stricter reading of
    the same statistic. An empty denominator yields an undefined percentage,
    never a zero.
    """
    numerator = denominator = 0
    for (label, k, last, _), n in tally.items():
        if not k or label is ClassLabel.IRRELEVANT or (label is ClassLabel.MORE and not include_followup_labels):
            continue
        denominator += n
        numerator += n * (label.value == last)
    percent = 100.0 * numerator / denominator if denominator else None
    return AgreementStat(percent=percent, numerator=numerator, denominator=denominator)


def _irrelevant_context(tally: Counter) -> IrrelevantContextStats:
    """Joint statistics of the Irrelevant class and an empty context."""
    irrelevant = sum(n for (label, *_), n in tally.items() if label is ClassLabel.IRRELEVANT)
    empty_context = sum(n for (*_, is_empty), n in tally.items() if is_empty)
    both = sum(n for (label, *_, is_empty), n in tally.items() if is_empty and label is ClassLabel.IRRELEVANT)
    return IrrelevantContextStats(
        p_empty_context_given_irrelevant=both / irrelevant if irrelevant else None,
        p_irrelevant_given_empty_context=both / empty_context if empty_context else None,
        irrelevant_count=irrelevant,
        empty_context_count=empty_context,
        irrelevant_and_empty_context=both,
    )


def _rate_by_turn(tally: Counter) -> dict[int, TurnRate]:
    """P(label = More | history length = k) for every k present in the corpus."""
    followups, totals = Counter(), Counter()
    for (label, k, _, _), n in tally.items():
        totals[k] += n
        followups[k] += n * (label is ClassLabel.MORE)
    return {k: TurnRate(rate=followups[k] / total, followups=followups[k], total=total)
            for k, total in sorted(totals.items())}


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, group in groupby(order, key=values.__getitem__):
        tied = list(group)
        end = start + len(tied)
        for position in tied:
            ranks[position] = (start + end + 1) / 2
        start = end
    return ranks


def _spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman's rho as ``scipy.stats.spearmanr`` computes it, bit for bit.

    A Pearson correlation on average ranks. The ranks are multiples of 1/2,
    so the centered sums are exact; only the steps after them round, and
    they follow ``np.corrcoef`` and the ``rs[1, 0]`` entry scipy returns:
    scale by ``1 / (n - 1)``, divide by the y deviation, then by the x
    deviation, then clip. Any other order can move the result by an ulp.
    None for a constant series.
    """
    n = len(xs)
    mean = (n + 1) / 2
    dx = [r - mean for r in _average_ranks(xs)]
    dy = [r - mean for r in _average_ranks(ys)]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if not sxx or not syy:
        return None
    inv = 1.0 / (n - 1)
    cxy = sum(a * b for a, b in zip(dx, dy)) * inv
    rho = cxy / math.sqrt(syy * inv) / math.sqrt(sxx * inv)
    return max(-1.0, min(1.0, rho))


def followup_rate_spearman(rates: dict[int, TurnRate], *, min_support: int = 30) -> Optional[float]:
    """Spearman rank correlation of follow-up rate against history length.

    Buckets with fewer than ``min_support`` instances are ignored; with fewer
    than two surviving buckets, or constant rates, the correlation is
    undefined and ``None`` is returned.
    """
    points = [(k, tr.rate) for k, tr in sorted(rates.items()) if tr.total >= min_support]
    if len(points) < 2:
        return None
    return _spearman([p[0] for p in points], [p[1] for p in points])


@dataclass
class ProbeReport:
    """All probe statistics for one corpus split."""

    split_name: str
    instance_count: int
    class_distribution: dict[ClassLabel, float]
    class_counts: dict[ClassLabel, int]
    last_followup_agreement: AgreementStat
    last_followup_agreement_including_followups: AgreementStat
    irrelevant_context: IrrelevantContextStats
    followup_rate_by_turn: dict[int, TurnRate]
    followup_rate_spearman: Optional[float]
    min_support: int = 30
    notes: list[str] = field(default_factory=list)


def probe_corpus(corpus: Iterable[Instance], split_name: str = "", *, min_support: int = 30) -> ProbeReport:
    """Run every probe over one pass of a corpus, which may be a stream, and assemble the report."""
    tally = _tally(corpus)
    rates = _rate_by_turn(tally)
    return ProbeReport(
        split_name=split_name,
        instance_count=tally.total(),
        class_distribution=_class_distribution(tally),
        class_counts=_class_counts(tally),
        last_followup_agreement=_agreement(tally, False),
        last_followup_agreement_including_followups=_agreement(tally, True),
        irrelevant_context=_irrelevant_context(tally),
        followup_rate_by_turn=rates,
        followup_rate_spearman=followup_rate_spearman(rates, min_support=min_support),
        min_support=min_support,
    )
