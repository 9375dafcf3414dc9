"""Statistical probes for spurious patterns in a conversational QA corpus.

Three dataset-level clues are measured: how often a Yes/No answer simply
equals the last follow-up answer in the history, how strongly an empty
context (no history, no scenario) predicts the Irrelevant class, and how the
probability of needing another follow-up falls with the number of turns
already asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .corpus import ClassLabel, Instance

__all__ = [
    "AgreementStat",
    "IrrelevantContextStats",
    "ProbeReport",
    "TurnRate",
    "class_distribution",
    "followup_rate_by_turn",
    "followup_rate_spearman",
    "irrelevant_context_stats",
    "last_followup_agreement",
    "probe_corpus",
]


@dataclass(frozen=True)
class AgreementStat:
    """A percentage together with the counts it came from."""

    percent: Optional[float]
    numerator: int
    denominator: int

    def to_dict(self) -> dict:
        return {"percent": self.percent, "numerator": self.numerator, "denominator": self.denominator}


@dataclass(frozen=True)
class TurnRate:
    """Follow-up rate among instances with a given history length."""

    rate: float
    followups: int
    total: int

    def to_dict(self) -> dict:
        return {"rate": self.rate, "followups": self.followups, "total": self.total}


@dataclass(frozen=True)
class IrrelevantContextStats:
    p_empty_context_given_irrelevant: Optional[float]
    p_irrelevant_given_empty_context: Optional[float]
    irrelevant_count: int
    empty_context_count: int
    irrelevant_and_empty_context: int

    def to_dict(self) -> dict:
        return {
            "p_empty_context_given_irrelevant": self.p_empty_context_given_irrelevant,
            "p_irrelevant_given_empty_context": self.p_irrelevant_given_empty_context,
            "irrelevant_count": self.irrelevant_count,
            "empty_context_count": self.empty_context_count,
            "irrelevant_and_empty_context": self.irrelevant_and_empty_context,
        }


def class_distribution(corpus: Sequence[Instance]) -> dict[ClassLabel, float]:
    """Percentage of instances per class. Errors on an empty corpus."""
    if not corpus:
        raise ValueError("cannot compute a class distribution over an empty corpus")
    counts = {label: 0 for label in ClassLabel}
    for instance in corpus:
        counts[instance.label] += 1
    total = len(corpus)
    return {label: 100.0 * count / total for label, count in counts.items()}


def last_followup_agreement(corpus: Sequence[Instance], *, include_followup_labels: bool = False) -> AgreementStat:
    """How often the gold class equals the last follow-up answer.

    Measured over instances with a non-empty history whose gold label is Yes
    or No; with ``include_followup_labels`` the denominator also admits
    More-labeled instances (which can never agree), the stricter reading of
    the same statistic. An empty denominator yields an undefined percentage,
    never a zero.
    """
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


def irrelevant_context_stats(corpus: Sequence[Instance]) -> IrrelevantContextStats:
    """Joint statistics of the Irrelevant class and an empty context."""
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


def followup_rate_by_turn(corpus: Sequence[Instance]) -> dict[int, TurnRate]:
    """P(label = More | history length = k) for every k present in the corpus."""
    followups: dict[int, int] = {}
    totals: dict[int, int] = {}
    for instance in corpus:
        k = len(instance.history)
        totals[k] = totals.get(k, 0) + 1
        if instance.label is ClassLabel.MORE:
            followups[k] = followups.get(k, 0) + 1
    return {
        k: TurnRate(rate=followups.get(k, 0) / total, followups=followups.get(k, 0), total=total)
        for k, total in sorted(totals.items())
    }


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for position in order[start:end]:
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

    def to_dict(self) -> dict:
        return {
            "split_name": self.split_name,
            "instance_count": self.instance_count,
            "class_distribution": {label.value: pct for label, pct in self.class_distribution.items()},
            "class_counts": {label.value: n for label, n in self.class_counts.items()},
            "last_followup_agreement": self.last_followup_agreement.to_dict(),
            "last_followup_agreement_including_followups": (
                self.last_followup_agreement_including_followups.to_dict()
            ),
            "irrelevant_context": self.irrelevant_context.to_dict(),
            "followup_rate_by_turn": {str(k): tr.to_dict() for k, tr in self.followup_rate_by_turn.items()},
            "followup_rate_spearman": self.followup_rate_spearman,
            "min_support": self.min_support,
            "notes": self.notes,
        }


def probe_corpus(corpus: Sequence[Instance], split_name: str = "", *, min_support: int = 30) -> ProbeReport:
    """Run every probe over a corpus and assemble the report."""
    distribution = class_distribution(corpus)
    counts = {label: 0 for label in ClassLabel}
    for instance in corpus:
        counts[instance.label] += 1
    rates = followup_rate_by_turn(corpus)
    return ProbeReport(
        split_name=split_name,
        instance_count=len(corpus),
        class_distribution=distribution,
        class_counts=counts,
        last_followup_agreement=last_followup_agreement(corpus),
        last_followup_agreement_including_followups=last_followup_agreement(corpus, include_followup_labels=True),
        irrelevant_context=irrelevant_context_stats(corpus),
        followup_rate_by_turn=rates,
        followup_rate_spearman=followup_rate_spearman(rates, min_support=min_support),
        min_support=min_support,
    )
