"""Per-token marker supervision derived from dialog history and evidence.

Every rule token gets three labels: which answer (if any) a past follow-up
question about it received, which turn asked it, and whether scenario
evidence covers it. A fourth artifact, the gold span, locates the rule
region a gold follow-up question asks about. All of it rides on one
primitive: the longest common subsequence between the rule's tokens and an
utterance's tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .corpus import ClassLabel, DialogTurn, Instance, TokenizedText, corpus_pass, pass_memo, tokenize

__all__ = [
    "AnnotationStats",
    "BASIC_STOPWORDS",
    "MARKER_PHI",
    "MarkerAnnotation",
    "annotate_corpus",
    "annotate_history",
    "annotate_scenario",
    "content_words",
    "coverage",
    "extract_gold_span",
    "jaccard",
    "lcs_match",
    "lcs_pairs",
]

MARKER_PHI = "Phi"

_T = TypeVar("_T")

# Function words. Matching drops them only in the optional stopword-excluded
# mode (the default matches everything); content_words always leaves them
# out, so the baseline's overlap test and the generator's guards measure alike.
BASIC_STOPWORDS = frozenset(
    """a an and are be can could do does did for from get got has have had i if in is it my of on or
    should that the their they this to was were will would you your""".split()
)


def content_words(text: TokenizedText) -> set[str]:
    """The normalized tokens of ``text`` that are neither punctuation nor stopwords."""
    return set(text.matchable(True, BASIC_STOPWORDS)[1])


def coverage(clause: TokenizedText, text: TokenizedText) -> float:
    """The share of ``clause``'s matchable tokens that ``text`` matches by LCS; 1.0 if it has none."""
    matchable = len(clause.matchable()[0])
    return len(lcs_match(clause, text)) / matchable if matchable else 1.0


def jaccard(a: set[str], b: set[str]) -> float:
    """Intersection over union; 0.0 when both sets are empty."""
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def lcs_pairs(a: Sequence, b: Sequence) -> list[tuple[int, int]]:
    """One longest common subsequence of ``a`` and ``b`` as index pairs.

    Among all LCSs the one whose vector of ``a``-indices is lexicographically
    smallest is returned (leftmost match in ``a``), with ties on that vector
    broken toward the smallest ``b``-indices. Index pairs strictly increase
    in both coordinates.

    The walk below realizes that tie-break against a suffix-length table.
    At (i, j) the candidate columns for matching a[i] are exactly those j'
    where suffix[i][j'] still equals suffix[i][j] — skipping further would
    lose length. a[i] joins the LCS iff one of them matches, and the
    smallest such column is the right one: a smaller b-index only widens the
    choices downstream. A match needs no test of its continuation, because a
    matching cell is its diagonal plus one.
    """
    n, m = len(a), len(b)
    suffix = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = suffix[i]
        below = suffix[i + 1]
        ai = a[i]
        for j in range(m - 1, -1, -1):
            if ai == b[j]:
                row[j] = below[j + 1] + 1
            else:
                down = below[j]
                right = row[j + 1]
                row[j] = down if down >= right else right
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m and suffix[i][j]:
        length = suffix[i][j]
        column = j
        while column < m and suffix[i][column] == length:
            if a[i] == b[column]:
                pairs.append((i, column))
                j = column + 1
                break
            column += 1
        i += 1
    return pairs


def lcs_match(
    rule: TokenizedText,
    utterance: TokenizedText,
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
) -> list[tuple[int, int]]:
    """LCS between a rule and an utterance as (rule_index, utterance_index) pairs.

    Only the tokens that :meth:`~sharctool.corpus.TokenizedText.matchable`
    keeps in the given mode take part, and the returned indices address the
    *full* token sequences of both inputs. Inside a
    :func:`~sharctool.corpus.corpus_pass`, each distinct input is matched once.
    """
    memo = pass_memo("lcs_match")
    if memo is not None:
        # Keying on the texts is sound because inside a pass every
        # TokenizedText comes from tokenize(text), so its text fixes its tokens.
        key = (rule.text, utterance.text, use_normalized, stopwords)
        cached = memo.get(key)
        if cached is not None:
            return list(cached)
    rule_idx, rule_sym = rule.matchable(use_normalized, stopwords)
    utt_idx, utt_sym = utterance.matchable(use_normalized, stopwords)
    pairs = [(rule_idx[i], utt_idx[j]) for i, j in lcs_pairs(rule_sym, utt_sym)]
    if memo is not None:
        memo[key] = tuple(pairs)
    return pairs


def annotate_history(
    rule: TokenizedText,
    history: Sequence[DialogTurn],
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
) -> tuple[list[str], list[int]]:
    """Label each rule token with the answer and turn of the follow-up that asked it.

    Turns are applied in order 1..N, so on conflicts the latest turn wins.
    Unmatched tokens stay (Phi, 0); the pairing Phi ⇔ turn 0 is invariant.
    """
    markers = [MARKER_PHI] * len(rule)
    turns = [0] * len(rule)
    for turn_number, turn in enumerate(history, start=1):
        question = tokenize(turn.follow_up_question)
        for rule_token, _ in lcs_match(rule, question, use_normalized=use_normalized, stopwords=stopwords):
            markers[rule_token] = turn.follow_up_answer
            turns[rule_token] = turn_number
    return markers, turns


def annotate_scenario(
    rule: TokenizedText,
    evidence: Sequence[DialogTurn],
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
) -> list[str]:
    """Three-class evidence labels per rule token (Yes / No / Phi).

    The marker row of :func:`annotate_history` applied to the evidence turns
    behind the scenario.
    """
    return annotate_history(rule, evidence, use_normalized=use_normalized, stopwords=stopwords)[0]


def extract_gold_span(
    rule: TokenizedText,
    gold_followup: str,
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
) -> Optional[tuple[int, int]]:
    """Contiguous rule-token span [first, last] matched by a gold follow-up.

    Returns ``None`` when the LCS is empty; callers flag such instances.
    """
    pairs = lcs_match(rule, tokenize(gold_followup), use_normalized=use_normalized, stopwords=stopwords)
    if not pairs:
        return None
    return (pairs[0][0], pairs[-1][0])


@dataclass
class MarkerAnnotation:
    """Parallel per-token label arrays for one instance."""

    utterance_id: str
    tokens: tuple[str, ...]
    history_marker: list[str]
    turn_index: list[int]
    scenario_marker: list[str]
    gold_span: Optional[tuple[int, int]] = None
    flags: list[str] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "utterance_id": self.utterance_id,
            "tokens": self.tokens,
            "history_marker": self.history_marker,
            "turn_index": self.turn_index,
            "scenario_marker": self.scenario_marker,
            "gold_span": list(self.gold_span) if self.gold_span is not None else None,
            "flags": self.flags,
            "scenario_marker_source": "gold-evidence",
        }


@dataclass
class AnnotationStats:
    instances: int = 0
    more_instances: int = 0
    more_with_span: int = 0
    flag_counts: dict[str, int] = field(default_factory=dict)

    @property
    def span_coverage(self) -> Optional[float]:
        """Fraction of More-labeled instances whose gold span is non-empty."""
        if not self.more_instances:
            return None
        return self.more_with_span / self.more_instances


def annotate_corpus(
    corpus: Iterable[Instance],
    *,
    use_normalized: bool = True,
    stopwords: frozenset[str] = frozenset(),
    sink: Callable[[Iterator[MarkerAnnotation]], _T] = list,
) -> tuple[_T, AnnotationStats]:
    """Run all three annotators over a corpus; return ``(sink(annotations), stats)``.

    Gold spans are extracted only for More-labeled instances (the gold answer
    is a follow-up question there); instances whose span comes back empty are
    flagged rather than dropped. The annotations reach ``sink`` as an
    iterator, one instance at a time and inside one corpus pass, so a
    streamed corpus and a sink that writes them hold no more than one
    instance and its annotation; ``stats`` is complete once the iterator is
    used up.
    """
    stats = AnnotationStats()
    mode = {"use_normalized": use_normalized, "stopwords": stopwords}

    def annotations() -> Iterator[MarkerAnnotation]:
        for instance in corpus:
            rule = tokenize(instance.rule_text)
            history_marker, turn_index = annotate_history(rule, instance.history, **mode)
            scenario_marker = annotate_scenario(rule, instance.evidence, **mode)
            gold_span = None
            flags: list[str] = []
            if instance.label is ClassLabel.MORE:
                stats.more_instances += 1
                gold_span = extract_gold_span(rule, instance.gold_answer, **mode)
                if gold_span is None:
                    flags.append("empty_gold_span")
                else:
                    stats.more_with_span += 1
            for flag in flags:
                stats.flag_counts[flag] = stats.flag_counts.get(flag, 0) + 1
            stats.instances += 1
            yield MarkerAnnotation(
                utterance_id=instance.utterance_id,
                tokens=rule.surfaces,
                history_marker=history_marker,
                turn_index=turn_index,
                scenario_marker=scenario_marker,
                gold_span=gold_span,
                flags=flags,
            )

    with corpus_pass():
        return sink(annotations()), stats
