"""Per-token marker supervision derived from dialog history and evidence.

Every rule token gets three labels: which answer (if any) a past follow-up
question about it received, which turn asked it, and whether scenario
evidence covers it. A fourth artifact, the gold span, locates the rule
region a gold follow-up question asks about. All of it rides on one
primitive: the longest common subsequence between the rule's tokens and an
utterance's tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .corpus import (PASS_KINDS, ClassLabel, Instance, Memo, TokenizedText, corpus_pass, pass_memo, tokenize,
                     write_jsonl)

__all__ = [
    "AnnotationStats",
    "BASIC_STOPWORDS",
    "MARKER_PHI",
    "annotate_corpus",
    "content_words",
    "coverage",
    "jaccard",
    "lcs_match",
    "lcs_pairs",
    "write_markers",
]

MARKER_PHI = "Phi"

_T = TypeVar("_T")
_Row = tuple[str, tuple[str, ...], list[str], list[str], list[str], Optional[tuple[int, int]], bool]

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
    """The share of ``clause``'s matchable tokens that ``text`` matches by LCS; 1.0 if it has none.

    Only the LCS length is needed, so no pair is walked: it is the count of zero bits in the last of
    :func:`_lcs_rows`. Inside a :func:`~sharctool.corpus.corpus_pass`, each distinct pair of texts is measured
    once, in the pass memo's ``coverage`` kind.
    """
    memo = pass_memo("coverage")
    return _coverage(clause, text) if memo is None else memo[clause.text, text.text]


def _coverage(clause: TokenizedText, text: TokenizedText) -> float:
    symbols = clause.matchable()[1]
    if not symbols:
        return 1.0
    zeros = _lcs_rows(symbols, text.matchable()[1])[2]
    return (zeros[-1].bit_count() if zeros else 0) / len(symbols)


# Keyed on the texts: inside a pass every TokenizedText is the tokenize table's entry for its text.
PASS_KINDS["coverage"] = lambda texts: _coverage(*map(pass_memo("tokenize").__getitem__, texts))


def jaccard(a: set[str], b: set[str]) -> float:
    """Intersection over union; 0.0 when both sets are empty."""
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def _lcs_rows(a: Sequence, b: Sequence) -> tuple[dict, list[int], list[int]]:
    """Hyyrö's bit-parallel LCS rows over the reversed sequences ("Bit-parallel LCS-length computation revisited",
    2004): ``(masks, shared, zeros)``.

    ``masks`` maps each symbol of ``b`` to the bits k where ``b[m - 1 - k]`` is that symbol, and ``shared``
    lists the indices of ``a`` whose symbol ``b`` has. ``zeros`` holds row i's zero bits for each i of
    ``shared``, from the last up: bit k is set where the LCS length of ``a[i:]`` and ``b[m - 1 - k:]`` exceeds
    that of ``a[i:]`` and ``b[m - k:]``, so the last row's bits count the LCS. A symbol that ``b`` lacks leaves
    its row equal to the next, so only the rows of ``shared`` are built; with none, ``zeros`` is empty.
    """
    m = len(b)
    masks: dict = {}
    for bit, symbol in enumerate(reversed(b)):
        masks[symbol] = masks.get(symbol, 0) | 1 << bit
    shared = [i for i, symbol in enumerate(a) if symbol in masks]
    ones = full = (1 << m) - 1
    zeros = []
    for i in reversed(shared):
        matched = ones & masks[a[i]]
        ones = ((ones + matched) | (ones - matched)) & full
        zeros.append(full ^ ones)
    return masks, shared, zeros


def lcs_pairs(a: Sequence, b: Sequence) -> list[tuple[int, int]]:
    """One longest common subsequence of ``a`` and ``b`` as index pairs.

    Among all LCSs the one whose vector of ``a``-indices is lexicographically
    smallest is returned (leftmost match in ``a``), with ties on that vector
    broken toward the smallest ``b``-indices. Index pairs strictly increase
    in both coordinates.

    The walk realizes that tie-break against ``suffix[i][j]``, the LCS
    length of ``a[i:]`` and ``b[j:]``. At (i, j) the candidate columns for
    matching a[i] are exactly those j' where suffix[i][j'] still equals
    suffix[i][j] — skipping further would lose length. a[i] joins the LCS iff
    one of them matches, and the smallest such column is the right one: a
    smaller b-index only widens the choices downstream. A match needs no test
    of its continuation, because a matching cell is its diagonal plus one.
    The rows come from :func:`_lcs_rows`, whose bit k of row i is set where
    suffix[i][m - 1 - k] exceeds suffix[i][m - k]. So with q = m - j the
    candidates are the bits from the highest set one below q up to q - 1,
    and the hit is the highest of them in a[i]'s mask. Only the rows of the
    symbols ``b`` has are walked: no other symbol can be a hit.
    """
    m = len(b)
    masks, shared, zeros = _lcs_rows(a, b)
    pairs: list[tuple[int, int]] = []
    q = m
    for i, row in zip(shared, reversed(zeros)):
        below = row & ((1 << q) - 1)
        if not below:
            break
        hit = masks[a[i]] & ((1 << q) - (1 << (below.bit_length() - 1)))
        if hit:
            q = hit.bit_length() - 1
            pairs.append((i, m - 1 - q))
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
    *full* token sequences of both inputs.
    """
    rule_idx, rule_sym = rule.matchable(use_normalized, stopwords)
    utt_idx, utt_sym = utterance.matchable(use_normalized, stopwords)
    return [(rule_idx[i], utt_idx[j]) for i, j in lcs_pairs(rule_sym, utt_sym)]


@dataclass
class AnnotationStats:
    instances: int = 0
    more_instances: int = 0
    more_with_span: int = 0  # the rest of more_instances are flagged empty_gold_span

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
    sink: Callable[[Iterator[_Row]], _T] = list,
) -> tuple[_T, AnnotationStats]:
    """Annotate each instance of a corpus; return ``(sink(rows), stats)``.

    Each instance gives one row, ``(utterance_id, rule surfaces, history
    markers, turn indices, scenario markers, gold span or None, flagged)``.
    A rule token that :func:`lcs_match` pairs with history turn n's question
    (n from 1) takes that turn's answer and n, the latest turn winning; an
    unmatched one keeps (Phi, 0), so Phi pairs with turn 0. Scenario markers
    do the same over the evidence. The three arrays hold each value in its
    JSON form, ready to join: a marker as its escaped string (``'"Phi"'``,
    ``'"Yes"'``), a turn index as its digits (``"1"``). Each distinct value is
    escaped once per call, and the rule tokens each distinct (rule text,
    utterance text) matches are worked out once per call, each in a
    :class:`~sharctool.corpus.Memo` of the call. The gold span is the first
    and last rule index the gold answer matches, taken only for More-labeled
    instances (the gold answer is a follow-up question there); one whose span
    comes back empty is flagged rather than dropped. The rows reach ``sink``
    as an iterator, one instance at a time and inside one corpus pass, so a
    streamed corpus and a sink that writes them hold no more than one
    instance and its row; ``stats`` is complete once the iterator is used up.
    """
    stats = AnnotationStats()
    escaped = Memo(encode_basestring)
    numbers = Memo(str)
    phi, zero = escaped[MARKER_PHI], numbers[0]

    def match(texts: tuple[str, str]) -> tuple[int, ...]:
        rule_text, text = texts  # the rule as rows() tokenized it, from the pass's table
        pairs = lcs_match(pass_memo("tokenize")[rule_text], tokenize(text), use_normalized=use_normalized,
                          stopwords=stopwords)
        return tuple(index for index, _ in pairs)

    matches = Memo(match)  # (rule text, utterance text) -> the rule indices matched

    def rows() -> Iterator[_Row]:
        for instance in corpus:
            rule = tokenize(instance.rule_text)
            size = len(rule.surfaces)
            history_marker, turn_index, scenario_marker = [phi] * size, [zero] * size, [phi] * size
            for number, (question, answer) in enumerate(instance.history, start=1):
                marker, turn = escaped[answer], numbers[number]  # the latest turn wins
                for index in matches[rule.text, question]:
                    history_marker[index] = marker
                    turn_index[index] = turn
            for question, answer in instance.evidence:
                marker = escaped[answer]
                for index in matches[rule.text, question]:
                    scenario_marker[index] = marker
            more = instance.label is ClassLabel.MORE
            span = matches[rule.text, instance.gold_answer] if more else ()
            gold_span = (span[0], span[-1]) if span else None
            stats.instances += 1
            stats.more_instances += more
            stats.more_with_span += gold_span is not None
            yield (instance.utterance_id, rule.surfaces, history_marker, turn_index, scenario_marker, gold_span,
                   more and gold_span is None)

    with corpus_pass():
        return sink(rows()), stats


def write_markers(path: str | Path, rows: Iterable[_Row]) -> None:
    """Write each row of :func:`annotate_corpus` as one ``markers.jsonl`` line, atomically.

    A line is ``json.dumps(record, ensure_ascii=False)`` of the record laid out below, keys in its order. The
    row's three arrays already hold each value in its JSON form, so each is one ``", ".join``; each distinct
    token tuple (one per rule text) is escaped once per write.
    """
    token_arrays = Memo(lambda tokens: ", ".join(map(encode_basestring, tokens)))

    def encode(row: _Row) -> str:
        utterance_id, tokens, history_marker, turn_index, scenario_marker, gold_span, flagged = row
        span = "null" if gold_span is None else f"[{gold_span[0]}, {gold_span[1]}]"
        flags = '"empty_gold_span"' if flagged else ""
        return (
            f'{{"utterance_id": {encode_basestring(utterance_id)}, "tokens": [{token_arrays[tokens]}], '
            f'"history_marker": [{", ".join(history_marker)}], "turn_index": [{", ".join(turn_index)}], '
            f'"scenario_marker": [{", ".join(scenario_marker)}], "gold_span": {span}, '
            f'"flags": [{flags}], "scenario_marker_source": "gold-evidence"}}'
        )

    write_jsonl(path, rows, encode)
