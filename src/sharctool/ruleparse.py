"""Segmentation of rule snippets into clauses and coarse logic typing.

Rule texts in the corpus are light markdown: ``##`` lines are section
headers, ``* item`` lines are list items, and everything else is prose. The
parser cuts a snippet into clauses with exact character spans and then
classifies how the clauses combine (all required vs. any sufficient) from
cue words in the prose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "Clause",
    "ClauseKind",
    "CueSet",
    "DEFAULT_CUES",
    "LogicType",
    "RuleStructure",
    "classify_logic",
    "load_cues",
    "parse_rule",
]


class ClauseKind(str, Enum):
    HEADER = "header"
    BULLET = "bullet"
    SENTENCE = "sentence"


class LogicType(str, Enum):
    CONJUNCTIVE = "Conjunctive"
    DISJUNCTIVE = "Disjunctive"
    SINGLE = "Single"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Clause:
    """One clause of a rule with its exact location in the source snippet."""

    kind: ClauseKind
    text: str
    char_span: tuple[int, int]  # rule_text[start:end] == text
    ordinal: int  # 1-based, document order


@dataclass(frozen=True)
class CueSet:
    """Cue phrases that vote for a combination type during classification."""

    conjunctive: tuple[str, ...]
    disjunctive: tuple[str, ...]


DEFAULT_CUES = CueSet(
    conjunctive=("all of", "each of", "both", " and "),
    disjunctive=("any of", "either", "one of", " or "),
)


@dataclass
class RuleStructure:
    clauses: list[Clause]
    logic: LogicType


def load_cues(path: str | Path) -> CueSet:
    """Read a cue file: one ``conj <phrase>`` or ``disj <phrase>`` per line.

    Blank lines and lines starting with ``#`` are ignored. Phrases are matched case-insensitively as
    substrings of the rule's prose, so boundary spaces (as in ``" and "``) are significant and preserved.
    A line ends at a newline only (a carriage return before it is dropped), as in ``corpus.read_jsonl``;
    a byte that is not UTF-8 raises ``ValueError`` naming ``<path>:<line>``.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not valid UTF-8: {exc}") from None
    conj: list[str] = []
    disj: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, phrase = raw.partition(" ")
        if tag not in ("conj", "disj") or not phrase.strip():
            raise ValueError(f"{path}:{lineno}: expected 'conj <phrase>' or 'disj <phrase>', got {raw!r}")
        (conj if tag == "conj" else disj).append(phrase.lower())
    return CueSet(conjunctive=tuple(conj), disjunctive=tuple(disj))


# One match per sentence: up to and including a run of ``.!?``, or to the scan's endpos.
_SENTENCE_RE = re.compile(r"[^.!?]*(?:[.!?]+|$)")


def classify_logic(clauses: Sequence[Clause], cues: CueSet = DEFAULT_CUES) -> LogicType:
    """Classify how a rule's clauses combine.

    Cue phrases are counted over the sentence prose only (headers and bullet
    items never vote). A majority of conjunctive cues gives ``Conjunctive``,
    of disjunctive cues ``Disjunctive``. On a tie, a bullet list introduced by
    "the following" defaults to ``Disjunctive`` — such lists enumerate
    independently qualifying items. Exactly one non-header clause is always
    ``Single``; anything still unresolved is ``Unknown``.
    """
    non_header = [c for c in clauses if c.kind is not ClauseKind.HEADER]
    if len(non_header) == 1:
        return LogicType.SINGLE
    if not non_header:
        return LogicType.UNKNOWN
    prose = " ".join(c.text.lower() for c in clauses if c.kind is ClauseKind.SENTENCE)
    conj_votes = sum(prose.count(cue.lower()) for cue in cues.conjunctive)
    disj_votes = sum(prose.count(cue.lower()) for cue in cues.disjunctive)
    if conj_votes > disj_votes:
        return LogicType.CONJUNCTIVE
    if disj_votes > conj_votes:
        return LogicType.DISJUNCTIVE
    has_bullets = any(c.kind is ClauseKind.BULLET for c in clauses)
    if has_bullets and "the following" in prose:
        return LogicType.DISJUNCTIVE
    return LogicType.UNKNOWN


def parse_rule(rule_text: str, cues: CueSet = DEFAULT_CUES) -> RuleStructure:
    """Cut a rule snippet into clauses and classify its logic.

    ``##`` lines become header clauses, ``* item`` lines bullet clauses, and runs
    of prose lines are split into sentence clauses at ``.!?``. Empty lines
    only separate blocks. Clauses are cut in document order and each gets its
    ordinal as it is cut, so ordinals run contiguously from 1; every clause's
    ``char_span`` indexes the original snippet exactly, and spans are disjoint
    and ascending.
    """
    clauses: list[Clause] = []
    prose_start: Optional[int] = None
    prose_end = 0

    def cut(kind: ClauseKind, text: str, start: int) -> None:
        clauses.append(Clause(kind, text, (start, start + len(text)), len(clauses) + 1))

    def flush_prose() -> None:
        nonlocal prose_start
        if prose_start is None:
            return
        for match in _SENTENCE_RE.finditer(rule_text, prose_start, prose_end):
            piece = match.group()
            text = piece.strip()
            if text:
                cut(ClauseKind.SENTENCE, text, match.start() + len(piece) - len(piece.lstrip()))
        prose_start = None

    offset = 0
    for raw_line in rule_text.splitlines(keepends=True):
        line = raw_line.rstrip("\r\n")
        stripped = line.strip()
        if not stripped:
            flush_prose()
        elif stripped.startswith("#"):
            flush_prose()
            text = stripped.lstrip("#").strip()
            if text:
                cut(ClauseKind.HEADER, text, offset + line.index(text))
        elif stripped.split(maxsplit=1)[0] == "*":  # "* item", not "**bold** prose"
            flush_prose()
            text = stripped[1:].strip()
            if text:
                cut(ClauseKind.BULLET, text, offset + line.index(text, line.index("*") + 1))
        else:
            if prose_start is None:
                prose_start = offset + (len(line) - len(line.lstrip()))
            prose_end = offset + len(line)
        offset += len(raw_line)
    flush_prose()
    return RuleStructure(clauses=clauses, logic=classify_logic(clauses, cues))
