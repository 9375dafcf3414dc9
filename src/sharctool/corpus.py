"""Core corpus types and I/O for ShARC-style conversational QA data.

The on-disk layout follows the released ShARC files: each record carries a rule
snippet, a user question, an optional scenario, the dialog history of follow-up
question/answer pairs, the evidence pairs behind the scenario, and the answer.
Everything downstream (probes, augmentation, markers, baseline, evaluation)
works on the ``Instance`` objects defined here and on the canonical
one-record-per-line serialization they round-trip through.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

__all__ = [
    "ClassLabel",
    "CorpusError",
    "DialogTurn",
    "Instance",
    "LoadAudit",
    "Token",
    "TokenizedText",
    "content_hash",
    "corpus_pass",
    "derive_label",
    "instance_to_record",
    "load_corpus",
    "load_corpus_audited",
    "pass_memo",
    "tokenize",
    "write_corpus",
]


class CorpusError(ValueError):
    """Raised when a corpus file violates the expected record layout."""


class ClassLabel(str, Enum):
    """The four decision classes of the task."""

    YES = "Yes"
    NO = "No"
    IRRELEVANT = "Irrelevant"
    MORE = "More"


_CLASS_WORDS = {
    "yes": ClassLabel.YES,
    "no": ClassLabel.NO,
    "irrelevant": ClassLabel.IRRELEVANT,
}


def derive_label(answer: str) -> ClassLabel:
    """Map a gold answer string to its class.

    Anything that is not (case-insensitively, modulo surrounding whitespace)
    one of the class words ``yes`` / ``no`` / ``irrelevant`` is a follow-up
    question and therefore labelled ``More``.
    """
    return _CLASS_WORDS.get(answer.strip().lower(), ClassLabel.MORE)


# --------------------------------------------------------------------------
# Pass-scoped memo
# --------------------------------------------------------------------------

# One table per memoized computation, alive only while a corpus pass runs.
# Outside a pass this is None and every function computes from scratch, so
# one-off calls neither pay for nor fill a cache that would outlive its use.
_memo: Optional[dict[str, dict]] = None


@contextmanager
def corpus_pass() -> Iterator[None]:
    """Memoize ``tokenize``, ``lcs_match``, BLEU pair statistics and gold views for one pass.

    A pass over a corpus sees the same rule texts, questions and
    (candidate, reference) pairs again and again, and ``tune`` scores every
    grid point against the same gold corpus; inside the ``with`` block
    each is computed once. The memo is dropped when the block exits, also on
    an exception. A nested pass shares the outer pass's memo. The memo is
    process-wide, so passes must not run in concurrent threads.
    """
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {"tokenize": {}, "lcs_match": {}, "bleu": {}, "gold": {}}
    try:
        yield
    finally:
        _memo = None


def pass_memo(kind: str) -> Optional[dict]:
    """The active pass's table for ``kind``, or None outside a pass."""
    return None if _memo is None else _memo[kind]


# --------------------------------------------------------------------------
# Tokenization
# --------------------------------------------------------------------------

# A token is either a word run (with apostrophes kept inside, so "carer's"
# stays whole) or a run of non-word, non-space characters (so "##" and "..."
# come out as single tokens).
_TOKEN_RE = re.compile(r"\w+(?:['’`]\w+)*|[^\w\s]+")
_EDGE_PUNCT_RE = re.compile(r"^[\W_]+|[\W_]+$")


@dataclass(frozen=True)
class Token:
    """One surface token with its character span in the source text."""

    surface: str
    normalized: str  # lowercased, edge punctuation stripped; "" for pure punctuation
    start: int  # char offset into the source, inclusive
    end: int  # char offset into the source, exclusive


@dataclass(frozen=True)
class TokenizedText:
    """A text together with its token sequence."""

    text: str
    tokens: tuple[Token, ...]

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    @property
    def normalized(self) -> list[str]:
        return [t.normalized for t in self.tokens]

    def __len__(self) -> int:
        return len(self.tokens)


def _normalize_token(surface: str) -> str:
    return _EDGE_PUNCT_RE.sub("", surface.lower())


def tokenize(text: str) -> TokenizedText:
    """Split ``text`` on whitespace and punctuation boundaries.

    Offsets are exact: ``text[t.start:t.end] == t.surface`` for every token,
    and the spans are strictly increasing and non-overlapping, so the source
    string can be reconstructed from the tokens plus the gaps between them.
    Markdown markers (``##``, ``*``) become their own tokens whose normalized
    form is empty. Inside a :func:`corpus_pass`, equal texts share one
    (immutable) result.
    """
    memo = pass_memo("tokenize")
    if memo is not None:
        cached = memo.get(text)
        if cached is not None:
            return cached
    tokens = [
        Token(
            surface=m.group(),
            normalized=_normalize_token(m.group()),
            start=m.start(),
            end=m.end(),
        )
        for m in _TOKEN_RE.finditer(text)
    ]
    result = TokenizedText(text=text, tokens=tuple(tokens))
    if memo is not None:
        memo[text] = result
    return result


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DialogTurn:
    """One follow-up question together with the user's yes/no reply."""

    follow_up_question: str
    follow_up_answer: str  # "Yes" or "No"


@dataclass
class Instance:
    """A single utterance of a rule-interpretation dialog."""

    utterance_id: str
    tree_id: str
    rule_text: str
    question: str
    scenario: str
    history: list[DialogTurn] = field(default_factory=list)
    evidence: list[DialogTurn] = field(default_factory=list)
    gold_answer: str = ""

    @property
    def label(self) -> ClassLabel:
        return derive_label(self.gold_answer)

    @property
    def has_empty_context(self) -> bool:
        """True when both the history and the scenario are empty."""
        return not self.history and not self.scenario.strip()


def instance_to_record(instance: Instance) -> dict:
    """Serialize an instance into the ShARC record layout."""
    return {
        "utterance_id": instance.utterance_id,
        "tree_id": instance.tree_id,
        "snippet": instance.rule_text,
        "question": instance.question,
        "scenario": instance.scenario,
        "history": [
            {"follow_up_question": t.follow_up_question, "follow_up_answer": t.follow_up_answer}
            for t in instance.history
        ],
        "evidence": [
            {"follow_up_question": t.follow_up_question, "follow_up_answer": t.follow_up_answer}
            for t in instance.evidence
        ],
        "answer": instance.gold_answer,
    }


def content_hash(instance: Instance) -> str:
    """Canonical hash of what the instance *says*, ignoring identifiers.

    Two instances with the same rule text, question, scenario, ordered history
    and gold answer collide, which is exactly the duplicate notion the
    augmentation stage deduplicates on.
    """
    payload = json.dumps(
        [
            instance.rule_text,
            instance.question,
            instance.scenario,
            [[t.follow_up_question, t.follow_up_answer] for t in instance.history],
            instance.gold_answer,
        ],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Loading / writing
# --------------------------------------------------------------------------


@dataclass
class LoadAudit:
    """Counts of what the loader kept, repaired, or refused."""

    records_read: int = 0
    instances_kept: int = 0
    dropped_instances: int = 0
    dropped_evidence_items: int = 0
    duplicate_ids_dropped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def note(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "records_read": self.records_read,
            "instances_kept": self.instances_kept,
            "dropped_instances": self.dropped_instances,
            "dropped_evidence_items": self.dropped_evidence_items,
            "duplicate_ids_dropped": self.duplicate_ids_dropped,
            "reasons": dict(sorted(self.reasons.items())),
        }


_REQUIRED_STRING_FIELDS = ("utterance_id", "tree_id", "snippet", "question", "scenario", "answer")
_ANSWER_WORDS = {"yes": "Yes", "no": "No"}


def _parse_turn(item: object, where: str) -> DialogTurn:
    if not isinstance(item, dict):
        raise CorpusError(f"{where}: turn is not an object: {item!r}")
    question = item.get("follow_up_question")
    answer = item.get("follow_up_answer")
    if not isinstance(question, str) or not question.strip():
        raise CorpusError(f"{where}: missing or empty follow_up_question")
    if not isinstance(answer, str):
        raise CorpusError(f"{where}: missing follow_up_answer")
    normalized = _ANSWER_WORDS.get(answer.strip().lower())
    if normalized is None:
        raise CorpusError(f"{where}: follow_up_answer must be Yes or No, got {answer!r}")
    return DialogTurn(follow_up_question=question, follow_up_answer=normalized)


class _PartialEvidence(Exception):
    """Evidence item with no stated answer; dropped rather than guessed."""


def _parse_evidence_item(item: object, where: str) -> DialogTurn:
    if isinstance(item, dict) and "follow_up_answer" not in item:
        raise _PartialEvidence(where)
    return _parse_turn(item, where)


def _parse_record(record: object, where: str, strictness: str, audit: LoadAudit) -> Optional[Instance]:
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: record is not an object")
    for key in _REQUIRED_STRING_FIELDS:
        if not isinstance(record.get(key), str):
            raise CorpusError(f"{where}: field {key!r} is missing or not a string")
    history_raw = record.get("history", [])
    evidence_raw = record.get("evidence", [])
    if not isinstance(history_raw, list) or not isinstance(evidence_raw, list):
        raise CorpusError(f"{where}: history and evidence must be lists")

    history = [_parse_turn(item, f"{where}: history[{i}]") for i, item in enumerate(history_raw)]

    evidence: list[DialogTurn] = []
    for i, item in enumerate(evidence_raw):
        try:
            evidence.append(_parse_evidence_item(item, f"{where}: evidence[{i}]"))
        except _PartialEvidence:
            audit.dropped_evidence_items += 1
            audit.note("evidence_missing_answer")
        except CorpusError:
            if strictness == "strict":
                raise
            audit.dropped_evidence_items += 1
            audit.note("evidence_malformed")

    return Instance(
        utterance_id=record["utterance_id"],
        tree_id=record["tree_id"],
        rule_text=record["snippet"],
        question=record["question"],
        scenario=record["scenario"],
        history=history,
        evidence=evidence,
        gold_answer=record["answer"],
    )


def _read_records(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped[0] == "[":
        records = json.loads(text)
        if not isinstance(records, list):
            raise CorpusError(f"{path}: top-level JSON value is not a list")
        return records
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return records


def load_corpus_audited(path: str | Path, strictness: str = "strict") -> tuple[list[Instance], LoadAudit]:
    """Load a corpus file (JSON list or JSONL), returning instances plus an audit.

    ``strictness="strict"`` aborts on any malformed field or duplicate
    utterance id; ``"lenient"`` drops offending instances (and malformed
    evidence items) while counting every drop in the audit. Evidence items
    that merely omit the answer are dropped in both modes: they are an
    expected form of partial data, not corruption.
    """
    if strictness not in ("strict", "lenient"):
        raise ValueError(f"unknown strictness {strictness!r}")
    path = Path(path)
    audit = LoadAudit()
    instances: list[Instance] = []
    seen_ids: set[str] = set()
    for index, record in enumerate(_read_records(path)):
        audit.records_read += 1
        where = f"{path.name}[{index}]"
        try:
            instance = _parse_record(record, where, strictness, audit)
        except CorpusError:
            if strictness == "strict":
                raise
            audit.dropped_instances += 1
            audit.note("instance_malformed")
            continue
        if instance.utterance_id in seen_ids:
            if strictness == "strict":
                raise CorpusError(f"{where}: duplicate utterance_id {instance.utterance_id!r}")
            audit.duplicate_ids_dropped += 1
            audit.dropped_instances += 1
            audit.note("duplicate_utterance_id")
            continue
        seen_ids.add(instance.utterance_id)
        instances.append(instance)
    audit.instances_kept = len(instances)
    return instances, audit


def load_corpus(path: str | Path, strictness: str = "strict") -> list[Instance]:
    """Load a corpus file; see :func:`load_corpus_audited` for the audit."""
    instances, _ = load_corpus_audited(path, strictness)
    return instances


def record_to_instance(record: dict) -> Instance:
    """Parse one already-decoded record strictly; extra keys are ignored."""
    instance = _parse_record(record, "record", "strict", LoadAudit())
    assert instance is not None
    return instance


def dumps_record(record: dict) -> str:
    """Canonical single-line JSON used for every file this package writes."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_corpus(path: str | Path, instances: Iterable[Instance]) -> None:
    """Write instances as canonical one-record-per-line JSON."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for instance in instances:
            handle.write(dumps_record(instance_to_record(instance)))
            handle.write("\n")
