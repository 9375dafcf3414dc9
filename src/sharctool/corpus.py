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
import os
import re
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from sys import intern
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

__all__ = [
    "ClassLabel",
    "CorpusError",
    "DialogTurn",
    "Instance",
    "LoadAudit",
    "Memo",
    "PASS_KINDS",
    "TokenizedText",
    "content_hash",
    "content_key",
    "corpus_pass",
    "derive_label",
    "iter_corpus",
    "load_corpus",
    "load_corpus_audited",
    "pass_memo",
    "read_json",
    "read_jsonl",
    "staged_writes",
    "tokenize",
    "write_corpus",
    "write_json",
    "write_jsonl",
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
# Memos
# --------------------------------------------------------------------------


class Memo(dict):
    """``memo[key]`` is ``compute(key)``, computed at the first lookup of each key and kept while the memo lives.

    Each kind of a :func:`corpus_pass` is one, as are a read's canonical turns, a writer's escaped values and a
    call's rule plans, rule matches, grid shapes and class words; only a text keeps its own
    :meth:`TokenizedText.matchable` projections. A hit is a plain ``dict`` lookup.
    """

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key: object) -> object:
        value = self[key] = self.compute(key)
        return value


# Each kind of the pass memo -> what it computes from a key; the module that owns a kind adds it at import.
PASS_KINDS: dict[str, Callable] = {}

# One table per kind, alive only while a corpus pass runs. Outside a pass
# this is None and every function computes from scratch, so one-off calls
# neither pay for nor fill a cache that would outlive its use.
_memo: Optional[dict[str, Memo]] = None


@contextmanager
def corpus_pass() -> Iterator[None]:
    """Memoize each kind of :data:`PASS_KINDS` for one pass, in a :class:`Memo` of its own made at the start.

    The kinds are ``tokenize`` (text -> :class:`TokenizedText`), ``coverage``
    (clause text, text -> :func:`~sharctool.markers.coverage`) and ``bleu``
    (candidate, reference -> BLEU pair statistics). A pass over a corpus sees
    the same rule texts, questions and pairs again and again; inside the
    ``with`` block each is computed once, and a text's tokens are the
    ``tokenize`` table's entry for it. The memo is dropped when the block
    exits, also on an exception. A nested pass shares the outer pass's memo.
    The memo is process-wide, so passes must not run in concurrent threads.
    """
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {kind: Memo(compute) for kind, compute in PASS_KINDS.items()}
    try:
        yield
    finally:
        _memo = None


def pass_memo(kind: str) -> Optional[Memo]:
    """The active pass's :class:`Memo` for ``kind``, or None outside a pass, where the caller computes directly."""
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
class TokenizedText:
    """A text with its tokens as two parallel tuples of interned strings."""

    text: str
    surfaces: tuple[str, ...]
    normalized: tuple[str, ...]  # lowercased, edge punctuation stripped; "" for pure punctuation
    _matchable: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def matchable(
        self, use_normalized: bool = True, stopwords: frozenset[str] = frozenset()
    ) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The ``(indices, symbols)`` of the tokens that take part in LCS matching, built once per mode.

        Symbols are normalized forms, or raw surfaces when ``use_normalized`` is
        false. A token whose normalized form is in ``stopwords`` never takes
        part; nor, with normalized forms, does one whose normalized form is
        empty (punctuation, ``##``, ``*``), which with raw surfaces matches an
        equal surface (``##`` pairs with ``##``, ``.`` with ``.``).
        """
        key = (use_normalized, stopwords)
        projection = self._matchable.get(key)
        if projection is None:
            kept = [
                (i, normalized if use_normalized else surface)
                for i, (surface, normalized) in enumerate(zip(self.surfaces, self.normalized))
                if (normalized or not use_normalized) and normalized not in stopwords
            ]
            projection = self._matchable[key] = (tuple(i for i, _ in kept), tuple(s for _, s in kept))
        return projection


def _normalize_token(surface: str) -> str:
    return intern(_EDGE_PUNCT_RE.sub("", surface.lower()))


def tokenize(text: str) -> TokenizedText:
    """Split ``text`` on whitespace and punctuation boundaries.

    The surfaces partition the text's non-whitespace characters: they occur
    in ``text`` in order, only whitespace lies between and around them, and
    ``"".join(surfaces)`` is ``text`` with its whitespace removed. Markdown
    markers (``##``, ``*``) become their own tokens whose normalized form is
    empty. Every surface and normalized form is interned, so equal forms are
    one object across texts. Inside a :func:`corpus_pass`, equal texts share
    one (immutable) result.
    """
    memo = pass_memo("tokenize")
    return _tokenize(text) if memo is None else memo[text]


def _tokenize(text: str) -> TokenizedText:
    surfaces = tuple(map(intern, _TOKEN_RE.findall(text)))
    return TokenizedText(text, surfaces, tuple(map(_normalize_token, surfaces)))


PASS_KINDS["tokenize"] = _tokenize


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------


class DialogTurn(NamedTuple):
    """One follow-up question together with the user's yes/no reply.

    A named tuple rather than a frozen dataclass: corpora hold tens of
    thousands of turns, and a tuple is built and hashed in C.
    """

    follow_up_question: str
    follow_up_answer: str  # "Yes" or "No"


@dataclass(slots=True)
class Instance:
    """A single utterance of a rule-interpretation dialog; slotted, so it holds its fields and nothing else."""

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
        """The class of the gold answer, derived at each read: bind it once where it is read twice."""
        return derive_label(self.gold_answer)

    @property
    def has_empty_context(self) -> bool:
        """True when both the history and the scenario are empty."""
        return not self.history and not self.scenario.strip()


def content_key(instance: Instance) -> tuple:
    """What the instance *says*, ignoring identifiers, as a hashable tuple.

    Two instances with the same rule text, question, scenario, ordered history
    and gold answer have equal keys, which is exactly the duplicate notion the
    augmentation stage deduplicates on.
    """
    return (
        instance.rule_text,
        instance.question,
        instance.scenario,
        tuple(instance.history),
        instance.gold_answer,
    )


# One encoder per output format, built once: ``json.dumps`` with any keyword
# argument constructs a fresh encoder on every call.
_HASH_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
_DOCUMENT_ENCODER = json.JSONEncoder(indent=2)  # as json.dumps(document, indent=2)


def content_hash(instance: Instance) -> str:
    """SHA-256 of the compact JSON of :func:`content_key`; equal exactly when the keys are."""
    payload = _HASH_ENCODER.encode(content_key(instance))
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


_REQUIRED_STRING_FIELDS = ("utterance_id", "tree_id", "snippet", "question", "scenario", "answer")
_ANSWER_WORDS = {"yes": "Yes", "no": "No"}


def _parse_turn(item: object, where: str) -> DialogTurn:
    """Parse a turn in full: normalize the answer's case or raise naming ``where``."""
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
    return DialogTurn(follow_up_question=intern(question), follow_up_answer=normalized)


def _canonical_turns() -> dict[str, Memo]:
    """Per answer word, a :class:`Memo` from a question to its one turn with that answer."""
    return {answer: Memo(lambda question, answer=answer: DialogTurn(intern(question), answer))
            for answer in _ANSWER_WORDS.values()}


def _parse_turns(
    items: list, name: str, canonical: dict[str, Memo], strict: bool = True, drops: Optional[LoadAudit] = None
) -> list[DialogTurn]:
    """Parse ``items`` as turns, or raise ``CorpusError`` naming ``name[i]``.

    A turn already in canonical form (an object with a non-blank question
    and the answer ``"Yes"`` or ``"No"``) is ``canonical[answer][question]``;
    anything else goes through :func:`_parse_turn`, which normalizes or
    raises. With ``drops`` (the evidence rules), an object that omits its
    answer is dropped in both modes, and a malformed item is dropped unless
    ``strict``; each drop is counted in ``drops``.
    """
    turns: list[DialogTurn] = []
    for i, item in enumerate(items):
        if type(item) is dict:
            question = item.get("follow_up_question")
            answer = item.get("follow_up_answer")
            if (answer == "Yes" or answer == "No") and type(question) is str and question.strip():
                turns.append(canonical[answer][question])
                continue
        if drops is not None and isinstance(item, dict) and "follow_up_answer" not in item:
            reason = "evidence_missing_answer"
        else:
            try:
                turns.append(_parse_turn(item, f"{name}[{i}]"))
                continue
            except CorpusError:
                if drops is None or strict:
                    raise
                reason = "evidence_malformed"
        drops.dropped_evidence_items += 1
        drops.note(reason)
    return turns


def _parse_record(record: object, strict: bool, audit: LoadAudit, canonical: dict[str, Memo]) -> Instance:
    """Build one instance, or raise ``CorpusError`` naming the place inside the record.

    The caller prefixes the record's own location, so location strings are
    built only on the path that raises. Every string but the (distinct) id is
    shared, and so is each canonical turn, through ``canonical``.
    """
    if not isinstance(record, dict):
        raise CorpusError("record is not an object")
    for key in _REQUIRED_STRING_FIELDS:
        if not isinstance(record.get(key), str):
            raise CorpusError(f"field {key!r} is missing or not a string")
    history_raw = record.get("history", [])
    evidence_raw = record.get("evidence", [])
    if not isinstance(history_raw, list) or not isinstance(evidence_raw, list):
        raise CorpusError("history and evidence must be lists")
    return Instance(
        record["utterance_id"],
        intern(record["tree_id"]),
        intern(record["snippet"]),
        intern(record["question"]),
        intern(record["scenario"]),
        _parse_turns(history_raw, "history", canonical),
        _parse_turns(evidence_raw, "evidence", canonical, strict, audit),
        intern(record["answer"]),
    )


# Only a text with the \u escape of a UTF-16 surrogate can decode to a string
# that UTF-8 cannot encode. _escapes matches each escape whole and in turn: a
# surrogate pair, a lone surrogate (group 1), or any other escape.
_surrogate_escape = re.compile(rb"\\u[dD][89a-fA-F]").search
_escapes = re.compile(r"\\(?:u[dD][89abAB][\da-fA-F]{2}\\u[dD][c-fC-F][\da-fA-F]{2}|(u[dD][89a-fA-F][\da-fA-F]{2})|.)")


def _decode(data: bytes, path: str | Path, lineno: int) -> str:
    """``data`` as text; ``CorpusError`` naming ``<path>:<line>`` for a byte not UTF-8 or a lone surrogate."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno += data.count(b"\n", 0, exc.start)
        raise CorpusError(f"{path}:{lineno}: not valid UTF-8: {exc}") from None
    if _surrogate_escape(data):
        for escape in _escapes.finditer(text):
            if escape[1]:
                lineno += text.count("\n", 0, escape.start())
                raise CorpusError(f"{path}:{lineno}: lone surrogate escape \\{escape[1]}, which UTF-8 cannot encode")
    return text


def _loads(text: str, path: str | Path, lineno: Optional[int] = None) -> object:
    """``json.loads``, or ``CorpusError`` naming ``<path>[:<line>]`` for any decoder failure: a syntax
    error, nesting past the recursion limit, or an integer longer than the interpreter's digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        raise CorpusError(f"{where}: invalid JSON: {exc}") from exc


# What json.loads runs for one document: the C scanner, then only JSON whitespace to the end.
_scan_once = json.JSONDecoder().scan_once


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, decoded value)`` for each non-blank line of a JSONL file.

    Lines are read one at a time, so no more than one undecoded line is held.
    They end at a newline only: the writers emit U+0085, U+2028 and U+2029
    raw inside strings, where ``str.splitlines`` would cut a record in two.
    A line that is not UTF-8, escapes a lone surrogate or is not JSON raises
    ``CorpusError`` naming ``<path>:<line>``. Each line goes straight to the
    decoder's C scanner; leading whitespace, a blank line, trailing data and
    every scanner failure take the :func:`_loads` path, so what is skipped
    and each error's text are exactly ``json.loads``'s.
    """
    with open(path, "rb", buffering=1 << 16) as lines:  # 64 KiB reads, not the block size (often 4 KiB)
        for lineno, raw in enumerate(lines, start=1):
            line = _decode(raw, path, lineno)
            try:
                value, end = _scan_once(line, 0)
                if not line[end:].strip(" \t\n\r"):
                    yield lineno, value
                    continue
            except (StopIteration, ValueError, RecursionError):
                pass
            if line.strip():
                yield lineno, _loads(line, path, lineno)


def _read_records(path: Path) -> Iterable:
    """The records of a JSON list file, or of a JSONL file line by line."""
    head = b""
    with path.open("rb") as handle:
        while not head and (chunk := handle.read(4096)):
            head = chunk.lstrip()
    if not head.startswith(b"["):
        return (record for _, record in read_jsonl(path))
    records = read_json(path)
    if not isinstance(records, list):
        raise CorpusError(f"{path}: top-level JSON value is not a list")
    return records


def iter_corpus(path: str | Path, *, strict: bool = True, audit: Optional[LoadAudit] = None) -> Iterator[Instance]:
    """Yield each instance of a corpus file (JSON list or JSONL) as it is read.

    ``strict=True`` aborts on any malformed field or duplicate utterance id;
    ``strict=False`` drops offending instances (and malformed evidence items)
    while counting every drop in ``audit``. Both are keyword-only, so a stray
    positional argument raises ``TypeError``. Evidence items that merely omit
    the answer are dropped in both modes: they are an expected form of
    partial data, not corruption. Only the set of seen ids
    and one :class:`DialogTurn` per distinct canonical turn outlive a record,
    so a JSONL file is held one line at a time, and equal turns across the
    read's histories and evidence are one object; ``audit`` is complete once
    the iterator is used up.
    """
    path = Path(path)
    audit = LoadAudit() if audit is None else audit
    seen_ids: set[str] = set()
    canonical = _canonical_turns()
    for index, record in enumerate(_read_records(path)):
        audit.records_read += 1
        try:
            instance = _parse_record(record, strict, audit, canonical)
        except CorpusError as exc:
            if strict:
                raise CorpusError(f"{path.name}[{index}]: {exc}") from None
            audit.dropped_instances += 1
            audit.note("instance_malformed")
            continue
        if instance.utterance_id in seen_ids:
            if strict:
                raise CorpusError(f"{path.name}[{index}]: duplicate utterance_id {instance.utterance_id!r}")
            audit.duplicate_ids_dropped += 1
            audit.dropped_instances += 1
            audit.note("duplicate_utterance_id")
            continue
        seen_ids.add(instance.utterance_id)
        audit.instances_kept += 1
        yield instance


def load_corpus_audited(path: str | Path, *, strict: bool = True) -> tuple[list[Instance], LoadAudit]:
    """Load a whole corpus file with :func:`iter_corpus`, returning instances plus the audit."""
    audit = LoadAudit()
    return list(iter_corpus(path, strict=strict, audit=audit)), audit


def load_corpus(path: str | Path, *, strict: bool = True) -> list[Instance]:
    """Load a corpus file; see :func:`load_corpus_audited` for the audit."""
    instances, _ = load_corpus_audited(path, strict=strict)
    return instances


def _encode_turn(turn: DialogTurn) -> str:
    question, answer = turn
    return f'{{"follow_up_answer":{encode_basestring(answer)},"follow_up_question":{encode_basestring(question)}}}'


def record_encoder() -> Callable[..., str]:
    """A fresh ``encode(instance, extra="")``: the instance's record as one line of compact JSON, keys sorted
    and non-ASCII written raw, laid out without building a dict.

    The record is the ShARC layout: ``utterance_id``, ``tree_id``,
    ``snippet`` (the rule text), ``question``, ``scenario``, ``history`` and
    ``evidence`` (lists of ``follow_up_question``/``follow_up_answer``
    objects) and ``answer``.

    ``extra`` is a run of already-encoded ``"key":value,`` pairs whose keys
    sort between ``history`` and ``question``. Each distinct rule text,
    question, answer, tree id and turn is escaped once, as ``json`` escapes a
    string with non-ASCII raw, and kept for the encoder's lifetime, one write;
    ids and scenarios, which seldom repeat, are escaped each time.
    """
    escaped = Memo(encode_basestring)
    turns = Memo(_encode_turn)

    def encode(instance: Instance, extra: str = "") -> str:
        evidence = ",".join([turns[turn] for turn in instance.evidence])
        history = ",".join([turns[turn] for turn in instance.history])
        return (
            f'{{"answer":{escaped[instance.gold_answer]},"evidence":[{evidence}],"history":[{history}],{extra}'
            f'"question":{escaped[instance.question]},"scenario":{encode_basestring(instance.scenario)},'
            f'"snippet":{escaped[instance.rule_text]},"tree_id":{escaped[instance.tree_id]},'
            f'"utterance_id":{encode_basestring(instance.utterance_id)}}}'
        )

    return encode


_FD_LINK = re.compile(r"/proc/(\d+)(?:/task/\d+)?/fd/(\d+)")  # a process's (or thread's) descriptor link


def _fd_link(path: str | Path) -> Optional[tuple[int, int]]:
    """``(pid, N)`` if ``path`` resolves through ``/proc/<pid>/fd/N``, else None; links are followed by hand, as
    ``os.path.realpath`` would go on to the file the descriptor has open."""
    path = os.path.join(os.getcwd(), path)
    for _ in range(40):  # the most links the kernel follows in one lookup
        parent, name = os.path.split(path)
        path = os.path.join(os.path.realpath(parent), name)
        if link := _FD_LINK.fullmatch(path):
            return int(link[1]), int(link[2])
        if not os.path.islink(path):
            return None
        path = os.path.join(os.path.dirname(path), os.readlink(path))
    return None


# Inside a staged_writes() block: the (temporary file, target) pairs whose
# replace waits for the block's commit.
_staged: Optional[list[tuple[Path, Path]]] = None


def write_jsonl(path: str | Path, records: Iterable, encode: Callable[[object], str]) -> None:
    """Write ``encode(record)`` per line, staged where the target allows it.

    A regular file at ``path`` (``os.stat`` follows links), or no file in an
    existing directory, is staged: the lines go to a temporary file next to
    the real target, which replaces it and takes over its permission bits,
    at once or, inside :func:`staged_writes`, at the block's end; on any
    error the target is left as it was. A path through ``/proc/<pid>/fd/N``
    (``/dev/stdout``, ``/dev/fd/1``) is not staged: this process's
    descriptor N is written through at its offset, so what the process
    writes there next follows. That of another process, and anything else
    (a pipe, a FIFO, a device, a missing parent), is opened as it is, so it
    works or fails just as ``open(path, "w")`` does.
    """
    if _staged is None:
        with staged_writes():
            return write_jsonl(path, records, encode)
    target = Path(os.path.realpath(path))
    link = _fd_link(path)
    try:
        regular = link is None and stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = target.parent.is_dir()
    if not regular:
        own = link is not None and link[0] == os.getpid()
        with open(os.dup(link[1]) if own else path, "w", encoding="utf-8") as handle:
            handle.writelines(encode(record) + "\n" for record in records)
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    _staged.append((tmp, target))
    with open(tmp, "x", encoding="utf-8") as handle:
        handle.writelines(encode(record) + "\n" for record in records)


@contextmanager
def staged_writes() -> Iterator[list[tuple[Path, Path]]]:
    """Hold back the replace of every file written inside the block until the block ends.

    The block yields the staged ``(temporary file, target)`` pairs in the
    order written; if it ends without an exception, each file replaces its
    target in that order. Files not moved are removed, so a failure before
    the first replace leaves every target as it was. Blocks do not nest.
    """
    global _staged
    staged = _staged = []
    try:
        yield staged
        while staged:
            tmp, target = staged[0]
            if target.exists():
                os.chmod(tmp, stat.S_IMODE(target.stat().st_mode))
            os.replace(tmp, target)
            del staged[0]
    finally:
        _staged = None
        for tmp, _ in staged:
            with suppress(FileNotFoundError):
                os.unlink(tmp)


def write_json(path: str | Path, document: object) -> None:
    """Write one indented JSON document and a final newline, atomically."""
    write_jsonl(path, [document], _DOCUMENT_ENCODER.encode)


def read_json(path: str | Path) -> object:
    """The one JSON document in ``path``; ``CorpusError`` naming ``<path>:<line>`` for a byte not UTF-8 or a
    lone surrogate escape, and ``<path>`` if it is not JSON."""
    return _loads(_decode(Path(path).read_bytes(), path, 1), path)


def write_corpus(path: str | Path, instances: Iterable[Instance]) -> None:
    """Write instances as canonical one-record-per-line JSON, atomically, each line built by :func:`record_encoder`."""
    write_jsonl(path, instances, record_encoder())
