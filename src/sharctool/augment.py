"""Corpus augmentation: rule-replaced Irrelevant instances, history shuffles,
and class balancing toward configured marginals.

Two synthesis moves break the dataset's spurious clues. Replacing the rule
under an instance with a non-empty scenario yields a new Irrelevant instance
whose context is *not* empty, and reordering a dialog history detaches the
gold answer from whatever was answered last. Generation is deterministic:
in each class's fill every parent owns an RNG stream derived from (master
seed, fill, parent id), so outputs do not depend on scheduling.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .corpus import (
    ClassLabel,
    DialogTurn,
    Instance,
    content_key,
    record_encoder,
    write_jsonl,
)

__all__ = [
    "AugmentConfig",
    "AugmentManifest",
    "AugmentedInstance",
    "DEFAULT_CLASS_TARGETS",
    "Provenance",
    "build_augmented_corpus",
    "make_irrelevant_instance",
    "shuffle_history_instance",
    "write_augmented",
]


DEFAULT_CLASS_TARGETS: dict[ClassLabel, float] = {
    ClassLabel.IRRELEVANT: 22.41,
    ClassLabel.YES: 27.09,
    ClassLabel.NO: 28.11,
    ClassLabel.MORE: 22.39,
}

DEFAULT_TOTAL_TARGET = 31506


class Provenance(str, Enum):
    ORIGINAL = "Original"
    RULE_REPLACED = "RuleReplaced"
    HISTORY_SHUFFLED = "HistoryShuffled"


@dataclass
class AugmentConfig:
    """Settings for one augmentation run. The seed is always explicit."""

    seed: int
    total_target: int = DEFAULT_TOTAL_TARGET
    class_targets: dict[ClassLabel, float] = field(default_factory=lambda: dict(DEFAULT_CLASS_TARGETS))
    max_permutations_per_instance: int = 3
    keep_original: bool = True
    drop_replaced_history: bool = False

    def validate(self, corpus_size: int) -> None:
        """Raise ``ValueError`` naming the ``augment`` flag of the first setting that cannot hold."""
        if set(self.class_targets) != set(ClassLabel):
            raise ValueError("--targets must name all four classes")
        total_pct = sum(self.class_targets.values())
        if abs(total_pct - 100.0) > 0.05:
            raise ValueError(f"--targets sum to {total_pct}, expected 100 ± 0.05")
        if self.keep_original and self.total_target < corpus_size:
            raise ValueError(
                f"--total {self.total_target} is below the corpus size {corpus_size} while originals are kept"
            )
        if self.max_permutations_per_instance < 1:
            raise ValueError("--max-perms must be at least 1")

    def target_counts(self) -> dict[ClassLabel, int]:
        return {label: round(pct / 100.0 * self.total_target) for label, pct in self.class_targets.items()}


@dataclass(slots=True)
class AugmentedInstance:
    """An output instance plus where it came from."""

    instance: Instance
    provenance: Provenance
    parent_id: str
    permutation: Optional[list[int]] = None  # new_history[i] == parent_history[permutation[i]]


def _derive(
    source: Instance, provenance: Provenance, detail: str, seed: int, permutation: Optional[list[int]] = None, **changes
) -> AugmentedInstance:
    """``source`` with ``changes`` applied, under an id hashed from its parent, provenance, ``detail`` and seed."""
    payload = f"{source.utterance_id}|{provenance.value}|{detail}|{seed}"
    instance = replace(
        source,
        utterance_id="aug-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16],
        evidence=list(source.evidence),
        **changes,
    )
    return AugmentedInstance(instance, provenance, source.utterance_id, permutation)


def make_irrelevant_instance(
    source: Instance,
    rule_pool: Sequence[Instance],
    rng: random.Random,
    *,
    seed: int = 0,
    drop_history: bool = False,
) -> AugmentedInstance:
    """Clone ``source`` under a foreign rule and relabel it Irrelevant.

    The replacement rule is drawn uniformly from the pool instances whose
    tree differs from the source's. The scenario (which must be non-empty)
    and, by default, the history are kept: the point is an Irrelevant
    instance whose context is not empty.
    """
    if not source.scenario.strip():
        raise ValueError(f"{source.utterance_id}: rule replacement requires a non-empty scenario")
    donor: Optional[Instance] = None
    if rule_pool:
        for _ in range(64):
            candidate = rule_pool[rng.randrange(len(rule_pool))]
            if candidate.tree_id != source.tree_id:
                donor = candidate
                break
    if donor is None:
        different = [p for p in rule_pool if p.tree_id != source.tree_id]
        if not different:
            raise ValueError(f"{source.utterance_id}: rule pool holds no instance with a different tree_id")
        donor = different[rng.randrange(len(different))]
    return _derive(
        source, Provenance.RULE_REPLACED, donor.tree_id, seed, tree_id=donor.tree_id, rule_text=donor.rule_text,
        history=[] if drop_history else list(source.history), gold_answer=ClassLabel.IRRELEVANT.value,
    )


def _has_distinct_reordering(history: Sequence) -> bool:
    return len(history) >= 2 and len(set(history)) > 1


@functools.cache
def _reorderings(pattern: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """For each distinct reordering of a history, its first index permutation in lexicographic order.

    ``pattern`` numbers the history's turns by first occurrence, so histories
    whose turns repeat alike share an entry.
    """
    orderings: dict[tuple[int, ...], tuple[int, ...]] = {}
    for perm in itertools.permutations(range(len(pattern))):
        orderings.setdefault(tuple(pattern[i] for i in perm), perm)
    orderings.pop(pattern)
    return tuple(orderings.values())


def shuffle_history_instance(source: Instance, rng: random.Random, *, seed: int = 0) -> AugmentedInstance:
    """Clone ``source`` with its history reordered; everything else is kept.

    The reordering is uniform over the orderings that differ from the
    original sequence (for histories with duplicate turns each distinct
    ordering corresponds to equally many index permutations, so sampling
    distinct orderings and sampling non-identity permutations agree). The
    gold answer is preserved: the answered-question multiset is unchanged.
    """
    history = tuple(source.history)
    n = len(history)
    if n < 2:
        raise ValueError(f"{source.utterance_id}: need at least 2 history turns to shuffle")
    if len(set(history)) == 1:
        raise ValueError(f"{source.utterance_id}: every reordering equals the original history")
    if n <= 7:
        first_seen: dict[DialogTurn, int] = {}
        perms = _reorderings(tuple(first_seen.setdefault(turn, len(first_seen)) for turn in history))
        perm = perms[rng.randrange(len(perms))]
        sequence = tuple(history[i] for i in perm)
    else:
        indices = list(range(n))
        for _ in range(10000):
            rng.shuffle(indices)
            sequence = tuple(history[i] for i in indices)
            if sequence != history:
                perm = tuple(indices)
                break
        else:  # pragma: no cover - astronomically unlikely given the duplicate check
            raise ValueError(f"{source.utterance_id}: failed to sample a distinct reordering")
    detail = ",".join(map(str, perm))
    return _derive(source, Provenance.HISTORY_SHUFFLED, detail, seed, list(perm), history=list(sequence))


@dataclass
class AugmentManifest:
    """What one augmentation run did, class by class."""

    seed: int
    total_target: int
    keep_original: bool
    max_permutations_per_instance: int
    drop_replaced_history: bool
    class_targets: dict[str, float]
    target_counts: dict[str, int]
    original_counts: dict[str, int]
    generated_counts: dict[str, int]
    shortfalls: dict[str, int]
    achieved_counts: dict[str, int]
    achieved_marginals: dict[str, float]
    achieved_total: int
    provenance_counts: dict[str, int]
    duplicates_dropped: int
    original_duplicates_dropped: int


def _stream(seed: int, purpose: str, parent_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{purpose}|{parent_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def build_augmented_corpus(
    corpus: Sequence[Instance], config: AugmentConfig
) -> tuple[list[AugmentedInstance], AugmentManifest]:
    """Balance a corpus toward the configured class marginals.

    Originals are kept (under ``keep_original``), per-class deficits against
    ``round(target% × total_target)`` are then filled — Irrelevant by rule
    replacement over sources with a non-empty scenario, Yes/No/More by
    history shuffles of same-class sources — walking the eligible parents
    round-robin so provenance spreads across rules. Candidates whose content
    key (:func:`~sharctool.corpus.content_key`) was already emitted never
    count toward a quota; a deficit that cannot be filled with unique
    variants is reported as a shortfall rather than papered over.
    """
    config.validate(len(corpus))
    labels = [instance.label for instance in corpus]  # each input's class, derived once
    out: list[AugmentedInstance] = []
    seen_content: set[tuple] = set()
    used_ids: set[str] = set()  # only "aug-" ids: a generated id ("aug-" + 16 hex digits [+ "-dup"]) equals no other
    duplicates_dropped = 0
    original_duplicates = 0
    original_counts = {label: 0 for label in ClassLabel}

    if config.keep_original:
        for instance, label in zip(corpus, labels):
            key = content_key(instance)
            if key in seen_content:
                original_duplicates += 1
                continue
            seen_content.add(key)
            if instance.utterance_id.startswith("aug-"):
                used_ids.add(instance.utterance_id)
            out.append(AugmentedInstance(instance, Provenance.ORIGINAL, instance.utterance_id))
            original_counts[label] += 1

    target_counts = config.target_counts()
    deficits = {label: max(0, target_counts[label] - original_counts[label]) for label in ClassLabel}
    generated = {label: 0 for label in ClassLabel}

    def admit(candidate: AugmentedInstance, label: ClassLabel) -> bool:
        nonlocal duplicates_dropped
        key = content_key(candidate.instance)
        if key in seen_content:
            duplicates_dropped += 1
            return False
        if candidate.instance.utterance_id in used_ids:  # an original already has this id
            candidate.instance.utterance_id += "-dup"
        seen_content.add(key)
        used_ids.add(candidate.instance.utterance_id)
        out.append(candidate)
        generated[label] += 1
        return True

    def fill(label: ClassLabel, eligible, purpose: str, make, per_parent: Optional[int] = None) -> None:
        """Fill ``label``'s deficit walking round-robin the parents that ``eligible(parent, its class)`` accepts.

        ``make(parent, rng)`` returns a candidate, or raises ``ValueError`` to
        skip the parent for this pass. A duplicate candidate still counts as
        progress: the parent's stream moved, so a later pass can draw a new
        variant. A stream depends only on (seed, ``purpose``, parent id): the
        first pass keeps none, and a second visit re-makes it and replays the
        first call. Under ``per_parent`` a parent stops after that many
        admitted candidates or four times as many attempts. The walk stops
        when the deficit is met, after a pass without progress, or after 64 passes.
        """
        need = deficits[label]
        if not need:
            return
        parents = [inst for inst, cls in zip(corpus, labels) if eligible(inst, cls)]
        streams: dict[str, random.Random] = {}
        admitted: dict[str, int] = {}
        attempts: dict[str, int] = {}
        for sweep in range(64):
            progress = False
            for parent in parents:
                if generated[label] >= need:
                    return
                pid = parent.utterance_id
                if per_parent is not None:
                    if admitted.get(pid, 0) >= per_parent or attempts.get(pid, 0) >= 4 * per_parent:
                        continue
                    attempts[pid] = attempts.get(pid, 0) + 1
                if (rng := streams.get(pid)) is None:
                    rng = _stream(config.seed, purpose, pid)
                    if sweep:  # replay the first pass's call, whose stream was not kept
                        with suppress(ValueError):
                            make(parent, rng)
                        streams[pid] = rng
                try:
                    candidate = make(parent, rng)
                except ValueError:
                    continue
                progress = True
                if admit(candidate, label) and per_parent is not None:
                    admitted[pid] = admitted.get(pid, 0) + 1
            if not progress:
                return

    # Irrelevant by rule replacement over sources with a non-empty scenario;
    # Yes / No / More by history shuffles of same-class sources.
    fill(ClassLabel.IRRELEVANT, lambda inst, cls: inst.scenario.strip(), "rule-replace",
         lambda parent, rng: make_irrelevant_instance(
             parent, corpus, rng, seed=config.seed, drop_history=config.drop_replaced_history))
    for label in (ClassLabel.YES, ClassLabel.NO, ClassLabel.MORE):
        fill(label, lambda inst, cls: cls is label and _has_distinct_reordering(inst.history),
             f"shuffle-{label.value}", lambda parent, rng: shuffle_history_instance(parent, rng, seed=config.seed),
             config.max_permutations_per_instance)

    # Each generated instance has its fill's class: Irrelevant, or its parent's.
    achieved_counts = {label: original_counts[label] + generated[label] for label in ClassLabel}
    total = len(out)
    manifest = AugmentManifest(
        seed=config.seed,
        total_target=config.total_target,
        keep_original=config.keep_original,
        max_permutations_per_instance=config.max_permutations_per_instance,
        drop_replaced_history=config.drop_replaced_history,
        class_targets={label.value: pct for label, pct in config.class_targets.items()},
        target_counts={label.value: n for label, n in target_counts.items()},
        original_counts={label.value: n for label, n in original_counts.items()},
        generated_counts={label.value: n for label, n in generated.items()},
        shortfalls={label.value: max(0, deficits[label] - generated[label]) for label in ClassLabel},
        achieved_counts={label.value: n for label, n in achieved_counts.items()},
        achieved_marginals={
            label.value: (100.0 * n / total if total else 0.0) for label, n in achieved_counts.items()
        },
        achieved_total=total,
        provenance_counts={
            provenance.value: sum(1 for item in out if item.provenance is provenance)
            for provenance in Provenance
        },
        duplicates_dropped=duplicates_dropped,
        original_duplicates_dropped=original_duplicates,
    )
    return out, manifest


def write_augmented(path: str | Path, items: Iterable[AugmentedInstance]) -> None:
    """Write augmented instances as one-record-per-line JSON with provenance, atomically.

    Each line is the instance's record (see :func:`~sharctool.corpus.record_encoder`) plus ``provenance``,
    ``parent_id`` and ``permutation`` (a compact list of ints, or null), all keys in sorted order.
    """
    encode = record_encoder()

    def encode_item(item: AugmentedInstance) -> str:
        permutation = "null" if item.permutation is None else "[" + ",".join(map(str, item.permutation)) + "]"
        return encode(item.instance, f'"parent_id":{encode_basestring(item.parent_id)},"permutation":{permutation},'
                                     f'"provenance":{encode_basestring(item.provenance.value)},')

    write_jsonl(path, items, encode_item)
