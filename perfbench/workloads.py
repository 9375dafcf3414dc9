"""Benchmark workloads: inputs made from a seed, and the commands run on them.

``--seed n`` shifts every seed the workloads use by ``n``: the train split is
generated from seed ``2024 + n``, the dev split from ``7171 + n`` and
``augment`` runs with ``--seed 13+n``. Seed 0 therefore gives the bundled
splits and the paper-reproduction augmentation seed.

Every command is given relative paths and run from the work directory, so
argv (and with it each manifest's ``argv``) is the same on every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

AUGMENT_SEED = 13


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # Non-manifest artifacts the command writes; the first is its primary
    # output, next to which it writes ``<primary>.manifest.json``.
    artifacts: tuple[str, ...]

    @property
    def manifest(self) -> str:
        return self.artifacts[0] + ".manifest.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    splits: tuple[str, ...]
    commands: Callable[[int], list[Command]]  # seed -> the command sequence


def _annotate_score(seed: int) -> list[Command]:
    return [
        Command(("annotate", "--in", "train.jsonl", "--out", "markers.jsonl"), ("markers.jsonl",)),
        Command(("tune", "--in", "dev.jsonl", "--out", "params.json"), ("params.json",)),
        Command(
            ("baseline", "--in", "dev.jsonl", "--params", "params.json", "--out", "pred.jsonl"),
            ("pred.jsonl",),
        ),
        Command(("evaluate", "--gold", "dev.jsonl", "--pred", "pred.jsonl", "--out", "eval.json"), ("eval.json",)),
    ]


def _rebalance_train(seed: int) -> list[Command]:
    return [
        Command(("validate", "--in", "train.jsonl", "--out", "train.valid.jsonl"), ("train.valid.jsonl",)),
        Command(
            ("probe", "--in", "train.valid.jsonl", "--out", "probe.json", "--split-name", "train"),
            ("probe.json",),
        ),
        Command(
            ("augment", "--in", "train.valid.jsonl", "--seed", str(AUGMENT_SEED + seed), "--out", "aug.jsonl"),
            ("aug.jsonl", "aug.jsonl.build.json"),
        ),
        Command(
            ("probe", "--in", "aug.jsonl", "--out", "probe-aug.json", "--split-name", "train-augmented"),
            ("probe-aug.json",),
        ),
    ]


# Why each workload exists. Together they cover every traced layer, and a
# tokenize, LCS or BLEU cache acts on the first and must change nothing on
# the second. (Annotate and scoring share one workload: each run then
# measures over a longer window, which the host's minute-scale speed swings
# need.)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "annotate-score",
            "annotate on train, then tune, baseline, evaluate on dev: tokenize, LCS and BLEU dominate and their inputs repeat",
            ("train", "dev"),
            _annotate_score,
        ),
        Workload(
            "rebalance-train",
            "validate, probe, augment, probe on train: JSONL load/write, content hashing and four cold starts; no tokenize, LCS or BLEU",
            ("train",),
            _rebalance_train,
        ),
    )
}


def split_spec(split: str, seed: int):
    from sharctool.synthcorpus import DEV_SPEC, TRAIN_SPEC

    base = {"train": TRAIN_SPEC, "dev": DEV_SPEC}[split]
    return dataclasses.replace(base, seed=base.seed + seed)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def make_inputs(workload: Workload, seed: int, workdir: Path) -> dict:
    """Generate and write the workload's input splits; describe each one."""
    from sharctool.corpus import write_corpus
    from sharctool.synthcorpus import generate_split

    described = {}
    for split in workload.splits:
        spec = split_spec(split, seed)
        start = time.perf_counter()
        corpus = generate_split(spec)
        generate_s = time.perf_counter() - start
        path = workdir / f"{split}.jsonl"
        write_corpus(path, corpus)
        described[f"{split}.jsonl"] = {
            "split_seed": spec.seed,
            "instances": len(corpus),
            "bytes": path.stat().st_size,
            "distinct_rule_texts": len({instance.rule_text for instance in corpus}),
            "sha256": sha256_file(path),
            "generate_s": generate_s,
        }
    return described
