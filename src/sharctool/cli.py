"""Command line entry point wiring the corpus pipeline together.

Every subcommand runs in one frame (:func:`_run`): it checks every input
and output path first, then loads and computes, stages its outputs and
commits them together. Each command with an output writes a
``<out>.manifest.json`` next to it recording the command line, tool
version, timestamps, and sha256 digests of every input and output, so any
artifact can be re-derived and checked byte for byte. Randomized commands
require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .augment import AugmentConfig, DEFAULT_TOTAL_TARGET, build_augmented_corpus, write_augmented
from .baseline import PolicyParams, load_params, load_predictions, predict_corpus, tune, write_predictions
from .corpus import (ClassLabel, LoadAudit, Memo, iter_corpus, load_corpus, read_json, staged_writes, write_corpus,
                     write_json, write_jsonl)
from .evaluate import cells, evaluate, gold_view, render_report
from .markers import BASIC_STOPWORDS, annotate_corpus, write_markers
from .probe import probe_corpus
from .ruleparse import DEFAULT_CUES, load_cues

DATA_DIR_ENV = "SHARCTOOL_DATA_DIR"

_TARGET_KEYS = {"irr": ClassLabel.IRRELEVANT, "yes": ClassLabel.YES, "no": ClassLabel.NO, "more": ClassLabel.MORE}


def _resolve_input(path: str) -> Path:
    """Absolute/existing paths win; otherwise try the default data directory, if the joined path is UTF-8 text."""
    candidate = Path(path)
    data_dir = os.environ.get(DATA_DIR_ENV)
    if candidate.exists() or candidate.is_absolute() or not data_dir or not (Path(data_dir) / path).exists():
        return candidate
    try:
        return Path(_utf8(os.path.join(data_dir, path)))
    except argparse.ArgumentTypeError as error:
        raise ValueError(f"{DATA_DIR_ENV}: {error}") from None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run(args: argparse.Namespace, config: dict, inputs, outputs, compute) -> int:
    """Run one command: check every path, then load, compute, and stage and commit its outputs and manifest.

    ``inputs`` lists ``(flag, path, load)``, the main input (which
    ``--expect-digest`` guards) first; the side inputs are loaded before it,
    so a bad small file fails fast, and a None path reaches ``compute`` as
    None. ``outputs`` lists ``(flag, path)``. ``compute`` takes the loaded
    inputs in declared order, writes the outputs, may add to ``config`` what
    it read, and returns the text to print. If the first output was staged,
    its manifest is staged last, with the digests of the staged outputs, and
    the old one is unlinked just before the first replace: a failure before
    the commit leaves every file as it was, and a commit cut short leaves no
    manifest. The input digests are taken after the load, and only for a
    manifest that will be written; ``--expect-digest`` checks the main
    input's before any load, and the manifest reuses that digest. The
    ``metrics`` block, outside ``config_digest``, records the seconds spent
    loading and computing (``compute_s``) and the process's peak RSS at the
    frame's start and before the commit.

    The cyclic collector is off from the first load to the commit, as nothing
    a command builds forms cycles that grow with the corpus; the caller's
    setting comes back on any exit.
    """
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    rss_at_start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    expect_digest = getattr(args, "expect_digest", None)
    targets = [(flag, str(Path(path))) for flag, path in outputs if path is not None]
    if targets:
        targets.append(("manifest", targets[0][1] + ".manifest.json"))

    sources = [None if path is None else _resolve_input(path) for _, path, _ in inputs]
    # Only a regular file can be read by both the loader and the digest; a pipe
    # is drained by the first read, and a FIFO with no writer blocks the first open.
    for (flag, path, _), source in zip(inputs, sources):
        if source is None or source.is_file():
            continue
        if source.is_dir():
            raise ValueError(f"{flag} {path}: Is a directory")
        raise ValueError(f"{flag} {path}: {'not a regular file' if source.exists() else 'input not found'}")
    digests = Memo(_sha256)  # each input's digest, read at most once
    if expect_digest is not None:
        digest = digests[sources[0]]
        if digest != expect_digest:
            raise ValueError(f"{inputs[0][0]} {inputs[0][1]}: digest mismatch: expected {expect_digest}, got {digest}")
    # An output may name neither another output nor a file the command reads.
    claimed = {Path(os.path.realpath(source)): f"{flag} {path}"
               for (flag, path, _), source in zip(inputs, sources) if source is not None}
    for flag, path in targets:
        target = Path(os.path.realpath(path))
        if not target.parent.is_dir():
            raise ValueError(f"{flag} {path}: {target.parent} is not a directory")
        if target.is_dir():
            raise ValueError(f"{flag} {path}: Is a directory")
        if target in claimed:
            raise ValueError(f"{flag} {path}: same file as {claimed[target]}")
        claimed[target] = f"{flag} {path}"

    def load(index: int):
        return None if sources[index] is None else inputs[index][2](sources[index])

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with staged_writes() as staged:
            began = time.perf_counter()
            side = [load(index) for index in range(1, len(inputs))]
            summary = compute(load(0), *side)
            computed = time.perf_counter()
            _check_printable(summary)
            written = {target: tmp for tmp, target in staged}
            output_digests = {path: _sha256(written[real]) for _, path in targets
                              if (real := Path(os.path.realpath(path))) in written}
            if targets and targets[0][1] in output_digests:
                manifest = Path(os.path.realpath(targets[-1][1]))
                write_json(manifest, {
                    "argv": args.argv,
                    "tool_version": __version__,
                    "started": started,
                    "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    "config_digest": _config_digest(config),
                    "config": config,
                    "input_digests": {str(source): digests[source] for source in sources if source is not None},
                    "output_digests": output_digests,
                    "metrics": {
                        "compute_s": round(computed - began, 4),
                        # ru_maxrss is the process's high-water mark, in KiB on Linux.
                        "peak_rss_at_start_mib": round(rss_at_start / 1024, 1),
                        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                    },
                })
                if staged[-1][1] == manifest and manifest.exists():
                    os.unlink(manifest)
    finally:
        if gc_was_enabled:
            gc.enable()
    print(summary)
    return 0


def _check_printable(summary: str) -> None:
    """Raise ``ValueError`` if stdout's codec cannot encode ``summary`` (a strict one and an output path that is
    not UTF-8); ``_run`` asks before its commit, so a summary that cannot print leaves every file as it was."""
    encoding = getattr(sys.stdout, "encoding", None)  # None for an in-memory stream, which takes any str
    if encoding:
        try:
            summary.encode(encoding, sys.stdout.errors or "strict")
        except UnicodeEncodeError as exc:
            raise ValueError(f"stdout cannot print the summary: {exc}") from None


def _utf8(text: str) -> str:
    """The argparse type of each path and ``--split-name``, which manifests and reports record: UTF-8 text."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not UTF-8 text") from None
    return text


def _int_at_least(minimum: int, maximum: float = math.inf):
    """An argparse type: an integer no smaller than ``minimum`` and no larger than ``maximum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {minimum}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{value} is above the maximum {maximum}")
        return value

    return parse


def _sha256_hex(text: str) -> str:
    """The argparse type of ``--expect-digest``: 64 hex digits in either case, lowercased."""
    digest = text.lower()
    if len(digest) != 64 or digest.strip("0123456789abcdef"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a sha256 digest (64 hex digits)")
    return digest


def _targets(spec: str) -> dict[ClassLabel, float]:
    """The argparse type of ``--targets``: class percentages, each class once, each finite and non-negative."""
    targets: dict[ClassLabel, float] = {}
    for part in spec.split(","):
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in _TARGET_KEYS:
            raise argparse.ArgumentTypeError(f"unknown class key {key!r} (want irr/yes/no/more)")
        if _TARGET_KEYS[key] in targets:
            raise argparse.ArgumentTypeError(f"class key {key!r} is given twice")
        try:
            percent = float(value)
        except ValueError:
            percent = math.nan
        if not 0 <= percent < math.inf:
            raise argparse.ArgumentTypeError(f"{key}={value.strip()!r} is not a finite, non-negative number")
        targets[_TARGET_KEYS[key]] = percent
    return targets


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    audit = LoadAudit()

    def compute(instances):
        if args.out:
            write_corpus(args.out, instances)
        else:
            for _ in instances:
                pass
        lines = [
            f"validated {_resolve_input(args.infile)}",
            f"  records read:        {audit.records_read}",
            f"  instances kept:      {audit.instances_kept}",
            f"  instances dropped:   {audit.dropped_instances}",
            f"  evidence items dropped: {audit.dropped_evidence_items}",
            f"  duplicate ids dropped:  {audit.duplicate_ids_dropped}",
        ]
        lines += [f"    {reason}: {count}" for reason, count in sorted(audit.reasons.items())]
        return "\n".join(lines)

    return _run(args, {"strictness": "strict" if args.strict else "lenient"},
                [("--in", args.infile, lambda path: iter_corpus(path, strict=args.strict, audit=audit))],
                [("--out", args.out)], compute)


def _cmd_probe(args: argparse.Namespace) -> int:
    def compute(corpus):
        report = probe_corpus(corpus, split_name=args.split_name, min_support=args.min_support)
        write_json(args.out, asdict(report))
        dist = report.class_distribution
        agreement = report.last_followup_agreement.percent
        return "\n".join([
            f"probe[{args.split_name or 'corpus'}]: {report.instance_count} instances",
            "  class %: " + "  ".join(f"{k.value}={v:.2f}" for k, v in dist.items()),
            f"  last-answer agreement: {agreement if agreement is None else round(agreement, 2)}",
            f"  followup-rate spearman: {report.followup_rate_spearman}",
        ])

    return _run(args, {"split_name": args.split_name, "min_support": args.min_support},
                [("--in", args.infile, iter_corpus)], [("--out", args.out)], compute)


def _cmd_augment(args: argparse.Namespace) -> int:
    config = AugmentConfig(
        seed=args.seed,
        total_target=args.total,
        max_permutations_per_instance=args.max_perms,
        keep_original=not args.no_keep_original,
        drop_replaced_history=args.drop_replaced_history,
        **({"class_targets": args.targets} if args.targets else {}),
    )
    config.validate(0)  # all but the --total check, which needs the corpus size, before the corpus is read
    build_path = args.manifest or args.out + ".build.json"

    def compute(corpus):
        augmented, build = build_augmented_corpus(corpus, config)
        write_augmented(args.out, augmented)
        write_json(build_path, asdict(build))
        lines = [f"augmented corpus: {build.achieved_total} instances -> {Path(args.out)}"]
        lines += [f"  {label}: {pct:.2f}%" for label, pct in build.achieved_marginals.items()]
        shortfalls = {k: v for k, v in build.shortfalls.items() if v}
        if shortfalls:
            lines.append(f"  shortfalls: {shortfalls}")
        return "\n".join(lines)

    return _run(args, {"seed": args.seed, "total": args.total, "targets": args.targets,
                       "keep_original": not args.no_keep_original, "max_perms": args.max_perms,
                       "drop_replaced_history": args.drop_replaced_history},
                [("--in", args.infile, load_corpus)], [("--out", args.out), ("--manifest", build_path)],
                compute)


def _cmd_annotate(args: argparse.Namespace) -> int:
    stopwords = BASIC_STOPWORDS if args.stopwords == "basic" else frozenset()

    def compute(corpus):
        _, stats = annotate_corpus(corpus, use_normalized=not args.raw_tokens, stopwords=stopwords,
                                   sink=lambda rows: write_markers(args.out, rows))
        coverage = stats.span_coverage
        lines = [
            f"annotated {stats.instances} instances -> {Path(args.out)}",
            f"  gold-span coverage on More: {'n/a' if coverage is None else f'{100 * coverage:.2f}%'}",
        ]
        flagged = stats.more_instances - stats.more_with_span
        if flagged:
            lines.append(f"  flags: {dict(empty_gold_span=flagged)}")
        return "\n".join(lines)

    return _run(args, {"stopwords": args.stopwords, "raw_tokens": args.raw_tokens},
                [("--in", args.infile, iter_corpus)], [("--out", args.out)], compute)


def _cmd_baseline(args: argparse.Namespace) -> int:
    config: dict = {}

    def compute(corpus, params, cues):
        params = params or PolicyParams()
        config["params"] = asdict(params)
        _, steps = predict_corpus(corpus, params, cues or DEFAULT_CUES,
                                  sink=lambda rows: write_predictions(args.out, rows))
        fired = {str(step): count for step, count in sorted(steps.items())}
        return f"baseline predictions: {steps.total()} -> {Path(args.out)}\n  policy steps fired: {fired}"

    return _run(args, config,
                [("--in", args.infile, iter_corpus), ("--params", args.params, load_params),
                 ("--cues", args.cues, load_cues)],
                [("--out", args.out)], compute)


def _cmd_tune(args: argparse.Namespace) -> int:
    def compute(corpus, cues):
        result = tune(corpus, cues=cues or DEFAULT_CUES)
        write_json(args.out, asdict(result.best_params))
        if args.trials:
            write_json(args.trials, asdict(result))
        return (f"tuned on {result.instance_count} instances over {len(result.trials)} grid points\n"
                f"  best combined: {result.best_combined:.2f} with {asdict(result.best_params)}")

    return _run(args, {"grid": "default"},
                [("--in", args.infile, iter_corpus), ("--cues", args.cues, load_cues)],
                [("--out", args.out), ("--trials", args.trials)], compute)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    def compute(gold, predictions):
        report = evaluate(cells(gold, predictions), sentence_average_bleu=args.sentence_bleu)
        write_json(args.out, asdict(report))
        return render_report(report, title=Path(args.gold).name)

    return _run(args, {"sentence_bleu": args.sentence_bleu},
                [("--gold", args.gold, lambda path: gold_view(iter_corpus(path))),
                 ("--pred", args.pred, load_predictions)],
                [("--out", args.out)], compute)


_PROBE_ROWS = (
    *((f"{label} %", f"class_distribution.{label}") for label in ("Irrelevant", "Yes", "No", "More")),
    ("instances", "instance_count"),
    ("agreement %", "last_followup_agreement.percent"),
    ("P(empty | Irrelevant)", "irrelevant_context.p_empty_context_given_irrelevant"),
    ("P(Irrelevant | empty)", "irrelevant_context.p_irrelevant_given_empty_context"),
    ("followup-rate spearman", "followup_rate_spearman"),
)

_EVAL_ROWS = (
    ("micro accuracy", "micro_accuracy"),
    ("macro accuracy", "macro_accuracy"),
    ("BLEU-1", "bleu1"),
    ("BLEU-4", "bleu4"),
    ("combined", "combined"),
)


def _dig(report: dict, key: str) -> object:
    value: object = report
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def _fmt_cell(value: object) -> str:
    return "--" if value is None else f"{value:.2f}" if isinstance(value, float) else str(value)


def _load_report(path: Path) -> tuple[dict, str]:
    """Read a report and tell its kind: ``probe`` or ``eval``."""
    report = read_json(path)
    if isinstance(report, dict):
        if "class_distribution" in report:
            return report, "probe"
        if "micro_accuracy" in report:
            return report, "eval"
    raise ValueError(f"{path}: neither a probe report nor an eval report")


def _cmd_report(args: argparse.Namespace) -> int:
    def compute(first, second):
        (original, kind), (augmented, augmented_kind) = first, second
        if augmented_kind != kind:
            raise ValueError(
                f"{args.augmented}: a {augmented_kind!r} report cannot be compared with the {kind!r} report {args.original}"
            )
        lines = [f"{'':28}{'original':>14}{'augmented':>14}"]
        for title, key in _PROBE_ROWS if kind == "probe" else _EVAL_ROWS:
            lines.append(f"{title:28}{_fmt_cell(_dig(original, key)):>14}{_fmt_cell(_dig(augmented, key)):>14}")
        if args.out:
            write_jsonl(args.out, lines, str)
        return "\n".join(lines)

    return _run(args, {}, [("--original", args.original, _load_report),
                           ("--augmented", args.augmented, _load_report)], [("--out", args.out)], compute)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharctool",
        description="Probe, rebalance, annotate, and score a ShARC-style corpus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, main_input: Optional[str] = "--in") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if main_input:
            p.add_argument(main_input, dest="infile" if main_input == "--in" else None, type=_utf8, required=True)
            p.add_argument("--expect-digest", type=_sha256_hex, help=f"require this sha256 of {main_input}")
        return p

    p = command("validate", _cmd_validate, "check a corpus file and report an ingestion audit")
    p.add_argument("--strict", action="store_true", help="abort on any malformed record")
    p.add_argument("--out", type=_utf8, default=None, help="write the canonical serialization here")

    p = command("probe", _cmd_probe, "measure class balance and shortcut statistics")
    p.add_argument("--out", type=_utf8, required=True)
    p.add_argument("--split-name", type=_utf8, default="")
    p.add_argument("--min-support", type=_int_at_least(0), default=30)

    p = command("augment", _cmd_augment, "rebalance the corpus toward target marginals")
    p.add_argument("--seed", type=int, required=True, help="explicit RNG seed (no clock seeding)")
    # Up to 2**53 every count is a float exactly, so target percentages of it cannot overflow.
    p.add_argument("--total", type=_int_at_least(1, 2**53), default=DEFAULT_TOTAL_TARGET)
    p.add_argument("--targets", type=_targets, default=None, help="e.g. irr=22.41,yes=27.09,no=28.11,more=22.39")
    p.add_argument("--max-perms", type=_int_at_least(1), default=3, help="shuffles emitted per parent instance")
    p.add_argument("--no-keep-original", action="store_true", help="emit generated instances only")
    p.add_argument("--drop-replaced-history", action="store_true")
    p.add_argument("--out", type=_utf8, required=True)
    p.add_argument("--manifest", type=_utf8, default=None, help="where to write the generation manifest")

    p = command("annotate", _cmd_annotate, "emit per-token marker and span supervision")
    p.add_argument("--out", type=_utf8, required=True)
    p.add_argument("--stopwords", choices=("none", "basic"), default="none")
    p.add_argument("--raw-tokens", action="store_true",
                   help="match raw surfaces, not normalized forms; punctuation and markdown markers then match too")

    p = command("baseline", _cmd_baseline,
                "run the rule-based policy over a corpus ('baseline tune' is 'tune --out params.json')")
    p.add_argument("--out", type=_utf8, required=True)
    p.add_argument("--params", type=_utf8, default=None, help="policy parameter file (JSON)")
    p.add_argument("--cues", type=_utf8, default=None, help="cue-word configuration file")

    p = command("tune", _cmd_tune, "grid-search policy thresholds on a dev corpus")
    p.add_argument("--out", type=_utf8, required=True, help="where to write the best parameter file")
    p.add_argument("--trials", type=_utf8, default=None, help="optional full grid results (JSON)")
    p.add_argument("--cues", type=_utf8, default=None)

    p = command("evaluate", _cmd_evaluate, "score predictions against a gold corpus", "--gold")
    p.add_argument("--pred", type=_utf8, required=True)
    p.add_argument("--out", type=_utf8, required=True)
    p.add_argument("--sentence-bleu", action="store_true", help="diagnostic sentence-averaged BLEU")

    p = command("report", _cmd_report, "side-by-side comparison of two probe or eval reports", None)
    p.add_argument("--original", type=_utf8, required=True)
    p.add_argument("--augmented", type=_utf8, required=True)
    p.add_argument("--out", type=_utf8, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    # `baseline tune --in dev` is the documented spelling of `tune --in dev --out params.json`.
    alias = ["tune", "--out", "params.json", *argv[2:]] if argv[:2] == ["baseline", "tune"] else argv
    args = build_parser().parse_args(alias)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
