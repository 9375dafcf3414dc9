"""Command line entry point wiring the corpus pipeline together.

Each artifact-producing subcommand writes a ``<out>.manifest.json`` next to
its output recording the command line, tool version, timestamps, and sha256
digests of every input and output, so any artifact can be re-derived and
checked byte for byte. Randomized commands require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .augment import AugmentConfig, DEFAULT_TOTAL_TARGET, build_augmented_corpus, write_augmented
from .baseline import (
    PolicyParams,
    load_params,
    load_predictions,
    predict_corpus,
    tune,
    write_params,
    write_predictions,
)
from .corpus import ClassLabel, LoadAudit, load_corpus, load_corpus_audited, write_corpus, write_json, write_jsonl
from .evaluate import evaluate, load_report, render_report, write_report
from .markers import BASIC_STOPWORDS, annotate_corpus
from .probe import probe_corpus
from .ruleparse import DEFAULT_CUES, load_cues

DATA_DIR_ENV = "SHARCTOOL_DATA_DIR"

_TARGET_KEYS = {
    "irr": ClassLabel.IRRELEVANT,
    "yes": ClassLabel.YES,
    "no": ClassLabel.NO,
    "more": ClassLabel.MORE,
}


def _resolve_input(path: str) -> Path:
    """Absolute/existing paths win; otherwise try the default data directory."""
    candidate = Path(path)
    if candidate.exists() or candidate.is_absolute():
        return candidate
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        fallback = Path(data_dir) / path
        if fallback.exists():
            return fallback
    return candidate


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Manifest:
    """Collects run provenance and writes it next to the primary output."""

    def __init__(self, argv: Sequence[str], config: dict):
        self.argv = list(argv)
        self.config = config
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = _sha256(path)

    def add_output(self, path: Path) -> None:
        self.outputs[str(path)] = _sha256(path)

    def write(self, primary_output: Path) -> Path:
        body = {
            "argv": self.argv,
            "tool_version": __version__,
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "config_digest": _config_digest(self.config),
            "config": self.config,
            "input_digests": self.inputs,
            "output_digests": self.outputs,
        }
        path = Path(str(primary_output) + ".manifest.json")
        write_json(path, body)
        return path


def _check_input(path: str, expect_digest: Optional[str]) -> Path:
    """Resolve an input path and verify its sha256 before anything reads it."""
    resolved = _resolve_input(path)
    if not resolved.exists():
        raise FileNotFoundError(f"input not found: {path}")
    if expect_digest:
        actual = _sha256(resolved)
        if actual != expect_digest:
            raise ValueError(f"digest mismatch for {resolved}: expected {expect_digest}, got {actual}")
    return resolved


def _load_checked(path: str, expect_digest: Optional[str], manifest: Optional[_Manifest]):
    resolved = _check_input(path, expect_digest)
    if manifest is not None:
        manifest.add_input(resolved)
    return _load_frozen(load_corpus, resolved)


def _load_frozen(load, *args):
    """Call a corpus loader, then move everything it built out of the collector's reach.

    The process runs one command, so no collection needs to walk the corpus
    again. The collector stays off until the freeze: re-enabling it first
    would walk the whole new corpus once in the next young-generation
    collection.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        loaded = load(*args)
        gc.freeze()
        return loaded
    finally:
        if was_enabled:
            gc.enable()


def _parse_targets(spec: str) -> dict[ClassLabel, float]:
    targets: dict[ClassLabel, float] = {}
    for part in spec.split(","):
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in _TARGET_KEYS:
            raise ValueError(f"unknown class key {key!r} in --targets (want irr/yes/no/more)")
        targets[_TARGET_KEYS[key]] = float(value)
    if len(targets) != 4:
        raise ValueError("--targets must name all four classes")
    return targets


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    resolved = _check_input(args.infile, args.expect_digest)
    strictness = "strict" if args.strict else "lenient"
    instances, audit = _load_frozen(load_corpus_audited, resolved, strictness)
    print(_render_audit(resolved, audit))
    if args.out:
        manifest = _Manifest(args.argv, {"strictness": strictness})
        manifest.add_input(resolved)
        write_corpus(args.out, instances)
        manifest.add_output(Path(args.out))
        manifest.write(Path(args.out))
    return 0


def _render_audit(path: Path, audit: LoadAudit) -> str:
    lines = [
        f"validated {path}",
        f"  records read:        {audit.records_read}",
        f"  instances kept:      {audit.instances_kept}",
        f"  instances dropped:   {audit.dropped_instances}",
        f"  evidence items dropped: {audit.dropped_evidence_items}",
        f"  duplicate ids dropped:  {audit.duplicate_ids_dropped}",
    ]
    for reason, count in sorted(audit.reasons.items()):
        lines.append(f"    {reason}: {count}")
    return "\n".join(lines)


def _cmd_probe(args: argparse.Namespace) -> int:
    manifest = _Manifest(args.argv, {"split_name": args.split_name, "min_support": args.min_support})
    corpus = _load_checked(args.infile, args.expect_digest, manifest)
    report = probe_corpus(corpus, split_name=args.split_name, min_support=args.min_support)
    out = Path(args.out)
    write_json(out, report.to_dict())
    manifest.add_output(out)
    manifest.write(out)
    dist = report.class_distribution
    print(f"probe[{args.split_name or 'corpus'}]: {report.instance_count} instances")
    print("  class %: " + "  ".join(f"{k.value}={v:.2f}" for k, v in dist.items()))
    agreement = report.last_followup_agreement.percent
    print(f"  last-answer agreement: {agreement if agreement is None else round(agreement, 2)}")
    print(f"  followup-rate spearman: {report.followup_rate_spearman}")
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    config_kwargs = {}
    if args.targets:
        config_kwargs["class_targets"] = _parse_targets(args.targets)
    config = AugmentConfig(
        seed=args.seed,
        total_target=args.total,
        max_permutations_per_instance=args.max_perms,
        keep_original=not args.no_keep_original,
        drop_replaced_history=args.drop_replaced_history,
        **config_kwargs,
    )
    manifest = _Manifest(args.argv, {"seed": args.seed, "total": args.total, "targets": args.targets,
                                        "keep_original": not args.no_keep_original,
                                        "max_perms": args.max_perms,
                                        "drop_replaced_history": args.drop_replaced_history})
    corpus = _load_checked(args.infile, args.expect_digest, manifest)
    augmented, build_manifest = build_augmented_corpus(corpus, config)
    out = Path(args.out)
    write_augmented(out, augmented)
    manifest.add_output(out)
    build_path = Path(args.manifest) if args.manifest else Path(str(out) + ".build.json")
    write_json(build_path, build_manifest.to_dict())
    manifest.add_output(build_path)
    manifest.write(out)
    print(f"augmented corpus: {build_manifest.achieved_total} instances -> {out}")
    for label, pct in build_manifest.achieved_marginals.items():
        print(f"  {label}: {pct:.2f}%")
    shortfalls = {k: v for k, v in build_manifest.shortfalls.items() if v}
    if shortfalls:
        print(f"  shortfalls: {shortfalls}")
    return 0


# markers.jsonl keeps its own encoding, not dumps_record's: non-ASCII kept,
# default separators, keys in insertion order.
_ANNOTATION_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _cmd_annotate(args: argparse.Namespace) -> int:
    stopwords = BASIC_STOPWORDS if args.stopwords == "basic" else frozenset()
    manifest = _Manifest(args.argv, {"stopwords": args.stopwords, "raw_tokens": args.raw_tokens})
    corpus = _load_checked(args.infile, args.expect_digest, manifest)
    annotations, stats = annotate_corpus(
        corpus, use_normalized=not args.raw_tokens, stopwords=stopwords
    )
    out = Path(args.out)
    write_jsonl(out, (a.to_record() for a in annotations), _ANNOTATION_ENCODER.encode)
    manifest.add_output(out)
    manifest.write(out)
    coverage = stats.span_coverage
    print(f"annotated {stats.instances} instances -> {out}")
    print(f"  gold-span coverage on More: "
          f"{'n/a' if coverage is None else f'{100 * coverage:.2f}%'}")
    if stats.flag_counts:
        print(f"  flags: {dict(sorted(stats.flag_counts.items()))}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    if args.mode == "tune":  # `baseline tune --in dev` is the documented spelling
        args.trials = None
        if args.out is None:
            args.out = "params.json"
        return _cmd_tune(args)
    if args.out is None:
        print("error: baseline requires --out (or the 'tune' mode)", file=sys.stderr)
        return 1
    params = load_params(args.params) if args.params else PolicyParams()
    cues = load_cues(args.cues) if args.cues else DEFAULT_CUES
    manifest = _Manifest(args.argv, {"params": params.to_dict()})
    corpus = _load_checked(args.infile, args.expect_digest, manifest)
    predictions, stats = predict_corpus(corpus, params, cues)
    out = Path(args.out)
    write_predictions(out, predictions)
    manifest.add_output(out)
    manifest.write(out)
    print(f"baseline predictions: {len(predictions)} -> {out}")
    print(f"  policy steps fired: {stats.to_dict()['step_counts']}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    cues = load_cues(args.cues) if args.cues else DEFAULT_CUES
    manifest = _Manifest(args.argv, {"grid": "default"})
    corpus = _load_checked(args.infile, args.expect_digest, manifest)
    result = tune(corpus, cues=cues)
    out = Path(args.out)
    write_params(out, result.best_params)
    manifest.add_output(out)
    if args.trials:
        write_json(args.trials, result.to_dict())
        manifest.add_output(Path(args.trials))
    manifest.write(out)
    print(f"tuned on {result.instance_count} instances over {len(result.trials)} grid points")
    print(f"  best combined: {result.best_combined:.2f} with {result.best_params.to_dict()}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = _Manifest(args.argv, {"sentence_bleu": args.sentence_bleu})
    gold = _load_checked(args.gold, args.expect_digest, manifest)
    pred_path = _resolve_input(args.pred)
    manifest.add_input(pred_path)
    predictions = load_predictions(pred_path)
    report = evaluate(gold, predictions, sentence_average_bleu=args.sentence_bleu)
    out = Path(args.out)
    write_report(out, report)
    manifest.add_output(out)
    manifest.write(out)
    print(render_report(report, title=Path(args.gold).name))
    return 0


_PROBE_ROWS = (
    ("instances", "instance_count"),
    ("agreement %", ("last_followup_agreement", "percent")),
    ("P(empty | Irrelevant)", ("irrelevant_context", "p_empty_context_given_irrelevant")),
    ("P(Irrelevant | empty)", ("irrelevant_context", "p_irrelevant_given_empty_context")),
    ("followup-rate spearman", "followup_rate_spearman"),
)

_EVAL_ROWS = (
    ("micro accuracy", "micro_accuracy"),
    ("macro accuracy", "macro_accuracy"),
    ("BLEU-1", "bleu1"),
    ("BLEU-4", "bleu4"),
    ("combined", "combined"),
)


def _dig(report: dict, key) -> object:
    if isinstance(key, tuple):
        value: object = report
        for part in key:
            value = value.get(part) if isinstance(value, dict) else None
        return value
    return report.get(key)


def _fmt_cell(value: object) -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _load_report(path: str) -> tuple[dict, str]:
    """Read a report and tell its kind: ``probe`` or ``eval``."""
    try:
        report = load_report(_resolve_input(path))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(report, dict):
        if "class_distribution" in report:
            return report, "probe"
        if "micro_accuracy" in report:
            return report, "eval"
    raise ValueError(f"{path}: neither a probe report nor an eval report")


def _cmd_report(args: argparse.Namespace) -> int:
    original, kind = _load_report(args.original)
    augmented, augmented_kind = _load_report(args.augmented)
    if augmented_kind != kind:
        raise ValueError(
            f"{args.augmented}: a {augmented_kind!r} report cannot be compared with the {kind!r} report {args.original}"
        )
    lines = [f"{'':28}{'original':>14}{'augmented':>14}"]
    if kind == "probe":
        for label in ("Irrelevant", "Yes", "No", "More"):
            row = (
                _dig(original, ("class_distribution", label)),
                _dig(augmented, ("class_distribution", label)),
            )
            lines.append(f"{label + ' %':28}{_fmt_cell(row[0]):>14}{_fmt_cell(row[1]):>14}")
        rows = _PROBE_ROWS
    else:
        rows = _EVAL_ROWS
    for title, key in rows:
        lines.append(
            f"{title:28}{_fmt_cell(_dig(original, key)):>14}{_fmt_cell(_dig(augmented, key)):>14}"
        )
    print("\n".join(lines))
    if args.out:
        write_jsonl(args.out, lines, str)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--expect-digest", default=None, help="require this sha256 of the main input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharctool",
        description="Probe, rebalance, annotate, and score a ShARC-style corpus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus file and report an ingestion audit")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strict", action="store_true", help="abort on any malformed record")
    p.add_argument("--out", default=None, help="write the canonical serialization here")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("probe", help="measure class balance and shortcut statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split-name", default="")
    p.add_argument("--min-support", type=int, default=30)
    _add_common(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("augment", help="rebalance the corpus toward target marginals")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True, help="explicit RNG seed (no clock seeding)")
    p.add_argument("--total", type=int, default=DEFAULT_TOTAL_TARGET)
    p.add_argument("--targets", default=None, help="e.g. irr=22.41,yes=27.09,no=28.11,more=22.39")
    p.add_argument("--max-perms", type=int, default=3, help="shuffles emitted per parent instance")
    p.add_argument("--no-keep-original", action="store_true", help="emit generated instances only")
    p.add_argument("--drop-replaced-history", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None, help="where to write the generation manifest")
    _add_common(p)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("annotate", help="emit per-token marker and span supervision")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stopwords", choices=("none", "basic"), default="none")
    p.add_argument("--raw-tokens", action="store_true", help="match raw surfaces, not normalized forms")
    _add_common(p)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("baseline", help="run the rule-based policy over a corpus")
    p.add_argument("mode", nargs="?", choices=("tune",),
                   help="'baseline tune --in <dev>' grid-searches instead of predicting")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--params", default=None, help="policy parameter file (JSON)")
    p.add_argument("--cues", default=None, help="cue-word configuration file")
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("tune", help="grid-search policy thresholds on a dev corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="where to write the best parameter file")
    p.add_argument("--trials", default=None, help="optional full grid results (JSON)")
    p.add_argument("--cues", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("evaluate", help="score predictions against a gold corpus")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sentence-bleu", action="store_true", help="diagnostic sentence-averaged BLEU")
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="side-by-side comparison of two probe or eval reports")
    p.add_argument("--original", required=True)
    p.add_argument("--augmented", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
