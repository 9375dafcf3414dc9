"""End-to-end demo: probe -> augment -> probe -> tune -> score, via the CLI.

Runs every subcommand the way a user would, in a scratch directory, and
prints the side-by-side report at the end. Useful as a smoke test and as
executable documentation of the intended workflow.
"""

import argparse
import sys
from pathlib import Path

from sharctool.cli import main as sharctool

HERE = Path(__file__).resolve().parent


def run(argv: list[str]) -> None:
    print(f"$ sharctool {' '.join(argv)}")
    code = sharctool(argv)
    if code != 0:
        sys.exit(f"step failed (exit {code}): sharctool {' '.join(argv)}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="pipeline-out")
    parser.add_argument("--train", default=None, help="train corpus (defaults to the synthetic split)")
    parser.add_argument("--dev", default=None, help="dev corpus (defaults to the synthetic split)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)

    train = args.train
    dev = args.dev
    if train is None or dev is None:
        from sharctool.corpus import write_corpus
        from sharctool.synthcorpus import DEV_SPEC, TRAIN_SPEC, generate_split

        if train is None:
            train = str(work / "train.jsonl")
            write_corpus(train, generate_split(TRAIN_SPEC))
        if dev is None:
            dev = str(work / "dev.jsonl")
            write_corpus(dev, generate_split(DEV_SPEC))

    run(["validate", "--in", train])
    run(["probe", "--in", train, "--out", str(work / "probe-train.json"), "--split-name", "train"])
    run([
        "augment", "--in", train, "--seed", str(args.seed),
        "--out", str(work / "train-aug.jsonl"), "--manifest", str(work / "train-aug.build.json"),
    ])
    run([
        "probe", "--in", str(work / "train-aug.jsonl"),
        "--out", str(work / "probe-aug.json"), "--split-name", "train-augmented",
    ])
    run(["annotate", "--in", train, "--out", str(work / "train-markers.jsonl")])
    run(["tune", "--in", dev, "--out", str(work / "params.json"), "--trials", str(work / "trials.json")])
    run([
        "baseline", "--in", dev, "--params", str(work / "params.json"),
        "--out", str(work / "dev-pred.jsonl"),
    ])
    run([
        "evaluate", "--gold", dev, "--pred", str(work / "dev-pred.jsonl"),
        "--out", str(work / "dev-eval.json"),
    ])
    run([
        "report", "--original", str(work / "probe-train.json"),
        "--augmented", str(work / "probe-aug.json"),
    ])
    print(f"artifacts in {work}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
