"""Write the bundled synthetic ShARC-format train/dev splits to disk.

The real ShARC release cannot be redistributed, so the repository carries a
deterministic generator instead. This script materializes both splits as
JSONL files. Only the test suite reads SHARC_TRAIN_JSON / SHARC_DEV_JSON
(tests/conftest.py and tests/test_synthcorpus.py): point them at real data
to run the tests on it. scripts/run_pipeline.py takes its splits from
--train / --dev instead, and each sharctool command from its own flags.
"""

import argparse
from pathlib import Path

from sharctool.corpus import write_corpus
from sharctool.probe import probe_corpus
from sharctool.synthcorpus import DEV_SPEC, TRAIN_SPEC, generate_split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="directory for train.jsonl / dev.jsonl")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in (TRAIN_SPEC, DEV_SPEC):
        corpus = generate_split(spec)
        path = out_dir / f"{spec.name}.jsonl"
        write_corpus(path, corpus)
        report = probe_corpus(corpus, split_name=spec.name)
        dist = "  ".join(f"{label.value}={pct:.2f}" for label, pct in report.class_distribution.items())
        print(f"{path}: {len(corpus)} instances  [{dist}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
