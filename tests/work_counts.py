"""Exact counts of the work that `annotate`, `tune`, `baseline` and `evaluate` do on the bundled dev split.

Each command runs in process through ``sharctool.cli.main``, in that order, on the dev split that
``synthcorpus.DEV_SPEC`` generates; ``baseline`` runs on default parameters. For each command it counts:

- the misses of each kind of the pass memo (``tokenize``, ``coverage``, ``bleu``), which are the computations
  that a corpus pass does not share;
- the calls of ``markers._lcs_rows``, ``baseline._decide``, ``evaluate.evaluate``, ``evaluate.bleu`` and
  ``ruleparse.parse_rule``.

Counts do not drift with the host the way wall times do, so ``tests/test_work_budget.py`` gates them against
``tests/work_budget.json``. The module needs no test extras, so any supported Python can run it::

    PYTHONPATH=src:tests python -m work_counts | diff tests/work_budget.json -
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from sharctool import baseline, cli, evaluate, markers, ruleparse
from sharctool.corpus import PASS_KINDS, write_corpus
from sharctool.synthcorpus import DEV_SPEC, generate_split

# counter -> the function whose calls it counts
CALLS = {
    "lcs_rows_calls": markers._lcs_rows,
    "decide_calls": baseline._decide,
    "evaluate_calls": evaluate.evaluate,
    "bleu_calls": evaluate.bleu,
    "parse_rule_calls": ruleparse.parse_rule,
}
MEMO_KINDS = ("tokenize", "coverage", "bleu")


def _commands(work: Path) -> dict[str, list[str]]:
    dev, pred = str(work / "dev.jsonl"), str(work / "pred.jsonl")
    return {
        "annotate": ["annotate", "--in", dev, "--out", str(work / "markers.jsonl")],
        "tune": ["tune", "--in", dev, "--out", str(work / "params.json"), "--trials", str(work / "trials.json")],
        "baseline": ["baseline", "--in", dev, "--out", pred],
        "evaluate": ["evaluate", "--gold", dev, "--pred", pred, "--out", str(work / "eval.json")],
    }


@contextlib.contextmanager
def _counting(counts: dict[str, int]):
    """Count into ``counts`` while the block runs: every ``sharctool`` binding of each function in :data:`CALLS`,
    and each kind of :data:`~sharctool.corpus.PASS_KINDS`, is swapped for a counting wrapper, then put back."""

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    restore = []
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "sharctool"]
    for name, func in CALLS.items():
        wrapper = counted(name, func)
        for module in modules:
            for attr in [attr for attr, value in vars(module).items() if value is func]:
                restore.append((module, attr, func))
                setattr(module, attr, wrapper)
    kinds = {kind: PASS_KINDS[kind] for kind in MEMO_KINDS if kind in PASS_KINDS}
    PASS_KINDS.update({kind: counted(f"{kind}_misses", compute) for kind, compute in kinds.items()})
    try:
        yield
    finally:
        PASS_KINDS.update(kinds)
        for module, attr, value in restore:
            setattr(module, attr, value)


def work_counts() -> dict[str, dict[str, int]]:
    """Each command's counts, commands in the order they run and counters in name order."""
    names = sorted([*CALLS, *(f"{kind}_misses" for kind in MEMO_KINDS)])
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_corpus(work / "dev.jsonl", generate_split(DEV_SPEC))
        for command, argv in _commands(work).items():
            counts = dict.fromkeys(names, 0)
            with _counting(counts), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"sharctool {command} exited {code}")
            out[command] = counts
    return out


def main() -> int:
    print(json.dumps(work_counts(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
