"""Output-correctness gate.

sharctool's outputs are byte-deterministic for a given input and seed, so
the gate compares the SHA-256 of every non-manifest artifact with a
recorded digest (``expected_digests.json``, keyed by workload and seed).
For a seed with no record, the first checked pass of the run becomes the
reference and every later pass must reproduce it. Manifests carry
timestamps, so instead of their bytes the gate checks that their
``output_digests`` name each artifact with its actual digest.

A command fails if it exits non-zero, prints a traceback, or leaves an
artifact or manifest that does not pass these checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from workloads import Command, sha256_file

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_digests.json"
TRACEBACK = "Traceback (most recent call last)"


def _expected_table() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.exists() else {}


def load_expected(workload: str, seed: int) -> Optional[dict[str, str]]:
    return _expected_table().get(workload, {}).get(str(seed))


def record_expected(workload: str, seed: int, digests: dict[str, str]) -> None:
    table = _expected_table()
    table.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def artifact_digests(workdir: Path, commands: list[Command]) -> dict[str, Optional[str]]:
    digests = {}
    for command in commands:
        for name in command.artifacts:
            path = workdir / name
            digests[name] = sha256_file(path) if path.is_file() else None
    return digests


def check_command(
    workdir: Path,
    command: Command,
    code: int,
    output: str,
    digests: dict[str, Optional[str]],
    expected: Optional[dict[str, str]],
) -> list[str]:
    """Problems with one finished command; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if TRACEBACK in output:
        problems.append("printed a traceback")
    for name in command.artifacts:
        actual = digests.get(name)
        if actual is None:
            problems.append(f"{name}: missing")
        elif expected is not None and expected.get(name) != actual:
            problems.append(f"{name}: sha256 {actual} != expected {expected.get(name)}")
    manifest_path = workdir / command.manifest
    try:
        recorded = json.loads(manifest_path.read_text(encoding="utf-8"))["output_digests"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        problems.append(f"{command.manifest}: unreadable ({error.__class__.__name__})")
        return problems
    if sorted(recorded) != sorted(command.artifacts):
        problems.append(f"{command.manifest}: lists outputs {sorted(recorded)}")
    for name, digest in recorded.items():
        if digests.get(name) is not None and digest != digests[name]:
            problems.append(f"{command.manifest}: records {name} as {digest}, file is {digests[name]}")
    return problems


class Gate:
    """Checks passes of a workload against recorded or first-pass digests."""

    def __init__(self, workdir: Path, commands: list[Command], expected: Optional[dict[str, str]]):
        self.workdir = workdir
        self.commands = commands
        self.reference = expected
        self.mode = "recorded" if expected is not None else "self-consistent"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def clear(self) -> None:
        for command in self.commands:
            for name in (*command.artifacts, command.manifest):
                (self.workdir / name).unlink(missing_ok=True)

    def count(self, ok: bool, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(f"{what}: {problem}" for problem in problems)

    def check_pass(self, outcomes: list[tuple[int, str]]) -> None:
        """Check one pass; ``outcomes`` holds (exit code, output) per command."""
        digests = artifact_digests(self.workdir, self.commands)
        all_ok = True
        for command, (code, output) in zip(self.commands, outcomes):
            problems = check_command(self.workdir, command, code, output, digests, self.reference)
            self.count(not problems, " ".join(command.argv), problems)
            all_ok = all_ok and not problems
        if self.reference is None and all_ok:
            self.reference = dict(digests)
