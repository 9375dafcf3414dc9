"""sharctool benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload annotate-score --seed 0 --seconds 30 --trace 0

The load is a closed loop with one client: the workload's sharctool
subcommands run one after another, each as a child process
(``python -m sharctool.cli ...`` with ``PYTHONPATH=src``), exactly as a user
runs them; no two children run at once. Inputs are generated from ``--seed``
once per invocation, before anything is timed.

``--trace 0`` repeats the command sequence until ``--seconds`` have passed
and reports the end-to-end metrics (medians over the repetitions).
``--trace 1`` runs the same commands in-process, once untraced and once
traced (see ``tracer.py``), and reports the per-layer metrics.

Every artifact is checked by the gate in ``gate.py``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; error rate is ``failed / attempted``. The full
result, with samples, environment and workload properties, is written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import Gate, load_expected, record_expected  # noqa: E402
from layers import METRICS, UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

VERSION_ARGV = ("--version",)
SETUP_RUNS = 3  # --version children per run; their median is setup_s, so a first cold one does not count
IMPORTTIME_RUNS = 3
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mib: float
    cpu_s: float
    output: str


class Runner:
    """Starts one sharctool child at a time and waits for it with ``os.wait4``."""

    def __init__(self, src: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(("SHARC", "PYTHON"))}
        self.env["PYTHONPATH"] = str(src)
        self.log = workdir / ".child-output"

    def run(self, args: list[str]) -> Child:
        timeout = max(1.0, self.deadline - time.monotonic())
        with self.log.open("wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=sink, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
        output = self.log.read_text(encoding="utf-8", errors="replace")
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, output)

    def sharctool(self, argv) -> Child:
        return self.run(["-m", "sharctool.cli", *argv])


def check_version(child: Child, checker: Gate) -> None:
    ok = child.code == 0 and child.output.startswith("sharctool ")
    checker.count(ok, "--version", [f"exit {child.code}: {child.output.strip()[:200]}"])


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def timed_run(seconds: float, runner: Runner, checker: Gate) -> tuple[dict, dict]:
    commands = checker.commands
    setup = []
    for _ in range(SETUP_RUNS):
        child = runner.sharctool(VERSION_ARGV)
        check_version(child, checker)
        setup.append(child.wall_s)

    iterations = []
    start = time.perf_counter()
    while True:
        checker.clear()
        begin = time.perf_counter()
        children = [runner.sharctool(command.argv) for command in commands]
        wall = time.perf_counter() - begin
        checker.check_pass([(child.code, child.output) for child in children])
        iterations.append({
            "wall_s": wall,
            "peak_rss_mib": max(child.peak_rss_mib for child in children),
            "cpu_s": sum(child.cpu_s for child in children),
            "command_wall_s": [child.wall_s for child in children],
        })
        if time.perf_counter() - start >= seconds or time.monotonic() >= runner.deadline:
            break

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "peak_rss_mib": statistics.median(it["peak_rss_mib"] for it in iterations),
    }
    samples = {"setup_s": setup, "iterations": iterations}
    return metrics, samples


def import_times(runner: Runner, checker: Gate) -> dict[str, float]:
    """Median cumulative import time of sharctool.cli and sharctool.probe, from ``-X importtime``."""
    seen: dict[str, list[float]] = {"sharctool.cli": [], "sharctool.probe": []}
    for _ in range(IMPORTTIME_RUNS):
        child = runner.run(["-X", "importtime", "-c", "import sharctool.cli"])
        found = {}
        for line in child.output.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, module = line.split("|")
                if module.strip() in seen:
                    found[module.strip()] = int(cumulative) / 1e6
        ok = child.code == 0 and set(found) == set(seen)
        checker.count(ok, "-X importtime", [f"exit {child.code}, found {sorted(found)}"])
        for module, value in found.items():
            seen[module].append(value)
    return {module: statistics.median(values) if values else 0.0 for module, values in seen.items()}


def inproc_pass(runner: Runner, checker: Gate, trace: bool) -> dict:
    """Run the commands in one fresh process via ``inproc.py`` and check what they wrote."""
    commands_file = runner.workdir / ".commands.json"
    out_file = runner.workdir / ".inproc.json"
    commands_file.write_text(json.dumps([list(c.argv) for c in checker.commands]), encoding="utf-8")
    out_file.unlink(missing_ok=True)
    checker.clear()
    child = runner.run([
        str(HERE / "inproc.py"), "--src", runner.env["PYTHONPATH"], "--workdir", str(runner.workdir),
        "--commands", str(commands_file), "--out", str(out_file), *(["--trace"] if trace else []),
    ])
    if child.code != 0 or not out_file.exists():
        checker.count(False, f"inproc.py (trace={trace})", [f"exit {child.code}: {child.output[-2000:]}"])
        return {"commands": [], "trace": None}
    result = json.loads(out_file.read_text(encoding="utf-8"))
    checker.check_pass([(c["code"], c["output"]) for c in result["commands"]])
    return result


def traced_run(runner: Runner, checker: Gate, inputs: dict) -> tuple[dict, dict]:
    imports = import_times(runner, checker)
    plain = inproc_pass(runner, checker, trace=False)
    traced = inproc_pass(runner, checker, trace=True)
    if traced["trace"] is None or len(plain["commands"]) != len(checker.commands):
        return {}, {"plain": plain, "traced": traced}
    build_path = runner.workdir / "aug.jsonl.build.json"
    build = json.loads(build_path.read_text(encoding="utf-8")) if build_path.exists() else None
    metrics = layer_metrics(
        traced["trace"],
        plain_wall_s=sum(c["wall_s"] for c in plain["commands"]),
        traced_wall_s=sum(c["wall_s"] for c in traced["commands"]),
        plain_cpu_s=sum(c["cpu_s"] for c in plain["commands"]),
        import_s=imports,
        generate_s=sum(split["generate_s"] for split in inputs.values()),
        build_manifest=build,
    )
    for result in (plain, traced):
        for command in result["commands"]:
            command.pop("output")
    return metrics, {"plain": plain, "traced": traced}


# --------------------------------------------------------------------------
# Result
# --------------------------------------------------------------------------


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(root: Path, seed: int, inputs: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "scipy": _version("scipy"),
        "numpy": _version("numpy"),
        "input_digests": {name: split["sha256"] for name, split in inputs.items()},
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def workload_properties(inputs: dict, layers: dict) -> dict:
    ratios = ("corpus.tokenize_distinct_ratio", "markers.lcs_distinct_ratio", "evaluate.bleu_distinct_ratio")
    return {
        "inputs": {
            name: {key: split[key] for key in ("instances", "bytes", "distinct_rule_texts")}
            for name, split in inputs.items()
        },
        # Measured only by a traced run (--trace 1); None in an untraced result.
        "sharing": {name: layers.get(name) for name in ratios},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one sharctool benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 gives the bundled splits")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's artifact digests as the expected ones for its workload and seed")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "sharctool" / "cli.py").is_file():
        print(f"error: no sharctool sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    workdir = root / ".perfbench" / "work" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = make_inputs(workload, args.seed, workdir)
        expected = None if args.record_digests else load_expected(workload.name, args.seed)
        checker = Gate(workdir, commands, expected)
        runner = Runner(src, workdir, deadline)
        if args.trace:
            metrics, samples = traced_run(runner, checker, inputs)
            wanted = METRICS
        else:
            metrics, samples = timed_run(args.seconds, runner, checker)
            wanted = END_TO_END
        if args.record_digests and checker.failed == 0:
            record_expected(workload.name, args.seed, checker.reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {**UNITS, **dict(END_TO_END)}
    correct = checker.failed == 0 and all(name in metrics for name, _ in wanted)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted if checker.attempted else 1.0,
        "gate": checker.mode,
        "problems": checker.problems,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "environment": environment(root, args.seed, inputs),
        "workload_properties": workload_properties(inputs, metrics),
        "samples": samples,
    }
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{workload.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for problem in checker.problems:
        print(f"FAIL {problem}")
    counts = {"setup_s": SETUP_RUNS, "wall_s": len(samples.get("iterations", ())),
              "peak_rss_mib": len(samples.get("iterations", ()))}
    for name, _ in wanted:
        if name in metrics:
            count = f"  (median of {counts[name]})" if name in counts else ""
            print(f"{name:34} {metrics[name]:>16.6g} {units[name]}{count}")
    print(f"error_rate {result['error_rate']:.6g} ({checker.failed}/{checker.attempted}), gate {checker.mode}")
    print(f"result: {result_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: result["metrics"][name] for name, _ in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
