"""Run a workload's sharctool commands in one process, traced or not.

Usage::

    python perfbench/inproc.py --src SRC --workdir DIR --commands CMDS.json \
        --out RESULT.json [--trace]

``CMDS.json`` holds a list of argv lists. Each is passed to
``sharctool.cli.main`` in turn, from inside ``DIR``. The result file records
each command's exit code, wall and CPU time and printed output (with the
traceback if it raised), plus the spans and counters when ``--trace`` is
given. Running every pass in a fresh process keeps one pass's imports or
caches from warming the next.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def run_commands(commands: list[list[str]], tracer: Tracer | None) -> list[dict]:
    import sharctool.cli

    outcomes = []
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.cmd = index
        sink = io.StringIO()
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = sharctool.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the command crashed: record it and go on
            code = 1
            sink.write(traceback.format_exc())
        outcomes.append({
            "argv": argv,
            "code": code,
            "wall_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu_start,
            "output": sink.getvalue(),
        })
    return outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--commands", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    commands = json.loads(Path(args.commands).read_text(encoding="utf-8"))
    out = Path(args.out).resolve()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import sharctool.cli  # noqa: F401  (imports every module the tracer patches)

    os.chdir(args.workdir)
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        outcomes = run_commands(commands, tracer)
    result = {"commands": outcomes, "trace": tracer.to_dict() if tracer is not None else None}
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
