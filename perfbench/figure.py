"""The ``figure-cli`` workload: the command line as a user runs it.

Each item is one fresh ``python -m flowalg.cli`` process on the sample
graphs: the README's ten examples verbatim, then four queries on the
Figure 1 pair, one of them the 74,340-representative coset sum on
``fig1_left``.  An item passes when it exits 0 and its JSON report, with
``elapsed_ms`` removed, equals the report committed in
``expected_reports.json``.

Run this file to regenerate the expected reports (only when the program's
output is meant to change):

    python3 perfbench/figure.py
"""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected_reports.json"

COMMANDS = (
    "poincare graphs/k4.g",
    "ranks graphs/k4.g --oracle all",
    "lattice graphs/c3.g",
    "char-flow graphs/k4.g --edge 1",
    "theta graphs/c3.g --max-norm 12 --method both",
    "flows-of-norm graphs/fig1_left.g --norm 7",
    "compare graphs/fig1_left.g graphs/fig1_right.g --max-norm 12",
    "torsion graphs/c4.g --degrees 1,2",
    "verify graphs/k4.g --all --trials 10",
    "corpus --max-edges 5",
    "ranks graphs/fig1_left.g --oracle all",
    "theta graphs/fig1_right.g --max-norm 12 --method both",
    "theta graphs/fig1_left.g --max-norm 12 --method both",
    "verify graphs/fig1_right.g",
)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first on
    the import path, so the program is run from source."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def normalized(stdout: str):
    """The report with its one varying field, ``elapsed_ms``, removed."""
    doc = json.loads(stdout)
    doc.pop("elapsed_ms", None)
    return doc


def run(command: str, traced: bool = False) -> dict:
    """Run one command in a fresh interpreter and time it.

    The traced form runs the same command through ``traced_cli.py``, which
    writes its per-layer profile as the last line of standard error.
    """
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py")]
    else:
        argv = [sys.executable, "-m", "flowalg.cli"]
    argv += shlex.split(command)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=False)
    latency = time.perf_counter() - t0
    try:
        report = normalized(proc.stdout)
    except ValueError:
        report = None
    profile = None
    if traced and proc.stderr.strip():
        try:
            profile = json.loads(proc.stderr.strip().splitlines()[-1])
        except ValueError:
            profile = None
    return {"command": command, "latency_s": latency,
            "returncode": proc.returncode, "report": report,
            "profile": profile, "stderr": proc.stderr[-2000:]}


def main() -> int:
    expected = {}
    for command in COMMANDS:
        out = run(command)
        if out["returncode"] != 0 or out["report"] is None:
            print(f"{command}: exit {out['returncode']}\n{out['stderr']}",
                  file=sys.stderr)
            return 1
        expected[command] = out["report"]
        print(f"{out['latency_s']:8.2f} s  {command}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
