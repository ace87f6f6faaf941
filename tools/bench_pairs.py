"""Alternating parent/change benchmark pairs, written to ``BENCH_<pr>.json``.

The committed files of the parent and of the change are extracted with
``git archive`` into two sibling temporary directories, so both sides run
from the same kind of place and uncommitted edits are never measured (no
worktree is registered in the repository, so a killed run leaves nothing
behind in ``.git``).  For each workload of ``BENCHMARK.json``, pair k
(k = 1..N) runs

    python3 perfbench/run.py --workload W --seed k --seconds S --trace 0

once in each tree, with S the ``run_seconds`` of ``BENCHMARK.json``, the
parent first in odd pairs and the change first in even ones, so a slow
drift of the machine does not favour one side.  The output holds, per
workload and end-to-end metric, both sides' values, medians and
quartiles, the median ratio (change / parent), the number of pairs the
change won, by the metric's ``better`` direction, and a verdict; for a
workload whose items are commands (``figure-cli``), each command's median
latency per side, the median over the runs of each run's median, read
from the results file the run writes, so a gain can be traced to the
commands that carry it; and the machine: CPU count, Python version and
whether the child interpreters write bytecode.  They inherit this process's environment, so
``PYTHONDONTWRITEBYTECODE`` decides it.  Without a bytecode cache every
fresh process compiles each module it imports, which makes cold-import
metrics such as ``figure-cli`` ``setup_s`` about 30% higher.

Before the pairs, each workload runs traced in the change's tree,

    python3 perfbench/run.py --workload W --seed s --seconds S --trace 1

which fails when an item fails, when a traced output differs from its
untraced replay, or when a layer that ``perfbench/tracing.py`` requires
made no calls.  The corpus workloads run at seeds 0-3, one run per stride
offset of their sample (seed % 4), so every sample a pair can draw has
passed the gate; ``figure-cli`` runs at seed 0.  A traced run that exits
non-zero stops the script with its standard error; each run's seed,
``correct`` and ``problems`` are recorded under ``traced`` in the output.

The verdict says whether the pairs can tell the two sides apart.  It is
"unresolved" when the change's median lies inside the parent's
interquartile range (a move within the parent's own noise) or when either
side's spread, (q3 - q1) / median, exceeds the metric's ``bound``; else it
is "better" or "worse" by the metric's ``better`` direction.  Beside the
verdict, ``move_vs_bound`` gives the move of the median, (change - parent)
/ parent, as a signed fraction of the metric's ``bound``, positive when the
change is worse: 1.0 is a move the size of the bound, and a "worse" verdict
at 0.03 is a move the pairs can see but the bound does not count.

Run from a checkout; the change is its ``HEAD``:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 11 --pairs 10

On a 2-CPU machine a run takes about 35 s on average, so 10 pairs of all
three workloads take about 35 min.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the seeds of the traced runs: the corpus sample starts at seed % 4, and
# the seed of any other workload only picks where its run starts
TRACED_SEEDS = {"corpus-verify": range(4), "corpus-orient": range(4)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: pathlib.Path) -> None:
    """The committed files of ``rev``, written to the new directory
    ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                       stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def results_file(tree: pathlib.Path, workload: str, seed: int,
                 trace: int) -> dict:
    """The record a run in ``tree`` wrote under ``perfbench/results``."""
    return json.loads((tree / "perfbench" / "results"
                       / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def command_latencies(items: list[dict]) -> dict:
    """The median latency of each command among a run's items; empty for
    workloads whose items are not commands."""
    by_command: dict[str, list[float]] = {}
    for item in items:
        if "command" in item:
            by_command.setdefault(item["command"], []).append(item["latency_s"])
    return {c: statistics.median(v) for c, v in by_command.items()}


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``tree``: its printed result, with the wall
    time of the whole run and the median latency of each command it ran,
    read from its results file."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed "
                           f"nothing:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    run_s = round(time.perf_counter() - started, 2)
    items = results_file(tree, workload, seed, 0)["items"]
    return {"returncode": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "run_s": run_s,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "command_latency_s": command_latencies(items)}


def traced_run(tree: pathlib.Path, workload: str, seed: int,
               seconds: float) -> dict:
    """One traced run in ``tree``: its verdict and problems, read from the
    result file it writes.  A run that exits non-zero stops the script
    with its standard error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"traced {workload} seed {seed} run in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    rec = results_file(tree, workload, seed, 1)
    return {"seed": seed, "correct": rec["result"]["correct"],
            "problems": rec["problems"]}


def summary(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def spread(s: dict) -> float | None:
    """The interquartile range relative to the median."""
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else None


def verdict(parent: dict, change: dict, spec: dict) -> str:
    """"unresolved", "better" or "worse" (see the module docstring)."""
    noisy = any(sp is None or sp > spec["bound"]
                for sp in (spread(parent), spread(change)))
    if noisy or parent["q1"] <= change["median"] <= parent["q3"]:
        return "unresolved"
    higher = change["median"] > parent["median"]
    return "better" if higher == (spec["better"] == "higher") else "worse"


def move_vs_bound(parent: dict, change: dict, spec: dict) -> float | None:
    """The median move as a signed fraction of the metric's bound,
    positive when the change is worse (see the module docstring)."""
    if not parent["median"]:
        return None
    move = (change["median"] - parent["median"]) / parent["median"]
    return (-move if spec["better"] == "higher" else move) / spec["bound"]


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' values and summaries, the median ratio,
    the number of pairs the change won, the verdict and the move against
    the bound."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        before = [p["parent"]["metrics"][name] for p in pairs]
        after = [p["change"]["metrics"][name] for p in pairs]
        higher = spec["better"] == "higher"
        won = sum((a > b) if higher else (a < b)
                  for b, a in zip(before, after))
        parent, change = summary(before), summary(after)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": {**parent, "spread": spread(parent), "values": before},
            "change": {**change, "spread": spread(change), "values": after},
            "median_ratio": (change["median"] / parent["median"]
                             if parent["median"] else None),
            "within_parent_iqr": (parent["q1"] <= change["median"]
                                  <= parent["q3"]),
            "verdict": verdict(parent, change, spec),
            "move_vs_bound": move_vs_bound(parent, change, spec),
            "pairs_won": won, "pairs": len(pairs)}
    return out


def compare_commands(pairs: list[dict]) -> dict:
    """Per command: each side's median, over the runs, of the run's median
    latency, and their ratio (change / parent), so a gain can be traced to
    the commands that carry it."""
    out = {}
    for command in pairs[0]["parent"]["command_latency_s"]:
        med = {side: statistics.median(p[side]["command_latency_s"][command]
                                       for p in pairs)
               for side in ("parent", "change")}
        out[command] = {**med, "median_ratio": med["change"] / med["parent"]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the git revision to compare against")
    ap.add_argument("--pr", required=True,
                    help="the output is BENCH_<pr>.json at the root")
    ap.add_argument("--pairs", type=int, default=10)
    a = ap.parse_args()
    if a.pairs < 1:
        ap.error("--pairs must be at least 1")

    revs = {"parent": git("rev-parse", a.parent),
            "change": git("rev-parse", "HEAD")}
    record = {
        **revs,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "arch": platform.machine(),
                    "writes_bytecode":
                        not os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "command": "perfbench/run.py --trace 0",
        "seconds": spec["run_seconds"],
        "traced": {},
        "workloads": {}}
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            extract(rev, trees[side])
        for workload in workloads:
            runs = record["traced"][workload] = []
            for seed in TRACED_SEEDS.get(workload, (0,)):
                runs.append(traced_run(trees["change"], workload, seed,
                                       spec["run_seconds"]))
                print(f"{workload} seed {seed} traced: correct "
                      f"{runs[-1]['correct']}, problems "
                      f"{runs[-1]['problems']}", file=sys.stderr, flush=True)
        for workload in workloads:
            pairs = []
            for seed in range(1, a.pairs + 1):
                order = (("parent", "change") if seed % 2
                         else ("change", "parent"))
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed,
                                          spec["run_seconds"])
                    m = pair[side]["metrics"]
                    print(f"{workload} seed {seed} {side}: "
                          + ", ".join(f"{k}={v:.4g}" for k, v in m.items()),
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            metrics = compare(pairs, spec["end_to_end"])
            commands = compare_commands(pairs)
            record["workloads"][workload] = {
                "runs": pairs,
                "all_correct": all(p[s]["correct"] for p in pairs
                                   for s in ("parent", "change")),
                "metrics": metrics}
            if commands:
                record["workloads"][workload]["command_latency_s"] = commands
            for command, c in commands.items():
                print(f"{workload} {command!r}: {c['parent']:.4g} -> "
                      f"{c['change']:.4g} s", file=sys.stderr, flush=True)
            for name, m in metrics.items():
                move = m["move_vs_bound"]
                move = "n/a" if move is None else f"{move:+.3f}"
                print(f"{workload} {name}: {m['parent']['median']:.4g} -> "
                      f"{m['change']['median']:.4g}, {m['verdict']}, "
                      f"move/bound {move}", file=sys.stderr, flush=True)
    path = ROOT / f"BENCH_{a.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
