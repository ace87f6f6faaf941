"""flowalg benchmark: one workload run, from the root of a checkout.

    python3 perfbench/run.py --workload corpus-verify --seed 3 --seconds 30 --trace 0

Workloads (items run one at a time in a closed loop: the next item starts
when the previous one has finished):

* ``corpus-verify`` -- ``verify_graph(g, theta_bound=12)`` on a stride
  sample of the 1,682 connected multigraphs with at most 7 edges, all in
  one process, so the Tutte memo is shared across graphs.  One item is one
  graph.
* ``corpus-orient`` -- ``orientation_invariance(g, trials=50, seed=2024)``
  on the same kind of sample: relation matrices rebuilt on every flip and
  only their ranks taken.
* ``figure-cli`` -- the README's command-line examples plus four queries on
  the Figure 1 pair, each a fresh ``python -m flowalg.cli`` process.  One
  item is one command; a run does whole passes over the command list, and
  starts another only if it is expected to end within ``--seconds``.

The seed picks the stride offset of the corpus sample, or the command the
CLI pass starts with; both are recorded.  Each corpus run is a fresh
interpreter, so the memo and the corpus cache start cold.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics,
measured by wrapping the program's functions (see ``tracing.py``), and then
replays the same items untraced: the wall-time difference is the tracing
overhead, and any item whose outputs differ between the two counts as
failed.  ``--max-items N`` caps a run at its first N items (used by the
smoke test).

Every run writes ``perfbench/results/<workload>-seed<n>-trace<t>.json``
with the machine, per-item records and all metrics, and prints the result
as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import figure
import tracing

HERE = figure.HERE
ROOT = figure.ROOT
WORKLOADS = ("corpus-verify", "corpus-orient", "figure-cli")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile (0 < q < 100) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit}


def corpus_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "corpus_worker.py"), *args], cwd=ROOT,
        env=figure.child_env(), capture_output=True, text=True, check=False,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"corpus worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_corpus(a) -> dict:
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]
    if a.max_items is not None:
        common += ["--items", str(a.max_items)]
    if not a.trace:
        setups = [corpus_worker(*common, "--setup-only")["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        out = corpus_worker(*common)
        setups.append(out["setup_s"])
        return {"offset": out["offset"], "stride": out["stride"],
                "sample_size": out["sample_size"], "wall_s": out["wall_s"],
                "items": out["items"], "setup_runs_s": setups,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": out["peak_rss_mb"]}
    traced = corpus_worker(*common, "--trace")
    replay = corpus_worker("--workload", a.workload, "--seed", str(a.seed),
                           "--items", str(len(traced["items"])))
    traced["profile"]["counts"]["cli.import_s"] = traced["import_s"]
    return {"offset": traced["offset"], "stride": traced["stride"],
            "sample_size": traced["sample_size"], "wall_s": traced["wall_s"],
            "items": traced["items"], "untraced_items": replay["items"],
            "untraced_wall_s": replay["wall_s"], "profile": traced["profile"]}


def figure_item(out: dict, expected: dict) -> dict:
    report = out["report"]
    digest = hashlib.sha256(json.dumps([out["returncode"], report],
                                       sort_keys=True).encode()).hexdigest()
    passed = out["returncode"] == 0 and report == expected.get(out["command"])
    record = {"command": out["command"], "latency_s": out["latency_s"],
              "passed": passed, "digest": digest[:16],
              "returncode": out["returncode"]}
    if not passed:
        record["stderr"] = out["stderr"]
    return record


def run_figure(a) -> dict:
    expected = json.loads(figure.EXPECTED.read_text())
    offset = a.seed % len(figure.COMMANDS)
    commands = figure.COMMANDS[offset:] + figure.COMMANDS[:offset]
    if a.max_items is not None:
        commands = commands[:a.max_items]
    record = {"offset": offset, "sample_size": len(commands)}

    def one_pass(traced: bool):
        outs, t0 = [], time.perf_counter()
        for command in commands:
            outs.append(figure.run(command, traced=traced))
        return outs, time.perf_counter() - t0

    if not a.trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            # no timeout: waiting with one polls every 50 ms, which would
            # round the measured time up to that step
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import flowalg.cli"],
                           cwd=ROOT, env=figure.child_env(), check=True)
            setups.append(time.perf_counter() - t0)
        # whole passes only, and another only if it fits in the run time
        items, wall, pass_wall = [], 0.0, 0.0
        while not items or wall + pass_wall <= a.seconds:
            outs, pass_wall = one_pass(False)
            items += [figure_item(o, expected) for o in outs]
            wall += pass_wall
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        record.update(wall_s=wall, items=items, setup_runs_s=setups,
                      setup_s=statistics.median(setups), peak_rss_mb=rss)
        return record
    traced, wall = one_pass(True)
    untraced, untraced_wall = one_pass(False)
    snaps = [o["profile"] for o in traced if o["profile"] is not None]
    profile = tracing.merge(snaps)
    profile["counts"]["cli.import_s"] = (
        statistics.median(s["import_s"] for s in snaps) if snaps else 0.0)
    record.update(wall_s=wall, items=[figure_item(o, expected) for o in traced],
                  untraced_items=[figure_item(o, expected) for o in untraced],
                  untraced_wall_s=untraced_wall, profile=profile)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-items", type=int, default=None)
    a = ap.parse_args()

    if not (ROOT / "src" / "flowalg" / "__init__.py").is_file():
        print(f"no flowalg sources under {ROOT / 'src'}; run from the root "
              "of a flowalg checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.perf_counter()
    if a.workload == "figure-cli":
        rec = run_figure(a)
    else:
        rec = run_corpus(a)
    items = rec["items"]
    latencies = [it["latency_s"] for it in items]
    failed = sum(not it["passed"] for it in items)
    problems = [f"item {i}: {it}" for i, it in enumerate(items)
                if not it["passed"]]

    if not a.trace:
        # latency percentiles are recorded, not gated: see perfbench/README.md
        p90 = percentile(latencies, 90)
        rec.update(item_p50_ms=statistics.median(latencies) * 1000,
                   item_p90_ms=p90 * 1000,
                   item_p90_tail_samples=sum(x > p90 for x in latencies))
        values = {"setup_s": rec["setup_s"],
                  "items_per_s": len(items) / rec["wall_s"],
                  "peak_rss_mb": rec["peak_rss_mb"]}
        metric_specs = spec["end_to_end"]
    else:
        counts = rec["profile"]["counts"]
        counts["trace.overhead_s"] = rec["wall_s"] - rec["untraced_wall_s"]
        metric_specs = spec["per_layer"]
        values = tracing.layer_metrics(rec["profile"],
                                       [m["name"] for m in metric_specs])
        for i, (t_it, u_it) in enumerate(zip(items, rec["untraced_items"])):
            if t_it["digest"] != u_it["digest"] and t_it["passed"]:
                failed += 1
                problems.append(f"item {i}: traced and untraced outputs differ")
        if a.max_items is None:
            stats = rec["profile"]["stats"]
            for layer in tracing.REQUIRED_CALLS[a.workload]:
                if stats.get(layer, [0])[0] == 0:
                    problems.append(f"layer {layer} made no calls")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    result = {"correct": not problems, "attempted": len(items),
              "failed": failed, "metrics": metrics}
    rec.update(workload=a.workload, seed=a.seed, seconds=a.seconds,
               trace=a.trace, max_items=a.max_items, machine=machine(),
               run_wall_s=time.perf_counter() - started, problems=problems,
               failed_frac=failed / len(items), result=result)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    for line in problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
