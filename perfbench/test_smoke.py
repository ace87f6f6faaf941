"""Smoke test of the benchmark itself, on a minimal sample of each workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that a traced run gives the same item outputs as an untraced one (the
wrappers change no result), and that the benchmark refuses to run where the
program's sources are missing.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--max-items", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def results(workload, trace):
    path = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_emitted_and_tracing_changes_no_output(workload):
    outputs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == 2 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())
        outputs[trace] = [it["digest"] for it in results(workload, trace)["items"]]
    traced = results(workload, 1)
    assert outputs[1] == outputs[0]
    assert [it["digest"] for it in traced["untraced_items"]] == outputs[0]
    assert traced["machine"]["python"] and traced["machine"]["nproc"] >= 1


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("corpus-verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
