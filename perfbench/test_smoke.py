"""Quick-mode smoke test of the benchmark: output shape and gates, no timings.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload for one second, once untraced and once traced, and
checks that the result line carries exactly the metrics BENCHMARK.json names,
that every correctness check passed, that exact counts repeat for a seed, and
that the benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_all_workloads_print_every_metric(trace, section):
    out = result(run("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace))
    expected = {
        "%s/%s" % (w["name"], m["name"]): m["unit"] for w in SPEC["workloads"] for m in SPEC[section]
    }
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_exact_counts_repeat_for_a_seed():
    runs = [result(run("--workload", "pm-sweep", "--seed", "5", "--seconds", "1", "--trace", "1")) for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in out["metrics"].items() if k.endswith(".calls") or k == "tradeoff.compositions"}
        for out in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["gf.mul.calls"] > 0 and counts[0]["pm.coupling_coefficient.calls"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run("--workload", "pm-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
