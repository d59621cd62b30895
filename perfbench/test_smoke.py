"""The benchmark's own tests: smoke sizes, metric names and units, the check.

    python3 -m pytest perfbench/test_smoke.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ball_d3", "shells_d5", "elements")

# layers each workload must reach in a traced run
REACHED = {
    "ball_d3": ("freegroup.certify_s", "bulk.context_s", "counting.chamber_s", "freegroup.limit_set_s",
                "bulk.product_us_per_word", "bulk.cartan_us_per_word", "bulk.twisted_us_per_word",
                "bulk.bo_us_per_word", "bulk.jordan_us_per_word", "counting.collect_us_per_word",
                "bulk.merge_s", "counting.finish_s", "counting.classes_s", "bulk.words", "counting.classes"),
    "shells_d5": ("freegroup.certify_s", "bulk.context_s", "freegroup.limit_set_s",
                  "bulk.product_us_per_word", "bulk.cartan_us_per_word", "bulk.twisted_us_per_word",
                  "bulk.bo_us_per_word", "bulk.attractor_us_per_word", "bulk.ranks_us_per_word",
                  "counting.collect_us_per_word", "bulk.merge_s", "counting.finish_s", "bulk.words"),
    "elements": ("projections.cartan_us", "projections.jordan_us", "pq_cartan.membership_us",
                 "pq_cartan.pq_project_us", "pq_cartan.distance_So_us", "cocycles.identity_suite_s"),
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # the d=5 limit-set step is the one recorded failure: one in each five-step pass
    assert result["failed"] == (result["attempted"] // 5 if workload == "shells_d5" else 0)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert all(result["metrics"][name]["value"] > 0 for name in REACHED[workload])
        assert list((BENCH / "out").glob(f"spans-{workload}-seed3-*.jsonl"))
    else:
        reported = {line.split()[1] for line in lines if line.startswith("report ")}
        assert {"excluded_frac", "step_fail_frac"} <= reported
        if workload == "elements":
            assert {"element_us_p50", "element_us_p99"} <= reported
    env = {line.split()[1] for line in lines if line.startswith("env ")}
    assert {"seed", "nproc", "cpu_model", "python", "numpy", "scipy", "openblas", "blas_threads"} <= env


def test_fails_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(["--workload", "ball_d3", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_counts_mismatches_and_known_defects():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import check_steps

    reference = json.loads((BENCH / "reference.json").read_text())["smoke"]
    for name in ("ball_d3", "shells_d5"):
        want = reference[name]
        known = sum("error" in v for v in want.values())
        assert check_steps(copy.deepcopy(want), want)[1:3] == (known, 0)
    got = copy.deepcopy(reference["ball_d3"])
    got["run_bulk"]["norm_at"]["bins"][5] += 1
    got["phi_entropy"] = {"error": "RuntimeError: boom"}
    attempted, failed, mismatched, _ = check_steps(got, reference["ball_d3"])
    assert (attempted, failed, mismatched) == (len(got), 2, 1)
