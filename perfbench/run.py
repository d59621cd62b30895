"""pqcartan benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {ball_d3,shells_d5,elements}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root; the library is imported from ``src/`` of the
same tree, never from an installed copy.  Each run starts ``PROCESSES``
fresh workload processes one after another (see ``worker.py``), each with
an equal share of ``--seconds``, so set-up time and peak RSS are measured
several times per run and reported as medians.  The workloads and their
reasons are in ``workloads.py``.

The shared host's speed drifts by 20-40% within minutes, so the two timed
end-to-end metrics are normalised to a reference host speed with a
calibration unit sampled during the same region (``hostspeed.py``): a
region's time is scaled by ``REFERENCE_UNIT_S`` over the median unit time
sampled in it.  The unnormalised figures are printed as report lines.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: interpreter start to the first timed call (imports and
  library set-up; the elements workload's untimed input generation is
  taken out), normalised, median over processes;
* ``items_per_s``: words (bulk workloads) or planted elements plus
  identity-suite samples (elements) per second of a timed pass,
  normalised, median over passes;
* ``peak_rss_mb``: peak resident memory of a workload process, median.

It also prints, as report lines, ``setup_s_host`` and ``items_per_s_host``
(the same figures at the host's speed of the moment), ``host_unit_ms``
(median calibration unit time), ``excluded_frac``, ``step_fail_frac`` and,
for elements, ``element_us_p50`` / ``element_us_p99`` (the five word-wise
calls on one element, pooled over passes).  The host figures measure the
host as much as the program, and the others can be 0, so none is a gated
end-to-end metric; ``step_fail_frac`` is ``failed / attempted``.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` (0 for a layer the workload does not
reach), with ``trace.overhead_frac``: the untraced pass rate over the traced
one, less 1, both normalised.  Layer times are work seconds at the host's
speed of the moment, not normalised.  Spans are written to ``perfbench/out/``.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The output check compares every pass with ``reference.json`` (regenerate
with ``make_reference.py`` only when a change is meant to alter outputs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_UNIT_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
PROCESSES = 5
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_LAYERS = {"freegroup.certify_s": "s", "bulk.context_s": "s", "counting.chamber_s": "s",
                "freegroup.limit_set_s": "s"}
PASS_LAYERS = {
    "bulk.product_us_per_word": "us/word",
    "bulk.cartan_us_per_word": "us/word",
    "bulk.twisted_us_per_word": "us/word",
    "bulk.bo_us_per_word": "us/word",
    "bulk.jordan_us_per_word": "us/word",
    "bulk.attractor_us_per_word": "us/word",
    "bulk.ranks_us_per_word": "us/word",
    "bulk.merge_s": "s",
    "counting.collect_us_per_word": "us/word",
    "counting.finish_s": "s",
    "counting.classes_s": "s",
    "projections.cartan_us": "us",
    "projections.jordan_us": "us",
    "pq_cartan.membership_us": "us",
    "pq_cartan.pq_project_us": "us",
    "pq_cartan.distance_So_us": "us",
    "cocycles.identity_suite_s": "s",
    "bulk.words": "count",
    "bulk.excluded.twisted": "count",
    "bulk.excluded.signature_fill": "count",
    "bulk.excluded.jordan_residual": "count",
    "counting.classes": "count",
    "trace.spans": "count",
}
PER_LAYER = {**SETUP_LAYERS, **PASS_LAYERS, "trace.overhead_frac": "frac"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ball_d3", "shells_d5", "elements"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (L<=4, a few elements) for tests")
    return ap.parse_args(argv)


def start_worker(payload, timeout):
    """Run one workload process to the end; its parsed last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # BLAS threads stay at 1 (<= nproc): the workloads are single-threaded
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, "-B", "-s", str(BENCH / "worker.py"), json.dumps(payload)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {payload['workload']} worker did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {payload['workload']} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(args):
    """Start the workload processes one after another; their results."""
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for _ in range(PROCESSES):
        payload = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
                   "size": "smoke" if args.smoke else "full", "trace": bool(args.trace),
                   "slice_s": args.seconds / PROCESSES, "out_dir": str(OUT_DIR)}
        t_spawn = time.monotonic()
        res = start_worker(payload, max(1.0, deadline - t_spawn))
        res["setup_host_s"] = res["first_call"] - t_spawn - res["input_s"] - res["setup_cal_s"]
        res["setup_s"] = res["setup_host_s"] * REFERENCE_UNIT_S / res["setup_unit_s"]
        results.append(res)
    return results


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def rate(p):
    """A pass's items per second, normalised to the reference host speed."""
    return p["items"] / p["seconds"] * p["unit_s"] / REFERENCE_UNIT_S


def end_to_end(results):
    passes = [p for r in results for p in r["passes"] if not p["traced"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "items_per_s": statistics.median(rate(p) for p in passes),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in results),
    }
    report = {
        "setup_s_host": (statistics.median(r["setup_host_s"] for r in results), "s"),
        "items_per_s_host": (statistics.median(p["items"] / p["seconds"] for p in passes), "1/s"),
        "host_unit_ms": (statistics.median(p["unit_s"] * 1e3 for p in passes), "ms"),
        "excluded_frac": (passes[0]["excluded_frac"], "frac"),
        "step_fail_frac": (sum(r["failed"] for r in results) / sum(r["attempted"] for r in results), "frac"),
    }
    latencies = [t for p in passes for t in p.get("latencies_us", [])]
    if latencies:
        report["element_us_p50"] = (statistics.median(latencies), "us")
        report["element_us_p99"] = (percentile(latencies, 99), "us")
        report["element_samples"] = (len(latencies), "count")
    return metrics, report


def per_layer(results):
    """Setup layers: median over processes; pass layers: median over traced passes.

    Counts are exact and equal on every pass, so they take the lower median
    and stay whole.  The tracing overhead pairs each traced pass with the
    untraced pass just before it in the same process.
    """
    traced = [p for r in results for p in r["passes"] if p["traced"]]
    metrics = {name: statistics.median(r["setup_layers"][name] for r in results) for name in SETUP_LAYERS}
    for name, unit in PASS_LAYERS.items():
        pick = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = pick(p["layers"][name] for p in traced)
    metrics["trace.overhead_frac"] = statistics.median(
        rate(plain) / rate(tr) - 1.0
        for r in results for plain, tr in zip(r["passes"][::2], r["passes"][1::2]))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pqcartan" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'pqcartan'}", file=sys.stderr)
        return 2
    results = run_workers(args)
    env = results[0]["environment"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {PROCESSES} processes, "
          f"{sum(len(r['passes']) for r in results)} passes")
    for key, value in env.items():
        print(f"env {key} {value}")
    if results[0]["state_bytes_per_word"] is not None:
        print(f"env state_bytes_per_word {results[0]['state_bytes_per_word']} (computed, not measured)")
    if args.trace:
        metrics = per_layer(results)
        units = PER_LAYER
    else:
        metrics, report = end_to_end(results)
        units = END_TO_END
        for name, (value, unit) in report.items():
            print(f"report {name} {value!r} {unit}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for note in dict.fromkeys(n for r in results for n in r["notes"]):
        print(f"check {note}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["mismatched"] == 0 for r in results)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "workers": results}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
