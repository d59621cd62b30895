"""One workload process: set-up, timed passes, output check, one JSON line.

Started by ``run.py`` as ``python3 worker.py '<json args>'`` in a fresh
interpreter, so import time and peak RSS belong to this workload alone.
Set-up ends at the first timed call (``first_call``, in monotonic seconds,
which the parent compares with its spawn time).  Passes repeat until the
next one would overrun the time slice; at least one runs, two when traced.
With tracing on, passes alternate untraced and traced, and the traced ones
supply the per-layer figures.

The host-speed sampler (``hostspeed.py``) starts before the library and
numpy are imported and runs until the last pass ends.  Pass and span times leave its units out;
each pass and the set-up also record the median unit time sampled during
them, which ``run.py`` uses to normalise.
"""

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def blas_info():
    """(OpenBLAS version, runtime thread count, where the count came from)."""
    import ctypes

    import numpy as np

    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, fn(), symbol
    return version, int(os.environ.get("OPENBLAS_NUM_THREADS", "0")), "OPENBLAS_NUM_THREADS"


def environment(seed):
    import numpy as np
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    version, threads, source = blas_info()
    return {"seed": seed, "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": version, "blas_threads": threads,
            "blas_threads_source": source}


def layer_figures(rec, run_id, words):
    """Per-layer values of one traced pass, from its spans and counts."""
    spans = [s for s in rec.spans if s[2] == run_id]
    by_id = {s[0]: s for s in spans}
    total: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    child_time: dict[int, float] = {}
    for sid, parent, _, name, start, end in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if by_id[parent][3] == "workload.element":
                calls.setdefault(name, []).append(end - start)
    bulk_self = sum(end - start - child_time.get(sid, 0.0)
                    for sid, _, _, name, start, end in spans if name == "bulk.run_bulk")
    per_word = 1e6 / words if words else 0.0
    out = {
        "bulk.product_us_per_word": bulk_self * per_word,
        "bulk.merge_s": total.get("bulk.merge", 0.0),
        "counting.collect_us_per_word": total.get("counting.collect", 0.0) * per_word,
        "counting.finish_s": total.get("counting.finish", 0.0),
        "counting.classes_s": total.get("counting.classes", 0.0),
        "cocycles.identity_suite_s": total.get("cocycles.identity_suite", 0.0),
        "trace.spans": len(spans),
    }
    for layer in ("cartan", "twisted", "bo", "jordan", "attractor", "ranks"):
        out[f"bulk.{layer}_us_per_word"] = total.get(f"bulk.{layer}", 0.0) * per_word
    for name in ("projections.cartan", "projections.jordan", "pq_cartan.membership",
                 "pq_cartan.pq_project", "pq_cartan.distance_So"):
        out[f"{name}_us"] = statistics.median(calls[name]) * 1e6 if name in calls else 0.0
    for name in ("bulk.words", "bulk.excluded.twisted", "bulk.excluded.signature_fill",
                 "bulk.excluded.jordan_residual", "counting.classes"):
        out[name] = rec.counts.get(f"{run_id}/{name}", 0)
    return out


def setup_figures(rec):
    total: dict[str, float] = {}
    for _, _, run_id, name, start, end in rec.spans:
        if run_id == "setup":
            total[name] = total.get(name, 0.0) + (end - start)
    limit = [end - start for _, _, _, name, start, end in rec.spans if name == "freegroup.limit_set"]
    return {"freegroup.certify_s": total.get("freegroup.certify", 0.0),
            "bulk.context_s": total.get("bulk.context", 0.0),
            "counting.chamber_s": total.get("counting.chamber", 0.0),
            "freegroup.limit_set_s": statistics.median(limit) if limit else 0.0}


def main():
    args = json.loads(sys.argv[1])
    root = Path(args["root"])
    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.start()
    sys.path.insert(0, str(root / "src"))
    import pqcartan

    if Path(pqcartan.__file__).resolve().parent != (root / "src" / "pqcartan").resolve():
        raise SystemExit(f"pqcartan imported from {pqcartan.__file__}, not from the checkout")
    from pqcartan import counting

    import tracing
    import workloads

    rec = tracing.Recorder(args["trace"], clock=sampler.clock)
    counting_patches = (("limit_signatures", "freegroup.limit_set", None),
                        ("class_periods", "counting.class_periods", ("counting.classes", lambda r: len(r[0]))))

    def install():
        for attr, name, counted in counting_patches:
            rec.patch(counting, attr, name, counted)

    wl = workloads.WORKLOADS[args["workload"]](workloads.SIZES[args["size"]][args["workload"]], args["seed"])
    install()
    wl.setup(rec)
    rec.unpatch()
    t_inputs = time.monotonic()
    setup_cal_s = sampler.spent
    setup_unit_s = sampler.unit_s(0)
    if hasattr(wl, "make_inputs"):
        wl.make_inputs()
    first_call = time.monotonic()
    input_s = first_call - t_inputs

    ref_path = Path(__file__).with_name("reference.json")
    reference = {}
    if ref_path.is_file():
        with open(ref_path) as fh:
            reference = json.load(fh).get(args["size"], {}).get(wl.name, {})
    passes = []
    attempted = failed = mismatched = 0
    notes: list[str] = []
    while True:
        traced = args["trace"] and len(passes) % 2 == 1
        rec.enabled = traced
        rec.run_id = f"pass-{len(passes)}"
        if traced:
            install()
        mark = sampler.mark()
        t0 = sampler.clock()
        items, raw = wl.run_pass(rec)
        seconds = sampler.clock() - t0
        unit_s = sampler.unit_s(mark)
        rec.unpatch()
        outputs = wl.outputs(raw)
        a, f, m, n = wl.check(outputs, reference)
        attempted, failed, mismatched = attempted + a, failed + f, mismatched + m
        notes += [x for x in n if x not in notes]
        entry = {"seconds": seconds, "unit_s": unit_s, "items": items, "traced": traced,
                 "excluded_frac": wl.excluded_frac(outputs)}
        if wl.name == "elements" and not traced:
            entry["latencies_us"] = [t * 1e6 for t in raw[1]]
        if traced:
            entry["layers"] = layer_figures(rec, rec.run_id, items if wl.dim else 0)
        passes.append(entry)
        elapsed = time.monotonic() - first_call
        if len(passes) >= (2 if args["trace"] else 1) and elapsed + seconds > args["slice_s"]:
            break
    sampler.stop()

    result = {
        "first_call": first_call, "input_s": input_s, "setup_cal_s": setup_cal_s, "setup_unit_s": setup_unit_s,
        "units_sampled": sampler.mark(), "passes": passes,
        "attempted": attempted, "failed": failed, "mismatched": mismatched, "notes": notes[:10],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(args["seed"]),
        "state_bytes_per_word": workloads.state_bytes_per_word(wl.dim) if wl.dim else None,
    }
    if args["trace"]:
        result["setup_layers"] = setup_figures(rec)
        out_dir = Path(args["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.write(out_dir / f"spans-{wl.name}-seed{args['seed']}-{os.getpid()}.jsonl")
    if args.get("dump_outputs"):
        result["outputs"] = outputs
    print(json.dumps(result))


if __name__ == "__main__":
    main()
