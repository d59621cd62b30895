"""Regenerate reference.json: the bulk workloads' outputs at this commit.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter outputs, and say so in the
change.  Each (size, workload) pair runs one untraced pass in a worker
process.  The elements workload is checked against its planted data and
tolerances instead, so it has no stored reference.
"""

import json

from run import BENCH, OUT_DIR, ROOT, start_worker


def main():
    reference = {}
    for size in ("full", "smoke"):
        for name in ("ball_d3", "shells_d5"):
            payload = {"root": str(ROOT), "workload": name, "seed": 0, "size": size, "trace": False,
                       "slice_s": 0.0, "out_dir": str(OUT_DIR), "dump_outputs": True}
            reference.setdefault(size, {})[name] = start_worker(payload, 170.0)["outputs"]
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
