"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All tolerances are pinned here; reference configurations are frozen.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm

from pqcartan import bulk
from pqcartan.counting import (
    FunctionalHistCollector,
    anosov_gap_check,
    comparison_boundedness,
    cone_samples,
    default_phi,
    estimate_exponent,
    gromov_comparison,
    theorem_b_trend,
)
from pqcartan.forms import Form
from pqcartan.freegroup import reducible_rep, rotation_control_rep, single_orbit_rep, two_orbit_rep
from pqcartan.numerics import ScaledMatrix
from pqcartan.pq_cartan import membership, pq_project

from conftest import sample_decomposable

SEED = 20240817


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reps():
    return {
        "reducible": reducible_rep(power=4),
        "two_orbit": two_orbit_rep(),
        "single_orbit": single_orbit_rep(),
        "control": rotation_control_rep(),
    }


@pytest.fixture(scope="module")
def reference_curves(reps):
    """Shared L=12 histograms and direction clouds for both reference examples."""
    out = {}
    for name, hi in (("reducible", 130.0), ("two_orbit", 210.0)):
        rep = reps[name]
        grid = np.linspace(0.0, hi, 768)
        cols = bulk.run_bulk(
            rep.bulk_context(),
            12,
            [
                (FunctionalHistCollector, {"kind": "norm_at", "grid": grid}),
                (FunctionalHistCollector, {"kind": "norm_bo", "grid": grid}),
            ],
        )
        out[name] = {
            "at": cols[0].curve("norm_at"),
            "bo": cols[1].curve("norm_bo"),
        }
    return out


def test_criterion_01_decomposition_recovery():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    worst = 0.0
    for p, q, count in ((2, 1, 334), (2, 2, 333), (3, 2, 333)):
        o = Form.standard(p, q)
        for _ in range(count):
            g, x = sample_decomposable(rng, o)
            r = pq_project(o, g)
            worst = max(worst, float(np.max(np.abs(r.b_o.coords - x))))
    dt = time.time() - t0
    report(1, "decomposition-recovery",
           worst <= 1e-8 and dt <= 30.0,
           f"1000 samples d in {{3,4,5}}, max err {worst:.2e}, {dt:.1f}s")


def test_criterion_02_membership_dichotomy():
    rng = np.random.default_rng(SEED + 1)
    o = Form.standard(2, 1)
    k = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
    t0 = time.time()
    rotations_ok = True
    for two_theta in np.linspace(0.1 + 1e-6, np.pi - 0.1 - 1e-6, 60):
        res = membership(o, ScaledMatrix.of(expm((two_theta / 2) * k)))
        rotations_ok &= (not res.ok) and res.reason == "complex spectrum"
    samples_ok = True
    for _ in range(100):
        g, _ = sample_decomposable(rng, o)
        samples_ok &= bool(membership(o, g).ok)
    dt = time.time() - t0
    report(2, "membership-dichotomy", rotations_ok and samples_ok and dt <= 5.0,
           f"60 rotations excluded, 100 samples admitted, {dt:.1f}s")


def test_criterion_03_identity_suites():
    from pqcartan.cocycles import identity_suite

    t0 = time.time()
    out = identity_suite(Form.standard(2, 1), samples=300, seed=SEED)
    dt = time.time() - t0
    devs = out["max_deviations"]
    ok = all(v <= 1e-8 for v in devs.values()) and dt <= 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in devs.items()) + f", {dt:.1f}s"
    report(3, "identity-suites", ok, detail)


def test_criterion_04_comparison_boundedness(reps):
    t0 = time.time()
    devs = comparison_boundedness(reps["single_orbit"], 12)
    dt = time.time() - t0
    early = max(devs[s] for s in range(4, 9))
    ok = devs[12] <= 1.1 * early and dt <= 300.0
    report(4, "comparison-boundedness", ok,
           f"shell 12 max {devs[12]:.3f} vs 1.1x early {1.1 * early:.3f}, {dt:.0f}s")


def test_criterion_05_exponent_equality(reference_curves):
    t0 = time.time()
    results = []
    for name, curves in reference_curves.items():
        t_hi = min(curves["at"].complete_below(), curves["bo"].complete_below())
        window = (0.5 * t_hi, t_hi)
        s_at, e_at, _ = estimate_exponent(curves["at"], window)
        s_bo, e_bo, _ = estimate_exponent(curves["bo"], window)
        results.append((name, s_at, s_bo, abs(s_at - s_bo)))
    dt = time.time() - t0
    ok = all(d <= 0.05 for _, _, _, d in results)
    detail = "; ".join(f"{n}: at {a:.4f} bo {b:.4f} diff {d:.4f}" for n, a, b, d in results)
    report(5, "exponent-equality", ok, detail + f", fit {dt:.1f}s")


def test_criterion_06_sandwich_bounds(reference_curves):
    details = []
    ok = True
    for name, curves in reference_curves.items():
        curve = curves["bo"]
        t_hi = curve.complete_below()
        window = (0.5 * t_hi, t_hi)
        slope, _, _ = estimate_exponent(curve, window)

        def ratio(win):
            mask = (curve.thresholds >= win[0]) & (curve.thresholds <= min(win[1], t_hi))
            mask &= curve.counts > 0
            t = curve.thresholds[mask]
            r = curve.counts[mask] * np.exp(-slope * t)
            return float(r.max() / r.min())

        base = ratio(window)
        shifted = ratio((window[0] + 0.5, window[1] + 0.5))
        change = abs(shifted - base) / base
        ok &= np.isfinite(base) and change <= 0.25
        details.append(f"{name}: C2/C1 {base:.3f}, shift change {100 * change:.1f}%")
    report(6, "sandwich-bounds", ok, "; ".join(details))


def test_criterion_07_cone_structure(reps):
    t0 = time.time()
    single = cone_samples(reps["reducible"], 10, 12)
    double = cone_samples(reps["two_orbit"], 10, 12)
    dt = time.time() - t0
    ok = (
        len(single["weyl_set"]) == 1
        and single["weyl_set"][0].perm == tuple(range(3))
        and single["hausdorff"] <= 0.05
        and len(double["weyl_set"]) == 2
        and double["hausdorff"] <= 0.05
    )
    report(7, "cone-structure", ok,
           f"single |W|={len(single['weyl_set'])} hd {single['hausdorff']:.3f}; "
           f"double |W|={len(double['weyl_set'])} hd {double['hausdorff']:.3f}, {dt:.0f}s")


def test_criterion_08_gromov_comparison(reps):
    # certified contraction drives the true deviation below the float64
    # eigen floor within a few shells; monotonicity is therefore compared at
    # measurement resolution (1e-12), ten orders below the 0.05 scale
    t0 = time.time()
    rep = reps["single_orbit"]
    phi = default_phi(rep)
    out = gromov_comparison(rep, phi, (1,), (2,), 12, length_min=6)
    devs = out["max_deviation"]
    dt = time.time() - t0
    resolution = 1e-12
    monotone = all(devs[s + 1] <= devs[s] + resolution for s in range(6, 12))
    ok = monotone and devs[12] <= 0.05
    detail = " ".join(f"{s}:{devs[s]:.1e}" for s in sorted(devs)) + f", {dt:.0f}s"
    report(8, "gromov-comparison", ok, detail)


def test_criterion_09_theorem_b_trend(reps):
    t0 = time.time()
    rep = reps["reducible"]
    phi = default_phi(rep)
    out = theorem_b_trend(rep, phi, 14, class_length=12)
    dt = time.time() - t0
    ok = out["relative_slope_gap"] <= 0.05 and out["ratio_variation"] <= 0.20 and dt <= 900.0
    report(9, "theorem-b-trend", ok,
           f"h {out['h_classes']:.4f} vs slope {out['slope_counts']:.4f} "
           f"(gap {100 * out['relative_slope_gap']:.1f}%), tail variation "
           f"{100 * out['ratio_variation']:.1f}%, {dt:.0f}s")


def test_criterion_10_anosov_gap(reps):
    certified = {}
    for name in ("reducible", "two_orbit", "single_orbit"):
        certified[name] = anosov_gap_check(reps[name], 8)[0]
    control = anosov_gap_check(reps["control"], 8)[0]
    ok = all(c > 0 for c in certified.values()) and control <= 1e-6
    detail = ", ".join(f"{n} c={c:.2f}" for n, c in certified.items()) + f", control c={control:.1e}"
    report(10, "anosov-gap", ok, detail)


def test_criterion_11_determinism(tmp_path):
    from pqcartan.cli import main

    base = {
        "representation": {"recipe": "reducible-21", "params": {"power": 4}},
        "seed": 7,
    }
    cases = {
        "rep-build": {},
        "enumerate": {"length": 4},
        "project": {"length": 4},
        "cocycle-check": {"samples": 40},
        "count": {"length": 6},
        "cone": {"length_min": 4, "length_max": 6},
        "equidistribute": {"length": 7},
        "gap-check": {"length": 6},
    }
    mismatches = []
    for sub, extra in cases.items():
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps({**base, **extra}))
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"{sub}-{threads}"
            code = main([sub, "--config", str(cfg_path), "--out", str(out),
                         "--threads", str(threads)])
            assert code == 0, f"{sub} exited {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        for name in names:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatches.append(f"{sub}/{name}")
    report(11, "determinism", not mismatches,
           "all artifacts byte-identical across 1 vs 8 workers"
           if not mismatches else "mismatch: " + ", ".join(mismatches))
