"""The benchmark's three workloads: set-up, one timed pass, output check.

Each workload runs single process (``threads=1``) in a closed loop: every
library call starts when the previous one returns.  ``run_pass`` is the
timed region; ``outputs`` turns its raw results into the JSON-able values
the output check compares with ``reference.json``.

* ``ball_d3``: the growth-rate comparison at d=3.  3x3 levels make the
  spectral kernels overhead-bound; Cartan, twisted and Jordan data all run,
  and the conjugacy-class path gets real work.
* ``shells_d5``: d=5 levels are 5, 10, 10 and 5 wide, so the kernels are
  flop-bound and each product step costs about 4x more per word.  The only
  workload with the attractor kernel, (inverse) ranks and the per-word
  placement loop.  Its last step, ``limit_signatures``, hits a recorded
  defect (10x10 level-2 compounds exceed ``MAX_DIM``) and counts as failed.
* ``elements``: the dense word-wise API on planted decomposable elements,
  no ``run_bulk`` call; Python and LAPACK call overhead per element.

Sizes are scaled so one pass takes 2-4 s on a 2-core 2.1 GHz Xeon and a run
holds many passes: L=10 (118,096 words) for ``ball_d3``, L=8 (13,120 words)
for ``shells_d5``, and for ``elements`` 1,200 planted elements taken a third
per pass, each pass followed by a 100-sample identity suite (the 1,200 : 300
call mix at a third of the length).
"""

from __future__ import annotations

import math

import numpy as np

from pqcartan import bulk, cocycles, counting, freegroup, pq_cartan, projections
from pqcartan.forms import Form, sample_isometry
from pqcartan.numerics import NumericsError, ScaledMatrix
from pqcartan.weyl import WeylElement

import tracing

SIZES = {
    "full": {
        "ball_d3": {"length": 10, "class_length": 11},
        "shells_d5": {"length": 8, "window": 2},
        "elements": {"per_signature": 400, "parts": 3, "identity_samples": 100},
    },
    "smoke": {
        "ball_d3": {"length": 4, "class_length": 5},
        "shells_d5": {"length": 4, "window": 2},
        "elements": {"per_signature": 3, "parts": 3, "identity_samples": 5},
    },
}

FLOAT_RTOL = 1e-9
ELEMENT_TOL = 1e-8  # planted b_o recovery and identity deviations


class StepError:
    """A step that raised; it carries the message the check compares."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def attempt(fn, *args, **kwargs):
    # a workload step that raises counts as failed; the run goes on
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return StepError(exc)


def compare(got, want, path="") -> list[str]:
    """Paths where got differs from want: exact for ints, lists and keys, rtol for floats."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))}"]
        return [m for k in want for m in compare(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL) or (
            math.isnan(got) and math.isnan(want))
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check_steps(out, reference):
    """(attempted, failed, mismatched, notes) against the stored reference.

    A step that raised counts as failed; when the reference records the same
    error it is a known defect, not a mismatch.  A known-defect step that
    starts to succeed has no reference output and is not compared.
    """
    failed = mismatched = 0
    notes = []
    for step, got in out.items():
        want = reference.get(step)
        if "error" in got:
            failed += 1
            known = want is not None and want.get("error") == got["error"]
            notes.append(f"{step}: {'known defect: ' if known else ''}{got['error']}")
            continue
        if want is not None and "error" in want:
            continue
        diffs = ["missing reference"] if want is None else compare(got, want)
        if diffs:
            failed += 1
            mismatched += 1
            notes.append(f"{step}: {len(diffs)} mismatches, first {diffs[0]}")
    return len(out), failed, mismatched, notes


def state_bytes_per_word(d: int) -> int:
    """Computed per-word level state: sum over j of C(d, j)^2 doubles."""
    return 8 * sum(math.comb(d, j) ** 2 for j in range(1, d))


def _minima(d: dict) -> dict:
    return {str(k): float(v) for k, v in sorted(d.items())}


class BallD3:
    name = "ball_d3"
    dim = 3
    check = staticmethod(check_steps)

    def __init__(self, size: dict, seed: int):
        self.length = size["length"]
        self.class_length = size["class_length"]
        self.grid = np.linspace(0.0, 12.0 * self.length, 768)

    def setup(self, rec):
        with rec.span("freegroup.certify"):
            self.rep = freegroup.reducible_rep(power=4)
        with rec.span("bulk.context"):
            self.ctx = self.rep.bulk_context()
        with rec.span("counting.chamber"):
            self.chamber = counting.canonical_chamber(self.rep)
            self.phi = counting.default_phi(self.rep, chamber=self.chamber)
        self.kinds = ("norm_at", "norm_bo", "phi_bo", "phi_lambda")
        self.specs = [
            (counting.FunctionalHistCollector,
             {"kind": k, "grid": self.grid, "phi": self.phi, "chamber_order": self.chamber.order})
            for k in self.kinds
        ]

    def run_pass(self, rec):
        with rec.span("bulk.run_bulk"):
            cols = attempt(bulk.run_bulk, self.ctx, self.length, tracing.traced_specs(rec, self.specs), threads=1)
        if not isinstance(cols, StepError):
            cols = tracing.untraced_collectors(rec, cols)
        with rec.span("counting.classes"):
            entropy = attempt(counting.phi_entropy, self.rep, self.phi, self.class_length, self.chamber)
        fits = {}
        with rec.span("counting.finish"):
            if not isinstance(cols, StepError):
                curves = [col.curve(col.kind) for col in cols]
                # one window for all four: below the norm_at curve's completeness
                # bound (Jordan minima do not grow with word length)
                t_hi = curves[0].complete_below()
                for curve in curves:
                    fits[curve.label] = attempt(counting.estimate_exponent, curve, (0.5 * t_hi, t_hi))
        return bulk.ball_size(self.rep.rank, self.length) - 1, (cols, entropy, fits)

    def outputs(self, raw):
        cols, entropy, fits = raw
        out = {}
        if isinstance(cols, StepError):
            out["run_bulk"] = {"error": cols.message}
        else:
            out["run_bulk"] = {
                col.kind: {"bins": col.bins.tolist(), "excluded": {str(k): v for k, v in sorted(col.excluded.items())},
                           "shell_minima": _minima(col.shell_minima)}
                for col in cols
            }
        if isinstance(entropy, StepError):
            out["phi_entropy"] = {"error": entropy.message}
        else:
            h, curve, _ = entropy
            out["phi_entropy"] = {"h": h, "counts": curve.counts.tolist(), "shell_minima": _minima(curve.shell_minima)}
        for kind in self.kinds:
            fit = fits.get(kind)
            if fit is None:
                continue
            out[f"estimate_exponent.{kind}"] = (
                {"error": fit.message} if isinstance(fit, StepError) else {"slope": fit[0], "stderr": fit[1]}
            )
        return out

    def excluded_frac(self, out) -> float:
        """Share of (word, functional) evaluations a validity mask excluded."""
        hist = out["run_bulk"]
        if "error" in hist:
            return float("nan")
        words = bulk.ball_size(self.rep.rank, self.length) - 1
        return sum(sum(h["excluded"].values()) for h in hist.values()) / (len(hist) * words)


class ShellsD5:
    name = "shells_d5"
    dim = 5
    check = staticmethod(check_steps)

    def __init__(self, size: dict, seed: int):
        self.length = size["length"]
        self.window = (self.length - size["window"], self.length)

    def setup(self, rec):
        with rec.span("freegroup.certify"):
            self.rep = freegroup.reducible_rep(p=3, q=2, power=6)
        with rec.span("bulk.context"):
            self.ctx = self.rep.bulk_context()
        self.specs = [
            (counting.ComparisonCollector, {"length_max": self.length}),
            (counting.DirectionsCollector, {"length_min": self.window[0], "length_max": self.window[1]}),
        ]

    def run_pass(self, rec):
        with rec.span("bulk.run_bulk"):
            cols = attempt(bulk.run_bulk, self.ctx, self.length, tracing.traced_specs(rec, self.specs), threads=1)
        deviation = clouds = distance = StepError(RuntimeError("run_bulk failed"))
        if not isinstance(cols, StepError):
            comparison, directions = tracing.untraced_collectors(rec, cols)
            with rec.span("counting.finish"):
                deviation = attempt(comparison.shell_max_deviation, self.rep.form.signature[0])
                clouds = attempt(directions.clouds)
                if not isinstance(clouds, StepError):
                    distance = attempt(counting.hausdorff, clouds[1], clouds[0])
            cols = {s: (sum(len(c[5]) for c in chunks), sum(int(c[5].sum()) for c in chunks))
                    for s, chunks in sorted(comparison.store.items())}
        signatures = attempt(counting.limit_signatures, self.rep)
        return bulk.ball_size(self.rep.rank, self.length) - 1, (cols, deviation, clouds, distance, signatures)

    def outputs(self, raw):
        valid, deviation, clouds, distance, signatures = raw

        def step(value, fn):
            return {"error": value.message} if isinstance(value, StepError) else fn(value)

        return {
            "run_bulk": step(valid, lambda v: {str(s): {"words": n, "valid": k} for s, (n, k) in v.items()}),
            "shell_max_deviation": step(deviation, _minima),
            "clouds": step(clouds, lambda c: {"cartan_shape": list(c[0].shape), "slot_shape": list(c[1].shape),
                                              "cartan_sum": float(np.abs(c[0]).sum()),
                                              "slot_sum": float(np.abs(c[1]).sum())}),
            "hausdorff": step(distance, lambda v: {"value": v}),
            "limit_signatures": step(signatures, lambda v: {"signatures": [list(map(int, s)) for s in v[0]]}),
        }

    def excluded_frac(self, out) -> float:
        """Share of words whose slot projection a validity mask excluded."""
        shells = out["run_bulk"]
        if "error" in shells:
            return float("nan")
        words = sum(v["words"] for v in shells.values())
        return sum(v["words"] - v["valid"] for v in shells.values()) / words


def _planted(rng, o: Form):
    """A decomposable element h w exp(x) h' with known slot vector x."""
    p, q = o.signature
    d = o.dim
    x = rng.standard_normal(d)
    x[:p] = np.sort(x[:p])[::-1]
    x[p:] = np.sort(x[p:])[::-1]
    x -= x.mean()
    x *= 5.0 * rng.random() / max(np.linalg.norm(x), 1e-9)
    w = WeylElement(tuple(rng.permutation(d))).lift()
    signs = np.where(rng.random(d) < 0.5, 1.0, -1.0)
    h = sample_isometry(o, rng)
    h2 = sample_isometry(o, rng)
    return h @ ScaledMatrix.of((w * signs[None, :]) @ np.diag(np.exp(x))) @ h2, x


class Elements:
    name = "elements"
    dim = None

    def __init__(self, size: dict, seed: int):
        self.seed = seed
        self.per_signature = size["per_signature"]
        self.parts = size["parts"]
        self.identity_samples = size["identity_samples"]
        self.passes = 0

    def setup(self, rec):
        pass

    def make_inputs(self):
        """Planted elements from the seed; untimed, outside set-up."""
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for p, q in ((2, 1), (2, 2), (3, 2)):
            o = Form.standard(p, q)
            self.inputs += [(o, *_planted(rng, o)) for _ in range(self.per_signature)]

    def run_pass(self, rec):
        # pass k takes every parts-th element from offset k % parts, so a few
        # short passes cover all signatures and, together, every element
        self.batch = self.inputs[self.passes % self.parts::self.parts]
        self.passes += 1
        results = []
        latencies = []
        for o, g, _ in self.batch:
            t0 = rec.clock()
            try:
                with rec.span("workload.element"):
                    with rec.span("projections.cartan"):
                        a = projections.cartan(g)
                    with rec.span("projections.jordan"):
                        lam = projections.jordan(g)
                    with rec.span("pq_cartan.membership"):
                        member = pq_cartan.membership(o, g)
                    with rec.span("pq_cartan.pq_project"):
                        proj = pq_cartan.pq_project(o, g)
                    with rec.span("pq_cartan.distance_So"):
                        dist = pq_cartan.distance_So(o, g)
                results.append((a, lam, member, proj, dist))
            except (pq_cartan.NotInBoGError, NumericsError) as exc:
                results.append(("refused", f"{type(exc).__name__}: {exc}"))
            except Exception as exc:
                results.append(("error", f"{type(exc).__name__}: {exc}"))
            latencies.append(rec.clock() - t0)
        with rec.span("cocycles.identity_suite"):
            suite = attempt(cocycles.identity_suite, Form.standard(2, 1), samples=self.identity_samples,
                            seed=self.seed)
        return len(self.batch) + self.identity_samples, (results, latencies, suite)

    def outputs(self, raw):
        results, _, suite = raw
        status = {"ok": 0, "wrong": 0, "refused": 0, "error": 0}
        notes = []
        for (_, _, x), res in zip(self.batch, results):
            if res[0] in ("refused", "error"):
                status[res[0]] += 1
                notes.append(res[1])
                continue
            a, lam, member, proj, dist = res
            right = (member.ok and np.isfinite(a.coords).all() and np.isfinite(lam.coords).all()
                     and np.max(np.abs(proj.b_o.coords - x)) <= ELEMENT_TOL
                     and abs(dist - np.linalg.norm(x)) <= ELEMENT_TOL)
            status["ok" if right else "wrong"] += 1
        return {
            "elements": {**status, "notes": notes[:3]},
            "identity_suite": {"error": suite.message} if isinstance(suite, StepError) else
            {"samples": suite["samples"], "max_deviations": suite["max_deviations"]},
        }

    def excluded_frac(self, out) -> float:
        """Share of planted elements the word-wise API refused."""
        el = out["elements"]
        return el["refused"] / sum(el[k] for k in ("ok", "wrong", "refused", "error"))

    def check(self, out, reference):
        """(attempted, failed, mismatched, notes): one step per element plus the suite.

        Planted elements are decomposable, so a refusal is a failed step; a
        b_o or distance off by more than ELEMENT_TOL is a mismatch.
        """
        el = out["elements"]
        suite = out["identity_suite"]
        suite_wrong = "error" not in suite and (
            suite["samples"] != self.identity_samples
            or any(v > ELEMENT_TOL for v in suite["max_deviations"].values()))
        notes = list(el["notes"]) + ([f"identity_suite: {suite}"] if suite_wrong or "error" in suite else [])
        if el["wrong"]:
            notes.append(f"{el['wrong']} elements off the planted b_o or distance by more than {ELEMENT_TOL}")
        attempted = sum(el[k] for k in ("ok", "wrong", "refused", "error")) + 1
        failed = attempted - el["ok"] - int(not suite_wrong and "error" not in suite)
        return attempted, failed, el["wrong"] + int(suite_wrong), notes


WORKLOADS = {w.name: w for w in (BallD3, ShellsD5, Elements)}
