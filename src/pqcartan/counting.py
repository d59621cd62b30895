"""Counting curves, exponents, entropy, cones and comparison experiments.

Everything here runs over certified representations through the bulk
enumeration engine; per-word projections come from per-level exterior-power
data, so word length is only limited by time, not by floating-point range.
All experiments are deterministic for a fixed configuration and worker
count never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .bulk import ShellData
from .cocycles import gromov_product
from .freegroup import DEFAULT_WORD_CAP, Representation, Word, attracting_flag, sample_limit_set
from .numerics import _fit_line, hodge_dual
from .weyl import ChamberA, WeylElement, chamber_from_signs, chamber_transition, file_to_slots, iota_of_chamber

__all__ = [
    "CountCurve",
    "ConeSample",
    "count_curve",
    "estimate_exponent",
    "phi_entropy",
    "cone_samples",
    "gromov_comparison",
    "theorem_b_trend",
    "equidistribution_experiment",
    "default_phi",
    "canonical_chamber",
    "comparison_boundedness",
]

ENTROPY_GRID_POINTS = 256
PHI_CLASS_LENGTH = 5
HAUSDORFF_POINTS = 2500
HAUSDORFF_BLOCK = 256
TREND_GRID_POINTS = 512
BOX_GRID_POINTS = 64


@dataclass
class CountCurve:
    """Nondecreasing counts over an increasing threshold grid."""

    thresholds: np.ndarray
    counts: np.ndarray
    label: str
    excluded: dict[int, int] = field(default_factory=dict)
    shell_minima: dict[int, float] = field(default_factory=dict)

    def complete_below(self) -> float:
        """Largest threshold the word ball certainly exhausts.

        Per-shell minima of the counted functional grow linearly for
        certified representations; the last shell's minimum bounds every
        longer word's value from below, so counts are truncation-free there.
        """
        if not self.shell_minima:
            return float(self.thresholds[-1])
        return float(self.shell_minima[max(self.shell_minima)])


@dataclass
class ConeSample:
    points: np.ndarray  # (n, d) unit vectors
    source: str
    signatures: list[tuple[int, ...]] | None = None


# ---------------------------------------------------------------------------
# bulk collectors
# ---------------------------------------------------------------------------


class FunctionalHistCollector:
    """Ball histogram of one word functional, with exclusion tallies.

    kinds: norm_at, norm_bo, phi_bo, phi_lambda, min_root_gap.
    """

    def __init__(self, kind: str, grid, phi=None, chamber_order=None):
        self.kind = kind
        self.grid = np.asarray(grid, dtype=float)
        self.phi = None if phi is None else np.asarray(phi, dtype=float)
        self.chamber_order = chamber_order
        self.bins = np.zeros(len(self.grid) + 1, dtype=np.int64)
        self.excluded: dict[int, int] = {}
        self.shell_minima: dict[int, float] = {}

    def _values(self, shell: ShellData):
        if self.kind == "norm_at":
            return np.linalg.norm(shell.cartan_coords(), axis=1), None
        if self.kind == "norm_bo":
            bo, _, _ = shell.bo_data()
            return np.linalg.norm(bo, axis=1), shell.bo_valid_mask()
        if self.kind == "phi_bo":
            bo, _, _ = shell.bo_data()
            return bo @ self.phi, shell.bo_valid_mask()
        if self.kind == "phi_lambda":
            lam, ok = shell.jordan_coords()
            chamber = ChamberA.default(shell.ctx.d) if self.chamber_order is None else ChamberA(self.chamber_order)
            return chamber.place(lam) @ self.phi, ok
        if self.kind == "min_root_gap":
            return shell.min_root_gap(), None
        raise ValueError(f"unknown functional kind {self.kind!r}")

    def update(self, shell: ShellData):
        vals, valid = self._values(shell)
        if valid is not None:
            bad = int((~valid).sum())
            if bad:
                self.excluded[shell.length] = self.excluded.get(shell.length, 0) + bad
            vals = vals[valid]
        if len(vals):
            idx = np.searchsorted(self.grid, vals, side="left")
            self.bins += np.bincount(idx, minlength=len(self.grid) + 1)
            mn = float(vals.min())
            cur = self.shell_minima.get(shell.length)
            self.shell_minima[shell.length] = mn if cur is None else min(cur, mn)

    def merge(self, other: "FunctionalHistCollector"):
        self.bins += other.bins
        for s, n in other.excluded.items():
            self.excluded[s] = self.excluded.get(s, 0) + n
        for s, v in other.shell_minima.items():
            cur = self.shell_minima.get(s)
            self.shell_minima[s] = v if cur is None else min(cur, v)

    def curve(self, label: str) -> CountCurve:
        """Counts over the ball, the identity word (value zero) included."""
        counts = np.cumsum(self.bins[:-1]) + (self.grid >= 0.0)
        return CountCurve(self.grid.copy(), counts, label, dict(self.excluded), dict(self.shell_minima))


class DirectionsCollector:
    """Unit Cartan and slot-projection directions over a shell window."""

    def __init__(self, length_min: int, length_max: int, stride: int = 1):
        self.length_min = length_min
        self.length_max = length_max
        self.stride = stride
        self.at_parts: list[np.ndarray] = []
        self.bo_parts: list[np.ndarray] = []

    def update(self, shell: ShellData):
        if not (self.length_min <= shell.length <= self.length_max):
            return
        ranks = shell.ranks()
        keep = (ranks % self.stride) == 0
        at = shell.cartan_coords()[keep]
        bo, _, _ = shell.bo_data()
        valid = shell.bo_valid_mask()[keep]
        bo = bo[keep][valid]
        at = at[valid]
        self.at_parts.append(at / np.linalg.norm(at, axis=1, keepdims=True))
        self.bo_parts.append(bo / np.linalg.norm(bo, axis=1, keepdims=True))

    def merge(self, other: "DirectionsCollector"):
        self.at_parts.extend(other.at_parts)
        self.bo_parts.extend(other.bo_parts)

    def clouds(self):
        at = np.concatenate(self.at_parts) if self.at_parts else np.zeros((0, 0))
        bo = np.concatenate(self.bo_parts) if self.bo_parts else np.zeros((0, 0))
        return at, bo


class ComparisonCollector:
    """Per-shell data for ||b_o - w.a|| with w predicted from the repellor orbit.

    The repellor signature of a word is the attractor signature of its
    inverse, joined within the shell through canonical ranks.
    """

    def __init__(self, length_max: int):
        self.length_max = length_max
        self.store: dict[int, list] = {}

    def update(self, shell: ShellData):
        if shell.length > self.length_max:
            return
        bo, _, _ = shell.bo_data()
        entry = (
            shell.ranks(),
            shell.inverse_ranks(),
            shell.attractor_signs().astype(np.int8),
            shell.cartan_coords(),
            bo,
            shell.bo_valid_mask(),
        )
        self.store.setdefault(shell.length, []).append(entry)

    def merge(self, other: "ComparisonCollector"):
        for s, chunks in other.store.items():
            self.store.setdefault(s, []).extend(chunks)

    def shell_max_deviation(self, p: int) -> dict[int, float]:
        """Per shell, the max over valid words of ||b_o - w.a||.

        A word whose repellor signature does not fill the signature p has no
        predicted chamber and is left out.
        """
        out: dict[int, float] = {}
        for length, chunks in sorted(self.store.items()):
            ranks = np.concatenate([c[0] for c in chunks])
            inv_ranks = np.concatenate([c[1] for c in chunks])
            usigns = np.concatenate([c[2] for c in chunks])
            at = np.concatenate([c[3] for c in chunks])
            bo = np.concatenate([c[4] for c in chunks])
            valid = np.concatenate([c[5] for c in chunks])
            order = np.argsort(ranks)
            pos_of_rank = np.empty_like(order)
            pos_of_rank[ranks[order]] = order
            s_signs = usigns[pos_of_rank[inv_ranks]]
            # when s fills the signature, the predicted chamber
            # iota(chamber_from_signs(s)) has rank -> line map merge_to_slots(s[::-1])
            placed = file_to_slots(at, s_signs[:, ::-1])
            dev = np.linalg.norm(bo - placed, axis=1)
            dev = dev[valid & (np.sum(s_signs > 0, axis=1) == p)]
            if len(dev):
                out[length] = float(dev.max())
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def count_curve(
    rep: Representation,
    functional: str,
    length_max: int,
    grid,
    phi=None,
    chamber: ChamberA | None = None,
    threads: int = 1,
    cap: int | None = None,
) -> CountCurve:
    """Exact counts over the word ball; non-decomposable words are tallied apart."""
    grid_arr = np.asarray(grid, dtype=float)
    if length_max == 0:
        return CountCurve(grid_arr, (grid_arr >= 0.0).astype(np.int64), functional)
    ctx = rep.bulk_context()
    spec_kwargs = {"kind": functional, "grid": np.asarray(grid, dtype=float)}
    if phi is not None:
        spec_kwargs["phi"] = np.asarray(phi, dtype=float)
    if chamber is not None:
        spec_kwargs["chamber_order"] = chamber.order
    [col] = bulk.run_bulk(
        ctx, length_max, [(FunctionalHistCollector, spec_kwargs)],
        threads=threads, cap=cap if cap is not None else DEFAULT_WORD_CAP,
    )
    return col.curve(functional)


def rescaled_variation(curve: CountCurve, h: float, window: tuple[float, float]) -> float:
    """Relative spread of exp(-h t) N(t) over the window (max/min - 1)."""
    mask = (curve.thresholds >= window[0]) & (curve.thresholds <= window[1]) & (curve.counts > 0)
    if not mask.any():
        return float("nan")
    t = curve.thresholds[mask]
    r = np.exp(-h * t) * curve.counts[mask]
    return float(r.max() / r.min() - 1.0)


def estimate_exponent(curve: CountCurve, window: tuple[float, float]):
    """Least-squares slope of log counts on the window, with window sensitivity."""
    lo, hi = window
    mask = (curve.thresholds >= lo) & (curve.thresholds <= hi) & (curve.counts > 0)
    if mask.sum() < 3:
        raise ValueError("window holds fewer than three usable grid points")
    t = curve.thresholds[mask]
    y = np.log(curve.counts[mask].astype(float))
    slope, intercept, res = _fit_line(t, y)
    dof = max(1, len(t) - 2)
    sigma2 = float(res[0]) / dof if len(res) else 0.0
    stderr = float(np.sqrt(sigma2 / max(np.sum((t - t.mean()) ** 2), 1e-30)))
    shift = 0.25 * (hi - lo)
    sensitivity = []
    for delta in (-shift, shift):
        m2 = (curve.thresholds >= lo + delta) & (curve.thresholds <= hi + delta) & (curve.counts > 0)
        if m2.sum() >= 3:
            y2 = np.log(curve.counts[m2].astype(float))
            sensitivity.append(float(_fit_line(curve.thresholds[m2], y2)[0]))
    return float(slope), stderr, {"intercept": float(intercept), "shifted_slopes": sensitivity}


# -- conjugacy classes -------------------------------------------------------


def _cyclically_reduced_rows(k: int, length: int) -> np.ndarray:
    """(n, length) int8 alphabet-index rows of the cyclically reduced words, canonical order."""
    rows = bulk.sphere_rows(k, length)
    return rows[rows[:, 0] != (rows[:, -1] ^ 1)]


def _lex_leq_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise lexicographic a <= b for equal-shape int arrays."""
    diff = a != b
    any_diff = diff.any(axis=1)
    first = np.where(any_diff, diff.argmax(axis=1), 0)
    r = np.arange(a.shape[0])
    lt = a[r, first] < b[r, first]
    return lt | ~any_diff


def conjugacy_class_indices(k: int, length: int) -> np.ndarray:
    """Index rows of the minimal-rotation representatives of length-n classes."""
    rows = _cyclically_reduced_rows(k, length)
    keep = np.ones(rows.shape[0], dtype=bool)
    for r in range(1, length):
        rotated = np.roll(rows, -r, axis=1)
        keep &= _lex_leq_rows(rows, rotated)
    return rows[keep]


def _class_jordan(rep: Representation, chamber: ChamberA, length: int):
    """Jordan projections of the length-n class representatives, in the chamber frame."""
    rows = conjugacy_class_indices(rep.rank, length)
    if rows.shape[0] == 0:
        return None
    lam, _ = rep.bulk_context().shell(rows).jordan_coords()
    return chamber.place(lam)


def class_periods(rep: Representation, phi: np.ndarray, chamber: ChamberA, length_max: int):
    """phi of the Jordan projection for every conjugacy class representative."""
    values = []
    per_length_min: dict[int, float] = {}
    for length in range(1, length_max + 1):
        framed = _class_jordan(rep, chamber, length)
        if framed is None:
            continue
        vals = framed @ phi
        values.append(vals)
        per_length_min[length] = float(vals.min())
    all_vals = np.concatenate(values) if values else np.zeros(0)
    return all_vals, per_length_min


def phi_entropy(rep: Representation, phi, length_max: int, chamber: ChamberA | None = None):
    """Growth rate of conjugacy classes by the functional of the Jordan projection.

    Refuses when the functional fails to be positive on a sampled direction,
    naming the witness.  Returns (h, curve, details).
    """
    phi = np.asarray(phi, dtype=float)
    chamber = chamber if chamber is not None else canonical_chamber(rep)
    vals, per_length_min = class_periods(rep, phi, chamber, length_max)
    if len(vals) == 0:
        raise ValueError("no conjugacy classes below the requested length")
    if vals.min() <= 0:
        bad = int(np.argmin(vals))
        raise ValueError(
            f"functional non-positive on a sampled direction (class #{bad}, value {vals.min():.3g})"
        )
    hi = per_length_min[length_max]
    grid = np.linspace(0.0, hi, ENTROPY_GRID_POINTS)
    counts = np.searchsorted(np.sort(vals), grid, side="right")
    curve = CountCurve(grid, counts.astype(np.int64), "phi_lambda_classes",
                       shell_minima={k: v for k, v in per_length_min.items()})
    window = (0.5 * hi, hi)
    raw, stderr, extra = estimate_exponent(curve, window)
    # class counts carry a structural 1/t prefactor (one class per rotation
    # orbit), so the exponential rate is fitted on log N + log t
    mask = (grid >= window[0]) & (grid <= window[1]) & (counts > 0) & (grid > 0)
    t = grid[mask]
    h = float(_fit_line(t, np.log(counts[mask].astype(float)) + np.log(t))[0])
    return h, curve, {"stderr": stderr, "window": window, "raw_slope": raw, **extra}


# -- canonical chamber and default functional --------------------------------


def limit_signatures(rep: Representation, length: int = 6, count: int = 60):
    """(distinct sampled limit signatures in first-seen order, reports of unclassified samples)."""
    sigs, reports = sample_limit_set(rep, length, count)
    return list(dict.fromkeys(sigs)), reports


def canonical_chamber(rep: Representation) -> ChamberA:
    """Compatible chamber selected by the first sampled limit signature."""
    seen, _ = limit_signatures(rep)
    if not seen:
        raise ValueError("no generic limit flags sampled")
    return iota_of_chamber(chamber_from_signs(seen[0]), rep.form.signature[0])


def _single_orbit_chamber(rep: Representation) -> ChamberA:
    """``canonical_chamber`` from one limit sample, which must meet a single orbit."""
    seen, _ = limit_signatures(rep)
    if len(seen) != 1:
        raise ValueError(f"single-orbit hypothesis fails: signatures {seen}")
    return iota_of_chamber(chamber_from_signs(seen[0]), rep.form.signature[0])


def default_phi(rep: Representation, chamber: ChamberA | None = None) -> np.ndarray:
    """Barycenter functional of sampled Jordan directions, in the chamber frame."""
    chamber = chamber if chamber is not None else canonical_chamber(rep)
    dirs = []
    for length in range(1, PHI_CLASS_LENGTH + 1):
        framed = _class_jordan(rep, chamber, length)
        if framed is None:
            continue
        nrm = np.linalg.norm(framed, axis=1, keepdims=True)
        dirs.append(framed / np.maximum(nrm, 1e-30))
    bary = np.concatenate(dirs).mean(axis=0)
    bary -= bary.mean()
    return bary / np.linalg.norm(bary)


# -- cones -------------------------------------------------------------------


def cone_samples(rep: Representation, length_min: int, length_max: int, threads: int = 1, stride: int = 1):
    """Direction clouds of both projections plus the Weyl translate report.

    The set of Weyl elements is computed from the distinct orbit signatures
    of sampled limit flags; the slot-projection cloud is checked against the
    union of the corresponding translates of the Cartan cloud.
    """
    ctx = rep.bulk_context()
    [col] = bulk.run_bulk(
        ctx, length_max,
        [(DirectionsCollector, {"length_min": length_min, "length_max": length_max, "stride": stride})],
        threads=threads,
    )
    at_sorted, bo = col.clouds()
    p = rep.form.signature[0]
    chamber = canonical_chamber(rep)
    seen, _ = limit_signatures(rep, min(length_min, 8), 80)
    weyls: list[WeylElement] = []
    translates = []
    for signs in seen:
        target = iota_of_chamber(chamber_from_signs(signs), p)
        weyls.append(chamber_transition(target, chamber))
        translates.append(target.place(at_sorted))
    at_framed = np.concatenate(translates) if translates else at_sorted
    hd = hausdorff(bo, at_framed)
    at_cloud = ConeSample(np.empty((0, rep.dim)) if not translates else translates[0], "cartan")
    bo_cloud = ConeSample(bo, "slot")
    return {
        "weyl_set": weyls,
        "signatures": seen,
        "chamber": chamber,
        "hausdorff": hd,
        "cartan_cloud": at_cloud,
        "slot_cloud": bo_cloud,
        "translate_union": at_framed,
    }


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete symmetric Hausdorff distance between unit-vector clouds.

    A cloud of more than HAUSDORFF_POINTS points is thinned by the stride
    len // HAUSDORFF_POINTS, which keeps HAUSDORFF_POINTS to 2 * HAUSDORFF_POINTS - 1.
    Squared distances are reduced over blocks of HAUSDORFF_BLOCK rows; sqrt is monotone.
    """
    if len(a) == 0 or len(b) == 0:
        return float("nan")
    a = a[:: max(1, len(a) // HAUSDORFF_POINTS)]
    b = b[:: max(1, len(b) // HAUSDORFF_POINTS)]
    b2 = np.sum(b**2, axis=1)
    row_max, col_min = 0.0, np.full(len(b), np.inf)
    for lo in range(0, len(a), HAUSDORFF_BLOCK):
        blk = a[lo:lo + HAUSDORFF_BLOCK]
        d2 = np.sum(blk**2, axis=1)[:, None] + b2[None, :] - 2 * (blk @ b.T)
        row_max = max(row_max, d2.min(axis=1).max())
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    return float(np.sqrt(max(row_max, col_min.max())))


def comparison_boundedness(rep: Representation, length_max: int):
    """Per-shell max of ||b_o - (predicted w).a|| over the ball."""
    ctx = rep.bulk_context()
    [col] = bulk.run_bulk(ctx, length_max, [(ComparisonCollector, {"length_max": length_max})])
    return col.shell_max_deviation(rep.form.signature[0])


# -- cylinder combinatorics ---------------------------------------------------


def _cyc_depth(rows: np.ndarray) -> np.ndarray:
    """Per row: number of head/tail inverse pairs stripped by cyclic reduction."""
    n, length = rows.shape
    half = length // 2
    if half == 0:
        return np.zeros(n, dtype=np.int64)
    head = rows[:, :half]
    tail = rows[:, ::-1][:, :half] ^ 1
    return np.cumprod(head == tail, axis=1).sum(axis=1)


def _cylinder_mask(rows: np.ndarray, prefix_idx: tuple[int, ...], inverse: bool) -> np.ndarray:
    """Rows whose cyclic reduction (of the word or its inverse) starts with the prefix."""
    if not prefix_idx:
        return np.ones(rows.shape[0], dtype=bool)
    work = rows[:, ::-1] ^ 1 if inverse else rows
    depth = _cyc_depth(rows)
    length = rows.shape[1]
    ok = (2 * depth + len(prefix_idx)) <= length
    mask = ok.copy()
    r = np.arange(rows.shape[0])
    for t, want in enumerate(prefix_idx):
        pos = np.minimum(depth + t, length - 1)
        mask &= work[r, pos] == want
    return mask & ok


def letters_to_indices(letters) -> tuple[int, ...]:
    return tuple(bulk.letter_index(l) for l in letters)


# -- Gromov-product comparison ------------------------------------------------


def gromov_comparison(
    rep: Representation,
    phi,
    cylinder_a,
    cylinder_b,
    length_max: int,
    length_min: int = 4,
    chamber: ChamberA | None = None,
):
    """Shellwise max of |phi(b_o) - phi(lambda) + bracket| over cylinder pairs.

    The bracket is the functional paired with the Gromov product of the
    repelling and attracting fixed flags, both read off per-level dominant
    eigenvectors of the word and its inverse, so arbitrarily long words stay
    well-conditioned.  Words are restricted to those whose cyclic reduction
    starts in cylinder_b and whose inverse's starts in cylinder_a.
    """
    single = _single_orbit_chamber(rep)
    phi = np.asarray(phi, dtype=float)
    chamber = chamber if chamber is not None else single
    ctx = rep.bulk_context()
    d = ctx.d
    a_idx = letters_to_indices(cylinder_a)
    b_idx = letters_to_indices(cylinder_b)
    out: dict[int, float] = {}
    counts: dict[int, int] = {}
    for length in range(length_min, length_max + 1):
        rows = _cyclically_reduced_rows(rep.rank, length)
        mask = _cylinder_mask(rows, b_idx, inverse=False) & _cylinder_mask(rows, a_idx, inverse=True)
        rows = rows[mask]
        if rows.shape[0] == 0:
            continue
        shell = ctx.shell(rows)
        bo, _, _ = shell.bo_data()
        valid = shell.bo_valid_mask()
        lam, lam_ok = shell.jordan_coords()
        framed = chamber.place(lam)
        fwd_tops = shell.jordan_vectors()
        inv_tops = ctx.shell(rows[:, ::-1] ^ 1).jordan_vectors()
        chi = np.zeros((rows.shape[0], d))
        for j in range(1, d):
            sg = ctx.level_signs[j - 1]
            vp = fwd_tops[j - 1]
            w = inv_tops[d - j - 1]
            v = hodge_dual(w, d, j) * sg
            cross = np.einsum("ni,i,ni->n", v, sg, vp)
            qv = np.einsum("ni,i,ni->n", v, sg, v)
            qp = np.einsum("ni,i,ni->n", vp, sg, vp)
            chi[:, j - 1] = 0.5 * np.log(np.maximum(cross**2, 1e-300) / np.abs(qv * qp))
        coords = chamber.place(bulk._recentred_increments(chi))
        bracket = coords @ phi
        dev = np.abs(bo @ phi - framed @ phi + bracket)
        keep = valid & lam_ok
        if keep.any():
            out[length] = float(dev[keep].max())
            counts[length] = int(keep.sum())
    return {"max_deviation": out, "counts": counts, "chamber": chamber}


# -- trend and equidistribution ----------------------------------------------


def theorem_b_trend(rep: Representation, phi, length_max: int, class_length: int | None = None):
    """Flatness of the exponentially rescaled directional counting function.

    The exact limit is out of desk reach; the contract is (a) the class
    entropy matches the slope of the directional log-counts, (b) the
    rescaled count varies mildly over the final completeness window.
    """
    chamber = _single_orbit_chamber(rep)
    phi = np.asarray(phi, dtype=float)
    cls_len = class_length if class_length is not None else max(4, length_max - 2)
    h, class_curve, h_details = phi_entropy(rep, phi, cls_len, chamber)
    probe = count_curve(rep, "phi_bo", min(4, length_max), np.linspace(0, 1, 2), phi=phi)
    hi_estimate = probe.shell_minima[min(4, length_max)] * length_max / min(4, length_max)
    grid = np.linspace(0.0, hi_estimate * 1.05, TREND_GRID_POINTS)
    curve = count_curve(rep, "phi_bo", length_max, grid, phi=phi)
    t_hi = curve.complete_below()
    window = (max(t_hi - 1.0, 0.5 * t_hi), t_hi)
    slope, stderr, extra = estimate_exponent(curve, (0.5 * t_hi, t_hi))
    variation = rescaled_variation(curve, h, window)
    return {
        "h_classes": h,
        "h_details": h_details,
        "slope_counts": slope,
        "slope_stderr": stderr,
        "relative_slope_gap": abs(slope - h) / h,
        "window": window,
        "ratio_variation": variation,
        "curve": curve,
        "class_curve": class_curve,
        "zariski_density": "assumed, not verified (recorded as unchecked hypothesis)",
    }


class BoxMassCollector:
    """Histogram of a Jordan functional per boundary-cylinder box."""

    def __init__(self, grid, boxes_idx, phi, chamber_order):
        self.grid = np.asarray(grid, dtype=float)
        self.boxes_idx = boxes_idx
        self.phi = np.asarray(phi, dtype=float)
        self.chamber_order = chamber_order
        self.bins = np.zeros((len(boxes_idx), len(self.grid) + 1), dtype=np.int64)

    def update(self, shell: ShellData):
        lam, ok = shell.jordan_coords()
        vals = ChamberA(self.chamber_order).place(lam) @ self.phi
        rows = shell.idx_rows
        for b, (a_idx, b_idx) in enumerate(self.boxes_idx):
            mask = ok & _cylinder_mask(rows, b_idx, False) & _cylinder_mask(rows, a_idx, True)
            if mask.any():
                idx = np.searchsorted(self.grid, vals[mask], side="left")
                self.bins[b] += np.bincount(idx, minlength=len(self.grid) + 1)

    def merge(self, other: "BoxMassCollector"):
        self.bins += other.bins


def equidistribution_experiment(rep: Representation, phi, length_max: int, boxes, threads: int = 1):
    """Cylinder-box masses of the Jordan functional, with product-defect report.

    boxes are (A, B) pairs of letter tuples.  Masses are rescaled by the
    class entropy; after reweighting by the exponential of the bracket at
    representative cylinder endpoints, the box matrix should approach a
    rank-one product, and the defect is its second-to-first singular ratio.
    """
    chamber = _single_orbit_chamber(rep)
    phi = np.asarray(phi, dtype=float)
    h, _, _ = phi_entropy(rep, phi, max(4, length_max - 2), chamber)
    probe = count_curve(rep, "phi_bo", 4, np.linspace(0, 1, 2), phi=phi)
    hi = probe.shell_minima[4] * length_max / 4
    grid = np.linspace(0.0, hi, BOX_GRID_POINTS)
    boxes_idx = [(letters_to_indices(a), letters_to_indices(b)) for a, b in boxes]
    ctx = rep.bulk_context()
    [col] = bulk.run_bulk(
        ctx, length_max,
        [(BoxMassCollector, {"grid": grid, "boxes_idx": boxes_idx, "phi": phi,
                             "chamber_order": chamber.order})],
        threads=threads,
    )
    counts = np.cumsum(col.bins[:, :-1], axis=1)
    masses = counts * np.exp(-h * grid)[None, :]
    brackets = np.array([_box_bracket(rep, phi, chamber, a, b) for a, b in boxes])
    reweighted_final = masses[:, -1] * np.exp(h * brackets)
    a_labels = sorted({a for a, _ in boxes})
    b_labels = sorted({b for _, b in boxes})
    defect = float("nan")
    defect_matrix = None
    if len(a_labels) >= 2 and len(b_labels) >= 2 and len(boxes) == len(a_labels) * len(b_labels):
        m = np.zeros((len(a_labels), len(b_labels)))
        for (a, b), v in zip(boxes, reweighted_final):
            m[a_labels.index(a), b_labels.index(b)] = v
        u, sv, vt = np.linalg.svd(m)
        defect = float(sv[1] / sv[0]) if sv[0] > 0 else float("nan")
        rank_one = sv[0] * np.outer(u[:, 0], vt[0])
        defect_matrix = m - rank_one
    return {
        "grid": grid,
        "masses": masses,
        "brackets": brackets,
        "reweighted_final": reweighted_final,
        "product_defect": defect,
        "product_defect_matrix": defect_matrix,
        "entropy": h,
        "boxes": boxes,
    }


def _box_bracket(rep: Representation, phi, chamber, cyl_a, cyl_b) -> float:
    """Bracket at representative endpoints: fixed flags of the cylinder words."""
    wa = Word.of(cyl_a)
    wb = Word.of(cyl_b)
    if wa.letters == wb.letters:
        return float("nan")
    xi_minus = attracting_flag(rep, wa)
    xi_plus = attracting_flag(rep, wb)
    value = gromov_product(rep.form, xi_minus, xi_plus, chamber)
    return float(value.pair(np.asarray(phi, dtype=float)))
