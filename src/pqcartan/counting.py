"""Counting curves, exponents, entropy, cones and comparison experiments.

Everything here runs over certified representations through the bulk
enumeration engine; per-word projections come from per-level exterior-power
data, so word length is only limited by time, not by floating-point range.
All experiments are deterministic for a fixed configuration and worker
count never changes results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .bulk import ShellData
from .freegroup import Representation, sample_limit_set
from .numerics import HypothesisError, NumericsError, fit_line, hodge_dual, recenter, recentred_increments
from .weyl import ChamberA, WeylElement, chamber_from_signs, chamber_transition, file_to_slots, iota_of_chamber

# the word functionals FunctionalHistCollector histograms
FUNCTIONAL_KINDS = ("norm_at", "norm_bo", "phi_bo", "phi_lambda", "min_root_gap")
ENTROPY_GRID_POINTS = 256
PHI_CLASS_LENGTH = 5
HAUSDORFF_POINTS = 2500
HAUSDORFF_BLOCK = 32
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
        """Largest threshold the word ball exhausts, provided the shell minima grow with length.

        The last shell's minimum of the counted functional bounds every longer
        word's value from below only when the per-shell minima grow with
        length, as they do for ``norm_at`` and ``norm_bo`` on the certified
        recipes.  ``phi_lambda`` minima alternate with the parity of the
        length: on reducible-21 power 4 this reads 11.03 at L=6, yet N(10)
        goes from 37 to 73 between L=6 and L=8 (ROADMAP item 16).
        """
        if not self.shell_minima:
            return float(self.thresholds[-1])
        return float(self.shell_minima[max(self.shell_minima)])


# ---------------------------------------------------------------------------
# bulk collectors
# ---------------------------------------------------------------------------


class FunctionalHistCollector:
    """Ball histogram of one word functional, with exclusion tallies.

    kinds: ``FUNCTIONAL_KINDS``.  phi_bo pairs ``phi`` with b_o; phi_lambda
    pairs it with the Jordan projection placed in the chamber whose order is
    ``chamber_order``.
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
            return ChamberA(self.chamber_order).place(lam) @ self.phi, ok
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
    """Unit Cartan and slot-projection directions over a shell window.

    Parts are filed by (first letter, shell length), as a subtree's shells
    arrive interleaved; ``clouds`` reads them subtree by subtree, shell by
    shell, each shell in canonical order, for any slice size.
    """

    def __init__(self, length_min: int, length_max: int):
        self.length_min = length_min
        self.length_max = length_max
        self.parts: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}

    def update(self, shell: ShellData):
        if not (self.length_min <= shell.length <= self.length_max):
            return
        at = shell.cartan_coords()
        bo, _, _ = shell.bo_data()
        valid = shell.bo_valid_mask()
        at, bo = at[valid], bo[valid]
        self.parts.setdefault((int(shell.idx_rows[0, 0]), shell.length), []).append(
            (at / np.linalg.norm(at, axis=1, keepdims=True), bo / np.linalg.norm(bo, axis=1, keepdims=True)))

    def merge(self, other: "DirectionsCollector"):
        for key, parts in other.parts.items():
            self.parts.setdefault(key, []).extend(parts)

    def clouds(self):
        parts = [part for key in sorted(self.parts) for part in self.parts[key]] or [(np.zeros((0, 0)),) * 2]
        at, bo = (np.concatenate(c) for c in zip(*parts))
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
            ranks, inv_ranks, usigns, at, bo, valid = (np.concatenate(c) for c in zip(*chunks))
            # a shell's ranks are a permutation of 0..n-1, so argsort maps each rank to its row
            s_signs = usigns[np.argsort(ranks)[inv_ranks]]
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
) -> CountCurve:
    """Exact counts over the word ball; non-decomposable words are tallied apart."""
    grid_arr = np.asarray(grid, dtype=float)
    if length_max == 0:
        return CountCurve(grid_arr, (grid_arr >= 0.0).astype(np.int64), functional)
    spec = {"kind": functional, "grid": grid_arr, "phi": phi,
            "chamber_order": None if chamber is None else chamber.order}
    [col] = bulk.run_bulk(rep.bulk_context(), length_max, [(FunctionalHistCollector, spec)], threads=threads)
    return col.curve(functional)


def anosov_gap_check(rep: Representation, length_max: int, threads: int = 1):
    """Fit the linear lower envelope of the per-shell minimal simple-root gap.

    Returns (c, c_prime, shell_minima): the least-squares line through the
    per-shell minima.  A positive fitted slope is evidence consistent with
    the word-length gap bound; finite length can only ever test a necessary
    condition, which the CLI report states explicitly.
    """
    minima = count_curve(rep, "min_root_gap", length_max, [], threads=threads).shell_minima
    shells = sorted(minima)
    ys = np.array([minima[s] for s in shells], dtype=float)
    slope, intercept, _ = fit_line(np.array(shells, dtype=float), ys)
    return float(slope), float(-intercept), {s: float(minima[s]) for s in shells}


def _window_mask(curve: CountCurve, lo: float, hi: float) -> np.ndarray:
    """Grid points of the window [lo, hi] with a positive count."""
    return (curve.thresholds >= lo) & (curve.thresholds <= hi) & (curve.counts > 0)


def rescaled_variation(curve: CountCurve, h: float, window: tuple[float, float]) -> float:
    """Relative spread of exp(-h t) N(t) over the window (max/min - 1)."""
    mask = _window_mask(curve, *window)
    if not mask.any():
        return float("nan")
    t = curve.thresholds[mask]
    r = np.exp(-h * t) * curve.counts[mask]
    return float(r.max() / r.min() - 1.0)


def estimate_exponent(curve: CountCurve, window: tuple[float, float]):
    """Least-squares slope of log counts on a window of three distinct thresholds, with window sensitivity."""
    # the grid does not decrease, so each nonzero step between neighbours adds one distinct threshold
    lo, hi = window
    mask = _window_mask(curve, lo, hi)
    if np.count_nonzero(np.diff(curve.thresholds[mask])) < 2:
        raise ValueError("window holds fewer than three usable grid points")
    t = curve.thresholds[mask]
    y = np.log(curve.counts[mask].astype(float))
    slope, intercept, res = fit_line(t, y)
    dof = max(1, len(t) - 2)
    sigma2 = float(res[0]) / dof if len(res) else 0.0
    stderr = float(np.sqrt(sigma2 / max(np.sum((t - t.mean()) ** 2), 1e-30)))
    shift = 0.25 * (hi - lo)
    sensitivity = []
    for delta in (-shift, shift):
        m2 = _window_mask(curve, lo + delta, hi + delta)
        if np.count_nonzero(np.diff(curve.thresholds[m2])) >= 2:
            y2 = np.log(curve.counts[m2].astype(float))
            sensitivity.append(float(fit_line(curve.thresholds[m2], y2)[0]))
    return float(slope), stderr, {"intercept": float(intercept), "shifted_slopes": sensitivity}


# -- conjugacy classes -------------------------------------------------------


def _batches(blocks, size: int):
    """The rows of consecutive blocks, in order, regrouped into batches of ``size`` rows (the last may be short)."""
    held, count = [], 0
    for block in blocks:
        while block.shape[0]:
            held.append(block[: size - count])
            count += held[-1].shape[0]
            block = block[held[-1].shape[0]:]
            if count == size:
                yield np.concatenate(held)
                held, count = [], 0
    if count:
        yield np.concatenate(held)


def conjugacy_class_indices(k: int, length: int):
    """Index rows of the minimal-rotation representatives of length-n classes, in canonical order.

    Yields them one rank range of the sphere at a time (``bulk.sphere_ranges``), so no reader holds the
    sphere.  A cyclically reduced row that starts with its least letter is kept when its base-2k int64 key
    (``np.ravel_multi_index``) is at most each rotation's key; it fits while (2k)^L <= 2^63 (L <= 31 at
    k = 2, 24 at k = 3).
    """
    powers = (2 * k) ** np.arange(length, dtype=np.int64)
    for rows in bulk.sphere_ranges(k, length):
        least = functools.reduce(np.minimum, rows.T)  # per row, its least letter
        rows = rows[bulk.cyclically_reduced(rows) & (rows[:, 0] == least)]
        key = np.ravel_multi_index(rows.T, (2 * k,) * length)
        keep = np.ones(rows.shape[0], dtype=bool)
        for r in range(1, length):
            keep &= key <= (key % powers[length - r]) * powers[r] + key // powers[length - r]
        yield rows[keep]


def _class_jordan(rep: Representation, chamber: ChamberA, length: int):
    """Jordan projections of the length-n class representatives, in the chamber frame.

    Yields them in canonical order, read through ``BulkContext.shell`` in batches of
    ``bulk.slice_words(d)`` representatives.  Raises NumericsError, after the last batch, when a
    representative has no real dominant eigenpair on some level.
    """
    ctx = rep.bulk_context()
    bad = total = 0
    for rows in _batches(conjugacy_class_indices(rep.rank, length), bulk.slice_words(rep.dim)):
        lam, ok = ctx.shell(rows).jordan_coords()
        bad += np.count_nonzero(~ok)
        total += ok.size
        yield chamber.place(lam)
    if bad:
        raise NumericsError(f"{bad} of {total} length-{length} class representatives "
                            "have no real dominant eigenvalue on some level (Jordan mask)")


def class_periods(rep: Representation, phi: np.ndarray, chamber: ChamberA, length_max: int):
    """phi of the Jordan projection for every conjugacy class representative.

    Raises NumericsError, naming the length, when a representative lies outside the Jordan mask.
    """
    values = []
    per_length_min: dict[int, float] = {}
    for length in range(1, length_max + 1):
        vals = [framed @ phi for framed in _class_jordan(rep, chamber, length)]
        values += vals
        per_length_min[length] = float(np.min([v.min() for v in vals]))
    all_vals = np.concatenate(values) if values else np.zeros(0)
    return all_vals, per_length_min


def phi_entropy(rep: Representation, phi, length_max: int, chamber: ChamberA):
    """Growth rate of conjugacy classes by the functional of the Jordan projection.

    Refuses when the functional fails to be positive on a sampled direction,
    naming the witness.  Returns (h, curve, details).
    """
    phi = np.asarray(phi, dtype=float)
    vals, per_length_min = class_periods(rep, phi, chamber, length_max)
    if len(vals) == 0:
        raise ValueError("no conjugacy classes below the requested length")
    if vals.min() <= 0:
        bad = int(np.argmin(vals))
        raise HypothesisError(
            f"functional non-positive on a sampled direction (class #{bad}, value {vals.min():.3g})"
        )
    hi = per_length_min[length_max]
    grid = np.linspace(0.0, hi, ENTROPY_GRID_POINTS)
    vals.sort()  # in place, past the witness's index: the array is class_periods' fresh result
    counts = np.searchsorted(vals, grid, side="right")
    curve = CountCurve(grid, counts.astype(np.int64), "phi_lambda_classes",
                       shell_minima=dict(per_length_min))
    window = (0.5 * hi, hi)
    raw, stderr, extra = estimate_exponent(curve, window)
    # class counts carry a structural 1/t prefactor (one class per rotation
    # orbit), so the exponential rate is fitted on log N + log t
    mask = _window_mask(curve, *window) & (grid > 0)
    t = grid[mask]
    h = float(fit_line(t, np.log(counts[mask].astype(float)) + np.log(t))[0])
    return h, curve, {"stderr": stderr, "window": window, "raw_slope": raw, **extra}


# -- canonical chamber and default functional --------------------------------


def limit_signatures(rep: Representation, length: int = 6, count: int = 60):
    """(distinct sampled limit signatures in first-seen order, reports of unclassified samples)."""
    sigs, reports = sample_limit_set(rep, length, count)
    return list(dict.fromkeys(sigs)), reports


def _chamber_of(signs, p: int) -> ChamberA:
    """Compatible chamber of a limit signature: the opposition image of its orbit's chamber."""
    return iota_of_chamber(chamber_from_signs(signs), p)


def canonical_chamber(rep: Representation) -> ChamberA:
    """Compatible chamber selected by the first sampled limit signature."""
    seen, _ = limit_signatures(rep)
    if not seen:
        raise HypothesisError("no generic limit flags sampled")
    return _chamber_of(seen[0], rep.form.signature[0])


def _single_orbit_chamber(rep: Representation) -> ChamberA:
    """``canonical_chamber`` from one limit sample, which must meet a single orbit."""
    seen, _ = limit_signatures(rep)
    if len(seen) != 1:
        raise HypothesisError(f"single-orbit hypothesis fails: signatures {seen}")
    return _chamber_of(seen[0], rep.form.signature[0])


def default_phi(rep: Representation, chamber: ChamberA | None = None) -> np.ndarray:
    """Barycenter functional of sampled Jordan directions, in the chamber frame."""
    chamber = chamber if chamber is not None else canonical_chamber(rep)
    dirs = []
    for length in range(1, PHI_CLASS_LENGTH + 1):
        for framed in _class_jordan(rep, chamber, length):
            nrm = np.linalg.norm(framed, axis=1, keepdims=True)
            dirs.append(framed / np.maximum(nrm, 1e-30))
    bary = recenter(np.concatenate(dirs).mean(axis=0))
    return bary / np.linalg.norm(bary)


# -- cones -------------------------------------------------------------------


def cone_samples(rep: Representation, length_min: int, length_max: int, threads: int = 1):
    """Direction clouds of both projections plus the Weyl translate report.

    The set of Weyl elements is computed from the distinct orbit signatures
    of sampled limit flags; the slot-projection cloud is checked against the
    union of the corresponding translates of the Cartan cloud.
    """
    [col] = bulk.run_bulk(rep.bulk_context(), length_max,
                          [(DirectionsCollector, {"length_min": length_min, "length_max": length_max})],
                          threads=threads)
    at_sorted, bo = col.clouds()
    p = rep.form.signature[0]
    chamber = canonical_chamber(rep)
    seen, _ = limit_signatures(rep, min(length_min, 8), 80)
    weyls: list[WeylElement] = []
    translates = []
    for signs in seen:
        target = _chamber_of(signs, p)
        weyls.append(chamber_transition(target, chamber))
        translates.append(target.place(at_sorted))
    at_framed = np.concatenate(translates) if translates else at_sorted
    hd = hausdorff(bo, at_framed)
    return {
        "weyl_set": weyls,
        "signatures": seen,
        "chamber": chamber,
        "hausdorff": hd,
        "slot_cloud": bo,
        "translate_union": at_framed,
    }


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete symmetric Hausdorff distance between unit-vector clouds.

    A cloud of more than HAUSDORFF_POINTS points is thinned by the stride
    len // HAUSDORFF_POINTS, which keeps HAUSDORFF_POINTS to 2 * HAUSDORFF_POINTS - 1.
    Rows are unit vectors, so |a - b|^2 = 2 - 2 a.b and a nearest point has the largest a.b.
    Each block of HAUSDORFF_BLOCK rows of a takes one matmul into one buffer, allocated once per call,
    which gives the block's row maxima and updates the running column maxima. 2 - 2 max is clamped
    at 0 before the square root, since a.a may round above 1.
    Distances below about 1e-7 are rounding noise: for a point in both clouds, sqrt(2 - 2 a.a)
    turns the last-bit rounding of a.a into 2e-8 to 3e-8, so such a value cannot be told from 0.
    """
    if len(a) == 0 or len(b) == 0:
        return float("nan")
    a = a[:: max(1, len(a) // HAUSDORFF_POINTS)]
    b = b[:: max(1, len(b) // HAUSDORFF_POINTS)]
    ab_buf = np.empty((min(HAUSDORFF_BLOCK, len(a)), len(b)))
    row_min, col_max = np.inf, np.full(len(b), -np.inf)
    for lo in range(0, len(a), HAUSDORFF_BLOCK):
        blk = a[lo:lo + HAUSDORFF_BLOCK]
        ab = np.matmul(blk, b.T, out=ab_buf[:len(blk)])
        row_min = min(row_min, ab.max(axis=1).min())
        np.maximum(col_max, ab.max(axis=0), out=col_max)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * min(row_min, col_max.min()))))


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


def _cylinder_mask(rows: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    """Rows whose cyclic reduction starts with b_idx and whose inverse's starts with a_idx."""
    n, length = rows.shape
    depth = _cyc_depth(rows)
    r = np.arange(n)
    mask = np.ones(n, dtype=bool)
    for work, prefix in ((rows, b_idx), (rows[:, ::-1] ^ 1, a_idx)):
        mask &= (2 * depth + len(prefix)) <= length
        for t, want in enumerate(prefix):
            mask &= work[r, np.minimum(depth + t, length - 1)] == want
    return mask


# -- Gromov-product comparison ------------------------------------------------


def _word_bracket(ctx: bulk.BulkContext, repelling_tops, attracting_tops) -> np.ndarray:
    """Rank-order ``cocycles.gromov_product`` of the flags of per-level dominant eigenvectors, row by row.

    The first flag's dual wedge at level j is the form-weighted Hodge dual of its level d-j vector.
    """
    d = ctx.d
    chi = np.zeros((repelling_tops[0].shape[0], d))
    for j in range(1, d):
        sg = ctx.level_signs[j - 1]
        vp = attracting_tops[j - 1]
        w = repelling_tops[d - j - 1]
        v = hodge_dual(w, d, j) * sg
        cross = np.einsum("ni,i,ni->n", v, sg, vp)
        qv = np.einsum("ni,i,ni->n", v, sg, v)
        qp = np.einsum("ni,i,ni->n", vp, sg, vp)
        chi[:, j - 1] = 0.5 * np.log(np.maximum(cross**2, 1e-300) / np.abs(qv * qp))
    return recentred_increments(chi)


def gromov_comparison(rep: Representation, phi, cylinder_a, cylinder_b, length_max: int, length_min: int):
    """Shellwise max of |phi(b_o) - phi(lambda) + bracket| over cylinder pairs.

    The bracket is the functional paired with the Gromov product of the
    repelling and attracting fixed flags, both read off per-level dominant
    eigenvectors of the word and its inverse, so arbitrarily long words stay
    well-conditioned.  Words are restricted to those whose cyclic reduction
    starts in cylinder_b and whose inverse's starts in cylinder_a.  Each
    length's cyclically reduced words are filtered one sphere rank range at a
    time and read in batches of ``bulk.slice_words(d)`` words.
    """
    chamber = _single_orbit_chamber(rep)
    phi = np.asarray(phi, dtype=float)
    ctx = rep.bulk_context()
    a_idx = bulk.index_row(cylinder_a)
    b_idx = bulk.index_row(cylinder_b)
    out: dict[int, float] = {}
    counts: dict[int, int] = {}
    for length in range(length_min, length_max + 1):
        maxima, kept = [], 0
        cylinders = (rows[bulk.cyclically_reduced(rows) & _cylinder_mask(rows, a_idx, b_idx)]
                     for rows in bulk.sphere_ranges(rep.rank, length))
        for rows in _batches(cylinders, bulk.slice_words(rep.dim)):
            shell = ctx.shell(rows)
            bo, _, _ = shell.bo_data()
            lam, lam_ok = shell.jordan_coords()
            coords = _word_bracket(ctx, ctx.shell(rows[:, ::-1] ^ 1).jordan_vectors(), shell.jordan_vectors())
            dev = np.abs(bo @ phi - chamber.place(lam) @ phi + chamber.place(coords) @ phi)
            keep = shell.bo_valid_mask() & lam_ok
            if keep.any():
                maxima.append(dev[keep].max())
                kept += int(keep.sum())
        if kept:
            out[length] = float(np.max(maxima))
            counts[length] = kept
    return {"max_deviation": out, "counts": counts, "chamber": chamber}


# -- trend and equidistribution ----------------------------------------------


def _phi_bo_reach(rep: Representation, phi: np.ndarray, length_max: int) -> float:
    """Least phi(b_o) on shell min(4, length_max), scaled linearly to length_max; reads no longer ball."""
    probe_length = min(4, length_max)
    probe = count_curve(rep, "phi_bo", probe_length, np.linspace(0, 1, 2), phi=phi)
    return probe.shell_minima[probe_length] * length_max / probe_length


def theorem_b_trend(rep: Representation, phi, length_max: int, class_length: int):
    """Flatness of the exponentially rescaled directional counting function.

    The exact limit is out of desk reach; the contract is (a) the class
    entropy matches the slope of the directional log-counts, (b) the
    rescaled count varies mildly over the final completeness window.
    """
    chamber = _single_orbit_chamber(rep)
    phi = np.asarray(phi, dtype=float)
    h, class_curve, h_details = phi_entropy(rep, phi, class_length, chamber)
    grid = np.linspace(0.0, _phi_bo_reach(rep, phi, length_max) * 1.05, TREND_GRID_POINTS)
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
            mask = ok & _cylinder_mask(rows, a_idx, b_idx)
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
    The endpoints are the fixed flags of the two cylinder words; a box whose
    cylinders are not two distinct non-empty words has a NaN bracket.  The
    defect is None unless the boxes fill a grid of at least 2 x 2 cylinders
    with numeric brackets and some positive mass.
    """
    chamber = _single_orbit_chamber(rep)
    phi = np.asarray(phi, dtype=float)
    h, _, _ = phi_entropy(rep, phi, max(4, length_max - 2), chamber)
    grid = np.linspace(0.0, _phi_bo_reach(rep, phi, length_max), BOX_GRID_POINTS)
    boxes_idx = [(bulk.index_row(a), bulk.index_row(b)) for a, b in boxes]
    ctx = rep.bulk_context()
    [col] = bulk.run_bulk(
        ctx, length_max,
        [(BoxMassCollector, {"grid": grid, "boxes_idx": boxes_idx, "phi": phi,
                             "chamber_order": chamber.order})],
        threads=threads,
    )
    counts = np.cumsum(col.bins[:, :-1], axis=1)
    masses = counts * np.exp(-h * grid)[None, :]
    brackets = np.full(len(boxes), np.nan)
    for i, (a_idx, b_idx) in enumerate(boxes_idx):
        if len(a_idx) and len(b_idx) and not np.array_equal(a_idx, b_idx):
            tops_a, tops_b = (ctx.shell(idx[None]).jordan_vectors() for idx in (a_idx, b_idx))
            brackets[i] = chamber.place(_word_bracket(ctx, tops_a, tops_b))[0] @ phi
    reweighted_final = masses[:, -1] * np.exp(h * brackets)
    a_labels = sorted({a for a, _ in boxes})
    b_labels = sorted({b for _, b in boxes})
    defect = defect_matrix = None
    if (len(a_labels) >= 2 and len(b_labels) >= 2 and len(boxes) == len(a_labels) * len(b_labels)
            and not np.isnan(reweighted_final).any()):
        m = np.zeros((len(a_labels), len(b_labels)))
        for (a, b), v in zip(boxes, reweighted_final):
            m[a_labels.index(a), b_labels.index(b)] = v
        u, sv, vt = np.linalg.svd(m)
        if sv[0] > 0:
            defect = float(sv[1] / sv[0])
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

