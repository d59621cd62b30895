"""Overflow-safe projective matrix arithmetic, compounds and eigendata.

Group elements are projective classes: a ``ScaledMatrix`` keeps its entries
at Frobenius norm one and accumulates the true magnitude in a separate
natural-log accumulator, so that words of arbitrary length never overflow.
Every projection built on top recenters log-spectra to sum zero, which makes
all downstream quantities invariant under rescaling a representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

MAX_DIM = 8
# an eigenbasis whose condition number reaches this cap is not diagonalizable
CONDITION_CAP = 1e8


class NumericsError(RuntimeError):
    """A numerical routine failed to produce a trustworthy answer."""


class HypothesisError(ValueError):
    """The input fails a hypothesis an experiment needs (one orbit, generic samples, a positive functional)."""


def _normalize(entries: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Each matrix of a stack at unit Frobenius norm, and the log of the factor it lost."""
    peak = np.max(np.abs(entries), axis=(-2, -1), keepdims=True)
    if not np.all(np.isfinite(peak)) or np.any(peak == 0.0):
        raise NumericsError("matrix with zero or non-finite entries")
    scaled = entries / peak
    nrm = vector_norm(scaled.reshape(*scaled.shape[:-2], -1))
    out = scaled / nrm[..., None, None]
    out.setflags(write=False)
    return out, unstack(np.log(peak[..., 0, 0]) + np.log(nrm))


@dataclass(frozen=True)
class ScaledMatrix:
    """A d x d matrix stored as (unit-Frobenius entries, log-scale), or a stack: (n, d, d) entries, (n,) log-scales.

    ``of``, ``inv`` and ``@`` act on a stack matrix by matrix, with the bits of one matrix at a time."""

    entries: np.ndarray
    log_scale: float | np.ndarray = 0.0

    @staticmethod
    def of(matrix, log_scale: float | np.ndarray = 0.0) -> "ScaledMatrix":
        m = np.asarray(matrix)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[-1] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[-1]} exceeds supported maximum {MAX_DIM}")
        dtype = np.complex128 if np.iscomplexobj(m) else np.float64
        ent, shift = _normalize(m.astype(dtype))
        return ScaledMatrix(ent, log_scale + shift)

    @staticmethod
    def identity(d: int, field: str = "R") -> "ScaledMatrix":
        eye = np.eye(d, dtype=np.complex128 if field == "C" else np.float64)
        return ScaledMatrix.of(eye)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    @property
    def field(self) -> str:
        return "C" if np.iscomplexobj(self.entries) else "R"

    def rescaled(self, factor: float) -> "ScaledMatrix":
        """Same projective class: entries scaled by ``factor``, log-scale compensated."""
        return ScaledMatrix.of(self.entries * factor, self.log_scale - np.log(abs(factor)))

    def inv(self) -> "ScaledMatrix":
        try:
            raw = np.linalg.inv(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NumericsError("singular matrix has no inverse") from exc
        return ScaledMatrix.of(raw, -self.log_scale)

    def true_matrix(self) -> np.ndarray:
        """The actual matrix; only safe while the scale fits in float range."""
        if abs(self.log_scale) > 600.0:
            raise NumericsError(f"log scale {self.log_scale:.1f} too large to materialize")
        return np.exp(self.log_scale) * self.entries

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return multiply(self, other)

    def power(self, n: int) -> "ScaledMatrix":
        if n < 0:
            return self.inv().power(-n)
        acc = ScaledMatrix.identity(self.dim, self.field)
        base = self
        while n:
            if n & 1:
                acc = acc @ base
            base = base @ base
            n >>= 1
        return acc


def multiply(a: ScaledMatrix, b: ScaledMatrix) -> ScaledMatrix:
    """Product of projective classes, renormalized; log-scales accumulate."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.field != b.field:
        raise ValueError("field mismatch between operands")
    return ScaledMatrix.of(a.entries @ b.entries, a.log_scale + b.log_scale)


def unstack(value):
    """A 0-d result as its Python scalar, so one input keeps its result type; a stack's array as it is."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value


def vector_norm(v: np.ndarray):
    """Norm over the last axis by the BLAS dot(s) ``np.linalg.norm`` takes of one vector (``axis=`` sums otherwise)."""
    v = np.ascontiguousarray(v)
    if np.iscomplexobj(v):
        return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return np.sqrt(np.vecdot(v, v))


def modulus_of_product(a, b):
    """|a b| rounded as by numpy's complex scalars: four plain real products, then the hypot (exact for reals).

    numpy's complex arrays multiply with fused multiply-adds and take ``abs`` otherwise than ``hypot``.
    """
    return np.hypot(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


@lru_cache(maxsize=None)
def subset_table(d: int, j: int) -> np.ndarray:
    """(binom(d, j), j) read-only table of the j-subsets of range(d), lexicographic.

    Row i is the index set of the i-th coordinate of the j-th exterior power.
    """
    table = np.array(list(combinations(range(d), j)), dtype=np.intp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _hodge_signs(d: int, j: int) -> np.ndarray:
    """Signs of the shuffles (complement of S, S) over the j-subsets S, lex order."""
    subs = subset_table(d, j)
    # entry a of S precedes the d - j - (S[a] - a) larger complement entries
    inversions = (d - j - subs + np.arange(j)).sum(axis=1)
    signs = 1.0 - 2.0 * (inversions % 2)
    signs.setflags(write=False)
    return signs


def hodge_dual(w: np.ndarray, d: int, j: int) -> np.ndarray:
    """Level-j covector(s) of the annihilator hyperplane of (d-j)-wedge(s) w.

    Complement reverses the lexicographic subset order, so the complement of
    the i-th j-subset is the i-th (d-j)-subset from the end.
    """
    return _hodge_signs(d, j) * np.conj(w[..., ::-1])


def minor_matrix(m: np.ndarray, j: int) -> np.ndarray:
    """The j-th compound of each matrix of a stack: the j x j minors in lexicographic subset order, C-contiguous
    (``det`` of a fancy-indexed stack lays the stack axis innermost, and a product would sum otherwise)."""
    if j == 1:
        return m.copy()
    subs = subset_table(m.shape[-1], j)
    return np.ascontiguousarray(np.linalg.det(m[..., subs[:, None, :, None], subs[None, :, None, :]]))


def compound(g: ScaledMatrix, j: int) -> ScaledMatrix:
    """Exterior-power matrix of level j; multiplicative in g.

    Built directly, not through ``ScaledMatrix.of``: a level is C(d, j) wide,
    past MAX_DIM at d = 5, j = 2.  A stack gives the stack of its compounds.
    """
    d = g.dim
    if not 1 <= j <= d - 1:
        raise ValueError(f"compound level must lie in [1, {d - 1}], got {j}")
    ent, shift = _normalize(minor_matrix(g.entries, j))
    return ScaledMatrix(ent, j * g.log_scale + shift)


def recenter(values: np.ndarray) -> np.ndarray:
    """Values minus their mean along the last axis: the sum-zero representative.

    sum / n is np.mean's reduction and division, without its per-call cost.
    """
    return values - values.sum(axis=-1, keepdims=True) / values.shape[-1]


def recentred_increments(prefix: np.ndarray) -> np.ndarray:
    """Per-line values from per-level prefix sums (last axis); recentring drops the lift's scale."""
    increments = np.array(prefix, dtype=float)
    increments[..., 1:] -= prefix[..., :-1]
    return recenter(increments)


@dataclass(frozen=True)
class EigenData:
    """Eigenpairs sorted by decreasing log-modulus.

    log_moduli include the source log-scale; phases are the eigenvalue
    arguments of the normalized entries.  ``diagonalizable`` is false when
    the eigenvector matrix condition number reaches CONDITION_CAP.
    """

    log_moduli: np.ndarray
    phases: np.ndarray
    vectors: np.ndarray
    vector_condition: float
    diagonalizable: bool

    def recentered_moduli(self) -> np.ndarray:
        return recenter(self.log_moduli)


def eigen(g: ScaledMatrix) -> EigenData:
    """Eigendecomposition of the projective class, checked for sanity."""
    try:
        vals, vecs = np.linalg.eig(g.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("eigendecomposition failed to converge") from exc
    moduli = np.abs(vals)
    if np.any(moduli == 0.0) or not np.all(np.isfinite(moduli)):
        raise NumericsError("eigenvalues vanished or overflowed; input too ill-conditioned")
    order = np.argsort(-np.log(moduli), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    residual = np.linalg.norm(g.entries @ vecs - vecs * vals, axis=0).max()
    if residual > 1e-8 * np.linalg.norm(g.entries):
        raise NumericsError(f"eigenpair residual {residual:.2e} above tolerance")
    cond = float(np.linalg.cond(vecs))
    return EigenData(
        log_moduli=np.log(np.abs(vals)) + g.log_scale,
        phases=np.angle(vals),
        vectors=vecs,
        vector_condition=cond,
        diagonalizable=bool(cond < CONDITION_CAP),
    )


def require_resolved(what: str, log_values: np.ndarray, condition: float) -> None:
    """Refuse a spectrum one float64 matrix cannot resolve, by a NumericsError.

    Values read off the matrix are off by up to condition * eps of the
    largest, so the smallest of the descending ``log_values`` is resolved only
    while their spread plus log(condition) stays below log(1/eps) = 36.04;
    ``condition`` is the eigenbasis condition number, 1 for singular values.
    """
    spread = float(log_values[0] - log_values[-1])
    if spread + np.log(condition) >= -np.log(np.finfo(np.float64).eps):
        raise NumericsError(f"{what} spread {spread:.1f} with eigenbasis condition {condition:.3g} "
                            "is past float64 resolution")


def fit_line(t: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope t + intercept: (slope, intercept, residuals).

    residuals is lstsq's sum of squared residuals, empty for two points or a
    rank-deficient fit.
    """
    a = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), residuals, *_ = np.linalg.lstsq(a, y, rcond=None)
    return slope, intercept, residuals


def real_columns(cols: np.ndarray) -> np.ndarray:
    """Real eigenvector columns of a real spectrum: each turned by the phase of its largest entry."""
    lead = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return np.real(cols * np.exp(-1j * np.angle(lead))[None, :])


def wedge_coordinates(columns: np.ndarray, j: int) -> np.ndarray:
    """Pluecker coordinates of the span of the first j columns (lex order), of each matrix of a stack."""
    if j == 1:
        return columns[..., :, 0].copy()
    return np.ascontiguousarray(np.linalg.det(columns[..., subset_table(columns.shape[-2], j), :j]))

