"""Cartan and Jordan projections, gaps, loxodromy and attracting flags.

Cartan data comes from singular values with respect to the standard inner
product, Jordan data from eigenvalue moduli; both are recentered to sum zero
so that they only depend on the projective class.  Attracting and repelling
flags are produced both for the classical projections (singular flags) and
for the form-twisted dynamics through the adjoint involution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flags import Flag, line_hyperplane_distance
from .forms import Form, o_adjoint
from .numerics import (EigenData, ScaledMatrix, compound, eigen, hodge_dual, real_columns, recenter, require_resolved,
                       wedge_coordinates)

__all__ = [
    "CartanVector",
    "cartan",
    "jordan",
    "has_gap",
    "gap_margin",
    "is_loxodromic",
    "loxodromy_margin",
    "cartan_attractor",
    "cartan_repellor",
    "o_attractor",
    "o_repellor",
    "check_r_eps_loxodromic",
    "MissingGapError",
    "NotLoxodromicError",
]

GAP_TOL = 1e-6


class MissingGapError(ValueError):
    """The element has no singular-value gap where one is required."""


class NotLoxodromicError(ValueError):
    """The element is not loxodromic where loxodromy is required."""


@dataclass(frozen=True)
class CartanVector:
    """Sum-zero length-d vector of log data."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def cartan(g: ScaledMatrix) -> CartanVector:
    """Log singular values, recentered to sum zero, sorted descending.

    Raises NumericsError past float64 resolution (``numerics.require_resolved``).
    """
    sv = np.linalg.svd(g.entries, compute_uv=False)
    logs = np.log(np.maximum(sv, np.finfo(np.float64).tiny))
    require_resolved("singular-value log", logs, 1.0)
    return CartanVector(recenter(logs))


def jordan(g: ScaledMatrix) -> CartanVector:
    """Log eigenvalue moduli, recentered, sorted descending.

    Raises NumericsError past float64 resolution: the eigenbasis condition
    counts for a diagonalizable g; a defective g's condition measures the
    defect, not the eigenvalue error, so its spread is checked alone.
    """
    eig = eigen(g)
    require_resolved("eigenvalue log-modulus", eig.log_moduli, eig.vector_condition if eig.diagonalizable else 1.0)
    return CartanVector(eig.recentered_moduli())


def gap_margin(g: ScaledMatrix) -> float:
    return float(np.min(-np.diff(cartan(g).coords)))


def has_gap(g: ScaledMatrix) -> bool:
    """All simple-root values of the Cartan projection exceed GAP_TOL."""
    return gap_margin(g) > GAP_TOL


def loxodromy_margin(g: ScaledMatrix) -> float:
    return _moduli_margin(eigen(g))


def _moduli_margin(eig: EigenData) -> float:
    """Smallest gap between consecutive recentered log-moduli."""
    return float(np.min(-np.diff(eig.recentered_moduli())))


def is_loxodromic(g: ScaledMatrix) -> bool:
    """All consecutive eigenvalue-modulus gaps exceed GAP_TOL."""
    return loxodromy_margin(g) > GAP_TOL


def cartan_attractor(g: ScaledMatrix) -> Flag:
    """Flag of left singular directions in descending singular order."""
    if not has_gap(g):
        raise MissingGapError("Cartan attractor needs a singular-value gap")
    u, _, _ = np.linalg.svd(g.entries)
    return Flag.of(u)


def cartan_repellor(g: ScaledMatrix) -> Flag:
    """Attractor of the inverse: right singular directions in ascending order."""
    if not has_gap(g):
        raise MissingGapError("Cartan repellor needs a singular-value gap")
    _, _, vh = np.linalg.svd(g.entries)
    return Flag.of(vh.conj().T[:, ::-1])


def eigen_flag(m: ScaledMatrix) -> Flag:
    """Eigenlines of a loxodromic m by decreasing modulus, from one eigendecomposition.

    Raises NotLoxodromicError when the moduli are not separated by GAP_TOL.
    """
    eig = eigen(m)
    if _moduli_margin(eig) <= GAP_TOL:
        raise NotLoxodromicError("eigenvalue moduli are not separated")
    return Flag.of(real_columns(eig.vectors) if m.field == "R" else eig.vectors)


def o_attractor(o: Form, g: ScaledMatrix) -> Flag:
    """Attracting fixed flag of g * sigma(g^{-1}) (eigenlines by decreasing modulus).

    sigma(g^{-1}) is the plain adjoint of g, so no inversion is needed.
    """
    return eigen_flag(g @ o_adjoint(o, g))


def o_repellor(o: Form, g: ScaledMatrix) -> Flag:
    """Repelling fixed flag of sigma(g^{-1}) * g; equals the attractor of g^{-1}."""
    eig_flag = eigen_flag(o_adjoint(o, g) @ g)
    return Flag.of(eig_flag.basis[:, ::-1])


def check_r_eps_loxodromic(g: ScaledMatrix, r: float, eps: float) -> bool:
    """Quantified loxodromy: fixed-point separation and contraction per level.

    The contraction clause is certified through an operator bound: writing a
    point of the eps-ball complement as a combination of the attracting line
    and the repelling hyperplane, the image distance to the attracting line
    is at most ||T|_H|| (sqrt(1 - eps^2) + (eps/D) sqrt(1 - D^2)) / (|mu| eps)
    with D the separation of the fixed pair and mu the top eigenvalue.
    """
    if not 0 < eps <= r:
        raise ValueError("need 0 < eps <= r")
    try:
        plus = eigen_flag(g)
    except NotLoxodromicError:
        raise NotLoxodromicError("quantified check needs a loxodromic element") from None
    return ping_pong_levels(g, plus, Flag.of(plus.basis[:, ::-1]), r, eps)


def ping_pong_levels(g: ScaledMatrix, plus: Flag, minus: Flag, r: float, eps: float) -> bool:
    """``check_r_eps_loxodromic`` for g with attracting flag ``plus`` and repelling flag ``minus``."""
    for j in range(1, g.dim):
        line, theta, sep = fixed_pair_separation(plus, minus, j)
        if sep < 2 * r or not _contracts(compound(g, j).entries, line, theta, eps):
            return False
    return True


def fixed_pair_separation(plus: Flag, minus: Flag, j: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(level-j line of ``plus``, covector of the level-j hyperplane of ``minus``, their sine distance)."""
    d = plus.dim
    line = wedge_coordinates(plus.basis, j)
    theta = hodge_dual(wedge_coordinates(minus.basis, d - j), d, j)
    return line, theta, line_hyperplane_distance(line, theta)


def _contracts(t: np.ndarray, plus_line: np.ndarray, theta: np.ndarray, eps: float) -> bool:
    v = plus_line / np.linalg.norm(plus_line)
    th = theta / np.linalg.norm(theta)
    big_d = abs(np.vdot(th, v))
    if big_d <= 0:
        return False
    mu = np.vdot(v, t @ v)  # eigenvalue on the attracting line
    # operator norm of t restricted to the repelling hyperplane {u : <th, u> = 0}
    q, _ = np.linalg.qr(np.column_stack([th, np.eye(len(th))]))
    h_basis = q[:, 1:]
    t_h = np.linalg.norm(t @ h_basis, 2)
    bound = t_h * (np.sqrt(max(0.0, 1 - eps**2)) + (eps / big_d) * np.sqrt(max(0.0, 1 - big_d**2)))
    return bool(bound / (abs(mu) * eps) <= eps)
