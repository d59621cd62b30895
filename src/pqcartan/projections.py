"""Cartan and Jordan projections, eigenflags and quantified loxodromy.

Cartan data comes from singular values with respect to the standard inner
product, Jordan data from eigenvalue moduli; both are recentered to sum zero
so that they only depend on the projective class.  A loxodromic element's
eigenflag is its attracting flag; the ping-pong check reads the contraction
of each exterior-power level between a pair of fixed flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flags import Flag, line_hyperplane_distance
from .numerics import (ScaledMatrix, compound, eigen, hodge_dual, real_columns, recenter, require_resolved,
                       wedge_coordinates)

__all__ = [
    "CartanVector",
    "cartan",
    "jordan",
    "NotLoxodromicError",
]

GAP_TOL = 1e-6


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


def eigen_flag(m: ScaledMatrix) -> Flag:
    """Eigenlines of a loxodromic m by decreasing modulus, from one eigendecomposition.

    Raises NotLoxodromicError when the moduli are not separated by GAP_TOL.
    """
    eig = eigen(m)
    if np.min(-np.diff(eig.recentered_moduli())) <= GAP_TOL:
        raise NotLoxodromicError("eigenvalue moduli are not separated")
    return Flag.of(real_columns(eig.vectors) if m.field == "R" else eig.vectors)


def ping_pong_levels(g: ScaledMatrix, plus: Flag, minus: Flag, r: float, eps: float) -> bool:
    """Quantified (r, eps)-loxodromy of g with attracting flag ``plus`` and repelling flag ``minus``.

    On every level j the fixed pair is at least 2r apart and g maps the
    complement of the eps-ball around the repelling hyperplane into the
    eps-ball around the attracting line.  The contraction is certified
    through an operator bound: writing a point of the eps-ball complement as
    a combination of the attracting line and the repelling hyperplane, the
    image distance to the attracting line is at most
    ||T|_H|| (sqrt(1 - eps^2) + (eps/D) sqrt(1 - D^2)) / (|mu| eps) with D the
    separation of the fixed pair and mu the top eigenvalue.
    """
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
