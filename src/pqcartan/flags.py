"""Full flags: transversality, genericity, orthogonal-line decompositions.

A flag is stored as an invertible d x d basis matrix whose first j columns
span the j-dimensional piece.  Genericity with respect to a form is decided
by a signed Gram-Schmidt sweep down the flag, which also produces the
orthogonal line decomposition and its sign sequence (the open-orbit
invariant of the isometry group action).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forms import DEGENERACY_RTOL, Form
from .numerics import ScaledMatrix

__all__ = [
    "Flag",
    "OrbitSignature",
    "GenericityReport",
    "transverse",
    "o_generic",
    "flag_perp",
    "project_to_So",
    "NonGenericFlagError",
]

TRANSVERSALITY_RTOL = 1e-8
FLAG_CONDITION_CAP = 1e12


class NonGenericFlagError(ValueError):
    """A flag degenerates against the form where an open condition is required."""


@dataclass(frozen=True)
class Flag:
    """Full flag as a basis matrix; column j-1 completes the j-th subspace."""

    basis: np.ndarray

    @staticmethod
    def of(columns) -> "Flag":
        b = np.asarray(columns)
        dtype = np.complex128 if np.iscomplexobj(b) else np.float64
        b = b.astype(dtype)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"flag basis must be square, got {b.shape}")
        b = b / np.linalg.norm(b, axis=0, keepdims=True)
        if np.linalg.cond(b) > FLAG_CONDITION_CAP:
            raise ValueError("flag basis condition number above cap")
        b.setflags(write=False)
        return Flag(b)

    @staticmethod
    def standard(d: int) -> "Flag":
        return Flag.of(np.eye(d))

    @staticmethod
    def coordinate(order) -> "Flag":
        """Coordinate flag through the reference lines in the given order."""
        order = list(order)
        return Flag.of(np.eye(len(order))[:, order])

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def subspace(self, j: int) -> np.ndarray:
        return self.basis[:, :j]

    def translate(self, g: ScaledMatrix | np.ndarray) -> "Flag":
        m = g.entries if isinstance(g, ScaledMatrix) else np.asarray(g)
        return Flag.of(m @ self.basis)

    def to_json(self) -> str:
        if np.iscomplexobj(self.basis):
            cols = [[[float(z.real), float(z.imag)] for z in self.basis[:, j]] for j in range(self.dim)]
        else:
            cols = [[float(x) for x in self.basis[:, j]] for j in range(self.dim)]
        return json.dumps({"columns": cols})

    @staticmethod
    def from_json(text: str) -> "Flag":
        cols = json.loads(text)["columns"]
        first = cols[0][0]
        if isinstance(first, list):
            mat = np.array([[complex(a, b) for a, b in col] for col in cols]).T
        else:
            mat = np.array(cols, dtype=np.float64).T
        return Flag.of(mat)


@dataclass(frozen=True)
class OrbitSignature:
    """Sign sequence of the orthogonal line decomposition of a generic flag."""

    signs: tuple[int, ...]

    @property
    def prefix_signatures(self) -> tuple[tuple[int, int], ...]:
        out, pos, neg = [], 0, 0
        for s in self.signs:
            pos += s > 0
            neg += s < 0
            out.append((pos, neg))
        return tuple(out)


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    signature: OrbitSignature | None
    margin: float
    lines: np.ndarray | None
    failed_level: int | None = None


def transverse(x: Flag, y: Flag) -> bool:
    """Whether every x^j is linearly disjoint from y^{d-j}."""
    return transversality_margin(x, y) > TRANSVERSALITY_RTOL


def transversality_margin(x: Flag, y: Flag) -> float:
    if x.dim != y.dim:
        raise ValueError("flags of different dimensions")
    d = x.dim
    worst = np.inf
    for j in range(1, d):
        m = np.concatenate([x.subspace(j), y.subspace(d - j)], axis=1)
        sv = np.linalg.svd(m, compute_uv=False)
        worst = min(worst, float(sv[-1] / sv[0]))
    return worst


def o_generic(o: Form, x: Flag, degeneracy_rtol: float = DEGENERACY_RTOL) -> GenericityReport:
    """Signed Gram-Schmidt down the flag.

    Succeeds exactly when the form restricted to every flag subspace is
    non-degenerate; then the orthogonal line decomposition is unique and its
    sign sequence is returned.  Degeneracies abort rather than pivot.
    """
    d = x.dim
    lines = np.array(x.basis, copy=True)
    signs = []
    margin = np.inf
    form_norm = o.norm
    for j in range(d):
        u = lines[:, j]
        for k in range(j):
            w = lines[:, k]
            u = u - (o.pair(w, u) / o.pair(w, w)) * w
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            return GenericityReport(False, None, 0.0, None, failed_level=j + 1)
        u = u / nrm
        val = o.quad(u)
        rel = abs(val) / form_norm
        margin = min(margin, rel)
        if rel < degeneracy_rtol:
            return GenericityReport(False, None, float(margin), None, failed_level=j + 1)
        signs.append(1 if val > 0 else -1)
        lines[:, j] = u
    return GenericityReport(True, OrbitSignature(tuple(signs)), float(margin), lines)


def flag_perp(o: Form, x: Flag) -> Flag:
    """The dual flag whose j-th piece is the complement of x^{d-j}.

    The complement of x^{d-j} for the form is J^{-1} applied to its Euclidean
    complement, so the reversed Q-factor of the basis conjugated by J^{-1}
    assembles the whole dual flag at once.
    """
    q, _ = np.linalg.qr(x.basis)
    reversed_q = q[:, ::-1]
    return Flag.of(o.gram_inv @ reversed_q)


def project_to_So(o: Form, x: Flag) -> np.ndarray:
    """Gram matrix (trace-normalized) of the inner product attached to a generic flag.

    The inner product is the one making the unit-normalized orthogonal lines
    of the flag orthonormal; it is the nearest point of the geodesic copy of
    the isometry group's symmetric space in the direction of the flag.
    """
    b = so_point_basis(o, x)
    binv = np.linalg.inv(b)
    gram = binv.conj().T @ binv
    gram = (gram + gram.conj().T) / 2
    return gram * (x.dim / np.trace(gram).real)


def so_point_basis(o: Form, x: Flag) -> np.ndarray:
    """Basis matrix whose columns are the unit-normalized orthogonal lines."""
    rep = o_generic(o, x)
    if not rep.generic:
        raise NonGenericFlagError(f"flag degenerates at level {rep.failed_level}")
    scales = np.array([abs(o.quad(rep.lines[:, j])) ** -0.5 for j in range(x.dim)])
    return rep.lines * scales[None, :]


def line_hyperplane_distance(line: np.ndarray, dual_wedge: np.ndarray, gram: np.ndarray | None = None) -> float:
    """Sine distance from a projective point to the hyperplane a wedge annihilates.

    The hyperplane in the level-j projective space is the kernel of the
    pairing against ``dual_wedge`` through ``gram`` (Euclidean when omitted).
    """
    theta = dual_wedge if gram is None else gram @ dual_wedge
    num = abs(np.vdot(theta, line))
    return float(num / (np.linalg.norm(theta) * np.linalg.norm(line)))
