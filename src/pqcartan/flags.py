"""Full flags: transversality, genericity, orthogonal-line decompositions.

A flag is stored as an invertible d x d basis matrix whose first j columns
span the j-dimensional piece.  Genericity with respect to a form is decided
by a signed Gram-Schmidt sweep down the flag, which also produces the
orthogonal line decomposition and its sign sequence (the open-orbit
invariant of the isometry group action).

A ``Flag`` may hold a stack of (n, d, d) bases, and every function here takes
stacks along leading axes, row by row, with the bits of one flag at a time:
a margin, a verdict or a report field then holds one entry per row.  A form
may be a stack too, one form per flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .forms import DEGENERACY_RTOL, Form, quad
from .numerics import ScaledMatrix, hodge_dual, unstack, vector_norm, wedge_coordinates

TRANSVERSALITY_RTOL = 1e-8
FLAG_CONDITION_CAP = 1e12


class NonGenericFlagError(ValueError):
    """A flag degenerates against the form where an open condition is required."""


def unit_basis(columns) -> tuple[np.ndarray, bool | np.ndarray]:
    """``Flag.of``'s read-only basis with unit columns, and whether its condition is above FLAG_CONDITION_CAP.

    It refuses nothing but a shape, so a caller screening a stack reads the verdict row by row."""
    b = np.asarray(columns)
    dtype = np.complex128 if np.iscomplexobj(b) else np.float64
    b = b.astype(dtype)
    if b.ndim < 2 or b.shape[-2] != b.shape[-1]:
        raise ValueError(f"flag basis must be square, got {b.shape}")
    b = b / np.linalg.norm(b, axis=-2, keepdims=True)
    b.setflags(write=False)
    return b, unstack(np.linalg.cond(b) > FLAG_CONDITION_CAP)


@dataclass(frozen=True)
class Flag:
    """Full flag as a basis matrix, or a stack of them; column j-1 completes the j-th subspace."""

    basis: np.ndarray

    @staticmethod
    def of(columns) -> "Flag":
        b, over_cap = unit_basis(columns)
        if np.any(over_cap):
            raise ValueError("flag basis condition number above cap")
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
        return self.basis.shape[-1]

    @cached_property
    def wedges(self) -> tuple[np.ndarray, ...]:
        """Read-only Pluecker coordinates of the pieces of levels 1..d-1, computed once per flag."""
        wedges = tuple(wedge_coordinates(self.basis, j) for j in range(1, self.dim))
        for w in wedges:
            w.setflags(write=False)
        return wedges

    def translate(self, g: ScaledMatrix) -> "Flag":
        """The flag g.x; a stack of flags or of matrices gives the stack of translates."""
        return Flag.of(g.entries @ self.basis)

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
class GenericityReport:
    """Verdict at DEGENERACY_RTOL, its margin (least relative |form value| of the swept lines), line signs.

    ``lines`` holds the unit orthogonal lines as columns.  A stack's report holds one entry per row (``failed_level``
    0 on a generic row); a non-generic row's signs and lines mean nothing past its level."""

    generic: bool | np.ndarray
    signs: tuple[int, ...] | np.ndarray | None
    margin: float | np.ndarray
    lines: np.ndarray | None
    failed_level: int | np.ndarray | None = None


def transverse(x: Flag, y: Flag) -> bool | np.ndarray:
    """Whether every x^j is linearly disjoint from y^{d-j}."""
    return transversality_margin(x, y) > TRANSVERSALITY_RTOL


def transversality_margin(x: Flag, y: Flag) -> float | np.ndarray:
    """Least level-j sine distance from x^j to the hyperplane of y^{d-j}: a function of the two flags alone."""
    if x.dim != y.dim:
        raise ValueError("flags of different dimensions")
    return unstack(reduce(np.minimum, (fixed_pair_separation(x, y, j)[2] for j in range(1, x.dim)), np.inf))


def fixed_pair_separation(plus: Flag, minus: Flag, j: int) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """(level-j line of ``plus``, covector of the level-j hyperplane of ``minus``, their sine distance)."""
    d = plus.dim
    line = plus.wedges[j - 1]
    theta = hodge_dual(minus.wedges[d - j - 1], d, j)
    return line, theta, line_hyperplane_distance(line, theta)


def o_generic(o: Form, x: Flag) -> GenericityReport:
    """Signed Gram-Schmidt down the flag.

    Succeeds exactly when the form restricted to every flag subspace is
    non-degenerate; then the orthogonal line decomposition is unique and its
    sign sequence is returned.  Degeneracies abort rather than pivot: a
    report (a stack's row) is read up to its first degenerate level.
    """
    d = x.dim
    lines = np.array(x.basis, copy=True)
    vals, zero = np.empty(lines.shape[:-1]), np.empty(lines.shape[:-1], dtype=bool)
    # per finished line w_k: the row w_k* J and the form value <w_k, w_k> the later levels divide by
    rows, values = [], []
    # past a degenerate level a row divides by zero; those values are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(d):
            u = lines[..., :, j]
            for k in range(j):
                u = u - ((rows[k] @ u[..., :, None])[..., 0, 0] / values[k])[..., None] * lines[..., :, k]
            nrm = vector_norm(u)
            zero[..., j] = nrm == 0.0
            u = u / nrm[..., None]
            lines[..., :, j] = u
            row = np.conj(u)[..., None, :] @ o.gram
            vals[..., j] = np.real((row @ u[..., :, None])[..., 0, 0])
            rows.append(row)
            values.append((row @ lines[..., :, j, None])[..., 0, 0])
    rel = np.abs(vals) / np.expand_dims(o.norm, -1)
    rel[zero] = 0.0
    stops = rel < DEGENERACY_RTOL
    failed = np.where(stops.any(axis=-1), stops.argmax(axis=-1) + 1, 0)
    # the least relative form value of the levels swept: before a degenerate level every one is larger
    swept = np.arange(d) < np.where(failed > 0, failed, d)[..., None]
    margin = np.where(swept, rel, np.inf).min(axis=-1)
    signs = np.where(vals > 0, 1, -1)
    if lines.ndim > 2:
        return GenericityReport(failed == 0, signs, margin, lines, failed)
    if failed:
        return GenericityReport(False, None, float(margin), None, failed_level=int(failed))
    return GenericityReport(True, tuple(signs.tolist()), float(margin), lines)


def flag_perp(o: Form, x: Flag) -> Flag:
    """The dual flag whose j-th piece is the complement of x^{d-j}.

    The complement of x^{d-j} for the form is J^{-1} applied to its Euclidean
    complement, so the reversed Q-factor of the basis conjugated by J^{-1}
    assembles the whole dual flag at once.
    """
    q, _ = np.linalg.qr(x.basis)
    return Flag.of(o.gram_inv @ q[..., ::-1])


def project_to_So(o: Form, x: Flag) -> np.ndarray:
    """Gram matrix (trace-normalized) of the inner product attached to a generic flag.

    The inner product is the one making the unit-normalized orthogonal lines
    of the flag orthonormal; it is the nearest point of the geodesic copy of
    the isometry group's symmetric space in the direction of the flag.
    """
    b = so_point_basis(o, x)
    binv = np.linalg.inv(b)
    gram = binv.conj().swapaxes(-1, -2) @ binv
    gram = (gram + gram.conj().swapaxes(-1, -2)) / 2
    return gram * (x.dim / np.trace(gram, axis1=-2, axis2=-1).real)[..., None, None]


def require_generic(o: Form, x: Flag, label: str) -> GenericityReport:
    """``o_generic(o, x)``, or NonGenericFlagError naming the flag, a stack's first degenerate row, and its level."""
    rep = o_generic(o, x)
    if np.all(rep.generic):
        return rep
    if x.basis.ndim == 2:
        raise NonGenericFlagError(f"{label} flag degenerates at level {rep.failed_level}")
    row = int(np.flatnonzero(~rep.generic)[0])
    raise NonGenericFlagError(f"{label} flag of row {row} degenerates at level {rep.failed_level.flat[row]}")


def so_point_basis(o: Form, x: Flag) -> np.ndarray:
    """Basis matrix whose columns are the unit-normalized orthogonal lines (``float_power`` rounds as float ``**``)."""
    lines = require_generic(o, x, "projected").lines
    scales = np.stack([np.abs(quad(o.gram, lines[..., :, j])) for j in range(x.dim)], axis=-1)
    return lines * np.float_power(scales, -0.5)[..., None, :]


def line_hyperplane_distance(line: np.ndarray, dual_wedge: np.ndarray, gram: np.ndarray | None = None):
    """Sine distance from a projective point to the hyperplane a wedge annihilates (row by row for stacks).

    The hyperplane in the level-j projective space is the kernel of the
    pairing against ``dual_wedge`` through ``gram`` (Euclidean when omitted).
    """
    theta = dual_wedge if gram is None else (gram @ dual_wedge[..., None])[..., 0]
    dot = np.vecdot(theta, line)  # its modulus by hypot, as numpy's complex scalars take it
    return unstack(np.hypot(dot.real, dot.imag) / (vector_norm(theta) * vector_norm(line)))
