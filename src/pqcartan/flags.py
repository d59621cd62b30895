"""Full flags: transversality, genericity, orthogonal-line decompositions.

A flag is stored as an invertible d x d basis matrix whose first j columns
span the j-dimensional piece.  Genericity with respect to a form is decided
by a signed Gram-Schmidt sweep down the flag, which also produces the
orthogonal line decomposition and its sign sequence (the open-orbit
invariant of the isometry group action).

Like ``Flag.wedges``, the derived data of a flag are computed once: the
genericity sweep and the dual flag once per flag and form object, the
transversality margin once per ordered pair of flag objects, the translate
once per flag and ``ScaledMatrix`` object.  Each is kept in the flag beside
a weak reference to the partner object it was computed for, so reports, dual
flags and translates are shared between callers and are read-only, and an
entry keeps neither its partner alive nor a reference cycle (a flag holds
its dual flag, whose margin entry only weakly refers back).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .forms import DEGENERACY_RTOL, Form
from .numerics import ScaledMatrix, hodge_dual, wedge_coordinates

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

    @cached_property
    def wedges(self) -> tuple[np.ndarray, ...]:
        """Read-only Pluecker coordinates of the pieces of levels 1..d-1, computed once per flag."""
        wedges = tuple(wedge_coordinates(self.basis, j) for j in range(1, self.dim))
        for w in wedges:
            w.setflags(write=False)
        return wedges

    def translate(self, g: ScaledMatrix | np.ndarray) -> "Flag":
        """The flag g.x, kept once per ``ScaledMatrix`` object, whose entries are read-only; an array,
        which its caller may write into, is applied afresh on every call."""
        if isinstance(g, ScaledMatrix):
            return _once("translate", self, g, lambda: Flag.of(g.entries @ self.basis))
        return Flag.of(np.asarray(g) @ self.basis)

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

    ``lines`` (the unit orthogonal lines, as columns) is read-only: one report serves every caller.
    """

    generic: bool
    signs: tuple[int, ...] | None
    margin: float
    lines: np.ndarray | None
    failed_level: int | None = None


def transverse(x: Flag, y: Flag) -> bool:
    """Whether every x^j is linearly disjoint from y^{d-j}."""
    return transversality_margin(x, y) > TRANSVERSALITY_RTOL


def _once(kind: str, flag: Flag, partner, compute):
    """compute(), kept in the flag's ``__dict__`` (as ``Flag.wedges`` is) under (kind, id(partner)).

    A kept value is reused only for the very partner object it was computed
    for: the entry holds a weak reference to that partner, which no longer
    answers once the partner is gone, so a later object that reuses its id
    gets its own computation.
    """
    key = (kind, id(partner))
    kept = flag.__dict__.get(key)
    if kept is None or kept[0]() is not partner:
        kept = flag.__dict__[key] = (weakref.ref(partner), compute())
    return kept[1]


def transversality_margin(x: Flag, y: Flag) -> float:
    return _once("transversality", x, y, lambda: _transversality_margin(x, y))


def _transversality_margin(x: Flag, y: Flag) -> float:
    """Least level-j sine distance from x^j to the hyperplane of y^{d-j}: a function of the two flags alone."""
    if x.dim != y.dim:
        raise ValueError("flags of different dimensions")
    return min((fixed_pair_separation(x, y, j)[2] for j in range(1, x.dim)), default=np.inf)


def fixed_pair_separation(plus: Flag, minus: Flag, j: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(level-j line of ``plus``, covector of the level-j hyperplane of ``minus``, their sine distance)."""
    d = plus.dim
    line = plus.wedges[j - 1]
    theta = hodge_dual(minus.wedges[d - j - 1], d, j)
    return line, theta, line_hyperplane_distance(line, theta)


def o_generic(o: Form, x: Flag) -> GenericityReport:
    """Signed Gram-Schmidt down the flag.

    Succeeds exactly when the form restricted to every flag subspace is
    non-degenerate; then the orthogonal line decomposition is unique and its
    sign sequence is returned.  Degeneracies abort rather than pivot.
    """
    return _once("generic", x, o, lambda: _sweep(o, x))


def _sweep(o: Form, x: Flag) -> GenericityReport:
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
        if rel < DEGENERACY_RTOL:
            return GenericityReport(False, None, float(margin), None, failed_level=j + 1)
        signs.append(1 if val > 0 else -1)
        lines[:, j] = u
    lines.setflags(write=False)
    return GenericityReport(True, tuple(signs), float(margin), lines)


def flag_perp(o: Form, x: Flag) -> Flag:
    """The dual flag whose j-th piece is the complement of x^{d-j}.

    The complement of x^{d-j} for the form is J^{-1} applied to its Euclidean
    complement, so the reversed Q-factor of the basis conjugated by J^{-1}
    assembles the whole dual flag at once.
    """
    return _once("perp", x, o, lambda: _dual_flag(o, x))


def _dual_flag(o: Form, x: Flag) -> Flag:
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


def require_generic(o: Form, x: Flag, label: str) -> GenericityReport:
    """``o_generic(o, x)``, or NonGenericFlagError naming the flag and the level where it degenerates."""
    rep = o_generic(o, x)
    if not rep.generic:
        raise NonGenericFlagError(f"{label} flag degenerates at level {rep.failed_level}")
    return rep


def so_point_basis(o: Form, x: Flag) -> np.ndarray:
    """Basis matrix whose columns are the unit-normalized orthogonal lines."""
    rep = require_generic(o, x, "projected")
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
