"""Signature-(p,q) forms, the adjoint involution and induced exterior forms.

A ``Form`` wraps the Gram matrix J of a symmetric (real) or Hermitian
(complex) bilinear form together with its signature.  The pairing convention
is <u, v> = u* J v.  The adjoint of g with respect to the form is
J^{-1} g* J and the associated involution sends g to the adjoint of its
inverse; its fixed group is the projective isometry group of the form.
``Form.level_grams`` holds the induced forms on the exterior powers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import MAX_DIM, ScaledMatrix, minor_matrix


SELF_ADJOINT_TOL = 1e-12
DEGENERACY_RTOL = 1e-9
# numerator coefficients b_0..b_13 of the degree-13 Pade approximant of exp, and the 1-norm up to which
# it needs no scaling (Higham 2005, Table 2.3)
PADE13_COEFFS = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
                 129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
                 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


class DegenerateFormError(ValueError):
    """Raised when a pairing degenerates below tolerance."""


def _check_self_adjoint(gram: np.ndarray) -> None:
    dev = np.linalg.norm(gram - gram.conj().T) / max(np.linalg.norm(gram), 1e-30)
    if dev > SELF_ADJOINT_TOL:
        raise ValueError(f"Gram matrix is not self-adjoint (relative deviation {dev:.2e})")


@dataclass(frozen=True)
class Form:
    """Gram matrix of a non-degenerate symmetric/Hermitian form."""

    gram: np.ndarray
    field_tag: str
    signature: tuple[int, int]
    gram_inv: np.ndarray = field(repr=False, default=None)
    standard_basis: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def of(gram, field_tag: str | None = None) -> "Form":
        g = np.asarray(gram)
        if field_tag is None:
            field_tag = "C" if np.iscomplexobj(g) else "R"
        dtype = np.complex128 if field_tag == "C" else np.float64
        g = g.astype(dtype)
        if g.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {g.shape[0]} exceeds supported maximum {MAX_DIM}")
        _check_self_adjoint(g)
        g = (g + g.conj().T) / 2
        evals, evecs = np.linalg.eigh(g)
        if np.min(np.abs(evals)) < 1e-12 * np.max(np.abs(evals)):
            raise DegenerateFormError("Gram matrix is singular within tolerance")
        p = int(np.sum(evals > 0))
        q = int(np.sum(evals < 0))
        # Congruence to diag(I_p, -I_q): basis columns ordered positives first,
        # each class by decreasing |eigenvalue|.  All chamber bookkeeping runs
        # in these standard coordinates.
        pos = np.argsort(-evals[evals > 0])
        neg = np.argsort(-np.abs(evals[evals < 0]))
        cols_pos = evecs[:, evals > 0][:, pos] / np.sqrt(evals[evals > 0][pos])
        cols_neg = evecs[:, evals < 0][:, neg] / np.sqrt(-evals[evals < 0][neg])
        basis = np.concatenate([cols_pos, cols_neg], axis=1)
        g.setflags(write=False)
        gi = np.linalg.inv(g)
        gi.setflags(write=False)
        basis.setflags(write=False)
        return Form(g, field_tag, (p, q), gi, basis)

    @staticmethod
    def standard(p: int, q: int, field_tag: str = "R") -> "Form":
        return Form.of(np.diag([1.0] * p + [-1.0] * q), field_tag)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def norm(self) -> float:
        """Operator 2-norm of the Gram matrix, computed once per form."""
        return float(np.linalg.norm(self.gram, 2))

    @cached_property
    def level_grams(self) -> tuple[np.ndarray, ...]:
        """Read-only Gram matrices of the induced forms on levels 1..d-1: the j-th compound of J.

        The textbook pairing on wedges carries a 1/j! factor; every consumer
        takes ratios or signs, so the plain minor (Gram-determinant)
        normalization is used throughout.
        """
        grams = []
        for j in range(1, self.dim):
            gram_j = minor_matrix(self.gram, j)
            gram_j = (gram_j + gram_j.conj().T) / 2
            gram_j.setflags(write=False)
            grams.append(gram_j)
        return tuple(grams)

    def pair(self, u: np.ndarray, v: np.ndarray):
        """<u, v> = u* J v."""
        return np.conj(u) @ self.gram @ v

    def quad(self, u: np.ndarray) -> float:
        return quad(self.gram, u)

    def translate(self, g: np.ndarray) -> "Form":
        """The form g.o, whose isometry group is g H g^{-1}."""
        gi = np.linalg.inv(g)
        return Form.of(gi.conj().T @ self.gram @ gi, self.field_tag)

    def to_json(self) -> str:
        if self.field_tag == "C":
            data = [[[float(z.real), float(z.imag)] for z in row] for row in self.gram]
        else:
            data = [[float(x) for x in row] for row in self.gram]
        return json.dumps({"field": self.field_tag, "gram": data})

    @staticmethod
    def from_config(cfg: dict) -> "Form":
        """The form of a config's ``form`` entry (``to_json``'s payload); the standard (2,1) form without one."""
        return Form.from_json(json.dumps(cfg["form"])) if "form" in cfg else Form.standard(2, 1)

    @staticmethod
    def from_json(text: str) -> "Form":
        payload = json.loads(text)
        missing = [key for key in ("field", "gram") if key not in payload]
        if missing:
            raise ValueError(f"form entry has no {' or '.join(map(repr, missing))} key")
        ft = payload["field"]
        if ft not in ("R", "C"):
            raise ValueError(f"unknown field tag {ft!r}")
        raw = payload["gram"]
        if ft == "C":
            gram = np.array([[complex(a, b) for a, b in row] for row in raw])
        else:
            gram = np.array(raw, dtype=np.float64)
        return Form.of(gram, ft)


def quad(gram: np.ndarray, u: np.ndarray) -> float:
    """The real value u* G u of the form with Gram matrix G."""
    return float(np.real(np.conj(u) @ gram @ u))


def o_adjoint(o: Form, g: ScaledMatrix) -> ScaledMatrix:
    """The adjoint J^{-1} g* J of g with respect to the form."""
    if g.dim != o.dim:
        raise ValueError(f"dimension mismatch: form {o.dim}, matrix {g.dim}")
    raw = o.gram_inv @ g.entries.conj().T @ o.gram
    return ScaledMatrix.of(raw, g.log_scale)


def sigma_o(o: Form, g: ScaledMatrix) -> ScaledMatrix:
    """The involution g -> adjoint of g^{-1}; fixed points are the isometries."""
    return o_adjoint(o, g.inv())


def sample_isometry(o: Form, rng, scale: float = 0.5) -> ScaledMatrix:
    """A random element of the isometry group, via the exponential map.

    Draws a random matrix, projects it onto the -1 eigenspace of the adjoint
    map (X with adjoint(X) = -X) and exponentiates.
    """
    d = o.dim
    a = gaussian_matrix(rng, d, o.field_tag)
    x = (a - o.gram_inv @ a.conj().T @ o.gram) / 2
    x = x - np.trace(x) / d * np.eye(d, dtype=x.dtype)
    return ScaledMatrix.of(_expm(scale * x))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a real or complex square matrix: Pade-13 scaling and squaring (Higham 2005).

    a is scaled by 2^-s until its 1-norm is at most PADE13_THETA, where the
    degree-13 Pade approximant r = (V - U)^-1 (V + U) has a backward error
    below float64's unit roundoff, and r is squared s times.
    """
    norm = np.linalg.norm(a, 1)
    s = math.ceil(math.log2(norm / PADE13_THETA)) if norm > PADE13_THETA else 0
    a = a / 2.0**s
    b = PADE13_COEFFS
    eye = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def gaussian_matrix(rng, d: int, field_tag: str) -> np.ndarray:
    """A d x d standard Gaussian matrix over the field; a complex one draws its real part first."""
    if field_tag == "C":
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return rng.standard_normal((d, d))


def restricted_signature(o: Form, columns: np.ndarray):
    """Signature of the form restricted to the span of the given columns.

    Returns (pos, neg, margin) where margin is the smallest |eigenvalue| of
    the restricted Gram relative to its largest; the subspace counts as
    degenerate when the margin falls below DEGENERACY_RTOL.
    """
    cols = np.asarray(columns)
    cols = cols / np.linalg.norm(cols, axis=0, keepdims=True)
    g = cols.conj().T @ o.gram @ cols
    g = (g + g.conj().T) / 2
    evals = np.linalg.eigvalsh(g)
    top = np.max(np.abs(evals))
    if top == 0.0:
        return 0, 0, 0.0
    margin = float(np.min(np.abs(evals)) / top)
    pos = int(np.sum(evals > DEGENERACY_RTOL * top))
    neg = int(np.sum(evals < -DEGENERACY_RTOL * top))
    return pos, neg, margin
