"""Signature-(p,q) forms, the adjoint involution and induced exterior forms.

A ``Form`` wraps the Gram matrix J of a symmetric (real) or Hermitian
(complex) bilinear form together with its signature.  The pairing convention
is <u, v> = u* J v.  The adjoint of g with respect to the form is
J^{-1} g* J and the associated involution sends g to the adjoint of its
inverse; its fixed group is the projective isometry group of the form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import ScaledMatrix, minor_matrix

__all__ = [
    "Form",
    "InducedForm",
    "o_adjoint",
    "sigma_o",
    "induced_form",
    "perp",
    "sample_isometry",
    "DegenerateFormError",
]


SELF_ADJOINT_TOL = 1e-12
RANK_RTOL = 1e-10
DEGENERACY_RTOL = 1e-9


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

    def pair(self, u: np.ndarray, v: np.ndarray):
        """<u, v> = u* J v."""
        return np.conj(u) @ self.gram @ v

    def quad(self, u: np.ndarray) -> float:
        return float(np.real(self.pair(u, u)))

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
        ft = payload["field"]
        if ft not in ("R", "C"):
            raise ValueError(f"unknown field tag {ft!r}")
        raw = payload["gram"]
        if ft == "C":
            gram = np.array([[complex(a, b) for a, b in row] for row in raw])
        else:
            gram = np.array(raw, dtype=np.float64)
        return Form.of(gram, ft)


@dataclass(frozen=True)
class InducedForm:
    """The level-j form on the exterior power: Gram matrix = j-th compound of J.

    The textbook pairing on wedges carries a 1/j! factor; every consumer here
    takes ratios or signs, so the plain minor (Gram-determinant) normalization
    is used throughout.
    """

    level: int
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def pair(self, u: np.ndarray, v: np.ndarray):
        return np.conj(u) @ self.gram @ v

    def quad(self, u: np.ndarray) -> float:
        return float(np.real(self.pair(u, u)))


def induced_form(o: Form, j: int) -> InducedForm:
    if not 1 <= j <= o.dim - 1:
        raise ValueError(f"level must lie in [1, {o.dim - 1}], got {j}")
    gram_j = minor_matrix(o.gram, j)
    gram_j = (gram_j + gram_j.conj().T) / 2
    gram_j.setflags(write=False)
    return InducedForm(j, gram_j)


def o_adjoint(o: Form, g: ScaledMatrix) -> ScaledMatrix:
    """The adjoint J^{-1} g* J of g with respect to the form."""
    if g.dim != o.dim:
        raise ValueError(f"dimension mismatch: form {o.dim}, matrix {g.dim}")
    raw = o.gram_inv @ g.entries.conj().T @ o.gram
    return ScaledMatrix.of(raw, g.log_scale)


def sigma_o(o: Form, g: ScaledMatrix) -> ScaledMatrix:
    """The involution g -> adjoint of g^{-1}; fixed points are the isometries."""
    return o_adjoint(o, g.inv())


def perp(o: Form, subspace: np.ndarray) -> np.ndarray:
    """Orthonormal-column basis of the orthogonal complement for the form.

    The complement of span(B) is J^{-1} applied to the Euclidean complement,
    since <v, u> = 0 for all u in B exactly when J v is Euclidean-orthogonal
    to B.
    """
    b = np.atleast_2d(np.asarray(subspace))
    if b.shape[0] == o.dim and b.ndim == 2 and b.shape[1] <= o.dim:
        cols = b
    else:
        raise ValueError("subspace must be given as a d x k column matrix")
    k = cols.shape[1]
    sv = np.linalg.svd(cols, compute_uv=False)
    if sv[-1] < RANK_RTOL * sv[0]:
        raise ValueError("rank-deficient input subspace")
    q, _ = np.linalg.qr(cols, mode="complete")
    euclid_perp = q[:, k:]
    out = o.gram_inv @ euclid_perp
    out, _ = np.linalg.qr(out)
    return out


def sample_isometry(o: Form, rng, scale: float = 0.5) -> ScaledMatrix:
    """A random element of the isometry group, via the exponential map.

    Draws a random matrix, projects it onto the -1 eigenspace of the adjoint
    map (X with adjoint(X) = -X) and exponentiates.
    """
    from scipy.linalg import expm  # local: keeps the slow scipy.linalg import out of `import pqcartan`

    d = o.dim
    a = gaussian_matrix(rng, d, o.field_tag)
    x = (a - o.gram_inv @ a.conj().T @ o.gram) / 2
    x = x - np.trace(x) / d * np.eye(d, dtype=x.dtype)
    return ScaledMatrix.of(expm(scale * x))


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
