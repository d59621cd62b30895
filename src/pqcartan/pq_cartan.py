"""Signed Cartan decomposition: membership, slot projection and distance.

An element admits a decomposition h w exp(X) h' (isometries h, h', signed
permutation w, X in the slot chamber) exactly when the twisted square
S = sigma(g^{-1}) g is diagonalizable with real eigenvalues.  The slot
coordinate is then half the recentered log eigenvalue spectrum of S, filed
into positive and negative slots by the form-signs of the eigenlines; its
Euclidean norm is the distance between the base geodesic copy of the
isometry group's symmetric space and its g-translate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Form, o_adjoint, restricted_signature
from .numerics import ScaledMatrix, eigen, real_columns, recenter, require_resolved
from .projections import CartanVector
from .weyl import WeylElement, merge_to_slots

__all__ = [
    "MembershipResult",
    "PqCartanResult",
    "membership",
    "pq_project",
    "distance_So",
    "NotInBoGError",
]

PHASE_TOL = 1e-6
ISOTROPY_TOL = 1e-9
MODULUS_CLUSTER_TOL = 1e-9


class NotInBoGError(ValueError):
    """The element admits no signed Cartan decomposition."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    reason: str | None = None
    phase_margin: float = np.nan
    condition: float = np.nan
    isotropy_margin: float = np.nan

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PqCartanResult:
    """Slot projection b_o, its Weyl coordinate and quality margins.

    b_o is a slot-frame CartanVector; w_g maps descending rank to slot, so
    b_o = w_g . (half the sorted log spectrum of the twisted square).
    eigen_signs are the form-signs of the eigenlines in descending-modulus
    order.  degenerate marks results whose modulus gaps or isotropy margins
    fell below tolerance (values are still returned, without an accuracy
    promise).
    """

    b_o: CartanVector
    w_g: WeylElement
    eigen_signs: tuple[int, ...]
    modulus_gap: float
    isotropy_margin: float
    degenerate: bool


def twisted_square(o: Form, g: ScaledMatrix) -> ScaledMatrix:
    """S = sigma(g^{-1}) g = adjoint(g) g; self-adjoint for the form."""
    return o_adjoint(o, g) @ g


def _aligned_phases(vals_phases: np.ndarray, field: str) -> tuple[bool, float]:
    """Check all eigenvalue phases lie on a common real axis.

    Over the reals the projective lift is fixed up to sign, so phases must
    sit at 0 or pi; over the complexes a global unit factor is free, so only
    phases relative to the top eigenvalue matter.
    """
    phases = vals_phases.copy()
    if field == "C":
        phases = phases - phases[0]
    dev = np.abs(np.sin(phases))
    margin = float(PHASE_TOL - np.max(dev))
    return bool(np.max(dev) <= PHASE_TOL), margin


def membership(o: Form, g: ScaledMatrix) -> MembershipResult:
    """Whether g admits a signed Cartan decomposition, with failure reason.

    True exactly when the twisted square is numerically diagonalizable
    (eigenbasis condition below CONDITION_CAP) with real spectrum (phases
    within PHASE_TOL of a common axis); the eigenbasis is then orthogonal for
    the form up to the conditioning, and eigenline isotropy only occurs at
    modulus collisions, which the clustered projection absorbs.  The result
    carries both margins for callers who need another threshold.  Raises
    NumericsError when float64 cannot resolve the twisted square's spectrum.
    """
    return _decompose(o, g)[0]


# the last (form, element, decomposition); rebound in one assignment, so a
# reader in another thread sees a whole triple
_last_decomposition = (None, None, None)


def _frozen(a: np.ndarray) -> bool:
    """Read-only and owning its data, so no caller can change it in place."""
    return not a.flags.writeable and a.base is None


def _decompose(o: Form, g: ScaledMatrix):
    """(membership verdict, slot projection or the reason pq_project refuses).

    ``membership``, ``pq_project`` and ``distance_So`` share one
    decomposition per (form, element): the last one is kept while both
    arguments are the same objects and their arrays are frozen, as
    ``Form.of`` and ``ScaledMatrix.of`` leave them.
    """
    global _last_decomposition
    last_o, last_g, last = _last_decomposition
    if o is last_o and g is last_g:
        return last
    result = _decompose_uncached(o, g)
    if _frozen(o.gram) and _frozen(g.entries):
        _last_decomposition = (o, g, result)
    return result


def _decompose_uncached(o: Form, g: ScaledMatrix):
    s = twisted_square(o, g)
    eig = eigen(s)
    require_resolved("twisted-square log-modulus", eig.log_moduli, eig.vector_condition)
    ok_phase, phase_margin = _aligned_phases(eig.phases, s.field)
    margins = (phase_margin, eig.vector_condition)
    if not ok_phase:
        return _refused(MembershipResult(False, "complex spectrum", *margins))
    if not eig.diagonalizable:
        return _refused(MembershipResult(False, "non-diagonalizable", *margins))
    vecs = real_columns(eig.vectors) if s.field == "R" else eig.vectors
    # form value of every eigenline from one product; a one-line cluster's
    # signature is its sign, as restricted_signature finds on one column
    quads = np.real(np.sum(vecs.conj() * (o.gram @ vecs), axis=0))
    moduli = eig.recentered_moduli()
    clusters = []
    iso_margin = np.inf
    for idx in _modulus_clusters(moduli):
        if len(idx) == 1:
            q = quads[idx[0]]
            pos, neg, margin = int(q > 0), int(q < 0), 1.0 if q != 0 else 0.0
        else:
            cols = eig.vectors[:, idx]
            pos, neg, margin = restricted_signature(o, _real_span(cols) if s.field == "R" else cols)
        iso_margin = min(iso_margin, margin)
        if pos + neg < len(idx):
            return _refused(MembershipResult(False, "isotropic eigenline", *margins, margin))
        clusters.append((idx, pos))
    member = MembershipResult(True, None, *margins, float(iso_margin))
    return member, _slot_projection(o, moduli, clusters, member.isotropy_margin)


def _refused(member: MembershipResult):
    return member, member.reason


def _modulus_clusters(moduli_desc: np.ndarray) -> list[list[int]]:
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(moduli_desc)):
        if moduli_desc[i - 1] - moduli_desc[i] <= MODULUS_CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _real_span(cols: np.ndarray) -> np.ndarray:
    """Real orthonormal basis of the span of a real matrix's eigenvector cluster.

    The cluster is closed under conjugation, so the real and imaginary parts
    of its columns span it over the reals; realigning each column instead
    would map a conjugate pair to one real vector twice.
    """
    u = np.linalg.svd(np.concatenate([cols.real, cols.imag], axis=1))[0]
    return u[:, : cols.shape[1]]


def _slot_projection(o: Form, moduli: np.ndarray, clusters, iso_margin: float):
    """The PqCartanResult filed from the recentered log-moduli's clusters, or why the signs refuse it."""
    p = o.signature[0]
    halves = moduli / 2.0
    # clusters are consecutive runs of ranks, so values and signs come out in rank
    # order; sum / len is np.mean's reduction and division without its per-call cost
    values: list[float] = []
    signs: list[int] = []
    min_gap = np.inf
    prev_top = None
    for idx, npos in clusters:
        value = float(halves[idx].sum() / len(idx))
        if prev_top is not None:
            min_gap = min(min_gap, prev_top - 2 * value)
        prev_top = 2 * value
        values += [value] * len(idx)
        signs += [1] * npos + [-1] * (len(idx) - npos)
    if signs.count(1) != p:
        return "eigenline signs do not fill the signature"
    if len(clusters) == 1:
        min_gap = 0.0
    w_g = WeylElement(tuple(merge_to_slots(signs).tolist()))
    slots = recenter(w_g.act(values))
    degenerate = bool(min_gap < 10 * MODULUS_CLUSTER_TOL or iso_margin < ISOTROPY_TOL)
    return PqCartanResult(
        b_o=CartanVector(slots),
        w_g=w_g,
        eigen_signs=tuple(signs),
        modulus_gap=float(min_gap),
        isotropy_margin=float(iso_margin),
        degenerate=degenerate,
    )


def pq_project(o: Form, g: ScaledMatrix) -> PqCartanResult:
    """Slot projection of g: half the twisted-square spectrum, filed by sign.

    Eigenvalues of equal modulus are grouped and the group's slots are
    filled according to the signature of the form restricted to the modulus
    eigenspace, following the inductive uniqueness argument; this absorbs
    the sign ambiguity of the signed-permutation coordinate without ever
    materializing it.  Raises NotInBoGError for non-members and
    NumericsError past float64 resolution, as ``membership`` does.
    """
    projection = _decompose(o, g)[1]
    if isinstance(projection, str):
        raise NotInBoGError(projection)
    return projection


def distance_So(o: Form, g: ScaledMatrix) -> float:
    """Distance between the base copy and its g-translate: the slot norm."""
    return pq_project(o, g).b_o.norm()

