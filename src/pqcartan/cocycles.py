"""Busemann cocycles, the comparison potential, Gromov product, cross-ratio.

All level data are the logarithmic expansion rates of exterior powers:
chi_j(value) is recovered from ratios of level-j pairings, and the full
vector is their prefix-sum increments in rank order.  The level values do
not depend on a chamber; a compatible full chamber only permutes the
coordinates, so a caller pairing a functional in a chamber frame places
the rank-order vector with ``ChamberA.place``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flags import Flag, NonGenericFlagError, flag_perp, o_generic, project_to_So, transverse
from .forms import Form, gaussian_matrix, induced_form, sigma_o
from .numerics import ScaledMatrix, compound, recentred_increments, wedge_coordinates

__all__ = [
    "CocycleValue",
    "busemann_tau",
    "busemann_o",
    "potential",
    "dual_busemann",
    "iota_a",
    "gromov_product",
    "cross_ratio",
]

# identity_suite redraws (g1, g2, xi, eta) until the pair conditions hold,
# and gives up after this many draws per requested sample in all; nearly
# every draw passes, so running out means the pair conditions almost never
# hold.  The flags themselves come from _random_generic_flag, whose own
# rejection loop this budget does not count.
ATTEMPT_BUDGET_PER_SAMPLE = 1000


@dataclass(frozen=True)
class CocycleValue:
    """Level values chi and the rank-order sum-zero coordinate vector."""

    chi: np.ndarray
    coords: np.ndarray


def _from_levels(d: int, level, chi_d: float) -> CocycleValue:
    """Assemble the vector from chi_j = level(j) for j < d and chi_d; recentering drops the lift scale."""
    increments = recentred_increments(np.array([level(j) for j in range(1, d)] + [chi_d]))
    return CocycleValue(np.cumsum(increments)[:-1], increments)


def _log_det(g: ScaledMatrix) -> float:
    sign, logabs = np.linalg.slogdet(g.entries)
    return float(logabs) + g.dim * g.log_scale


def busemann_tau(g: ScaledMatrix, xi: Flag) -> CocycleValue:
    """Iwasawa cocycle through exterior norms: chi_j = log |L^j g . v| / |v|."""
    def level(j):
        cj = compound(g, j)
        v = wedge_coordinates(xi.basis, j)
        return np.log(np.linalg.norm(cj.entries @ v)) + cj.log_scale - np.log(np.linalg.norm(v))

    return _from_levels(g.dim, level, _log_det(g))


def _generic_wedges(o: Form, xi: Flag, label: str):
    rep = o_generic(o, xi)
    if not rep.generic:
        raise NonGenericFlagError(f"{label} flag degenerates at level {rep.failed_level}")


def busemann_o(o: Form, g: ScaledMatrix, xi: Flag) -> CocycleValue:
    """Form-twisted cocycle: chi_j = (1/2) log |Q_j(L^j g v) / Q_j(v)|.

    Needs xi and g.xi generic; refuses otherwise rather than extrapolating.
    """
    _generic_wedges(o, xi, "base")
    _generic_wedges(o, xi.translate(g), "translated")
    return _busemann_o_values(o, g, xi)


def _busemann_o_values(o: Form, g: ScaledMatrix, xi: Flag) -> CocycleValue:
    """busemann_o for a caller that has itself checked xi and g.xi generic."""
    def level(j):
        oj = induced_form(o, j)
        cj = compound(g, j)
        v = wedge_coordinates(xi.basis, j)
        return 0.5 * (np.log(abs(oj.quad(cj.entries @ v))) + 2 * cj.log_scale - np.log(abs(oj.quad(v))))

    return _from_levels(g.dim, level, _log_det(g))


def potential(o: Form, xi: Flag) -> CocycleValue:
    """Comparison potential between the form and the standard inner product.

    Its coboundary along the action is exactly the difference of the two
    cocycles: V(g.xi) - V(xi) = twisted(g, xi) - plain(g, xi).
    """
    _generic_wedges(o, xi, "potential")

    def level(j):
        v = wedge_coordinates(xi.basis, j)
        return 0.5 * np.log(abs(induced_form(o, j).quad(v))) - np.log(np.linalg.norm(v))

    return _from_levels(xi.dim, level, 0.0)


def iota_a(value: CocycleValue) -> CocycleValue:
    """Opposition involution of the chamber: reverse-negate in rank order."""
    flipped = -value.coords[::-1]
    return CocycleValue(np.cumsum(flipped)[:-1], flipped)


def dual_busemann(o: Form, g: ScaledMatrix, xi: Flag) -> CocycleValue:
    """The dual cocycle value: twisted cocycle of sigma(g) at the dual flag.

    Equals the opposition image of the direct value; ``identity_suite``'s
    duality family measures the deviation.
    """
    return busemann_o(o, sigma_o(o, g), flag_perp(o, xi))


def gromov_product(o: Form, xi: Flag, eta: Flag) -> CocycleValue:
    """Pairing of transverse generic flags through the dual flag of the first.

    chi_j = (1/2) log |<v, v'>^2 / (Q(v) Q(v'))| with v the level-j wedge of
    the dual flag of xi and v' that of eta.  No symmetry is asserted.
    """
    if not transverse(xi, eta):
        raise ValueError("flags are not transverse")
    _generic_wedges(o, xi, "first")
    _generic_wedges(o, eta, "second")
    perp = flag_perp(o, xi)

    def level(j):
        oj = induced_form(o, j)
        v = wedge_coordinates(perp.basis, j)
        w = wedge_coordinates(eta.basis, j)
        cross = oj.pair(v, w)
        return 0.5 * np.log(abs(cross * cross) / abs(oj.quad(v) * oj.quad(w)))

    return _from_levels(xi.dim, level, 0.0)


def cross_ratio(xi1: Flag, xi2: Flag, xi3: Flag, xi4: Flag) -> CocycleValue:
    """Projective vector-valued cross-ratio of four flags.

    chi_j = log |t1(v4) t3(v2) / (t1(v2) t3(v4))| where t_k is the level-j
    annihilator functional of the k-th flag, realized as the determinant
    against its complementary columns; the ratio structure makes every
    choice of representative cancel.
    """
    for a, b in ((xi1, xi2), (xi1, xi4), (xi2, xi3), (xi3, xi4)):
        if not transverse(a, b):
            raise ValueError("required transversality pair fails")

    def level(j):
        t1v4 = _annihilator_det(xi1, xi4, j)
        t1v2 = _annihilator_det(xi1, xi2, j)
        t3v2 = _annihilator_det(xi3, xi2, j)
        t3v4 = _annihilator_det(xi3, xi4, j)
        return np.log(abs(t1v4 * t3v2) / abs(t1v2 * t3v4))

    return _from_levels(xi1.dim, level, 0.0)


def _annihilator_det(hyper: Flag, point: Flag, j: int):
    d = hyper.dim
    block = np.concatenate([hyper.subspace(d - j), point.subspace(j)], axis=1)
    return np.linalg.det(block)


# ---------------------------------------------------------------------------
# identity suites over seeded random generic data
# ---------------------------------------------------------------------------


def _random_matrix(rng, d: int, field: str) -> ScaledMatrix:
    while True:
        m = ScaledMatrix.of(gaussian_matrix(rng, d, field) + np.eye(d))
        if np.linalg.cond(m.entries) <= 1e6:
            return m


def _random_generic_flag(rng, o: Form) -> Flag:
    while True:
        try:
            f = Flag.of(gaussian_matrix(rng, o.dim, o.field_tag))
        except ValueError:
            continue
        if o_generic(o, f, degeneracy_rtol=1e-6).generic:
            return f


def _moved_flags_generic(o: Form, *flags: Flag) -> bool:
    """Whether every moved flag passes the margin the flag draws pass."""
    return all(o_generic(o, f, 1e-6).generic for f in flags)


def identity_suite(o: Form, samples: int, seed: int) -> dict:
    """Max deviations of the six structural identities on random generic data.

    Families: cocycle law of the twisted cocycle, duality with the chamber
    opposition, the potential coboundary, the Gromov transformation rule,
    the Gromov/cross-ratio equality, and equivariance of the flag-to-point
    projection.  All inputs are drawn from a seeded generator and resampled
    until generic, so reports are reproducible.  Each report is a maximum over
    rank-order coordinates, which a choice of chamber only permutes.
    """
    rng = np.random.default_rng(seed)
    d = o.dim
    dev = {k: 0.0 for k in (
        "cocycle", "duality", "coboundary", "gromov_transformation",
        "cross_ratio_equality", "projection_equivariance",
    )}
    done = attempts = 0
    while done < samples:
        if attempts == ATTEMPT_BUDGET_PER_SAMPLE * samples:
            raise ValueError(f"identity suite found {done} of {samples} generic samples "
                             f"in {attempts} attempts")
        attempts += 1
        g1 = _random_matrix(rng, d, o.field_tag)
        g2 = _random_matrix(rng, d, o.field_tag)
        xi = _random_generic_flag(rng, o)
        eta = _random_generic_flag(rng, o)
        g12 = g1 @ g2
        xi1, xi2, eta1 = xi.translate(g1), xi.translate(g2), eta.translate(g1)
        # xi and eta were drawn generic; only their translates are checked
        if not (_moved_flags_generic(o, xi2, xi.translate(g12), xi2.translate(g1), eta1)
                and transverse(xi, eta)):
            continue
        # the projection-equivariance family projects xi for the moved form
        # and g1.xi for the form itself
        o_moved = o.translate(np.linalg.inv(g1.entries))
        if not (o_generic(o_moved, xi).generic and o_generic(o, xi1).generic):
            continue
        done += 1

        # xi, eta and their translates below passed the checks above, so these
        # values skip busemann_o's own re-checks
        b1 = _busemann_o_values(o, g1, xi)
        iota_b1 = iota_a(b1).coords
        gp = gromov_product(o, xi, eta).coords

        lhs = _busemann_o_values(o, g12, xi)
        rhs = _busemann_o_values(o, g1, xi2).coords + _busemann_o_values(o, g2, xi).coords
        dev["cocycle"] = max(dev["cocycle"], float(np.max(np.abs(lhs.coords - rhs))))

        duality = float(np.max(np.abs(dual_busemann(o, g1, xi).coords - iota_b1)))
        dev["duality"] = max(dev["duality"], duality)

        v_move = potential(o, xi1).coords - potential(o, xi).coords
        beta_diff = b1.coords - busemann_tau(g1, xi).coords
        dev["coboundary"] = max(dev["coboundary"], float(np.max(np.abs(v_move - beta_diff))))

        if _moved_flags_generic(o, xi1) and transverse(xi1, eta1):
            lhs_g = gromov_product(o, xi1, eta1).coords
            rhs_g = gp - iota_b1 - _busemann_o_values(o, g1, eta).coords
            dev["gromov_transformation"] = max(
                dev["gromov_transformation"], float(np.max(np.abs(lhs_g - rhs_g)))
            )

        br = cross_ratio(flag_perp(o, eta), flag_perp(o, xi), xi, eta).coords
        dev["cross_ratio_equality"] = max(
            dev["cross_ratio_equality"], float(np.max(np.abs(gp + 0.5 * br)))
        )

        lhs_p = project_to_So(o_moved, xi)
        rhs_raw = g1.entries.conj().T @ project_to_So(o, xi1) @ g1.entries
        rhs_p = rhs_raw * (d / np.trace(rhs_raw).real)
        dev["projection_equivariance"] = max(
            dev["projection_equivariance"],
            float(np.max(np.abs(lhs_p - rhs_p)) / np.max(np.abs(lhs_p))),
        )
    return {"samples": done, "seed": seed, "max_deviations": dev}
