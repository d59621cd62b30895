"""Busemann cocycles, the comparison potential, Gromov product, cross-ratio.

All level data are the logarithmic expansion rates of exterior powers:
chi_j(value) is recovered from ratios of level-j pairings, and the full
vector, a sum-zero ``CartanVector``, is their prefix-sum increments in rank
order.  The level values do not depend on a chamber; a compatible full
chamber only permutes the coordinates, so a caller pairing a functional in
a chamber frame places the rank-order vector with ``ChamberA.place``.
"""

from __future__ import annotations

import numpy as np

from .flags import Flag, flag_perp, o_generic, project_to_So, require_generic, transverse
from .forms import Form, gaussian_matrix, quad, sigma_o
from .numerics import HypothesisError, ScaledMatrix, compound, hodge_dual, recentred_increments
from .projections import CartanVector

# identity_suite redraws (g1, g2, xi, eta) until the pair conditions hold,
# and gives up after this many draws per requested sample in all; nearly
# every draw passes, so running out means the pair conditions almost never
# hold.  The flags themselves come from _random_generic_flag, whose own
# rejection loop this budget does not count.
ATTEMPT_BUDGET_PER_SAMPLE = 1000
# the genericity margin (``GenericityReport.margin``) every flag the suite draws or moves must reach
GENERIC_MARGIN = 1e-6


def _from_levels(levels, chi_d: float) -> CartanVector:
    """The vector of the level values chi_1..chi_{d-1} and chi_d; recentering drops the lift scale."""
    return CartanVector(recentred_increments(np.array([*levels, chi_d])))


def _log_det(g: ScaledMatrix) -> float:
    sign, logabs = np.linalg.slogdet(g.entries)
    return float(logabs) + g.dim * g.log_scale


def _compounds(g: ScaledMatrix) -> list[ScaledMatrix]:
    return [compound(g, j) for j in range(1, g.dim)]


def busemann_tau(g: ScaledMatrix, xi: Flag) -> CartanVector:
    """Iwasawa cocycle through exterior norms: chi_j = log |L^j g . v| / |v|."""
    return _from_levels([np.log(np.linalg.norm(cj.entries @ v)) + cj.log_scale - np.log(np.linalg.norm(v))
                         for cj, v in zip(_compounds(g), xi.wedges)], _log_det(g))


def busemann_o(o: Form, g: ScaledMatrix, xi: Flag) -> CartanVector:
    """Form-twisted cocycle: chi_j = (1/2) log |Q_j(L^j g v) / Q_j(v)|.

    Needs xi and g.xi generic; refuses otherwise rather than extrapolating.
    """
    require_generic(o, xi, "base")
    require_generic(o, xi.translate(g), "translated")
    return _from_levels([0.5 * (np.log(abs(quad(gram, cj.entries @ v))) + 2 * cj.log_scale - np.log(abs(quad(gram, v))))
                         for cj, gram, v in zip(_compounds(g), o.level_grams, xi.wedges)], _log_det(g))


def potential(o: Form, xi: Flag) -> CartanVector:
    """Comparison potential between the form and the standard inner product.

    Its coboundary along the action is exactly the difference of the two
    cocycles: V(g.xi) - V(xi) = twisted(g, xi) - plain(g, xi).
    """
    require_generic(o, xi, "potential")
    return _from_levels([0.5 * np.log(abs(quad(gram, v))) - np.log(np.linalg.norm(v))
                         for gram, v in zip(o.level_grams, xi.wedges)], 0.0)


def iota_a(value: CartanVector) -> CartanVector:
    """Opposition involution of the chamber: reverse-negate in rank order."""
    return CartanVector(-value.coords[::-1])


def dual_busemann(o: Form, g: ScaledMatrix, xi: Flag) -> CartanVector:
    """The dual cocycle value: twisted cocycle of sigma(g) at the dual flag.

    Equals the opposition image of the direct value; ``identity_suite``'s
    duality family measures the deviation.
    """
    return busemann_o(o, sigma_o(o, g), flag_perp(o, xi))


def gromov_product(o: Form, xi: Flag, eta: Flag) -> CartanVector:
    """Pairing of transverse generic flags through the dual flag of the first.

    chi_j = (1/2) log |<v, v'>^2 / (Q(v) Q(v'))| with v the level-j wedge of
    the dual flag of xi and v' that of eta.  No symmetry is asserted.
    """
    if not transverse(xi, eta):
        raise ValueError("flags are not transverse")
    require_generic(o, xi, "first")
    require_generic(o, eta, "second")
    levels = []
    for gram, v, w in zip(o.level_grams, flag_perp(o, xi).wedges, eta.wedges):
        cross = np.conj(v) @ gram @ w
        levels.append(0.5 * np.log(abs(cross * cross) / abs(quad(gram, v) * quad(gram, w))))
    return _from_levels(levels, 0.0)


def cross_ratio(xi1: Flag, xi2: Flag, xi3: Flag, xi4: Flag) -> CartanVector:
    """Projective vector-valued cross-ratio of four flags.

    chi_j = log |t1(v4) t3(v2) / (t1(v2) t3(v4))| where t_k is the level-j
    annihilator functional of the k-th flag, the Hodge dual of its
    (d-j)-wedge, and v_k the j-wedge of the k-th flag; the ratio structure
    makes every choice of representative cancel.
    """
    for a, b in ((xi1, xi2), (xi1, xi4), (xi2, xi3), (xi3, xi4)):
        if not transverse(a, b):
            raise ValueError("required transversality pair fails")
    d = xi1.dim
    levels = []
    for j, v2, v4 in zip(range(1, d), xi2.wedges, xi4.wedges):
        t1, t3 = (hodge_dual(f.wedges[d - j - 1], d, j) for f in (xi1, xi3))
        levels.append(np.log(abs(np.vdot(t1, v4) * np.vdot(t3, v2)) / abs(np.vdot(t1, v2) * np.vdot(t3, v4))))
    return _from_levels(levels, 0.0)


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
        if o_generic(o, f).margin >= GENERIC_MARGIN:
            return f


def _moved_flags_generic(o: Form, *flags: Flag) -> bool:
    """Whether every moved flag reaches the margin the flag draws reach."""
    return all(o_generic(o, f).margin >= GENERIC_MARGIN for f in flags)


def identity_suite(o: Form, samples: int, seed: int) -> dict:
    """Max deviations of the six structural identities on random generic data.

    Families: cocycle law of the twisted cocycle, duality with the chamber
    opposition, the potential coboundary, the Gromov transformation rule,
    the Gromov/cross-ratio equality, and equivariance of the flag-to-point
    projection.  All inputs are drawn from a seeded generator and resampled
    until generic, so reports are reproducible.  Each report is a maximum over
    rank-order coordinates, which a choice of chamber only permutes.
    """
    if samples < 1:
        raise ValueError(f"identity suite needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    d = o.dim
    dev = {k: 0.0 for k in (
        "cocycle", "duality", "coboundary", "gromov_transformation",
        "cross_ratio_equality", "projection_equivariance",
    )}
    done = attempts = 0
    while done < samples:
        if attempts == ATTEMPT_BUDGET_PER_SAMPLE * samples:
            raise HypothesisError(f"identity suite found {done} of {samples} generic samples "
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

        # every flag busemann_o checks below passed a check at least as strict
        # above, so none raises; the translates each flag keeps reuse its sweeps
        b1 = busemann_o(o, g1, xi)
        iota_b1 = iota_a(b1).coords
        gp = gromov_product(o, xi, eta).coords

        lhs = busemann_o(o, g12, xi)
        rhs = busemann_o(o, g1, xi2).coords + busemann_o(o, g2, xi).coords
        dev["cocycle"] = max(dev["cocycle"], float(np.max(np.abs(lhs.coords - rhs))))

        duality = float(np.max(np.abs(dual_busemann(o, g1, xi).coords - iota_b1)))
        dev["duality"] = max(dev["duality"], duality)

        v_move = potential(o, xi1).coords - potential(o, xi).coords
        beta_diff = b1.coords - busemann_tau(g1, xi).coords
        dev["coboundary"] = max(dev["coboundary"], float(np.max(np.abs(v_move - beta_diff))))

        if _moved_flags_generic(o, xi1) and transverse(xi1, eta1):
            lhs_g = gromov_product(o, xi1, eta1).coords
            rhs_g = gp - iota_b1 - busemann_o(o, g1, eta).coords
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
