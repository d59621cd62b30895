"""Busemann cocycles, the comparison potential, Gromov product, cross-ratio.

All level data are the logarithmic expansion rates of exterior powers:
chi_j(value) is recovered from ratios of level-j pairings, and the full
vector, a sum-zero ``CartanVector``, is their prefix-sum increments in rank
order.  The level values do not depend on a chamber; a compatible full
chamber only permutes the coordinates, so a caller pairing a functional in
a chamber frame places the rank-order vector with ``ChamberA.place``.

Every cocycle takes stacks of matrices and flags, as ``ScaledMatrix`` and
``Flag`` hold them, and returns (n, d) values, each with the bits of its own call.
"""

from __future__ import annotations

import numpy as np

from .flags import Flag, flag_perp, o_generic, project_to_So, require_generic, transverse, unit_basis
from .forms import Form, gaussian_matrix, pair, quad, sigma_o
from .numerics import (HypothesisError, ScaledMatrix, compound, hodge_dual, modulus_of_product,
                       recentred_increments, vector_norm)
from .projections import CartanVector

# identity_suite checks (g1, g2, xi, eta) candidates until the pair conditions
# hold, and gives up after this many candidates per requested sample in all;
# nearly every candidate passes, so running out means the pair conditions
# almost never hold.  A block skipped by its own role's matrix or flag check
# is not a candidate, and this budget does not count it.
ATTEMPT_BUDGET_PER_SAMPLE = 1000
# the genericity margin (``GenericityReport.margin``) every flag the suite draws or moves must reach
GENERIC_MARGIN = 1e-6


def _from_levels(levels, chi_d) -> CartanVector:
    """The vector of the level values chi_1..chi_{d-1} and chi_d; recentering drops the lift scale."""
    return CartanVector(recentred_increments(np.stack(np.broadcast_arrays(*levels, chi_d), axis=-1)))


def _log_det(g: ScaledMatrix):
    return np.linalg.slogdet(g.entries)[1] + g.dim * g.log_scale


def _moved_wedges(g: ScaledMatrix, xi: Flag):
    """Per level j: (the unit j-th compound of g applied to xi's j-wedge v, that compound's log-scale, v)."""
    return [((cj.entries @ v[..., None])[..., 0], cj.log_scale, v)
            for cj, v in zip((compound(g, j) for j in range(1, g.dim)), xi.wedges)]


def busemann_tau(g: ScaledMatrix, xi: Flag) -> CartanVector:
    """Iwasawa cocycle through exterior norms: chi_j = log |L^j g . v| / |v|."""
    return _from_levels([np.log(vector_norm(gv)) + scale - np.log(vector_norm(v))
                         for gv, scale, v in _moved_wedges(g, xi)], _log_det(g))


def busemann_o(o: Form, g: ScaledMatrix, xi: Flag) -> CartanVector:
    """Form-twisted cocycle: chi_j = (1/2) log |Q_j(L^j g v) / Q_j(v)|.

    Needs xi and g.xi generic; refuses otherwise rather than extrapolating.
    """
    require_generic(o, xi, "base")
    require_generic(o, xi.translate(g), "translated")
    return _from_levels([0.5 * (np.log(np.abs(quad(gram, gv))) + 2 * scale - np.log(np.abs(quad(gram, v))))
                         for (gv, scale, v), gram in zip(_moved_wedges(g, xi), o.level_grams)], _log_det(g))


def potential(o: Form, xi: Flag) -> CartanVector:
    """Comparison potential between the form and the standard inner product.

    Its coboundary along the action is exactly the difference of the two
    cocycles: V(g.xi) - V(xi) = twisted(g, xi) - plain(g, xi).
    """
    require_generic(o, xi, "potential")
    return _from_levels([0.5 * np.log(np.abs(quad(gram, v))) - np.log(vector_norm(v))
                         for gram, v in zip(o.level_grams, xi.wedges)], 0.0)


def iota_a(value: CartanVector) -> CartanVector:
    """Opposition involution of the chamber: reverse-negate in rank order."""
    return CartanVector(-value.coords[..., ::-1])


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
    if not np.all(transverse(xi, eta)):
        raise ValueError("flags are not transverse")
    require_generic(o, xi, "first")
    require_generic(o, eta, "second")
    levels = []
    for gram, v, w in zip(o.level_grams, flag_perp(o, xi).wedges, eta.wedges):
        cross = pair(gram, v, w)
        levels.append(0.5 * np.log(modulus_of_product(cross, cross) / np.abs(quad(gram, v) * quad(gram, w))))
    return _from_levels(levels, 0.0)


def cross_ratio(xi1: Flag, xi2: Flag, xi3: Flag, xi4: Flag) -> CartanVector:
    """Projective vector-valued cross-ratio of four flags.

    chi_j = log |t1(v4) t3(v2) / (t1(v2) t3(v4))| where t_k is the level-j
    annihilator functional of the k-th flag, the Hodge dual of its
    (d-j)-wedge, and v_k the j-wedge of the k-th flag; the ratio structure
    makes every choice of representative cancel.
    """
    for a, b in ((xi1, xi2), (xi1, xi4), (xi2, xi3), (xi3, xi4)):
        if not np.all(transverse(a, b)):
            raise ValueError("required transversality pair fails")
    d = xi1.dim
    levels = []
    for j, v2, v4 in zip(range(1, d), xi2.wedges, xi4.wedges):
        t1, t3 = (hodge_dual(f.wedges[d - j - 1], d, j) for f in (xi1, xi3))
        levels.append(np.log(modulus_of_product(np.vecdot(t1, v4), np.vecdot(t3, v2))
                             / modulus_of_product(np.vecdot(t1, v2), np.vecdot(t3, v4))))
    return _from_levels(levels, 0.0)


# ---------------------------------------------------------------------------
# identity suites over seeded random generic data
# ---------------------------------------------------------------------------


def _refuses(call, *args) -> bool:
    """Whether ``call(*args)`` raises a ValueError."""
    try:
        call(*args)
    except ValueError:
        return True
    return False


def _pair_checks(o: Form, g1: ScaledMatrix, g2: ScaledMatrix, xi: np.ndarray, eta: np.ndarray):
    """The pair conditions of ``identity_suite`` on stacks of candidates, as stacks.

    Returns (accepted, raises, projections, refuse): which candidates pass,
    which ones a check refuses by raising, when taken one at a time in the
    suite's check order (a moved flag above the flag condition cap, or a
    moved form ``Form.of`` refuses), xi's projection for the form moved by
    g1^-1 where it is computed, and refuse(k), which raises candidate k's error.
    """
    raw_xi2 = g2.entries @ xi
    raw = np.stack([raw_xi2, (g1 @ g2).entries @ xi, g1.entries @ unit_basis(raw_xi2)[0], g1.entries @ eta], axis=1)
    moved, over_cap = unit_basis(raw)
    raw_xi1 = g1.entries @ xi
    xi1, over_cap_xi1 = unit_basis(raw_xi1)
    # xi and eta were drawn generic; only their translates are checked
    fits = ((o_generic(o, Flag(moved)).margin >= GENERIC_MARGIN).all(axis=1)
            & transverse(Flag(xi), Flag(eta)) & ~over_cap.any(axis=1))
    # the projection-equivariance family projects xi for the moved form, one form per sample
    inv_g1 = np.linalg.inv(g1.entries)
    rows = np.flatnonzero(fits)
    form_refused = np.zeros(len(xi), dtype=bool)
    try:
        moved_forms = o.translate(inv_g1[rows])
    except ValueError:
        # Form.of refuses a stack as a whole: find the candidates it refuses one at a time
        form_refused[rows] = [_refuses(o.translate, inv_g1[k]) for k in rows]
        rows = rows[~form_refused[rows]]
        moved_forms = o.translate(inv_g1[rows])
    rows = rows[o_generic(moved_forms, Flag(xi[rows])).generic]
    projections = np.zeros_like(xi)
    projections[rows] = project_to_So(o.translate(inv_g1[rows]), Flag(xi[rows]))
    projected = np.zeros(len(xi), dtype=bool)
    projected[rows] = True
    raises = over_cap.any(axis=1) | form_refused | (projected & over_cap_xi1)
    accepted = projected & ~over_cap_xi1 & o_generic(o, Flag(xi1)).generic

    def refuse(k):
        if over_cap[k].any():
            Flag.of(raw[k])
        if form_refused[k]:
            o.translate(inv_g1[k])
        Flag.of(raw_xi1[k])

    return accepted, raises, projections, refuse


def _draw_samples(o: Form, samples: int, seed: int):
    """The (g1, g2, xi, eta, xi projected for the form moved by g1^-1) stacks ``identity_suite`` evaluates.

    Draws in rounds.  A round draws four Gaussian blocks per sample still
    needed in one call, the rng stream of as many one-block draws, and
    screens every block both as a matrix (block + I of condition at most
    1e6) and as a flag (within the flag condition cap and GENERIC_MARGIN
    generic).  In stream order g1, g2, xi and eta each take the next block
    that passes their check; an unfinished candidate's blocks open the next
    round.  The candidates' pair conditions are checked as stacks and read
    in order, each candidate one attempt, so the samples and any refusal
    are those of drawing and checking one candidate at a time.
    """
    rng = np.random.default_rng(seed)
    d = o.dim
    blocks = gaussian_matrix(rng, (0, d, d), o.field_tag)  # no unfinished candidate yet
    parts, count, attempts = [], 0, 0
    while count < samples:
        blocks = np.concatenate([blocks, gaussian_matrix(rng, (4 * (samples - count), d, d), o.field_tag)])
        mats = ScaledMatrix.of(blocks + np.eye(d))
        bases, over_cap = unit_basis(blocks)
        as_matrix = (np.linalg.cond(mats.entries) <= 1e6).tolist()
        as_flag = (~over_cap & (o_generic(o, Flag(bases)).margin >= GENERIC_MARGIN)).tolist()
        candidates, part = [], []
        for b, checks in enumerate(zip(as_matrix, as_matrix, as_flag, as_flag)):
            if checks[len(part)]:
                part.append(b)
                if len(part) == 4:
                    candidates.append(part)
                    part = []
        blocks = blocks[part]
        if not candidates:
            continue
        i1, i2, ix, ie = np.array(candidates).T
        g1, g2 = (ScaledMatrix(mats.entries[i], mats.log_scale[i]) for i in (i1, i2))
        accepted, raises, projections, refuse = _pair_checks(o, g1, g2, bases[ix], bases[ie])
        take = []
        for k in range(len(candidates)):
            if count == samples:
                break
            if attempts == ATTEMPT_BUDGET_PER_SAMPLE * samples:
                raise HypothesisError(f"identity suite found {count} of {samples} generic samples "
                                      f"in {attempts} attempts")
            attempts += 1
            if raises[k]:
                refuse(k)
            if accepted[k]:
                take.append(k)
                count += 1
        parts.append((g1.entries[take], g1.log_scale[take], g2.entries[take], g2.log_scale[take],
                      bases[ix[take]], bases[ie[take]], projections[take]))
    g1e, g1s, g2e, g2s, xi, eta, lhs_p = (np.concatenate(a) for a in zip(*parts))
    return ScaledMatrix(g1e, g1s), ScaledMatrix(g2e, g2s), Flag(xi), Flag(eta), lhs_p


def _peak(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def identity_suite(o: Form, samples: int, seed: int) -> dict:
    """Max deviations of the six structural identities on random generic data.

    Families: cocycle law of the twisted cocycle, duality with the chamber
    opposition, the potential coboundary, the Gromov transformation rule,
    the Gromov/cross-ratio equality, and equivariance of the flag-to-point
    projection.  All inputs are drawn from a seeded generator and resampled
    until generic, so reports are reproducible.  Each report is a maximum over
    rank-order coordinates, which a choice of chamber only permutes.  Samples
    are drawn in rounds of stacked draws and checks (``_draw_samples``), with
    the samples of drawing one at a time; each family evaluates their stack,
    one call per quantity.
    """
    if samples < 1:
        raise ValueError(f"identity suite needs at least 1 sample, got {samples}")
    g1, g2, xi, eta, lhs_p = _draw_samples(o, samples, seed)
    d = o.dim
    xi1, eta1 = xi.translate(g1), eta.translate(g1)
    # every flag busemann_o checks passed a check at least as strict in the draw, so none raises
    b1 = busemann_o(o, g1, xi)
    iota_b1 = iota_a(b1).coords
    gp = gromov_product(o, xi, eta).coords
    rhs = busemann_o(o, g1, xi.translate(g2)).coords + busemann_o(o, g2, xi).coords
    dev = {"cocycle": _peak(busemann_o(o, g1 @ g2, xi).coords - rhs),
           "duality": _peak(dual_busemann(o, g1, xi).coords - iota_b1),
           "coboundary": _peak(potential(o, xi1).coords - potential(o, xi).coords
                               - (b1.coords - busemann_tau(g1, xi).coords)),
           "gromov_transformation": 0.0}
    # the Gromov transformation family takes the samples where g1 keeps the pair generic and transverse
    ok = (o_generic(o, xi1).margin >= GENERIC_MARGIN) & transverse(xi1, eta1)
    if ok.any():
        lhs_g = gromov_product(o, Flag(xi1.basis[ok]), Flag(eta1.basis[ok])).coords
        g1_ok = ScaledMatrix(g1.entries[ok], g1.log_scale[ok])
        rhs_g = gp[ok] - iota_b1[ok] - busemann_o(o, g1_ok, Flag(eta.basis[ok])).coords
        dev["gromov_transformation"] = _peak(lhs_g - rhs_g)
    dev["cross_ratio_equality"] = _peak(gp + 0.5 * cross_ratio(flag_perp(o, eta), flag_perp(o, xi), xi, eta).coords)
    rhs_raw = g1.entries.conj().swapaxes(1, 2) @ project_to_So(o, xi1) @ g1.entries
    rhs_p = rhs_raw * (d / np.trace(rhs_raw, axis1=1, axis2=2).real)[:, None, None]
    dev["projection_equivariance"] = float(np.max(np.max(np.abs(lhs_p - rhs_p), axis=(1, 2))
                                                  / np.max(np.abs(lhs_p), axis=(1, 2))))
    return {"samples": samples, "seed": seed, "max_deviations": dev}
