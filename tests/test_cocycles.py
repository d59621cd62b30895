import numpy as np
import pytest
from scipy.linalg import expm

from pqcartan.cocycles import (
    GENERIC_MARGIN,
    busemann_o,
    busemann_tau,
    cross_ratio,
    dual_busemann,
    gromov_product,
    identity_suite,
    iota_a,
    potential,
)
from pqcartan.flags import Flag, NonGenericFlagError, flag_perp, o_generic, so_point_basis, transverse
from pqcartan.forms import Form, sample_isometry
from pqcartan.numerics import ScaledMatrix
from pqcartan.projections import eigen_flag, jordan

from conftest import identity_suite_draw, inverse_word, random_generic_flag, random_matrix, sphere_words, word_image


def test_busemann_tau_isometry_vanishes(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    k = ScaledMatrix.of(q)
    f = random_generic_flag(rng, Form.standard(2, 1))
    v = busemann_tau(k, f)
    assert np.max(np.abs(v.coords)) < 1e-10


def test_busemann_tau_diagonal_on_coordinate_flag():
    x = np.array([0.9, -0.2, -0.7])
    g = ScaledMatrix.of(expm(np.diag(x)))
    v = busemann_tau(g, Flag.standard(3))
    assert np.allclose(v.coords, x, atol=1e-10)
    assert np.allclose(np.cumsum(v.coords)[:-1], np.cumsum(x)[:-1], atol=1e-10)


def test_busemann_tau_cocycle_identity(rng):
    o = Form.standard(2, 1)
    for _ in range(500):
        g1 = random_matrix(rng, 3, "R")
        g2 = random_matrix(rng, 3, "R")
        f = random_generic_flag(rng, o)
        lhs = busemann_tau(g1 @ g2, f).coords
        rhs = busemann_tau(g1, f.translate(g2)).coords + busemann_tau(g2, f).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_busemann_o_isometry_vanishes(s1, rng):
    for _ in range(20):
        h = sample_isometry(s1, rng)
        f = random_generic_flag(rng, s1)
        if o_generic(s1, f.translate(h)).margin < GENERIC_MARGIN:
            continue
        v = busemann_o(s1, h, f)
        assert np.max(np.abs(v.coords)) < 1e-9


def test_busemann_o_diagonal_example(s1):
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e]))
    v = busemann_o(s1, g, Flag.standard(3))
    assert np.allclose(v.coords, [1.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(np.cumsum(v.coords)[:-1], [1.0, 1.0], atol=1e-12)


def test_busemann_o_refuses_non_generic(s1):
    iso = Flag.of(np.column_stack([(1.0, 0, 1.0), (0, 1.0, 0), (0, 0, 1.0)]))
    with pytest.raises(NonGenericFlagError):
        busemann_o(s1, ScaledMatrix.identity(3), iso)


def test_busemann_o_cocycle_identity(s1, rng):
    done = 0
    while done < 300:
        g1 = random_matrix(rng, 3, "R")
        g2 = random_matrix(rng, 3, "R")
        f = random_generic_flag(rng, s1)
        flags_ok = all(
            o_generic(s1, fl).margin >= GENERIC_MARGIN
            for fl in (f, f.translate(g2), f.translate(g1 @ g2))
        )
        if not flags_ok:
            continue
        done += 1
        lhs = busemann_o(s1, g1 @ g2, f).coords
        rhs = busemann_o(s1, g1, f.translate(g2)).coords + busemann_o(s1, g2, f).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_potential_zero_on_standard_flag(s1):
    assert np.max(np.abs(potential(s1, Flag.standard(3)).coords)) < 1e-12


def test_potential_coboundary(s1, rng):
    done = 0
    while done < 300:
        g = random_matrix(rng, 3, "R")
        f = random_generic_flag(rng, s1)
        if o_generic(s1, f.translate(g)).margin < GENERIC_MARGIN:
            continue
        done += 1
        lhs = potential(s1, f.translate(g)).coords - potential(s1, f).coords
        rhs = busemann_o(s1, g, f).coords - busemann_tau(g, f).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_dual_busemann_isometry(s1, rng):
    h = sample_isometry(s1, rng)
    f = random_generic_flag(rng, s1)
    if o_generic(s1, f.translate(h)).margin >= GENERIC_MARGIN:
        assert np.max(np.abs(dual_busemann(s1, h, f).coords)) < 1e-8


def test_dual_busemann_diagonal_example(s1):
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e]))
    f = Flag.standard(3)
    lhs = dual_busemann(s1, g, f)
    rhs = iota_a(busemann_o(s1, g, f))
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-12)
    # reverse-negate of (1,0,-1) is itself here
    assert np.allclose(lhs.coords, [1.0, 0.0, -1.0], atol=1e-12)


def test_duality_identity_random(s1, rng):
    done = 0
    while done < 300:
        g = random_matrix(rng, 3, "R")
        f = random_generic_flag(rng, s1)
        if o_generic(s1, f.translate(g)).margin < GENERIC_MARGIN:
            continue
        done += 1
        b = busemann_o(s1, g, f)
        assert np.max(np.abs(dual_busemann(s1, g, f).coords - iota_a(b).coords)) < 1e-8
        twice = iota_a(iota_a(b))
        assert np.array_equal(twice.coords, b.coords)
        assert np.array_equal(np.cumsum(twice.coords)[:-1], np.cumsum(b.coords)[:-1])


def test_gromov_product_dual_pair_vanishes(s1):
    xi = Flag.standard(3)
    eta = flag_perp(s1, xi)
    v = gromov_product(s1, xi, eta)
    assert np.max(np.abs(v.coords)) < 1e-12


def test_gromov_transformation_rule(s1, rng):
    done = 0
    while done < 300:
        g = random_matrix(rng, 3, "R")
        xi = random_generic_flag(rng, s1)
        eta = random_generic_flag(rng, s1)
        if not transverse(xi, eta):
            continue
        gxi, geta = xi.translate(g), eta.translate(g)
        if not (
            o_generic(s1, gxi).margin >= GENERIC_MARGIN
            and o_generic(s1, geta).margin >= GENERIC_MARGIN
            and transverse(gxi, geta)
        ):
            continue
        done += 1
        lhs = gromov_product(s1, gxi, geta).coords - gromov_product(s1, xi, eta).coords
        rhs = -(iota_a(busemann_o(s1, g, xi)).coords + busemann_o(s1, g, eta).coords)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_gromov_product_and_cross_ratio_refuse_non_transverse_flags(s1, rng):
    x = Flag.standard(3)
    y, z = (random_generic_flag(rng, s1) for _ in range(2))
    with pytest.raises(ValueError, match="not transverse"):
        gromov_product(s1, x, x)
    with pytest.raises(ValueError, match="transversality pair fails"):
        cross_ratio(x, x, y, z)


def test_cross_ratio_degenerate_pair_vanishes(rng):
    o = Form.standard(2, 1)
    xi1 = random_generic_flag(rng, o)
    xi3 = random_generic_flag(rng, o)
    xi2 = random_generic_flag(rng, o)
    if transverse(xi1, xi2) and transverse(xi3, xi2):
        v = cross_ratio(xi1, xi2, xi3, xi2)
        assert np.max(np.abs(v.coords)) < 1e-10


def test_cross_ratio_equals_gromov(s1, rng):
    done = 0
    while done < 300:
        xi = random_generic_flag(rng, s1)
        eta = random_generic_flag(rng, s1)
        if not transverse(xi, eta):
            continue
        done += 1
        gp = gromov_product(s1, xi, eta).coords
        br = cross_ratio(flag_perp(s1, eta), flag_perp(s1, xi), xi, eta).coords
        assert np.max(np.abs(gp + 0.5 * br)) < 1e-8


def test_cross_ratio_projective_invariance(s1, rng):
    done = 0
    while done < 300:
        g = random_matrix(rng, 3, "R")
        flags = [random_generic_flag(rng, s1) for _ in range(4)]
        pairs = [(0, 1), (0, 3), (1, 2), (2, 3)]
        if not all(transverse(flags[i], flags[k]) for i, k in pairs):
            continue
        moved = [f.translate(g) for f in flags]
        if not all(transverse(moved[i], moved[k]) for i, k in pairs):
            continue
        done += 1
        lhs = cross_ratio(*moved).coords
        rhs = cross_ratio(*flags).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_geometric_interpretation_via_projection(s1, rng):
    # twisted cocycle equals the plain Busemann difference along the
    # projections of the flag for the moved and the base form
    done = 0
    while done < 100:
        g = random_matrix(rng, 3, "R")
        f = random_generic_flag(rng, s1)
        if o_generic(s1, f.translate(g)).margin < GENERIC_MARGIN:
            continue
        o_moved = s1.translate(np.linalg.inv(g.entries))
        if o_generic(o_moved, f).margin < GENERIC_MARGIN:
            continue
        done += 1
        g1 = ScaledMatrix.of(so_point_basis(o_moved, f))
        g2 = ScaledMatrix.of(so_point_basis(s1, f))
        lhs = busemann_tau(g1.inv(), f).coords - busemann_tau(g2.inv(), f).coords
        rhs = busemann_o(s1, g, f).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_phi_cocycles_periods(s1, rng):
    # a functional paired with the twisted cocycle: its value on the axis flag is
    # the functional of the Jordan projection, and an isometry's value vanishes
    phi = np.array([1.0, 0.0, 0.0])  # both values sum to zero, so phi needs no recentring
    g = ScaledMatrix.of(np.diag([np.exp(1.3), 1.0, np.exp(-1.3)]))
    # axis flag of the diagonal element is the standard flag
    assert abs(phi @ busemann_o(s1, g, Flag.standard(3)).coords - phi @ jordan(g).coords) < 1e-9
    h = sample_isometry(s1, rng)
    f = random_generic_flag(rng, s1)
    if o_generic(s1, f.translate(h)).margin >= GENERIC_MARGIN:
        assert abs(phi @ busemann_o(s1, h, f).coords) < 1e-8


def test_phi_dual_periods_on_schottky(s1):
    # moderate spectral spread keeps the dense cocycle evaluation accurate;
    # certified powers are exercised through the compound paths elsewhere
    from pqcartan.freegroup import Representation, sl2_irreducible, sl2_schottky_pair

    gens = []
    for a in sl2_schottky_pair():
        block = np.zeros((3, 3))
        block[:2, :2] = sl2_irreducible(a, 2)
        block[2, 2] = 1.0
        gens.append(ScaledMatrix.of(block))
    rep = Representation.of(gens, Form.standard(2, 1))
    from pqcartan.counting import canonical_chamber

    # a functional of the chamber frame, read in rank order to pair with cocycle values
    phi = canonical_chamber(rep).read(np.array([0.6, -0.1, -0.5]))
    checked = 0
    for w in sphere_words(2, 3):
        if checked >= 50:
            break
        checked += 1
        g = word_image(rep, w)
        gi = word_image(rep, inverse_word(w))
        plus = eigen_flag(g)
        minus = eigen_flag(gi)
        # dual period at gamma equals the period of the inverse
        dual_period = phi @ iota_a(busemann_o(rep.form, g, plus)).coords
        period_inv = phi @ busemann_o(rep.form, gi, minus).coords
        assert abs(dual_period - period_inv) < 1e-7


@pytest.mark.parametrize("p,q,field,samples", [
    (2, 1, "R", 60), (2, 2, "R", 40), (3, 2, "R", 40), (1, 2, "R", 40), (2, 1, "C", 40), (3, 2, "C", 40),
], ids=["R21", "R22", "R32", "R12", "C21", "C32"])
def test_identity_suite_runs_clean(p, q, field, samples):
    report = identity_suite(Form.standard(p, q, field), samples=samples, seed=3)
    assert report["samples"] == samples
    assert all(v < 1e-8 for v in report["max_deviations"].values())


def test_identity_suite_redraws_flags_the_moved_form_degenerates(s1):
    # seed 603 draws a flag that is generic for the form but degenerate for
    # the form moved by g1, which the projection-equivariance family needs
    report = identity_suite(s1, samples=100, seed=603)
    assert report["samples"] == 100
    assert all(v <= 1e-8 for v in report["max_deviations"].values())


def test_identity_suite_caps_rejection_attempts(s1, monkeypatch):
    from pqcartan import cocycles

    monkeypatch.setattr(cocycles, "ATTEMPT_BUDGET_PER_SAMPLE", 3)
    monkeypatch.setattr(cocycles, "transverse", lambda x, y: np.zeros(len(x.basis), dtype=bool))
    with pytest.raises(ValueError, match="0 of 2 generic samples in 6 attempts"):
        identity_suite(s1, samples=2, seed=3)


def test_identity_suite_checks_pass_through_the_public_cocycles(s1, monkeypatch):
    # per sample the suite checks the rows of six busemann_o stacks (one
    # through dual_busemann; the Gromov transformation family runs on every
    # sample of seed 201), and of two potential and two gromov_product stacks,
    # each with its own checks, and its draw checks are strict enough that
    # none of them refuses
    from collections import Counter

    from pqcartan import cocycles

    labels, refused = Counter(), []
    check = cocycles.require_generic

    def spy(o, xi, label):
        labels[label] += len(xi.basis)
        try:
            return check(o, xi, label)
        except NonGenericFlagError as exc:
            refused.append(exc)
            raise

    monkeypatch.setattr(cocycles, "require_generic", spy)
    report = identity_suite(s1, samples=20, seed=201)
    assert report["samples"] == 20 and refused == []
    assert labels == {"base": 6 * 20, "translated": 6 * 20, "potential": 2 * 20, "first": 2 * 20, "second": 2 * 20}


@pytest.mark.parametrize("samples", [0, -3])
def test_identity_suite_refuses_fewer_than_one_sample(s1, samples, monkeypatch):
    from pqcartan import cocycles

    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(cocycles, "gaussian_matrix", no_draw)
    with pytest.raises(ValueError, match=f"at least 1 sample, got {samples}"):
        identity_suite(s1, samples=samples, seed=3)


DRAW_CONFIGS = [((2, 1, "R"), 100, 7), ((2, 1, "R"), 300, 0), ((2, 1, "R"), 100, 603), ((2, 2, "R"), 60, 3),
                ((3, 2, "R"), 40, 3), ((1, 2, "R"), 60, 3), ((2, 1, "C"), 60, 3), ((3, 2, "C"), 30, 3)]


def _draw_bytes(draw):
    """The arrays of a drawn (g1, g2, xi, eta, projection) tuple, for a comparison by dtype, shape and bytes."""
    g1, g2, xi, eta, projections = draw
    arrays = [g1.entries, g1.log_scale, g2.entries, g2.log_scale, xi.basis, eta.basis, projections]
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def _outcome(draw, o, samples, seed):
    """A draw's arrays, or the type and message of its refusal."""
    try:
        return _draw_bytes(draw(o, samples, seed))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("signature,samples,seed", DRAW_CONFIGS,
                         ids=[f"{f}{p}{q}-{n}-{s}" for (p, q, f), n, s in DRAW_CONFIGS])
def test_stacked_draw_equals_one_candidate_at_a_time(signature, samples, seed):
    from pqcartan.cocycles import _draw_samples

    o = Form.standard(*signature)
    assert _draw_bytes(_draw_samples(o, samples, seed)) == _draw_bytes(identity_suite_draw(o, samples, seed))


def test_stacked_draw_skips_the_blocks_the_per_sample_draw_skips(s1, monkeypatch):
    # a stricter margin skips flag blocks the default one takes, and rejects more moved flags
    from pqcartan import cocycles

    default = _draw_bytes(cocycles._draw_samples(s1, 40, 7))
    monkeypatch.setattr(cocycles, "GENERIC_MARGIN", 0.02)
    stacked = _draw_bytes(cocycles._draw_samples(s1, 40, 7))
    assert stacked == _draw_bytes(identity_suite_draw(s1, 40, 7))
    assert stacked[4] != default[4]


def test_stacked_draw_rejects_the_candidates_the_per_sample_draw_rejects(s1, monkeypatch):
    # a stricter transversality rejects some candidates whose blocks all passed their own checks
    from pqcartan import cocycles
    from pqcartan.flags import transversality_margin

    rejected = []

    def strict(x, y):
        ok = np.asarray(transversality_margin(x, y) > 0.05)
        rejected.append(int(np.sum(~ok)))
        return ok

    monkeypatch.setattr(cocycles, "transverse", strict)
    stacked = _draw_bytes(cocycles._draw_samples(s1, 60, 7))
    assert sum(rejected) > 0
    assert stacked == _draw_bytes(identity_suite_draw(s1, 60, 7))


@pytest.mark.parametrize("samples", [1, 3, 10])
def test_stacked_draw_refuses_where_the_per_sample_draw_refuses(s1, samples, monkeypatch):
    # a low flag condition cap makes moved flags raise in Flag.of, and a patched Form.translate refuses
    # moved forms; either draw raises only at a candidate drawing one at a time reaches
    from pqcartan import cocycles, flags
    from pqcartan.forms import DegenerateFormError

    outcomes = set()
    with monkeypatch.context() as patch:
        patch.setattr(flags, "FLAG_CONDITION_CAP", 300.0)
        stacked = _outcome(cocycles._draw_samples, s1, samples, 5)
        assert stacked == _outcome(identity_suite_draw, s1, samples, 5)
        outcomes.add(stacked[0] if isinstance(stacked, tuple) else "drawn")
    translate = Form.translate

    def refusing(o, g):
        if np.any(np.linalg.cond(g) > 10.0):
            raise DegenerateFormError("moved form refused")
        return translate(o, g)

    monkeypatch.setattr(Form, "translate", refusing)
    stacked = _outcome(cocycles._draw_samples, s1, samples, 5)
    assert stacked == _outcome(identity_suite_draw, s1, samples, 5)
    outcomes.add(stacked[0] if isinstance(stacked, tuple) else "drawn")
    assert outcomes == ({"drawn"} if samples < 10 else {ValueError, DegenerateFormError})


def _stack_of(singles):
    """One array of the single calls' results, each a number or an array."""
    return np.array([np.asarray(s) for s in singles])


@pytest.mark.parametrize("p,q,field", [(2, 1, "R"), (2, 1, "C"), (3, 2, "R"), (3, 2, "C")],
                         ids=["R21", "C21", "R32", "C32"])
def test_stacks_equal_single_calls_bit_for_bit(p, q, field):
    from pqcartan.flags import (fixed_pair_separation, line_hyperplane_distance, project_to_So, require_generic,
                                transversality_margin)
    from pqcartan.forms import o_adjoint, quad, sigma_o
    from pqcartan.numerics import compound, minor_matrix, wedge_coordinates

    o = Form.standard(p, q, field)
    d = o.dim
    rng = np.random.default_rng(11)
    drawn = []
    while len(drawn) < 5:
        g, xi, eta = random_matrix(rng, d, field), random_generic_flag(rng, o), random_generic_flag(rng, o)
        if transverse(xi, eta) and all(o_generic(o, f.translate(g)).margin >= GENERIC_MARGIN for f in (xi, eta)):
            drawn.append((g, xi, eta))
    gs, xis, etas = zip(*drawn)
    stacked = (ScaledMatrix(np.stack([g.entries for g in gs]), np.array([g.log_scale for g in gs])),
               Flag(np.stack([f.basis for f in xis])), Flag(np.stack([f.basis for f in etas])))

    def matrix(m):
        return [m.entries, m.log_scale]

    def moved(g):
        """The form moved by g^-1, as the identity suite's projection family moves it."""
        return o.translate(np.linalg.inv(g.entries))

    def form(m):
        return [m.gram, m.gram_inv, m.standard_basis, *m.signature, m.norm, *m.level_grams]

    levels = range(1, d)
    calls = {
        "ScaledMatrix.of": lambda g, xi, eta: matrix(ScaledMatrix.of(3.0 * g.entries, g.log_scale)),
        "@": lambda g, xi, eta: matrix(g @ g),
        "inv": lambda g, xi, eta: matrix(g.inv()),
        "compound": lambda g, xi, eta: [a for j in levels for a in matrix(compound(g, j))],
        "minor_matrix": lambda g, xi, eta: [minor_matrix(g.entries, j) for j in levels],
        "wedge_coordinates": lambda g, xi, eta: [wedge_coordinates(xi.basis, j) for j in levels],
        "quad": lambda g, xi, eta: [quad(o.gram, xi.basis[..., :, 0])],
        "o_adjoint": lambda g, xi, eta: matrix(o_adjoint(o, g)),
        "sigma_o": lambda g, xi, eta: matrix(sigma_o(o, g)),
        "Flag.of": lambda g, xi, eta: [Flag.of(g.entries).basis],
        "Flag.wedges": lambda g, xi, eta: list(xi.wedges),
        "Flag.translate": lambda g, xi, eta: [xi.translate(g).basis],
        "o_generic": lambda g, xi, eta: [(r := o_generic(o, xi)).generic, r.signs, r.margin, r.lines],
        "require_generic": lambda g, xi, eta: [require_generic(o, eta, "second").margin],
        "flag_perp": lambda g, xi, eta: [flag_perp(o, xi).basis],
        "transversality_margin": lambda g, xi, eta: [transversality_margin(xi, eta)],
        "transverse": lambda g, xi, eta: [transverse(xi, eta)],
        "fixed_pair_separation": lambda g, xi, eta: [a for j in levels for a in fixed_pair_separation(xi, eta, j)],
        "line_hyperplane_distance": lambda g, xi, eta: [line_hyperplane_distance(v, w, gram) for v, w, gram in
                                                         zip(xi.wedges, eta.wedges, o.level_grams)],
        "project_to_So": lambda g, xi, eta: [project_to_So(o, xi)],
        "Form.translate": lambda g, xi, eta: form(moved(g)),
        "o_generic of a form stack": lambda g, xi, eta: [(r := o_generic(moved(g), xi)).generic, r.signs, r.margin,
                                                         r.lines],
        "project_to_So of a form stack": lambda g, xi, eta: [project_to_So(moved(g), xi)],
        "busemann_tau": lambda g, xi, eta: [busemann_tau(g, xi).coords],
        "busemann_o": lambda g, xi, eta: [busemann_o(o, g, xi).coords],
        "potential": lambda g, xi, eta: [potential(o, xi).coords],
        "dual_busemann": lambda g, xi, eta: [dual_busemann(o, g, xi).coords],
        "gromov_product": lambda g, xi, eta: [gromov_product(o, xi, eta).coords],
        "cross_ratio": lambda g, xi, eta: [cross_ratio(flag_perp(o, eta), flag_perp(o, xi), xi, eta).coords],
        "iota_a": lambda g, xi, eta: [iota_a(busemann_o(o, g, eta)).coords],
    }
    for name, call in calls.items():
        singles = [call(*args) for args in drawn]
        for k, value in enumerate(call(*stacked)):
            want = _stack_of(s[k] for s in singles)
            got = np.asarray(value)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, k)

    # a stack with one non-generic row: reported row by row, refused by the checked calls
    iso = np.eye(d, dtype=complex if field == "C" else float)
    iso[d - 1, 0] = 1.0  # e_1 + e_d is isotropic
    rows = Flag(np.stack([xis[0].basis, Flag.of(iso).basis, xis[1].basis]))
    report = o_generic(o, rows)
    assert report.generic.tolist() == [True, False, True] and report.failed_level.tolist() == [0, 1, 0]
    assert report.margin[1] == o_generic(o, Flag.of(iso)).margin
    with pytest.raises(NonGenericFlagError, match="^base flag of row 1 degenerates at level 1$"):
        busemann_o(o, ScaledMatrix(stacked[0].entries[:3], stacked[0].log_scale[:3]), rows)
