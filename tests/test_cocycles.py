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
    _random_generic_flag,
    _random_matrix,
)
from pqcartan.flags import Flag, NonGenericFlagError, flag_perp, o_generic, so_point_basis, transverse
from pqcartan.forms import Form, sample_isometry
from pqcartan.numerics import ScaledMatrix
from pqcartan.projections import eigen_flag, jordan

from conftest import inverse_word, sphere_words, word_image


def test_busemann_tau_isometry_vanishes(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    k = ScaledMatrix.of(q)
    f = _random_generic_flag(rng, Form.standard(2, 1))
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
        g1 = _random_matrix(rng, 3, "R")
        g2 = _random_matrix(rng, 3, "R")
        f = _random_generic_flag(rng, o)
        lhs = busemann_tau(g1 @ g2, f).coords
        rhs = busemann_tau(g1, f.translate(g2)).coords + busemann_tau(g2, f).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_busemann_o_isometry_vanishes(s1, rng):
    for _ in range(20):
        h = sample_isometry(s1, rng)
        f = _random_generic_flag(rng, s1)
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
        g1 = _random_matrix(rng, 3, "R")
        g2 = _random_matrix(rng, 3, "R")
        f = _random_generic_flag(rng, s1)
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
        g = _random_matrix(rng, 3, "R")
        f = _random_generic_flag(rng, s1)
        if o_generic(s1, f.translate(g)).margin < GENERIC_MARGIN:
            continue
        done += 1
        lhs = potential(s1, f.translate(g)).coords - potential(s1, f).coords
        rhs = busemann_o(s1, g, f).coords - busemann_tau(g, f).coords
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_dual_busemann_isometry(s1, rng):
    h = sample_isometry(s1, rng)
    f = _random_generic_flag(rng, s1)
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
        g = _random_matrix(rng, 3, "R")
        f = _random_generic_flag(rng, s1)
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
        g = _random_matrix(rng, 3, "R")
        xi = _random_generic_flag(rng, s1)
        eta = _random_generic_flag(rng, s1)
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
    y, z = (_random_generic_flag(rng, s1) for _ in range(2))
    with pytest.raises(ValueError, match="not transverse"):
        gromov_product(s1, x, x)
    with pytest.raises(ValueError, match="transversality pair fails"):
        cross_ratio(x, x, y, z)


def test_cross_ratio_degenerate_pair_vanishes(rng):
    o = Form.standard(2, 1)
    xi1 = _random_generic_flag(rng, o)
    xi3 = _random_generic_flag(rng, o)
    xi2 = _random_generic_flag(rng, o)
    if transverse(xi1, xi2) and transverse(xi3, xi2):
        v = cross_ratio(xi1, xi2, xi3, xi2)
        assert np.max(np.abs(v.coords)) < 1e-10


def test_cross_ratio_equals_gromov(s1, rng):
    done = 0
    while done < 300:
        xi = _random_generic_flag(rng, s1)
        eta = _random_generic_flag(rng, s1)
        if not transverse(xi, eta):
            continue
        done += 1
        gp = gromov_product(s1, xi, eta).coords
        br = cross_ratio(flag_perp(s1, eta), flag_perp(s1, xi), xi, eta).coords
        assert np.max(np.abs(gp + 0.5 * br)) < 1e-8


def test_cross_ratio_projective_invariance(s1, rng):
    done = 0
    while done < 300:
        g = _random_matrix(rng, 3, "R")
        flags = [_random_generic_flag(rng, s1) for _ in range(4)]
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
        g = _random_matrix(rng, 3, "R")
        f = _random_generic_flag(rng, s1)
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
    f = _random_generic_flag(rng, s1)
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
    monkeypatch.setattr(cocycles, "_moved_flags_generic", lambda o, *flags: False)
    with pytest.raises(ValueError, match="0 of 2 generic samples in 6 attempts"):
        identity_suite(s1, samples=2, seed=3)


def test_identity_suite_checks_pass_through_the_public_cocycles(s1, monkeypatch):
    # per sample the suite calls busemann_o six times (once through
    # dual_busemann; the Gromov transformation family runs on every sample of
    # seed 201), potential and gromov_product twice each, all with their own
    # checks, and its draw checks are strict enough that none of them refuses
    from collections import Counter

    from pqcartan import cocycles

    labels, refused = Counter(), []
    check = cocycles.require_generic

    def spy(o, xi, label):
        labels[label] += 1
        try:
            return check(o, xi, label)
        except NonGenericFlagError as exc:
            refused.append(exc)
            raise

    monkeypatch.setattr(cocycles, "require_generic", spy)
    report = identity_suite(s1, samples=20, seed=201)
    assert report["samples"] == 20 and refused == []
    assert labels == {"base": 6 * 20, "translated": 6 * 20, "potential": 2 * 20, "first": 2 * 20, "second": 2 * 20}


def test_identity_suite_computes_each_flag_quantity_once(s1, monkeypatch):
    # counts computations, keyed by content, not calls: per sample the suite
    # asks for 19 sweeps, 5 dual flags and 8 transversality tests, of which
    # only 10, 3 and 5 are distinct, and each of those is computed once
    from collections import Counter

    from pqcartan import flags

    def by_form(o, x):
        return o.gram.tobytes(), x.basis.tobytes()

    def by_pair(x, y):
        return x.basis.tobytes(), y.basis.tobytes()

    counts = {}
    for name, key in (("_sweep", by_form), ("_dual_flag", by_form), ("_transversality_margin", by_pair)):
        seen = counts[name] = Counter()

        def spy(a, b, compute=getattr(flags, name), key=key, seen=seen):
            seen[key(a, b)] += 1
            return compute(a, b)

        monkeypatch.setattr(flags, name, spy)
    report = identity_suite(s1, samples=20, seed=201)
    assert report["samples"] == 20
    assert {name: max(seen.values()) for name, seen in counts.items()} == dict.fromkeys(counts, 1)
    assert {name: sum(seen.values()) for name, seen in counts.items()} == {
        "_sweep": 10 * 20, "_dual_flag": 3 * 20, "_transversality_margin": 5 * 20}


@pytest.mark.parametrize("samples", [0, -3])
def test_identity_suite_refuses_fewer_than_one_sample(s1, samples, monkeypatch):
    from pqcartan import cocycles

    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(cocycles, "_random_matrix", no_draw)
    with pytest.raises(ValueError, match=f"at least 1 sample, got {samples}"):
        identity_suite(s1, samples=samples, seed=3)
