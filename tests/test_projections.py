import numpy as np
import pytest
from scipy.linalg import expm

from pqcartan.flags import Flag, flag_perp
from pqcartan.forms import o_adjoint, sample_isometry, sigma_o
from pqcartan.bulk import index_row
from pqcartan.freegroup import Word, reducible_rep, single_orbit_rep, two_orbit_rep
from pqcartan.numerics import NumericsError, ScaledMatrix, eigen, recenter
from pqcartan.projections import NotLoxodromicError, cartan, eigen_flag, jordan, ping_pong_levels

import oracle
from conftest import flag_distance, random_sl, sphere_words


def test_cartan_identity_and_diagonal():
    assert np.allclose(cartan(ScaledMatrix.identity(3)).coords, 0.0)
    c = cartan(ScaledMatrix.of(np.diag([2.0, 1.0, 0.5])))
    assert np.allclose(c.coords, [np.log(2), 0.0, -np.log(2)], atol=1e-12)
    assert abs(c.coords.sum()) < 1e-10


@pytest.mark.parametrize("make_rep,letters", [
    (lambda: reducible_rep(power=4), (2, -1, 2, 2)),  # b.a'.b.b, singular spread 37.4 in exact arithmetic
    (two_orbit_rep, (2, 2, 2)),  # b.b.b, singular spread 46.6
    (two_orbit_rep, (-1, -1, -1, 2)),  # a'.a'.a'.b, spread 54.2; its smallest float64 singular value is 0
], ids=["reducible_21", "two_orbit_bbb", "two_orbit_aaab"])
def test_cartan_and_jordan_refuse_past_float64_resolution(make_rep, letters):
    # unchecked, cartan was off mpmath by 5.0 and 6.6 on the first two and not finite on the third,
    # and jordan off by 6.7 on b.b.b and 0.13 on a'.a'.a'.b
    g = make_rep().image(Word.of(letters))
    for projection in (cartan, jordan):
        with pytest.raises(NumericsError):
            projection(g)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the float64-resolution bound reads the spread off the "
                                       "float64 product, where it saturates, so these products pass it unresolved")
@pytest.mark.parametrize("make_rep,letters", [
    (lambda: reducible_rep(power=4), (-1, -2, 1, 1, -2)),  # a'.b'.a.a.b', off mpmath by 6.84
    (single_orbit_rep, (-1, 2, -1, -2)),  # a'.b.a'.b', off mpmath by 12.95
], ids=["reducible_21", "single_orbit"])
def test_cartan_is_refused_or_matches_high_precision(make_rep, letters):
    rep = make_rep()
    try:
        got = cartan(rep.image(Word.of(letters))).coords
    except NumericsError:
        return
    assert np.max(np.abs(got - oracle.cartan(oracle.row_product(rep, index_row(letters))))) < 1e-8


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4), two_orbit_rep], ids=["reducible_21", "two_orbit"])
def test_resolvable_cartan_and_jordan_keep_their_values(make_rep, rng):
    # below the bound both are the plain readings, bit for bit
    rep = make_rep()
    elements = [rep.image(w) for length in (1, 2) for w in sphere_words(rep.rank, length)]
    for g in elements + [random_sl(rng, d) for d in (2, 3, 5) for _ in range(10)]:
        assert np.array_equal(cartan(g).coords, recenter(np.log(np.linalg.svd(g.entries, compute_uv=False))))
        assert np.array_equal(jordan(g).coords, eigen(g).recentered_moduli())


def test_cartan_matches_symmetric_space_distance():
    x = np.array([0.7, 0.1, -0.8])
    g = ScaledMatrix.of(expm(np.diag(x)))
    assert abs(cartan(g).norm() - np.linalg.norm(x)) < 1e-10


def test_cartan_and_jordan_sigma_invariance(s1, rng):
    for _ in range(500):
        g = random_sl(rng, 3)
        s = sigma_o(s1, g.inv())
        assert np.max(np.abs(cartan(s).coords - cartan(g).coords)) < 1e-9
        assert np.max(np.abs(jordan(s).coords - jordan(g).coords)) < 1e-9


def test_jordan_triangular_and_unipotent():
    t = ScaledMatrix.of(np.array([[2.0, 5.0, 1.0], [0, 1.0, -3.0], [0, 0, 0.5]]))
    assert np.allclose(jordan(t).coords, [np.log(2), 0, -np.log(2)], atol=1e-9)
    u = ScaledMatrix.of(np.array([[1.0, 1.0, 0], [0, 1.0, 1.0], [0, 0, 1.0]]))
    assert np.allclose(jordan(u).coords, 0.0, atol=1e-6)


def test_jordan_conjugation_invariance(rng):
    g = ScaledMatrix.of(np.diag([3.0, 1.0, 1 / 3.0]))
    for _ in range(20):
        h = random_sl(rng, 3)
        conj = h @ g @ h.inv()
        assert np.max(np.abs(jordan(conj).coords - jordan(g).coords)) < 1e-8


def test_jordan_agrees_with_cartan_power_limit(rng):
    # spectrum kept small so the 64th power stays within float range
    h = random_sl(rng, 3)
    g = ScaledMatrix.of(h.entries @ np.diag([np.exp(0.17), 1.0, np.exp(-0.17)]) @ np.linalg.inv(h.entries))
    approx = cartan(g.power(64)).coords / 64
    assert np.max(np.abs(approx - jordan(g).coords)) < 0.02


def test_power_scales_margins():
    g = ScaledMatrix.of(np.diag([2.0, 1.0, 0.5]))
    m1, m4 = (np.min(-np.diff(jordan(h).coords)) for h in (g, g.power(4)))
    assert abs(m4 - 4 * m1) < 1e-8


def test_attractor_duality(s1, rng):
    # the singular attractor of sigma(g^-1) is the dual flag of g's singular repellor
    for _ in range(50):
        g = random_sl(rng, 3, spread=1.3)
        if not np.min(-np.diff(cartan(g).coords)) > 1e-3:
            continue
        lhs = Flag.of(np.linalg.svd(sigma_o(s1, g.inv()).entries)[0])
        rhs = flag_perp(s1, Flag.of(np.linalg.svd(g.entries)[2].conj().T[:, ::-1]))
        assert flag_distance(lhs, rhs) < 1e-8


def o_attractor(o, g):
    """Attracting flag of the twisted dynamics: the eigenflag of g sigma(g^-1) = g g^#."""
    return eigen_flag(g @ o_adjoint(o, g))


def o_repellor(o, g):
    """Repelling flag of the twisted dynamics: the eigenflag of sigma(g^-1) g, reversed."""
    return Flag.of(eigen_flag(o_adjoint(o, g) @ g).basis[:, ::-1])


def test_o_attractor_diagonal(s1):
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e]))
    assert flag_distance(o_attractor(s1, g), Flag.standard(3)) < 1e-12
    assert flag_distance(o_repellor(s1, g), Flag.of(np.eye(3)[:, ::-1])) < 1e-12


def test_o_attractor_equivariance(s1, rng):
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e]))
    for _ in range(20):
        h = sample_isometry(s1, rng)
        lhs = o_attractor(s1, h @ g)
        rhs = o_attractor(s1, g).translate(h)
        assert flag_distance(lhs, rhs) < 1e-8


def test_o_repellor_is_inverse_attractor(s1, rng):
    g = random_sl(rng, 3, spread=1.6)
    s = o_adjoint(s1, g) @ g
    if not np.min(-np.diff(eigen(s).recentered_moduli())) > 1e-3:
        pytest.skip("twisted square not loxodromic")
    assert flag_distance(o_repellor(s1, g), o_attractor(s1, g.inv())) < 1e-8


def r_eps_holds(g, r, eps):
    """The ping-pong check of g between the fixed flags of its eigenflag."""
    plus = eigen_flag(g)
    return ping_pong_levels(g, plus, Flag.of(plus.basis[:, ::-1]), r, eps)


def test_r_eps_loxodromic_strong_diagonal():
    g = ScaledMatrix.of(np.diag([np.exp(5.0), 1.0, np.exp(-5.0)]))
    assert r_eps_holds(g, 0.1, 0.1)


def test_r_eps_fails_when_fixed_points_close():
    eps = 0.05
    # attracting line tilted to within eps of the repelling hyperplane
    v = np.array([eps / 2, 0.0, 1.0])
    basis = np.column_stack([v / np.linalg.norm(v), [0, 1.0, 0], [1.0, 0, 0]])
    g = ScaledMatrix.of(basis @ np.diag([np.e**4, 1.0, np.e**-4]) @ np.linalg.inv(basis))
    assert not r_eps_holds(g, 0.4, 0.1)


def test_r_eps_eventually_holds_for_powers(rng):
    g = random_sl(rng, 3, spread=2.0)
    if not np.min(-np.diff(eigen(g).recentered_moduli())) > 1e-2:
        pytest.skip("sample not loxodromic")
    r0 = 0.05
    held = [n for n in (1, 2, 4, 8, 16) if r_eps_holds(g.power(n), r0, r0)]
    assert held and all(n >= held[0] for n in held)
    assert 16 in held


def test_rotation_raises_for_attractors():
    th = np.pi / 5
    rot = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    with pytest.raises(NotLoxodromicError):
        r_eps_holds(ScaledMatrix.of(rot), 0.1, 0.1)
