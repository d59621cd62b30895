from itertools import combinations

import numpy as np
import pytest

from pqcartan.numerics import (
    MAX_DIM,
    ScaledMatrix,
    compound,
    eigen,
    hodge_dual,
    minor_matrix,
    multiply,
    wedge_coordinates,
)

import oracle
from conftest import random_sl, subspace_from_wedge


def test_multiply_identity():
    i = ScaledMatrix.identity(3)
    prod = multiply(i, i)
    assert np.allclose(prod.true_matrix(), np.eye(3))
    # no scale drift beyond the fixed unit-Frobenius convention
    assert abs(prod.log_scale - i.log_scale) < 1e-12


def test_multiply_diagonal():
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1.0 / np.e]))
    sq = g @ g
    expect = np.diag([np.e**2, 1.0, np.e**-2])
    assert np.allclose(sq.true_matrix(), expect)


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(ScaledMatrix.identity(3), ScaledMatrix.identity(4))


def test_long_products_no_overflow(rng):
    g = random_sl(rng, 3, spread=2.0)
    acc = ScaledMatrix.identity(3)
    for _ in range(1000):
        acc = acc @ g
    assert abs(np.linalg.norm(acc.entries) - 1.0) < 1e-12
    top = np.log(np.linalg.svd(g.entries, compute_uv=False)[0]) + g.log_scale
    # log scale tracks the top singular growth up to a bounded defect
    assert abs(acc.log_scale - 1000 * top) < 1000 * 0.7
    assert np.isfinite(acc.log_scale)


def test_product_matches_high_precision(rng):
    g = random_sl(rng, 3, spread=1.5)
    h = random_sl(rng, 3, spread=1.5)
    acc = ScaledMatrix.identity(3)
    word = []
    for _ in range(30):
        pick = g if rng.random() < 0.5 else h
        word.append(pick.true_matrix())
        acc = acc @ pick
    exact_unit, log_norm = oracle.unit_and_log_norm(oracle.product(word))
    approx = acc.entries * np.exp(acc.log_scale - log_norm)
    assert np.max(np.abs(approx - exact_unit)) < 1e-8


def test_compound_identity_level():
    g = ScaledMatrix.of(np.eye(3))
    c = compound(g, 2)
    assert c.dim == 3
    assert np.allclose(c.true_matrix(), np.eye(3))


def test_compound_past_max_dim_is_a_scaled_matrix(rng):
    # C(5, 2) = 10 > MAX_DIM: the level is built directly, not through ScaledMatrix.of
    g = random_sl(rng, 5)
    c = compound(g, 2)
    assert isinstance(c, ScaledMatrix)
    assert c.dim == 10 > MAX_DIM
    minors = minor_matrix(g.entries, 2)
    assert np.allclose(c.entries, minors / np.linalg.norm(minors), atol=1e-14)
    assert abs(c.log_scale - (2 * g.log_scale + np.log(np.linalg.norm(minors)))) < 1e-12


def test_compound_level_one_is_source(rng):
    g = random_sl(rng, 4)
    c = compound(g, 1)
    assert np.allclose(c.entries, g.entries)
    assert abs(c.log_scale - g.log_scale) < 1e-12


def test_compound_diagonal_minors():
    g = ScaledMatrix.of(np.diag([2.0, 3.0, 5.0]))
    c = compound(g, 2)
    assert np.allclose(c.true_matrix(), np.diag([6.0, 10.0, 15.0]))


@pytest.mark.parametrize("d", [3, 4])
def test_compound_multiplicative(rng, d):
    for _ in range(500):
        g = random_sl(rng, d)
        h = random_sl(rng, d)
        for j in range(1, d):
            lhs = compound(g @ h, j)
            rhs = compound(g, j) @ compound(h, j)
            scale = np.vdot(rhs.entries, lhs.entries)
            assert np.linalg.norm(lhs.entries - scale * rhs.entries) < 1e-9
            assert abs(lhs.log_scale - rhs.log_scale) < 1e-9 * max(1.0, abs(lhs.log_scale))


def test_eigen_diagonal():
    e = eigen(ScaledMatrix.of(np.diag([2.0, 1.0, 0.5])))
    assert np.allclose(e.log_moduli, [np.log(2), 0.0, -np.log(2)], atol=1e-12)
    assert np.allclose(np.abs(np.sin(e.phases)), 0.0, atol=1e-12)


def test_eigen_rotation_pair():
    th = np.pi / 3
    rot = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    e = eigen(ScaledMatrix.of(rot))
    assert np.allclose(e.recentered_moduli(), 0.0, atol=1e-12)
    assert np.any(np.abs(np.sin(e.phases)) > 0.5)


def test_eigen_construct_recover(rng):
    h = random_sl(rng, 3)
    m = ScaledMatrix.of(h.entries @ np.diag([3.0, 1.0, 1 / 3.0]) @ np.linalg.inv(h.entries))
    e = eigen(m)
    assert np.allclose(e.recentered_moduli(), [np.log(3), 0.0, -np.log(3)], atol=1e-9)
    assert e.diagonalizable


def test_scale_invariance_of_projections(rng):
    from pqcartan.forms import Form
    from pqcartan.pq_cartan import pq_project
    from pqcartan.projections import cartan, jordan

    o = Form.standard(2, 1)
    g = random_sl(rng, 3, spread=1.5)
    g2 = g.rescaled(7.0)
    assert np.max(np.abs(cartan(g).coords - cartan(g2).coords)) < 1e-10
    assert np.max(np.abs(jordan(g).coords - jordan(g2).coords)) < 1e-10
    try:
        b1 = pq_project(o, g).b_o.coords
        b2 = pq_project(o, g2).b_o.coords
        assert np.max(np.abs(b1 - b2)) < 1e-10
    except Exception:
        pass  # membership may legitimately fail for a random matrix


def test_wedge_and_subspace_roundtrip(rng):
    for d, j in ((3, 2), (4, 2), (5, 3)):
        a = rng.standard_normal((d, d))
        q, _ = np.linalg.qr(a)
        w = wedge_coordinates(q, j)
        sub = subspace_from_wedge(w, d, j)
        # spans agree: projection of original columns onto recovered space is identity
        proj = sub @ sub.conj().T
        assert np.linalg.norm(proj @ q[:, :j] - q[:, :j]) < 1e-9


def test_minor_and_wedge_tables_match_subset_loops(rng):
    for d in range(2, 7):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for j in range(1, d):
            subs = [list(s) for s in combinations(range(d), j)]
            minors = [[np.linalg.det(m[np.ix_(r, c)]) for c in subs] for r in subs]
            # one det call per minor may round differently from the batched call
            assert np.allclose(minor_matrix(m, j), minors, rtol=1e-13, atol=1e-14)
            assert np.allclose(wedge_coordinates(m, j), [np.linalg.det(m[r, :j]) for r in subs],
                               rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("field", ["R", "C"])
def test_hodge_pairing_is_the_block_determinant(rng, field):
    # Laplace expansion along the first d - j columns of [conj(B) | A]
    for d in range(2, 8):
        for j in range(1, d):
            a, b = (rng.standard_normal((d, n)) + (1j * rng.standard_normal((d, n)) if field == "C" else 0)
                    for n in (j, d - j))
            pairing = hodge_dual(wedge_coordinates(b, d - j), d, j) @ wedge_coordinates(a, j)
            block = np.linalg.det(np.hstack([b.conj(), a]))
            assert abs(pairing - block) <= 1e-12 * abs(block), (d, j)


def test_eigen_handles_extreme_scales():
    big = ScaledMatrix.of(np.array([[1.0, 1e200], [0.0, 1.0]]))
    e = eigen(big)
    assert np.all(np.isfinite(e.log_moduli))
    assert not e.diagonalizable  # near-defective: eigenvectors nearly parallel


def test_unipotent_flagged_non_diagonalizable():
    u = ScaledMatrix.of(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
    e = eigen(u)
    assert np.allclose(e.recentered_moduli(), 0.0, atol=1e-6)
    assert not e.diagonalizable
