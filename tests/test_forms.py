import numpy as np
import pytest
from scipy.linalg import expm

from pqcartan import forms
from pqcartan.forms import (
    DegenerateFormError,
    Form,
    gaussian_matrix,
    o_adjoint,
    quad,
    restricted_signature,
    sample_isometry,
    sigma_o,
)
from pqcartan.numerics import ScaledMatrix

from conftest import random_sl


def test_form_signature_and_congruence(rng):
    a = rng.standard_normal((4, 4))
    gram = a + a.T + np.diag([3.0, 3.0, -4.0, -4.0])
    try:
        o = Form.of(gram)
    except DegenerateFormError:
        pytest.skip("random gram degenerate")
    t = o.standard_basis
    std = t.conj().T @ o.gram @ t
    p, q = o.signature
    assert np.allclose(std, np.diag([1.0] * p + [-1.0] * q), atol=1e-10)


def test_degenerate_gram_rejected():
    with pytest.raises(DegenerateFormError):
        Form.of(np.diag([1.0, 1.0, 0.0]))


def test_o_adjoint_diagonal_fixed(s1):
    g = ScaledMatrix.of(np.diag([2.0, 3.0, 4.0]))
    adj = o_adjoint(s1, g)
    assert np.allclose(adj.true_matrix(), g.true_matrix())


def test_o_adjoint_fixes_self_adjoint_rotation(s1):
    # exp(t K) with K = e13 - e31 satisfies J K^T J = K, so it is its own adjoint
    k = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
    assert np.allclose(s1.gram_inv @ k.T @ s1.gram, k)
    g = ScaledMatrix.of(expm(0.7 * k))
    adj = o_adjoint(s1, g)
    assert np.allclose(adj.true_matrix(), g.true_matrix(), atol=1e-12)


def test_o_adjoint_defining_relation(s1, rng):
    g = random_sl(rng, 3)
    adj = o_adjoint(s1, g)
    for _ in range(10):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lhs = s1.pair(g.true_matrix() @ u, v)
        rhs = s1.pair(u, adj.true_matrix() @ v)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_o_adjoint_antihomomorphism(s1, rng):
    for _ in range(50):
        g, h = random_sl(rng, 3), random_sl(rng, 3)
        lhs = o_adjoint(s1, g @ h)
        rhs = o_adjoint(s1, h) @ o_adjoint(s1, g)
        assert np.max(np.abs(lhs.true_matrix() - rhs.true_matrix())) < 1e-10


def test_sigma_fixes_isometries(s1, rng):
    h = sample_isometry(s1, rng)
    s = sigma_o(s1, h)
    scale = np.vdot(s.entries, h.entries)
    assert np.linalg.norm(s.entries - scale * h.entries) < 1e-9


def test_sigma_diagonal_example(s1):
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1.0 / np.e]))
    s = sigma_o(s1, g)
    assert np.allclose(s.true_matrix(), np.diag([1.0 / np.e, 1.0, np.e]), atol=1e-12)


def test_sigma_homomorphism_and_involution(s1, rng):
    for _ in range(50):
        g1, g2 = random_sl(rng, 3), random_sl(rng, 3)
        lhs = sigma_o(s1, g1 @ g2)
        rhs = sigma_o(s1, g1) @ sigma_o(s1, g2)
        assert np.max(np.abs(lhs.true_matrix() - rhs.true_matrix())) < 1e-9
        back = sigma_o(s1, sigma_o(s1, g1))
        assert np.max(np.abs(back.true_matrix() - g1.true_matrix())) < 1e-9


def test_induced_form_levels(s1):
    g1, g2 = s1.level_grams
    assert np.allclose(g1, s1.gram)
    assert np.allclose(g2, np.diag([1.0, -1.0, -1.0]))
    assert not (g1.flags.writeable or g2.flags.writeable)
    # wedge of the coordinate plane has positive level-2 sign
    e12 = np.array([1.0, 0.0, 0.0])
    assert quad(g2, e12) > 0


def test_induced_form_invariance_under_isometries(s1, rng):
    from pqcartan.numerics import compound

    for _ in range(20):
        h = sample_isometry(s1, rng)
        for j, gram in enumerate(s1.level_grams, start=1):
            hj = compound(h, j)
            pushed = hj.entries.conj().T @ gram @ hj.entries
            alpha = np.vdot(pushed, gram) / np.vdot(gram, gram)
            assert np.linalg.norm(pushed / alpha - gram) < 1e-9


def test_sample_isometry(s1, rng):
    # zero algebra element: scale zero gives the identity
    h0 = sample_isometry(s1, rng, scale=0.0)
    assert np.allclose(h0.true_matrix(), np.eye(3))
    # explicit boost generator preserves the form
    e = np.array([[0, 0, 1.0], [0, 0, 0], [1.0, 0, 0]])
    assert np.linalg.norm(e.T @ s1.gram + s1.gram @ e) < 1e-12
    b = ScaledMatrix.of(expm(0.8 * e))
    assert isometry_defect(s1, b) < 1e-12
    worst = max(isometry_defect(s1, sample_isometry(s1, rng)) for _ in range(100))
    assert worst < 1e-8


@pytest.mark.parametrize("p, q, field_tag", [(2, 1, "R"), (1, 2, "R"), (2, 2, "R"), (3, 2, "R"), (2, 1, "C")])
@pytest.mark.parametrize("scale", [0.0, 0.4, 0.5])
def test_expm_matches_scipy_on_the_isometry_algebra(p, q, field_tag, scale):
    # sample_isometry's draws at the library's scales: the numpy exponential is scipy's to rounding, and an isometry
    o = Form.standard(p, q, field_tag)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = gaussian_matrix(rng, o.dim, field_tag)
        x = (a - o.gram_inv @ a.conj().T @ o.gram) / 2
        x = scale * (x - np.trace(x) / o.dim * np.eye(o.dim))
        got, want = forms._expm(x), expm(x)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert isometry_defect(o, ScaledMatrix.of(got)) <= 1e-14


def test_expm_scales_and_squares_past_the_pade_range():
    # 1-norm 20 > PADE13_THETA: the approximant is taken at a quarter of the rotation angle and squared twice
    t = 20.0
    got = forms._expm(np.array([[0.0, -t], [t, 0.0]]))
    assert np.abs(got - np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])).max() <= 1e-14


def isometry_defect(o, h):
    """Relative deviation of h* J h from J, after scale alignment."""
    m = h.entries
    pushed = m.conj().T @ o.gram @ m
    alpha = np.vdot(pushed, o.gram) / np.vdot(o.gram, o.gram)
    return float(np.linalg.norm(pushed / alpha - o.gram) / np.linalg.norm(o.gram))


def test_restricted_signature(s1, rng):
    for _ in range(50):
        k = int(rng.integers(1, 4))
        cols = rng.standard_normal((3, k))
        pos, neg, margin = restricted_signature(s1, cols)
        if margin > 1e-6:
            assert pos + neg == k


def test_serialization_roundtrip():
    o = Form.standard(2, 1)
    o2 = Form.from_json(o.to_json())
    assert np.allclose(o.gram, o2.gram)
    assert o2.field_tag == "R"
    oc = Form.of(np.array([[2.0, 1j], [-1j, -1.0]]), "C")
    oc2 = Form.from_json(oc.to_json())
    assert np.allclose(oc.gram, oc2.gram)
    assert oc2.signature == oc.signature


def test_from_json_refuses_an_unknown_field():
    with pytest.raises(ValueError, match="unknown field tag 'Q'"):
        Form.from_json('{"field": "Q", "gram": [[1.0, 0.0], [0.0, -1.0]]}')


def test_complex_hermitian_adjoint(rng):
    oc = Form.standard(1, 1, "C")
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = ScaledMatrix.of(a + 1.5 * np.eye(2))
    adj = o_adjoint(oc, g)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = oc.pair(g.true_matrix() @ u, v)
    rhs = oc.pair(u, adj.true_matrix() @ v)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
