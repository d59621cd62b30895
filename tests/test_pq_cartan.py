import dataclasses
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from pqcartan import pq_cartan
from pqcartan.forms import Form, restricted_signature, sample_isometry
from pqcartan.numerics import NumericsError, ScaledMatrix, eigen, real_columns
from pqcartan.pq_cartan import (
    NotInBoGError,
    distance_So,
    membership,
    pq_project,
    twisted_square,
)

from conftest import iota_b, random_sl, random_slot_vector, sample_decomposable


def brute_force_slots(o, g, tol=1e-8):
    """Independent oracle: all slot-respecting fillings of the halved spectrum.

    Enumerates every permutation assigning eigenvalue ranks to slots such
    that slot signs match the eigenline signs, keeps those lying in the
    slot chamber, and asserts the resulting vector is unique.
    """
    p, q = o.signature
    d = o.dim
    s = twisted_square(o, g)
    eig = eigen(s)
    halves = eig.recentered_moduli() / 2
    vecs = eig.vectors
    signs = []
    for i in range(d):
        v = vecs[:, i]
        val = float(np.real(np.conj(v) @ o.gram @ v))
        signs.append(1 if val > 0 else -1)
    candidates = set()
    for perm in permutations(range(d)):  # rank i -> slot perm[i]
        if any((perm[i] < p) != (signs[i] > 0) for i in range(d)):
            continue
        slots = np.empty(d)
        for i in range(d):
            slots[perm[i]] = halves[i]
        if np.all(np.diff(slots[:p]) <= tol) and np.all(np.diff(slots[p:]) <= tol):
            candidates.add(tuple(np.round(slots - slots.mean(), 10)))
    assert len(candidates) == 1, f"slot filling not unique: {candidates}"
    return np.array(next(iter(candidates)))


def test_membership_identity(s1):
    assert membership(s1, ScaledMatrix.identity(3)).ok


def test_membership_rotation_family(s1):
    k = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
    for two_theta in np.linspace(0.1, np.pi - 0.1, 25):
        g = ScaledMatrix.of(expm((two_theta / 2) * k))
        res = membership(s1, g)
        assert not res.ok
        assert res.reason == "complex spectrum"


def test_membership_decomposable_samples(s1, rng):
    for _ in range(50):
        g, _ = sample_decomposable(rng, s1)
        assert membership(s1, g).ok


def test_pq_project_diagonal_examples(s1):
    r = pq_project(s1, ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e])))
    assert np.allclose(r.b_o.coords, [1.0, 0.0, -1.0], atol=1e-12)
    assert r.w_g.perm == (0, 1, 2)
    assert r.eigen_signs == (1, 1, -1)
    r2 = pq_project(s1, ScaledMatrix.of(np.diag([1 / np.e, 1.0, np.e])))
    assert np.allclose(r2.b_o.coords, [0.0, -1.0, 1.0], atol=1e-12)


def test_pq_project_matches_brute_force(s1, rng):
    for _ in range(40):
        g, _ = sample_decomposable(rng, s1)
        r = pq_project(s1, g)
        if r.degenerate:
            continue
        oracle = brute_force_slots(s1, g)
        assert np.max(np.abs(r.b_o.coords - oracle)) < 1e-8


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2)])
def test_recovery_uniqueness(p, q, rng):
    o = Form.standard(p, q)
    for _ in range(60):
        g, x = sample_decomposable(rng, o)
        r = pq_project(o, g)
        assert np.max(np.abs(r.b_o.coords - x)) < 1e-8


def test_jordan_identity_by_construction(s1, rng):
    from pqcartan.projections import jordan

    g, _ = sample_decomposable(rng, s1)
    r = pq_project(s1, g)
    lam = jordan(twisted_square(s1, g))
    assert np.max(np.abs(r.w_g.act(lam.coords / 2) - r.b_o.coords)) < 1e-9


def test_norm_equals_half_twisted_jordan_norm(s1, rng):
    from pqcartan.projections import jordan

    g, _ = sample_decomposable(rng, s1)
    assert abs(distance_So(s1, g) - 0.5 * jordan(twisted_square(s1, g)).norm()) < 1e-10


def test_distance_examples(s1, rng):
    h = sample_isometry(s1, rng)
    assert distance_So(s1, h) < 1e-8
    g = ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e]))
    assert abs(distance_So(s1, g) - np.sqrt(2)) < 1e-10


def test_distance_biinvariance(s1, rng):
    g, _ = sample_decomposable(rng, s1)
    base = distance_So(s1, g)
    for _ in range(10):
        h, h2 = sample_isometry(s1, rng), sample_isometry(s1, rng)
        assert abs(distance_So(s1, h @ g @ h2) - base) < 1e-7


def test_distance_inverse_symmetry(s1, rng):
    # the slot values of the inverse are the negated values re-sorted, so the
    # norm is always symmetric
    for _ in range(200):
        g, _ = sample_decomposable(rng, s1)
        assert abs(distance_So(s1, g) - distance_So(s1, g.inv())) < 1e-7


def test_inverse_opposition_identity_for_sign_preserving_lifts(s1, rng):
    # with a sign-class-preserving middle permutation the inverse projection
    # is exactly the opposition image; for general signed permutations only
    # the value multiset (hence the norm) survives
    for _ in range(50):
        perm = tuple(rng.permutation(2)) + (2,)
        g, _ = sample_decomposable(rng, s1, lift_perm=perm)
        r = pq_project(s1, g)
        ri = pq_project(s1, g.inv())
        assert np.max(np.abs(ri.b_o.coords - iota_b(2, 1, r.b_o.coords))) < 1e-7


def test_pq_project_refuses_rotations(s1):
    k = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
    with pytest.raises(NotInBoGError):
        pq_project(s1, ScaledMatrix.of(expm(0.5 * k)))


def test_weyl_chamber_prediction_stabilizes_for_powers(s1, rng):
    # the chamber pq_project files g^n into (its rank -> slot map w_g) settles as n grows
    g = random_sl(rng, 3, spread=1.7)
    assert pq_project(s1, g.power(8)).w_g == pq_project(s1, g.power(4)).w_g
    # the 16th power's twisted square spans e^37.7 with eigenbasis condition
    # 12.9, past float64 resolution: its dense slot vector is off mpmath by 9.7
    with pytest.raises(NumericsError, match="past float64 resolution"):
        pq_project(s1, g.power(16))


def test_degenerate_flagged_not_raised(s1):
    # equal moduli across sign classes: still decomposable, flagged degenerate
    g = ScaledMatrix.of(np.diag([np.e, np.e, 1.0]))
    r = pq_project(s1, g)
    assert r.degenerate or r.modulus_gap > 0
    assert np.isfinite(r.b_o.coords).all()


SIGNATURES = [(2, 1, "R"), (2, 2, "R"), (3, 2, "R"), (1, 2, "R"), (2, 1, "C")]
SIGNATURE_IDS = ["R21", "R22", "R32", "R12", "C21"]


def fields_of(member, proj):
    """Every field of both results, with b_o as its exact bytes."""
    return (dataclasses.astuple(member),
            (proj.b_o.coords.tobytes(), proj.w_g, proj.eigen_signs, proj.modulus_gap,
             proj.isotropy_margin, proj.degenerate))


def fresh(o, g):
    """membership and pq_project on writable copies, which the memo never keeps."""
    o2 = dataclasses.replace(o, gram=o.gram.copy())
    g2 = ScaledMatrix(g.entries.copy(), g.log_scale)
    return fields_of(membership(o2, g2), pq_project(o2, g2)), distance_So(o2, g2)


def test_one_decomposition_serves_all_three_calls(s1, rng, monkeypatch):
    calls = []

    def spy(m):
        calls.append(m)
        return eigen(m)

    monkeypatch.setattr(pq_cartan, "eigen", spy)
    g, _ = sample_decomposable(rng, s1)
    membership(s1, g)
    pq_project(s1, g)
    distance_So(s1, g)
    assert len(calls) == 1
    assert np.array_equal(calls[0].entries, twisted_square(s1, g).entries)


@pytest.mark.parametrize("order", list(permutations(("membership", "pq_project", "distance_So"))))
def test_call_order_does_not_change_results(order, rng):
    o = Form.standard(2, 2)
    for _ in range(5):
        g, _ = sample_decomposable(rng, o)
        got = {name: getattr(pq_cartan, name)(o, g) for name in order}
        want, want_dist = fresh(o, g)
        assert fields_of(got["membership"], got["pq_project"]) == want
        assert got["distance_So"] == want_dist


def test_writable_entries_are_never_kept(s1, rng):
    g1, x1 = sample_decomposable(rng, s1)
    g2, x2 = sample_decomposable(rng, s1)
    raw = np.array(g1.entries)
    view = raw.view()
    view.setflags(write=False)  # read-only, but its owner is writable
    for entries in (raw, view):
        raw[:] = g1.entries
        g = ScaledMatrix(entries, g1.log_scale)
        assert np.allclose(pq_project(s1, g).b_o.coords, x1, atol=1e-8)
        raw[:] = g2.entries
        assert np.allclose(pq_project(s1, g).b_o.coords, x2, atol=1e-8)
        assert distance_So(s1, g) == pytest.approx(np.linalg.norm(x2), abs=1e-8)
        assert pq_cartan._last_decomposition[1] is not g


def cluster_verdicts(o, g):
    """(signs, isotropy margin) with restricted_signature run on every cluster."""
    eig = eigen(twisted_square(o, g))
    signs, margin = [], np.inf
    for idx in pq_cartan._modulus_clusters(eig.recentered_moduli()):
        cols = eig.vectors[:, idx]
        if o.field_tag == "R":
            cols = (real_columns if len(idx) == 1 else pq_cartan._real_span)(cols)
        pos, neg, m = restricted_signature(o, cols)
        signs += [1] * pos + [-1] * neg
        margin = min(margin, m)
    return tuple(signs), margin


@pytest.mark.parametrize("p,q,field", SIGNATURES, ids=SIGNATURE_IDS)
def test_simple_cluster_verdicts_match_restricted_signature(p, q, field, rng):
    o = Form.standard(p, q, field)
    for _ in range(40):
        g, _ = sample_decomposable(rng, o)
        r = pq_project(o, g)
        assert (r.eigen_signs, r.isotropy_margin) == cluster_verdicts(o, g)


@pytest.mark.parametrize("p,q,field", SIGNATURES, ids=SIGNATURE_IDS)
def test_isometries_are_members_at_distance_zero(p, q, field, rng):
    # the twisted square of an isometry is the identity up to rounding, so eig
    # may return its eigenlines as conjugate pairs within the one cluster
    o = Form.standard(p, q, field)
    for _ in range(60):
        h = sample_isometry(o, rng)
        assert membership(o, h).ok
        assert distance_So(o, h) < 1e-8


def test_refuses_past_float64_resolution():
    from pqcartan.freegroup import Word, reducible_rep

    rep = reducible_rep(power=4)
    # the twisted square spans e^55.7, past log(1/eps) = 36.04; the dense
    # path used to return b_o = (18.53, -9.20, -9.32), the engine (27.85, -27.85, 0)
    g = rep.image(Word.of((1, 1, 1, 1, 2, 1)))
    for fn in (pq_project, distance_So, membership):
        with pytest.raises(NumericsError, match="past float64 resolution"):
            fn(rep.form, g)
    # a single letter spans e^19.2 and is resolved
    r = pq_project(rep.form, rep.image(Word.of((1,))))
    assert np.allclose(r.b_o.coords, [4.8, -4.8, 0.0], atol=1e-12)


def test_eigen_failure_is_not_a_verdict(s1, monkeypatch):
    def failing(m):
        raise NumericsError("eigendecomposition failed to converge")

    monkeypatch.setattr(pq_cartan, "eigen", failing)
    with pytest.raises(NumericsError, match="failed to converge"):
        membership(s1, ScaledMatrix.of(np.diag([np.e, 1.0, 1 / np.e])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sig=st.sampled_from(SIGNATURES), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.0, 5.0))
def test_planted_elements_property(sig, seed, radius):
    p, q, field = sig
    o = Form.standard(p, q, field)
    rng = np.random.default_rng(seed)
    x = random_slot_vector(rng, p, q, radius)
    g, _ = sample_decomposable(rng, o, x=x)
    assert membership(o, g).ok
    r = pq_project(o, g)
    assert np.max(np.abs(r.b_o.coords - x)) < 1e-8
    assert distance_So(o, g) == r.b_o.norm()
