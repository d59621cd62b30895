from itertools import permutations
from math import comb

import numpy as np
import pytest

from pqcartan.flags import Flag, flag_perp, o_generic, project_to_So, transverse
from pqcartan.forms import Form, sample_isometry, sigma_o

from conftest import flag_distance, random_sl


def reversed_flag(d):
    return Flag.of(np.eye(d)[:, ::-1])


def test_transverse_examples():
    std = Flag.standard(3)
    assert transverse(std, reversed_flag(3))
    assert not transverse(std, std)


def test_transverse_random_frequency(rng):
    hits = 0
    for _ in range(100):
        a, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        b, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        hits += transverse(Flag.of(a), Flag.of(b))
    assert hits == 100


def test_o_generic_standard(s1):
    rep = o_generic(s1, Flag.standard(3))
    assert rep.generic
    assert rep.signature.signs == (1, 1, -1)
    assert rep.signature.prefix_signatures == ((1, 0), (2, 0), (2, 1))


def test_o_generic_isotropic_first_line(s1):
    basis = np.column_stack([(1.0, 0, 1.0), (0, 1.0, 0), (0, 0, 1.0)])  # first column e1+e3
    rep = o_generic(s1, Flag.of(basis))
    assert not rep.generic
    assert rep.failed_level == 1


def test_o_generic_coordinate_flag(s1):
    f = Flag.coordinate((2, 0, 1))
    rep = o_generic(s1, f)
    assert rep.generic
    assert rep.signature.signs == (-1, 1, 1)


def test_orbit_equal(s1, rng):
    # the sign sequence is the open-orbit invariant: an isometry keeps it
    std = Flag.standard(3)
    h = sample_isometry(s1, rng)
    signs = o_generic(s1, std).signature
    assert o_generic(s1, std.translate(h)).signature == signs
    assert o_generic(s1, Flag.coordinate((2, 0, 1))).signature != signs
    iso = Flag.of(np.column_stack([(1.0, 0, 1.0), (0, 1.0, 0), (0, 0, 1.0)]))
    assert not o_generic(s1, iso).generic


def test_coordinate_flags_realize_three_orbits(s1):
    seen = set()
    for p in permutations(range(3)):
        rep = o_generic(s1, Flag.coordinate(p))
        assert rep.generic
        seen.add(rep.signature.signs)
    assert seen == {(1, 1, -1), (1, -1, 1), (-1, 1, 1)}


@pytest.mark.parametrize("d,p", [(3, 2), (4, 2), (5, 3)])
def test_open_orbit_count(d, p):
    o = Form.standard(p, d - p)
    seen = set()
    for perm in permutations(range(d)):
        rep = o_generic(o, Flag.coordinate(perm))
        assert rep.generic
        seen.add(rep.signature.signs)
    assert len(seen) == comb(d, p)


def test_flag_perp_standard(s1):
    fp = flag_perp(s1, Flag.standard(3))
    # expected (e3, e3+e2, V)
    assert abs(abs(fp.basis[2, 0]) - 1) < 1e-12
    assert np.linalg.norm(fp.basis[[0], :2]) < 1e-12


def test_flag_perp_involutive(s1, rng):
    for _ in range(200):
        a, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        f = Flag.of(a)
        back = flag_perp(s1, flag_perp(s1, f))
        assert flag_distance(f, back) < 1e-9


def test_flag_perp_equivariance(s1, rng):
    for _ in range(50):
        g = random_sl(rng, 3)
        a, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        f = Flag.of(a)
        lhs = flag_perp(s1, f).translate(sigma_o(s1, g))
        rhs = flag_perp(s1, f.translate(g))
        assert flag_distance(lhs, rhs) < 1e-9


def test_generic_iff_transverse_to_perp(s1, rng):
    std = Flag.standard(3)
    assert transverse(std, flag_perp(s1, std))
    iso = Flag.of(np.column_stack([(1.0, 0, 1.0), (0, 1.0, 0), (0, 0, 1.0)]))
    assert not transverse(iso, flag_perp(s1, iso))


def test_project_to_So_standard(s1):
    p = project_to_So(s1, Flag.standard(3))
    assert np.allclose(p, np.eye(3), atol=1e-12)


def test_project_to_So_isometry_translate(s1, rng):
    h = sample_isometry(s1, rng)
    moved = Flag.standard(3).translate(h)
    p = project_to_So(s1, moved)
    hm = h.entries / abs(np.linalg.det(h.entries)) ** (1 / 3)
    expect = np.linalg.inv(hm).conj().T @ np.linalg.inv(hm)
    expect *= 3 / np.trace(expect)
    assert np.allclose(p, expect, atol=1e-8)


def test_project_to_So_positive_definite(s1, rng):
    count = 0
    while count < 200:
        a = rng.standard_normal((3, 3))
        try:
            f = Flag.of(a)
        except ValueError:
            continue
        rep = o_generic(s1, f)
        if not rep.generic:
            continue
        count += 1
        p = project_to_So(s1, f)
        assert np.all(np.linalg.eigvalsh(p) > 0)
        assert np.allclose(p, p.conj().T)


def test_flag_json_roundtrip():
    f = Flag.coordinate((2, 0, 1))
    f2 = Flag.from_json(f.to_json())
    assert flag_distance(f, f2) < 1e-12
