from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from pqcartan.flags import Flag
from pqcartan.weyl import (
    ChamberA,
    WeylElement,
    chamber_from_signs,
    chamber_transition,
    file_to_slots,
    iota_of_chamber,
    merge_to_slots,
    opposition_b,
)

from conftest import flag_distance, iota_b


def test_compatible_chamber_counts():
    # the chambers of the sign sequences with p positives are the binom(d, p) slot-compatible ones
    for p, q in ((2, 1), (1, 1), (2, 2)):
        chambers = [chamber_from_signs(s) for s in product((1, -1), repeat=p + q) if s.count(1) == p]
        assert len({c.order for c in chambers}) == comb(p + q, p)
        for c in chambers:
            pos, neg = [i for i in c.order if i < p], [i for i in c.order if i >= p]
            assert pos == sorted(pos) and neg == sorted(neg)


def test_merge_identity_when_in_slot_order():
    assert merge_to_slots([1, 1, -1]).tolist() == [0, 1, 2]


def test_merge_example():
    # chamber order (l3, l1, l2) in the reference setup: signs (-, +, +)
    assert merge_to_slots([-1, 1, 1]).tolist() == [2, 0, 1]


def _two_pile_merge(signs):
    """Reference slot map: rank k of sign s takes the next free slot of its pile."""
    next_slot = {1: 0, -1: sum(1 for s in signs if s > 0)}
    out = []
    for s in signs:
        out.append(next_slot[s])
        next_slot[s] += 1
    return out


def _shuffle_chambers(p, q):
    """Reference list of compatible chambers: the positive ranks, lexicographically."""
    d = p + q
    out = []
    for pos_slots in combinations(range(d), p):
        pos_iter, neg_iter = iter(range(p)), iter(range(p, d))
        out.append(ChamberA(tuple(next(pos_iter) if k in pos_slots else next(neg_iter) for k in range(d))))
    return out


def test_slot_map_exhaustive_up_to_d7():
    for d in range(1, 8):
        rows = np.array(list(product((1, -1), repeat=d)))
        assert merge_to_slots(rows).tolist() == [_two_pile_merge(list(r)) for r in rows]
        for signs in rows:
            p = int(np.sum(signs > 0))
            if 0 < p < d:
                predicted = iota_of_chamber(chamber_from_signs(signs), p)
                assert predicted.order == tuple(merge_to_slots(signs[::-1]).tolist())


def test_slot_map_rejects_signs_that_are_not_plus_or_minus_one():
    for bad in ([1, 0, -1], [1.0, np.nan, -1.0], [[1, -1], [0, 1]]):
        with pytest.raises(ValueError):
            merge_to_slots(bad)
    with pytest.raises(ValueError):
        chamber_from_signs([1, 0, -1])


def test_row_placements_match_single_rows():
    rng = np.random.default_rng(3)
    signs = np.where(rng.random((50, 5)) < 0.5, 1, -1)
    values = rng.standard_normal((50, 5))
    filed = file_to_slots(values, signs)
    c = ChamberA((2, 0, 4, 1, 3))
    assert np.array_equal(c.place(values), np.stack([c.place(v) for v in values]))
    assert np.array_equal(c.read(c.place(values)), values)
    for row, s, v in zip(filed, signs, values):
        chamber = chamber_from_signs(s)
        assert np.array_equal(row, chamber.place(v))
        assert np.array_equal(row, WeylElement(chamber.order).act(v))


def test_lift_is_orthogonal_and_matches_perm():
    w = WeylElement((2, 0, 1))
    m = w.lift()
    assert np.allclose(m.T @ m, np.eye(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(np.abs(m @ x), np.abs(w.act(x)[np.argsort(np.arange(3))]))
    assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_opposition_reference_setup():
    w = opposition_b(2, 1)
    assert w.perm == (1, 0, 2)
    x = np.array([3.0, 1.0, -4.0])
    assert np.allclose(iota_b(2, 1, x), [-1.0, -3.0, 4.0])
    assert np.allclose(iota_b(2, 1, iota_b(2, 1, x)), x)


def test_iota_preserves_slot_chamber(rng):
    def in_slot_chamber(x):  # descending within the positive and within the negative slots
        return np.all(np.diff(x[:2]) <= 1e-10) and np.all(np.diff(x[2:]) <= 1e-10)

    for _ in range(100):
        raw = np.sort(rng.standard_normal(2))[::-1]
        raw2 = np.sort(rng.standard_normal(2))[::-1]
        x = np.concatenate([raw, raw2])
        x -= x.mean()
        assert in_slot_chamber(x)
        assert in_slot_chamber(iota_b(2, 2, x))


def test_chamber_flag_dictionary():
    default = ChamberA((0, 1, 2))
    assert np.allclose(Flag.coordinate(default.order).basis, np.eye(3))
    f = Flag.coordinate((2, 0, 1))
    assert abs(abs(f.basis[2, 0]) - 1) < 1e-12
    # inverse: recover the order from a coordinate flag
    rec = tuple(int(np.argmax(np.abs(f.basis[:, j]))) for j in range(3))
    assert rec == (2, 0, 1)


def test_chamber_flag_equivariance(rng):
    for _ in range(20):
        perm = tuple(rng.permutation(3))
        w = WeylElement(perm)
        c = ChamberA(tuple(rng.permutation(3)))
        lhs = Flag.coordinate(c.order).translate(w.lift())
        rhs = Flag.coordinate(tuple(w.perm[i] for i in c.order))
        assert flag_distance(lhs, rhs) < 1e-12


def test_chamber_transition():
    a = ChamberA((2, 0, 1))
    b = ChamberA((0, 1, 2))
    w = chamber_transition(a, b)
    assert tuple(w.perm[i] for i in b.order) == a.order
    for bad in ((0, 0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            WeylElement(bad)
        with pytest.raises(ValueError, match="not a total order"):
            ChamberA(bad)


def test_chamber_from_signs_roundtrip():
    for p, q in ((2, 1), (2, 2), (3, 2)):
        for c in _shuffle_chambers(p, q):
            assert chamber_from_signs([1 if i < p else -1 for i in c.order]) == c


def test_iota_of_chamber_is_involutive():
    for c in _shuffle_chambers(2, 2):
        assert iota_of_chamber(iota_of_chamber(c, 2), 2) == c


def test_bijection_orbits_chambers():
    # compatible chambers realize pairwise distinct coordinate-flag signatures
    from pqcartan.flags import o_generic
    from pqcartan.forms import Form

    for d, p in ((3, 2), (4, 2), (5, 3)):
        o = Form.standard(p, d - p)
        sigs = set()
        for c in _shuffle_chambers(p, d - p):
            rep = o_generic(o, Flag.coordinate(c.order))
            assert rep.generic
            sigs.add(rep.signs)
        assert len(sigs) == comb(d, p)

