import numpy as np
import pytest

from pqcartan.flags import flag_distance, o_generic
from pqcartan.forms import Form
from pqcartan.freegroup import (
    CapExceededError,
    Representation,
    SchottkyRejection,
    Word,
    anosov_gap_check,
    attracting_flag,
    build_reducible_example,
    build_schottky,
    enumerate_conjugacy_reps,
    enumerate_sphere,
    reducible_rep,
    rotation_control_rep,
    sample_limit_set,
    singular_flag,
    sl2_schottky_pair,
    sphere_words,
    two_orbit_rep,
)
from pqcartan.numerics import ScaledMatrix
from pqcartan.bulk import index_letter, sphere_rows, sphere_size, word_rank


def test_word_reduction_and_ops():
    w = Word.of((1, 2, -2, 1))
    assert w.letters == (1, 1)
    assert (w * w.inverse()).letters == ()
    assert Word.of((2, 1, -2)).cyclic_reduction().letters == (1,)
    assert Word.of((1, 2)).minimal_rotation() == Word.of((2, 1)).minimal_rotation()
    assert Word.of((1, 2)).minimal_rotation() != Word.of((-1, -2)).minimal_rotation()


def test_sphere_counts():
    assert sum(1 for _ in sphere_words(2, 1)) == 4
    assert sum(1 for _ in sphere_words(2, 3)) == 36
    for length in range(5):
        assert sum(1 for _ in sphere_words(2, length)) == sphere_size(2, length)


def test_sphere_order_deterministic_and_ranked():
    words = list(sphere_words(2, 3))
    assert words == list(sphere_words(2, 3))
    for i, w in enumerate(words):
        assert word_rank(w.letters, 2) == i


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sphere_rows_follow_enumerate_sphere(k):
    rep = Representation.of([ScaledMatrix.of(np.diag([2.0, 1.0, 0.5]))] * k, Form.standard(2, 1))
    for length in range(1, 6):
        rows = sphere_rows(k, length)
        words = [w for w, _ in enumerate_sphere(rep, length)]
        assert rows.shape == (len(words), length)
        assert [Word(tuple(index_letter(i) for i in r)) for r in rows.tolist()] == words


def test_enumerate_sphere_cap():
    rep = rotation_control_rep()
    with pytest.raises(CapExceededError):
        list(enumerate_sphere(rep, 5, cap=10))


def test_enumerate_matches_high_precision():
    import mpmath

    mpmath.mp.dps = 60
    rep = reducible_rep(power=4)
    # enumerate_sphere and Representation.image run the same left-to-right
    # ScaledMatrix products, so the oracle words below are built by image
    for w, mat in enumerate_sphere(rep, 6):
        img = rep.image(w)
        assert img.entries.tobytes() == mat.entries.tobytes()
        assert img.log_scale == mat.log_scale
    rows = sphere_rows(2, 12)[: 100 * 7000 : 7000]
    count = 0
    for row in rows.tolist():
        w = Word(tuple(index_letter(i) for i in row))
        assert word_rank(w.letters, 2) == 7000 * count
        mat = rep.image(w)
        count += 1
        exact = mpmath.eye(3)
        for l in w.letters:
            exact = exact * mpmath.matrix(rep.letter_image(l).true_matrix().tolist())
        log_norm = float(mpmath.log(mpmath.norm(exact)))
        unit = np.array(exact.tolist(), dtype=float) / float(mpmath.norm(exact))
        sign = np.sign(np.vdot(unit, mat.entries))
        assert np.max(np.abs(sign * mat.entries - unit)) < 1e-8
        assert abs(mat.log_scale - log_norm) < 1e-8 * max(1.0, abs(log_norm))
    assert count == 100


def test_conjugacy_representatives():
    assert sum(1 for _ in enumerate_conjugacy_reps(2, 1)) == 4
    reps = [w for w in enumerate_conjugacy_reps(2, 8)]
    # brute force: cyclically reduced words grouped by minimal rotation
    seen = {}
    for length in range(1, 9):
        for w in sphere_words(2, length):
            if w.length >= 2 and w.letters[0] == -w.letters[-1]:
                continue
            seen.setdefault(w.minimal_rotation().letters, 0)
            seen[w.minimal_rotation().letters] += 1
    assert len(reps) == len(seen)
    assert {w.letters for w in reps} == set(seen)


def test_image_inverse_consistency():
    # moderate generator scale: the check is a float64 identity, and condition
    # numbers grow exponentially with the power
    from pqcartan.freegroup import Representation, sl2_irreducible

    gens = []
    for a in sl2_schottky_pair():
        block = np.zeros((3, 3))
        block[:2, :2] = sl2_irreducible(a, 2)
        block[2, 2] = 1.0
        gens.append(ScaledMatrix.of(block))
    rep = Representation.of(gens, Form.standard(2, 1))
    for w, mat in enumerate_sphere(rep, 6):
        if w.length == 0 or word_rank(w.letters, 2) % 31 != 0:
            continue
        inv = rep.image(w.inverse())
        prod = (mat @ inv).true_matrix()
        scale = np.trace(prod) / 3
        assert np.max(np.abs(prod / scale - np.eye(3))) < 1e-9


def test_build_schottky_single_generator():
    g = ScaledMatrix.of(np.diag([np.exp(1.5), 1.0, np.exp(-1.5)]))
    rep = build_schottky([g], Form.standard(2, 1), power=4)
    assert isinstance(rep, Representation)
    assert rep.rank == 1


def test_build_schottky_rejects_shared_flags():
    g1 = ScaledMatrix.of(np.diag([np.exp(1.5), 1.0, np.exp(-1.5)]))
    g2 = ScaledMatrix.of(np.diag([np.exp(2.0), 1.0, np.exp(-2.0)]))
    rej = build_schottky([g1, g2], Form.standard(2, 1), power=4)
    assert isinstance(rej, SchottkyRejection)
    assert any("share fixed data" in r or "contraction" in r for r in rej.reasons)


def test_build_schottky_rejects_non_loxodromic():
    th = np.pi / 5
    rot = ScaledMatrix.of(
        np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    )
    rej = build_schottky([rot], Form.standard(2, 1))
    assert isinstance(rej, SchottkyRejection)
    assert "not loxodromic" in rej.reasons[0]


def test_two_orbit_recipe_certifies():
    rep = two_orbit_rep()
    assert isinstance(rep, Representation)
    _, sigs, bad = sample_limit_set(rep, 6, 80)
    assert not bad
    assert {s.signs for s in sigs} == {(1, 1, -1), (-1, 1, 1)}


def test_reducible_example_properties():
    rep = reducible_rep(power=4)
    assert isinstance(rep, Representation)
    assert rep.metadata["zariski_dense"] is False
    # singular values of a block image are (s, 1, 1/s): both root gaps equal
    g = rep.letter_image(1)
    sv = np.sort(np.linalg.svd(g.entries, compute_uv=False))[::-1]
    logs = np.log(sv)
    assert abs(logs[0] - logs[1] - (logs[1] - logs[2])) < 1e-9
    assert abs(logs[1] - logs.mean()) < 1e-9
    _, sigs, bad = sample_limit_set(rep, 6, 40)
    assert not bad
    assert {s.signs for s in sigs} == {(1, -1, 1)}


@pytest.mark.parametrize("recipe", [lambda: reducible_rep(power=4), lambda: reducible_rep(3, 2, power=6),
                                    two_orbit_rep], ids=["reducible_21", "reducible_32", "two_orbit"])
def test_limit_samples_are_strided_singular_flags(recipe):
    # candidates are the words of rank 0, stride, 2 stride, ...; non-generic
    # ones are reported, the rest give flags until count of them are found
    rep = recipe()
    length, count = 6, 40
    flags, sigs, bad = sample_limit_set(rep, length, count)
    stride = max(1, sphere_size(rep.rank, length) // count)
    want_flags, want_bad = [], []
    for w in list(sphere_words(rep.rank, length))[::stride]:
        if len(want_flags) == count:
            break
        f = singular_flag(rep, w)
        (want_flags if o_generic(rep.form, f).generic else want_bad).append((w, f))
    assert [w for w, _ in bad] == [w for w, _ in want_bad]
    assert len(flags) == len(sigs) == len(want_flags)
    for f, (_, g) in zip(flags, want_flags):
        assert np.array_equal(f.basis, g.basis)


def test_reducible_rejects_trivial_sl2():
    with pytest.raises(ValueError):
        build_reducible_example(2, 1, [np.eye(2)])


def test_reducible_parity_check():
    with pytest.raises(ValueError):
        build_reducible_example(2, 2, sl2_schottky_pair())


def test_gap_check_positive_for_certified():
    rep = reducible_rep(power=4)
    c, cp, minima = anosov_gap_check(rep, 7)
    assert c > 0
    assert all(minima[s] > 0 for s in minima)


def test_gap_check_rotation_control():
    c, _, minima = anosov_gap_check(rotation_control_rep(), 6)
    assert c <= 1e-6
    assert all(abs(v) < 1e-6 for v in minima.values())


def test_gap_scales_with_power():
    c4 = anosov_gap_check(reducible_rep(power=4), 5)[0]
    c8 = anosov_gap_check(reducible_rep(power=8), 5)[0]
    assert abs(c8 / c4 - 2.0) < 0.2


def test_limit_flags_approach_fixed_flags():
    rep = reducible_rep(power=4)
    w = Word.of((1, 2))
    fixed = attracting_flag(rep, w)
    dists = []
    for n in (1, 2, 4):
        power_word = Word.of(w.letters * n)
        dists.append(flag_distance(singular_flag(rep, power_word), fixed))
    assert dists[2] < dists[0]
    assert dists[2] < 1e-6


def test_word_str_roundtrippable():
    w = Word.of((1, -2, 1))
    assert str(w) == "a.b'.a"
    assert str(Word.of(())) == "e"
