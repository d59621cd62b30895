import numpy as np
import pytest
from scipy.linalg import expm

import pqcartan
from pqcartan import numerics
from pqcartan.flags import o_generic
from pqcartan.forms import Form
from pqcartan.freegroup import (
    DIAGONAL_CONJUGATOR,
    Representation,
    SchottkyRejection,
    build_reducible_example,
    build_schottky,
    reducible_rep,
    rotation_control_rep,
    sample_limit_set,
    single_orbit_rep,
    sl2_schottky_pair,
    two_orbit_rep,
)
from pqcartan.numerics import ScaledMatrix
from pqcartan.projections import eigen_flag
from pqcartan.bulk import index_letter, index_row, rows_of_ranks, sphere_size, word_names
from pqcartan.counting import anosov_gap_check

import oracle
from conftest import (flag_distance, inverse_word, row_letters, singular_flag, sphere_rows, sphere_words, word_image,
                      word_name, word_rank)


def test_sphere_counts():
    assert sum(1 for _ in sphere_words(2, 1)) == 4
    assert sum(1 for _ in sphere_words(2, 3)) == 36
    for length in range(5):
        assert sum(1 for _ in sphere_words(2, length)) == sphere_size(2, length)


def test_sphere_order_deterministic_and_ranked():
    words = list(sphere_words(2, 3))
    assert words == list(sphere_words(2, 3))
    for i, w in enumerate(words):
        assert word_rank(w, 2) == i


def enumerate_sphere(k, length):
    """Reduced words of one length, by depth-first extension in alphabet order.

    An independent reference for the canonical order ``sphere_rows`` builds.
    """
    alphabet = [index_letter(i) for i in range(2 * k)]

    def rec(stack):
        if len(stack) == length:
            yield tuple(stack)
            return
        for l in alphabet:
            if not stack or l != -stack[-1]:
                yield from rec(stack + [l])

    yield from rec([])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sphere_rows_follow_enumerate_sphere(k):
    # the letter-by-letter reference, the library's unranking of every rank and its printed names
    for length in range(1, 6):
        rows = sphere_rows(k, length)
        words = list(enumerate_sphere(k, length))
        assert rows.shape == (len(words), length)
        assert [row_letters(r) for r in rows.tolist()] == words
        assert rows_of_ranks(np.arange(len(words)), k, length).tobytes() == rows.tobytes()
        assert word_names(rows) == [word_name(w) for w in words]


@pytest.mark.parametrize("length", [0, -1])
def test_sphere_rows_refuses_length_below_one(length):
    # the identity has no index row; length 0 once returned the one-letter rows
    with pytest.raises(ValueError, match="length >= 1"):
        sphere_rows(2, length)
    with pytest.raises(ValueError, match="length >= 1"):
        rows_of_ranks([0], 2, length)


def test_enumerate_matches_high_precision():
    # the dense product of the letters' images and the engine's level-1 matrix
    # with the letters' log-scales added back (what the CLI's ``enumerate``
    # writes) against the exact product, on 100 evenly spaced L=12 words
    rep = reducible_rep(power=4)
    rows = sphere_rows(2, 12)[: 100 * 7000 : 7000]
    shell = rep.bulk_context().shell(rows)
    engine_scales = shell.scales[0] + rep.image_scales[rows].sum(axis=1)
    count = 0
    for row, level, level_scale in zip(rows.tolist(), shell.comps[0], engine_scales):
        w = row_letters(row)
        assert word_rank(w, 2) == 7000 * count
        count += 1
        unit, log_norm = oracle.unit_and_log_norm(oracle.row_product(rep, row))
        mat = word_image(rep, w)
        for entries, log_scale in ((mat.entries, mat.log_scale), (level, level_scale)):
            sign = np.sign(np.vdot(unit, entries))
            assert np.max(np.abs(sign * entries - unit)) < 1e-8
            assert abs(log_scale - log_norm) < 1e-8 * max(1.0, abs(log_norm))
    assert count == 100


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
    for w in sphere_words(2, 6):
        if word_rank(w, 2) % 31 != 0:
            continue
        prod = (word_image(rep, w) @ word_image(rep, inverse_word(w))).true_matrix()
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
    with pytest.raises(SchottkyRejection) as rej:
        build_schottky([g1, g2], Form.standard(2, 1), power=4)
    assert any("share fixed data" in r or "contraction" in r for r in rej.value.reasons)
    assert str(rej.value) == "; ".join(rej.value.reasons)


def test_build_schottky_rejects_non_loxodromic():
    th = np.pi / 5
    rot = ScaledMatrix.of(
        np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    )
    with pytest.raises(SchottkyRejection) as rej:
        build_schottky([rot], Form.standard(2, 1), power=1)
    assert not isinstance(rej.value, ValueError)
    assert "not loxodromic" in rej.value.reasons[0]


def test_diagonal_conjugator_is_scipys_exponential_and_an_isometry():
    boost, rotation = np.array([[0, 0, 1.0], [0, 0, 0], [1, 0, 0]]), np.array([[0, -1.0, 0], [1, 0, 0], [0, 0, 0]])
    want = expm(0.8 * boost + 1.1 * rotation)
    h = np.array(DIAGONAL_CONJUGATOR)
    assert np.all(np.abs(h - want) <= 2 * np.spacing(np.abs(want)))
    j = np.diag([1.0, 1.0, -1.0])
    assert np.abs(h.T @ j @ h - j).max() <= 1e-14


def test_two_orbit_recipe_certifies():
    rep = two_orbit_rep()
    assert isinstance(rep, Representation)
    sigs, bad = sample_limit_set(rep, 6, 80)
    assert not bad
    assert set(sigs) == {(1, 1, -1), (-1, 1, 1)}


def test_reducible_example_properties():
    rep = reducible_rep(power=4)
    assert isinstance(rep, Representation)
    assert rep.metadata["zariski_dense"] is False
    # singular values of a block image are (s, 1, 1/s): both root gaps equal
    sv = np.sort(np.linalg.svd(rep.images_std[0], compute_uv=False))[::-1]
    logs = np.log(sv)
    assert abs(logs[0] - logs[1] - (logs[1] - logs[2])) < 1e-9
    assert abs(logs[1] - logs.mean()) < 1e-9
    sigs, bad = sample_limit_set(rep, 6, 40)
    assert not bad
    assert set(sigs) == {(1, -1, 1)}


@pytest.mark.parametrize("recipe", [lambda: reducible_rep(power=4), lambda: reducible_rep(3, 2, power=6),
                                    two_orbit_rep], ids=["reducible_21", "reducible_32", "two_orbit"])
def test_limit_samples_are_strided_singular_flags(recipe):
    # candidates are the words of rank 0, stride, 2 stride, ...; non-generic
    # ones are reported, the rest are classified until count of them are
    # found, here by the signed Gram-Schmidt of an SVD-built singular flag
    rep = recipe()
    count = 40
    for length in (6, 10):
        sigs, bad = sample_limit_set(rep, length, count)
        stride = max(1, sphere_size(rep.rank, length) // count)
        want_sigs, want_bad = [], []
        for row in sphere_rows(rep.rank, length)[::stride].tolist():
            if len(want_sigs) == count:
                break
            w = row_letters(row)
            report = o_generic(rep.form, singular_flag(rep, w))
            if report.generic:
                want_sigs.append(report.signs)
            else:
                want_bad.append((word_name(w), f"non-generic sample at level {report.failed_level}"))
        assert sigs == want_sigs
        assert bad == want_bad


def test_limit_samples_with_degenerate_attractor_planes_are_reported():
    # g is symmetric with orthonormal eigenlines e_2 (top), (e_1 + e_3) / sqrt 2
    # and (e_1 - e_3) / sqrt 2, the last two isotropic for J = diag(1, 1, -1):
    # the attracting plane of g^4 and the attracting line of g^-4 degenerate
    v = np.array([[0, 1, 1], [1, 0, 0], [0, 1, -1]]) / np.array([1, 2**0.5, 2**0.5])
    g = v @ np.diag(np.exp([2.0, 0.0, -2.0])) @ v.T
    rep = Representation.of([ScaledMatrix.of(g)], Form.standard(2, 1))
    sigs, bad = sample_limit_set(rep, 4, 10)
    assert sigs == []
    assert bad == [("a.a.a.a", "non-generic sample at level 2"), ("a'.a'.a'.a'", "non-generic sample at level 1")]
    for w, (_, reason) in zip(((1,) * 4, (-1,) * 4), bad):
        report = o_generic(rep.form, singular_flag(rep, w))
        assert not report.generic and reason.endswith(f"level {report.failed_level}")


def test_limit_samples_without_singular_gap_are_reported():
    # a compact group has no singular gap: its attractor flags are arbitrary,
    # so every candidate is reported and none is classified
    rep = rotation_control_rep()
    sigs, bad = sample_limit_set(rep, 6, 40)
    assert sigs == []
    assert bad == [(word_name(w), "no singular gap") for w in list(sphere_words(2, 6))[::24]]
    assert len(bad) == 41


def test_reducible_rejects_trivial_sl2():
    with pytest.raises(ValueError):
        build_reducible_example(2, 1, [np.eye(2)], 1)


def test_reducible_parity_check():
    with pytest.raises(ValueError):
        build_reducible_example(2, 2, sl2_schottky_pair(), 1)


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
    w = (1, 2)
    fixed = eigen_flag(word_image(rep, w))
    dists = []
    for n in (1, 2, 4):
        power_word = w * n
        dists.append(flag_distance(singular_flag(rep, power_word), fixed))
    assert dists[2] < dists[0]
    assert dists[2] < 1e-6


def test_word_str_roundtrippable():
    assert word_names(index_row((1, -2, 1))[None]) == ["a.b'.a"]


@pytest.mark.parametrize("build", [lambda: reducible_rep(power=4), lambda: reducible_rep(p=3, q=2, power=6),
                                   two_orbit_rep, single_orbit_rep],
                         ids=["reducible-21", "reducible-32", "two-orbit", "single-orbit"])
def test_certification_decomposes_each_generator_once(build, monkeypatch):
    # the generator's eigenflag serves the loxodromy verdict, the ping-pong
    # separations and the per-level contraction check alike
    calls = []

    def spy(g):
        calls.append(g)
        return real(g)

    real = numerics.eigen
    for module in vars(pqcartan).values():
        if getattr(module, "eigen", None) is real:
            monkeypatch.setattr(module, "eigen", spy)
    assert isinstance(build(), Representation)
    assert len(calls) == 2
