import numpy as np
import pytest

from pqcartan import bulk
from pqcartan.counting import (
    BoxMassCollector,
    ComparisonCollector,
    CountCurve,
    DirectionsCollector,
    FunctionalHistCollector,
    canonical_chamber,
    class_periods,
    comparison_boundedness,
    cone_samples,
    conjugacy_class_indices,
    count_curve,
    default_phi,
    equidistribution_experiment,
    estimate_exponent,
    gromov_comparison,
    hausdorff,
    limit_signatures,
    phi_entropy,
    rescaled_variation,
    theorem_b_trend,
    _word_bracket,
)
from pqcartan.freegroup import Representation, reducible_rep, single_orbit_rep, two_orbit_rep

from conftest import sphere_rows, word_image


@pytest.fixture(scope="module")
def red():
    return reducible_rep(power=4)


@pytest.fixture(scope="module")
def two():
    return two_orbit_rep()


def test_estimate_exponent_synthetic():
    t = np.linspace(1.0, 10.0, 200)
    counts = np.ceil(np.exp(2.0 * t)).astype(np.int64)
    curve = CountCurve(t, counts, "synthetic")
    slope, stderr, _ = estimate_exponent(curve, (2.0, 10.0))
    assert abs(slope - 2.0) < 0.01


def test_estimate_exponent_constant():
    t = np.linspace(0.0, 5.0, 50)
    curve = CountCurve(t, np.full(50, 7, dtype=np.int64), "flat")
    slope, _, _ = estimate_exponent(curve, (0.0, 5.0))
    assert abs(slope) < 1e-12


def test_rescaled_variation_synthetic_flat():
    t = np.linspace(4.0, 9.0, 300)
    h = 1.7
    counts = np.round(50.0 * np.exp(h * t)).astype(np.int64)
    curve = CountCurve(t, counts, "synthetic")
    assert rescaled_variation(curve, h, (5.0, 9.0)) < 1e-3


def test_count_curve_length_zero(red):
    grid = np.linspace(0.0, 3.0, 7)
    curve = count_curve(red, "norm_bo", 0, grid)
    assert np.all(curve.counts == 1)


def test_count_curves_monotone_and_exact(red):
    grid = np.linspace(0.0, 60.0, 40)
    curve = count_curve(red, "norm_at", 4, grid)
    assert np.all(np.diff(curve.counts) >= 0)
    assert curve.counts[-1] == 1 + 4 + 12 + 36 + 108
    assert not curve.excluded


def test_min_root_gap_curve_matches_gap_check(red):
    from pqcartan.bulk import ball_size
    from pqcartan.counting import anosov_gap_check

    grid = np.linspace(0.0, 1e3, 9)
    curve = count_curve(red, "min_root_gap", 6, grid, threads=2)
    _, _, minima = anosov_gap_check(red, 6)
    assert curve.shell_minima == minima
    assert curve.counts[-1] == ball_size(red.rank, 6)
    assert not curve.excluded


def test_norm_bo_curve_invariant_under_isometry_conjugation(red, rng):
    from pqcartan.forms import sample_isometry
    from pqcartan.freegroup import Representation
    from pqcartan.numerics import ScaledMatrix

    grid = np.linspace(0.0, 60.0, 50)
    base = count_curve(red, "norm_bo", 4, grid)
    h = sample_isometry(red.form, rng, scale=0.4)
    hm, hi = h.entries, np.linalg.inv(h.entries)
    gens = [ScaledMatrix.of(hm @ red.images_std[2 * i] @ hi) for i in range(red.rank)]
    conj = Representation.of(gens, red.form)
    moved = count_curve(conj, "norm_bo", 4, grid)
    assert np.array_equal(base.counts, moved.counts)


@pytest.mark.parametrize("k,length_max", [(2, 9), (3, 6)])
def test_conjugacy_class_indices_match_rotation_definition(k, length_max):
    # a class representative is a cyclically reduced row no larger, as a
    # tuple, than any of its rotations; rows come in canonical order
    for length in range(1, length_max + 1):
        want = [row for row in map(tuple, sphere_rows(k, length).tolist())
                if row[0] != row[-1] ^ 1 and all(row <= row[r:] + row[:r] for r in range(1, length))]
        got = np.concatenate(list(conjugacy_class_indices(k, length)))
        assert got.dtype == np.int8
        assert [tuple(r) for r in got.tolist()] == want


def test_equidistribution_reads_no_ball_past_its_length(red, monkeypatch):
    # the phi_bo probe that sizes the grid reads the ball of min(4, length), as theorem_b_trend's does
    lengths = []
    run_bulk = bulk.run_bulk

    def spy(ctx, length_max, specs, threads=1):
        lengths.append(length_max)
        return run_bulk(ctx, length_max, specs, threads=threads)

    monkeypatch.setattr(bulk, "run_bulk", spy)
    equidistribution_experiment(red, default_phi(red), 3, [((1,), (2,)), ((-1,), (2,))])
    assert lengths == [3, 3]


def test_phi_entropy_scaling(red):
    phi = default_phi(red)
    h1, _, _ = phi_entropy(red, phi, 8, canonical_chamber(red))
    h2, _, _ = phi_entropy(red, 2.0 * phi, 8, canonical_chamber(red))
    assert abs(h2 - h1 / 2.0) < 0.05 * h1


def test_phi_entropy_positive_finite(red):
    h, curve, details = phi_entropy(red, default_phi(red), 8, canonical_chamber(red))
    assert 0 < h < np.inf
    assert np.all(np.diff(curve.counts) >= 0)


def test_phi_entropy_rejects_bad_functional(red):
    bad = -default_phi(red)
    with pytest.raises(ValueError):
        phi_entropy(red, bad, 6, canonical_chamber(red))


def test_class_reads_refuse_representatives_outside_the_jordan_mask():
    # rotation-control has no real dominant eigenvalue on any class: its
    # values would reach phi_entropy as "functional non-positive"
    from pqcartan.freegroup import rotation_control_rep
    from pqcartan.numerics import NumericsError
    from pqcartan.weyl import ChamberA

    rep = rotation_control_rep()
    with pytest.raises(NumericsError, match="4 of 4 length-1 class representatives"):
        class_periods(rep, np.array([1.0, 0.0, -1.0]), ChamberA((0, 1, 2)), 5)
    with pytest.raises(NumericsError, match="Jordan mask"):
        default_phi(rep, ChamberA((0, 1, 2)))


def test_phi_periods_match_sl2_translation_lengths(red):
    # phi = half the top-minus-bottom functional in the canonical chamber
    # equals half the block translation length, class by class; the entropy
    # estimates computed from the same words therefore coincide
    from pqcartan.counting import class_periods
    from pqcartan.freegroup import sl2_schottky_pair

    chamber = canonical_chamber(red)
    phi = np.zeros(3)
    phi[chamber.order[0]] = 0.5
    phi[chamber.order[2]] = -0.5
    vals, _ = class_periods(red, phi, chamber, 6)
    power = red.certificate["power"]
    a2, b2 = [np.linalg.matrix_power(m, power) for m in sl2_schottky_pair()]
    images = {1: a2, -1: np.linalg.inv(a2), 2: b2, -2: np.linalg.inv(b2)}
    refs = []
    for rows_len in range(1, 7):
        for row in np.concatenate(list(conjugacy_class_indices(2, rows_len))):
            m = np.eye(2)
            for idx in row:
                letter = (int(idx) // 2 + 1) * (1 if idx % 2 == 0 else -1)
                m = m @ images[letter]
            tr = abs(np.trace(m)) / 2
            refs.append(np.arccosh(max(tr, 1.0)))  # half translation length = log top eigenvalue
    assert len(refs) == len(vals)
    assert np.max(np.abs(np.sort(vals) - np.sort(refs))) < 1e-8
    h, _, _ = phi_entropy(red, phi, 8, chamber)
    assert 0 < h < np.inf


def test_limit_signatures_and_chamber(red, two):
    sig_red, _ = limit_signatures(red)
    assert sig_red == [(1, -1, 1)]
    # palindromic signature: the canonical chamber is its own opposition image
    assert canonical_chamber(red).order == (0, 2, 1)
    sig_two, _ = limit_signatures(two)
    assert set(sig_two) == {(1, 1, -1), (-1, 1, 1)}


def test_cone_single_orbit(red):
    result = cone_samples(red, 5, 7)
    assert len(result["weyl_set"]) == 1
    assert result["weyl_set"][0].perm == (0, 1, 2)
    assert result["hausdorff"] < 0.05


def test_cone_two_orbit(two):
    result = cone_samples(two, 5, 7)
    assert len(result["weyl_set"]) == 2
    assert result["hausdorff"] < 0.05


def test_comparison_boundedness_small(red):
    devs = comparison_boundedness(red, 6)
    assert set(devs) == {1, 2, 3, 4, 5, 6}
    assert max(devs.values()) < 3.0
    assert devs[6] <= 1.1 * max(devs[s] for s in (1, 2, 3, 4))


def test_gromov_comparison_decreases(red):
    # certified contraction drives the true deviation under the float64 eig
    # floor within a few shells, so monotonicity is compared at measurement
    # resolution (1e-12, ten orders below the criterion scale)
    phi = default_phi(red)
    out = gromov_comparison(red, phi, (1,), (2,), 8, length_min=4)
    devs = out["max_deviation"]
    assert devs[8] <= devs[4] + 1e-12
    assert devs[8] < 0.05


def test_gromov_comparison_requires_single_orbit(two):
    with pytest.raises(ValueError):
        gromov_comparison(two, np.array([1.0, 0, -1.0]), (1,), (2,), 6, 4)


def test_theorem_b_trend_shape(red):
    phi = default_phi(red)
    report = theorem_b_trend(red, phi, 8, class_length=8)
    assert report["h_classes"] > 0
    assert report["ratio_variation"] >= 0
    assert "unchecked" in report["zariski_density"]


def test_equidistribution_boxes(red):
    phi = default_phi(red)
    boxes = [((1,), (2,)), ((1,), (-2,)), ((-1,), (2,)), ((-1,), (-2,))]
    out = equidistribution_experiment(red, phi, 8, boxes)
    assert np.isfinite(out["product_defect"])
    assert out["product_defect"] < 0.5
    # a single all-covering box carries every class element
    total = equidistribution_experiment(red, phi, 6, [((), ())])
    curve = count_curve(red, "phi_lambda", 6, total["grid"], phi=phi,
                        chamber=canonical_chamber(red))
    assert np.array_equal(
        np.round(total["masses"][0] * np.exp(total["entropy"] * total["grid"])).astype(int),
        curve.counts - 1,  # identity is not loxodromic-counted in boxes
    )


def test_equidistribution_diagonal_boxes_empty(red):
    phi = default_phi(red)
    out = equidistribution_experiment(red, phi, 7, [((1,), (1,)), ((1,), (2,))])
    # cyclic reduction cannot start and anti-start with the same letter
    assert np.all(out["masses"][0] == 0)
    assert np.any(out["masses"][1] > 0)


def test_equidistribution_empty_cylinder_has_no_bracket(red):
    # only two distinct non-empty cylinder words have fixed flags to pair
    out = equidistribution_experiment(red, default_phi(red), 4, [((), (1,)), ((-2,), ()), ((1,), (2,))])
    assert np.isnan(out["brackets"][:2]).all() and np.isfinite(out["brackets"][2])


def test_equidistribution_grid_with_diagonal_boxes_has_no_defect(red):
    # the 2x2 grid over letters 1 and 2 holds two equal-cylinder boxes, whose
    # NaN brackets leave no reweighted matrix to decompose
    boxes = [((a,), (b,)) for a in (1, 2) for b in (1, 2)]
    out = equidistribution_experiment(red, default_phi(red), 4, boxes)
    assert np.isnan(out["brackets"][[0, 3]]).all() and np.isfinite(out["brackets"][[1, 2]]).all()
    assert out["product_defect"] is None and out["product_defect_matrix"] is None


def test_hausdorff_basic():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert hausdorff(a, a) == 0.0
    b = np.array([[1.0, 0.0]])
    assert abs(hausdorff(a, b) - np.sqrt(2)) < 1e-12


def _unit_cloud(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("n,m,d", [(5003, 97, 3), (61, 7501, 5), (33, 31, 4), (32, 64, 2),
                                   (1, 40, 3), (40, 1, 3), (1, 1, 5)])
def test_hausdorff_matches_full_matrix(n, m, d):
    # sizes above HAUSDORFF_POINTS (thinned by the documented stride), not multiples
    # of HAUSDORFF_BLOCK, and one-point clouds, against every pairwise distance at once
    from pqcartan.counting import HAUSDORFF_POINTS

    rng = np.random.default_rng(n * 7919 + m)
    a, b = _unit_cloud(rng, n, d), _unit_cloud(rng, m, d)
    ta, tb = a[:: max(1, n // HAUSDORFF_POINTS)], b[:: max(1, m // HAUSDORFF_POINTS)]
    d2 = sum((ta[:, None, k] - tb[None, :, k]) ** 2 for k in range(d))
    want = np.sqrt(max(d2.min(1).max(), d2.min(0).max()))
    assert hausdorff(a, b) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n,d", [(2531, 5), (4999, 3), (5003, 3), (33, 4), (7, 2)])
def test_hausdorff_of_a_cloud_against_its_own_points_is_clamped_at_zero(n, d):
    # sizes above HAUSDORFF_POINTS and off HAUSDORFF_BLOCK; below 2 * HAUSDORFF_POINTS no
    # row is thinned, so a row-permuted copy holds the same points.  a.a rounds to either
    # side of 1, so 2 - 2 max a.b is a few ulps of either sign before the clamp; rows
    # nudged so that every a.a rounds above 1 leave it negative on every row.
    from pqcartan.counting import HAUSDORFF_POINTS

    rng = np.random.default_rng(n)
    a = _unit_cloud(rng, n, d)
    nudged = a * (1 + 2.0**-50)
    assert (np.einsum("ij,ij->i", nudged, nudged) > 1).all()
    perm = rng.permutation(n) if n < 2 * HAUSDORFF_POINTS else np.arange(n)
    for cloud, bound in ((a, 1e-7), (nudged, 0.0)):
        for other in (cloud, cloud[perm]):
            assert 0.0 <= hausdorff(cloud, other) <= bound


@pytest.mark.parametrize("n,m", [(0, 5), (5, 0), (0, 0)])
def test_hausdorff_of_an_empty_cloud_is_nan(n, m):
    rng = np.random.default_rng(5)
    assert np.isnan(hausdorff(_unit_cloud(rng, n, 3), _unit_cloud(rng, m, 3)))


def test_hausdorff_memory_stays_within_three_blocks():
    # the loop over 32-row blocks reuses one block buffer: no block-sized temporaries beyond it
    import tracemalloc

    from pqcartan.counting import HAUSDORFF_POINTS

    rng = np.random.default_rng(11)
    n = 2528
    a, b = _unit_cloud(rng, n, 5), _unit_cloud(rng, n, 5)
    thinned = a[:: max(1, n // HAUSDORFF_POINTS)].nbytes + b[:: max(1, n // HAUSDORFF_POINTS)].nbytes
    tracemalloc.start()
    try:
        hausdorff(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 32 * n * 8 + thinned


def test_gromov_bracket_exact_on_axis(red):
    # a high power of one generator: the slot projection, the Jordan
    # projection and the bracket at the fixed pair close exactly
    from pqcartan.cocycles import gromov_product
    from pqcartan.pq_cartan import pq_project

    chamber = canonical_chamber(red)
    phi = default_phi(red)
    # one letter is already the 4th power of a base generator; longer axis
    # words exceed the dense eigendecomposition's float64 range
    g = word_image(red, (2,))
    r = pq_project(red.form, g)
    from pqcartan.projections import eigen_flag, jordan

    lam_framed = chamber.place(jordan(g).coords)
    plus = eigen_flag(g)
    minus = eigen_flag(word_image(red, (-2,)))
    bracket = chamber.place(gromov_product(red.form, minus, plus).coords)
    dev = abs(r.b_o.coords @ phi - lam_framed @ phi + bracket @ phi)
    # tolerance set by the dense eigen path at this spectral spread
    assert dev < 1e-7


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4), single_orbit_rep, two_orbit_rep,
                                      lambda: reducible_rep(p=3, q=2, power=6)],
                         ids=["reducible-21", "single-orbit", "two-orbit", "reducible-32"])
def test_word_bracket_matches_dense_gromov_product(make_rep):
    # the engine's per-level Jordan vectors of two letters pair to the Gromov
    # product of the letters' dense eigenflags (worst case 1.6e-10)
    from pqcartan.cocycles import gromov_product
    from pqcartan.projections import eigen_flag

    rep = make_rep()
    ctx = rep.bulk_context()
    letters = [bulk.index_letter(i) for i in range(ctx.alphabet_size)]
    for a in letters:
        for b in letters:
            if a == b:
                continue
            tops = [ctx.shell(bulk.index_row((x,))[None]).jordan_vectors() for x in (a, b)]
            want = gromov_product(rep.form, eigen_flag(word_image(rep, (a,))), eigen_flag(word_image(rep, (b,))))
            assert np.abs(_word_bracket(ctx, *tops)[0] - want.coords).max() < 1e-9


def test_equidistribution_mass_ratio_stabilizes(red):
    phi = default_phi(red)
    boxes = [((1,), (2,)), ((1,), (-2,))]
    out = equidistribution_experiment(red, phi, 9, boxes)
    grid, masses = out["grid"], out["masses"]
    usable = (masses[0] > 0) & (masses[1] > 0)
    idx = np.where(usable)[0]
    top = idx[idx >= int(0.6 * len(grid))]
    ratios = masses[0][top] / masses[1][top]
    assert ratios.max() / ratios.min() - 1.0 < 0.35


def _collector_outputs(rep, length_max):
    """Bytes of every collector's outputs over the ball, at the current slice size."""
    d = rep.dim
    phi = np.arange(d, 0, -1, dtype=float) - (d + 1) / 2
    grid = np.linspace(0.0, 4.0 * length_max, 97)
    kinds = ("norm_at", "norm_bo", "phi_bo", "phi_lambda", "min_root_gap")
    specs = [(FunctionalHistCollector, {"kind": k, "grid": grid, "phi": phi, "chamber_order": tuple(range(d))})
             for k in kinds]
    specs += [(ComparisonCollector, {"length_max": length_max}),
              (DirectionsCollector, {"length_min": length_max - 2, "length_max": length_max}),
              (BoxMassCollector, {"grid": grid, "boxes_idx": [((0,), (2,)), ((1,), (3,)), ((), (0, 2))],
                                  "phi": phi, "chamber_order": tuple(range(d))})]
    *hists, comparison, directions, boxes = bulk.run_bulk(rep.bulk_context(), length_max, specs)
    out = [h.bins.tobytes() + repr((sorted(h.excluded.items()), sorted(h.shell_minima.items()))).encode()
           for h in hists]
    out.append(repr(comparison.shell_max_deviation(rep.form.signature[0])).encode())
    out += [c.tobytes() for c in directions.clouds()]
    out.append(boxes.bins.tobytes())
    return out


@pytest.mark.parametrize("make_rep,length_max,slice_bytes",
                         [(lambda: reducible_rep(power=4), 6, 1500),
                          (lambda: reducible_rep(p=3, q=2, power=6), 5, 30000)],
                         ids=["d3", "d5"])
def test_collectors_do_not_depend_on_the_slice_size(monkeypatch, make_rep, length_max, slice_bytes):
    # small slices interleave a subtree's shells, so DirectionsCollector must
    # file its parts by shell to keep the clouds' order
    rep = make_rep()
    want = _collector_outputs(rep, length_max)
    monkeypatch.setattr(bulk, "SLICE_BYTES", slice_bytes)
    assert bulk.slice_words(rep.dim) < bulk.sphere_size(rep.rank, length_max) // (2 * rep.rank)
    got = _collector_outputs(rep, length_max)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_sphere_wide_readers_do_not_depend_on_the_slice_size(monkeypatch, red):
    # class values, the default functional, cylinder deviations and limit samples are read one rank
    # range and one batch at a time; 7-word slices split every length past 3 into many reads
    from pqcartan.freegroup import sample_limit_set
    from pqcartan.weyl import ChamberA

    so = single_orbit_rep()

    def outputs():
        vals, minima = class_periods(red, np.array([1.0, 0.0, -1.0]), ChamberA((0, 1, 2)), 8)
        phi = default_phi(so)
        gromov = gromov_comparison(so, phi, (1,), (2,), 8, 2)
        return [vals.tobytes(), repr(sorted(minima.items())), phi.tobytes(),
                repr(sorted(gromov["max_deviation"].items())), repr(sorted(gromov["counts"].items())),
                repr(sample_limit_set(red, 8, 40))]

    want = outputs()
    monkeypatch.setattr(bulk, "SLICE_BYTES", 7 * 544)
    assert bulk.slice_words(3) == 7
    assert outputs() == want
