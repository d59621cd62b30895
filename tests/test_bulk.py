import numpy as np
import pytest

from pqcartan import bulk
from pqcartan.bulk import ShellData, ball_size, run_bulk, sphere_size
from pqcartan.freegroup import reducible_rep, single_orbit_rep, two_orbit_rep
from pqcartan.pq_cartan import pq_project
from pqcartan.projections import cartan, jordan
from pqcartan.weyl import merge_to_slots

import oracle
from conftest import singular_flag, sphere_words, word_rank


def test_sizes():
    assert sphere_size(2, 0) == 1
    assert sphere_size(2, 3) == 36
    assert ball_size(2, 3) == 1 + 4 + 12 + 36


def test_ranks_and_inverses():
    words = list(sphere_words(2, 4))
    for i, w in enumerate(words):
        assert word_rank(w.letters, 2) == i
        inv_rank = word_rank(w.inverse().letters, 2)
        assert words[inv_rank] == w.inverse()


def moderate_reps():
    """Uncertified, moderate-spread versions: dense reference stays accurate."""
    from pqcartan.forms import Form
    from pqcartan.freegroup import Representation, sl2_irreducible, sl2_schottky_pair
    from pqcartan.numerics import ScaledMatrix

    gens = []
    for a in sl2_schottky_pair():
        block = np.zeros((3, 3))
        block[:2, :2] = sl2_irreducible(a, 2)
        block[2, 2] = 1.0
        gens.append(ScaledMatrix.of(block))
    red = Representation.of(gens, Form.standard(2, 1))
    two = two_orbit_rep(power=1)
    if not isinstance(two, Representation):
        two = Representation.of(
            [ScaledMatrix.of(np.diag(np.exp([1.3, 0.0, -1.3])))], Form.standard(2, 1)
        )
    return [red, two]


@pytest.mark.parametrize("idx", [0, 1])
def test_bulk_matches_wordwise(idx):
    rep = moderate_reps()[idx]
    length = 4
    ctx = rep.bulk_context()
    shells = {l: ctx.shell(bulk.sphere_rows(rep.rank, l)) for l in range(1, length + 1)}
    o = rep.form
    for w in (w for l in range(1, length + 1) for w in sphere_words(rep.rank, l)):
        mat = rep.image(w)
        shell = shells[w.length]
        bo, signs, _ = shell.bo_data()
        i = word_rank(w.letters, rep.rank)
        assert shell.ranks()[i] == i
        at_ref = cartan(mat).coords
        assert np.max(np.abs(shell.cartan_coords()[i] - at_ref)) < 1e-6
        lam_ref = jordan(mat).coords
        assert np.max(np.abs(shell.jordan_coords()[0][i] - lam_ref)) < 1e-6
        r = pq_project(o, mat)
        assert shell.bo_valid_mask()[i]
        assert np.max(np.abs(bo[i] - r.b_o.coords)) < 1e-6
        # both callers of the one slot map file the same signs to the same slots
        assert signs[i].tolist() == list(r.eigen_signs)
        assert merge_to_slots(signs[i]).tolist() == list(r.w_g.perm)


def test_bulk_long_words_match_high_precision():
    # six evenly spaced words of the L=10 sphere: Cartan, slot and Jordan projections
    rep = reducible_rep(power=4)
    rows = bulk.sphere_rows(rep.rank, 10)
    rows = rows[:: len(rows) // 5]
    shell = rep.bulk_context().shell(rows)
    bo = shell.bo_data()[0]
    lam = shell.jordan_coords()[0]
    for row, at_i, bo_i, lam_i in zip(rows, shell.cartan_coords(), bo, lam):
        exact = oracle.row_product(rep, row)
        assert np.max(np.abs(at_i - oracle.cartan(exact))) < 1e-8
        assert np.max(np.abs(bo_i - oracle.slot_projection(exact, rep.form.signature)[0])) < 1e-8
        assert np.max(np.abs(lam_i - oracle.jordan(exact))) < 1e-8


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4), two_orbit_rep],
                         ids=["reducible_21", "two_orbit"])
def test_bulk_cartan_matches_high_precision_at_length_10(make_rep):
    # the tracked-attractor Cartan reading at L=10 against exact log singular
    # values; M^T M spans about e^190 here, beyond what dps 80 resolves
    rep = make_rep()
    rows = bulk.sphere_rows(rep.rank, 10)[::7874]
    shell = rep.bulk_context().shell(rows)
    coords = shell.cartan_coords()
    assert len(rows) == 10 and np.isfinite(coords).all() and shell.membership_mask().all()
    for row, got in zip(rows, coords):
        assert np.max(np.abs(got - oracle.cartan(oracle.row_product(rep, row)))) < 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5(c): each letter's log-determinant is read by slogdet off "
                                       "its unit-norm float64 power, off by up to 6.7e-5 on this representation")
def test_bulk_cartan_of_d5_words_matches_high_precision():
    # 20 evenly spaced words of the L=5 sphere of reducible-32 power 6
    rep = reducible_rep(p=3, q=2, power=6)
    rows = bulk.sphere_rows(rep.rank, 5)
    rows = rows[np.linspace(0, len(rows) - 1, 20).round().astype(int)]
    worst = max(float(np.max(np.abs(got - oracle.cartan(oracle.row_product(rep, row)))))
                for row, got in zip(rows, rep.bulk_context().shell(rows).cartan_coords()))
    assert worst < 1e-8


def test_bulk_jordan_matches_high_precision_on_hard_words():
    # words whose level matrices are far from normal: the stepwise kernel
    # stays within 4e-9 of the exact Jordan projection, squaring M would not
    rep = reducible_rep(power=4)
    words = [[0, 0, 0, 2, 0, 0, 3, 1, 1, 1], [0, 0, 0, 2, 0, 3, 3, 1, 1, 1],
             [2, 0, 0, 0, 0, 0, 0, 0, 3, 3]]
    lam, ok = rep.bulk_context().shell(words).jordan_coords()
    assert ok.all()
    for row, got in zip(words, lam):
        assert np.max(np.abs(got - oracle.jordan(oracle.row_product(rep, row)))) < 1e-8


def _evenly_spaced_valid_jordan(rep, rows):
    """(rows, Jordan coordinates) of 40 evenly spaced Jordan-valid rows."""
    lam, ok = rep.bulk_context().shell(rows).jordan_coords()
    picked = np.flatnonzero(ok)
    picked = picked[np.linspace(0, len(picked) - 1, 40).round().astype(int)]
    return rows[picked], lam[picked]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the level matrix of w = u c u^-1 stored in float64 "
                                       "loses the Jordan projection of c, and the residual mask does not catch it")
def test_jordan_of_non_cyclically_reduced_words_matches_high_precision():
    # 40 evenly spaced Jordan-valid words of the L=10 sphere whose first
    # letter is the inverse of their last, against the exact eigenvalue moduli
    rep = reducible_rep(power=4)
    rows = bulk.sphere_rows(rep.rank, 10)
    rows, lam = _evenly_spaced_valid_jordan(rep, rows[rows[:, 0] == (rows[:, -1] ^ 1)])
    worst = max(float(np.max(np.abs(got - oracle.jordan(oracle.row_product(rep, row)))))
                for row, got in zip(rows, lam))
    assert worst < 1e-8


def _stepwise_rows(rows):
    """Rows whose Jordan data the stepwise kernel reads: not cyclically reduced, or at most SEED_LENGTH letters."""
    return ~bulk.cyclically_reduced(rows) | (rows.shape[1] <= bulk.SEED_LENGTH)


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4), two_orbit_rep],
                         ids=["reducible_21", "two_orbit"])
def test_jordan_of_cyclically_reduced_words_matches_high_precision(make_rep):
    # the one-step reading from the tracked attractor on 40 evenly spaced
    # Jordan-valid cyclically reduced words of the L=10 sphere
    rep = make_rep()
    rows = bulk.sphere_rows(rep.rank, 10)
    rows, lam = _evenly_spaced_valid_jordan(rep, rows[bulk.cyclically_reduced(rows)])
    for row, got in zip(rows, lam):
        assert np.max(np.abs(got - oracle.jordan(oracle.row_product(rep, row)))) < 1e-8


@pytest.mark.parametrize("make_rep,length", [(lambda: reducible_rep(power=4), 8), (two_orbit_rep, 7),
                                             (single_orbit_rep, 7), (lambda: reducible_rep(p=3, q=2, power=6), 5)],
                         ids=["reducible_21", "two_orbit", "single_orbit", "reducible_32"])
def test_jordan_one_step_matches_stepwise_kernel(make_rep, length):
    # every cyclically reduced word: the one-step eigenvalue against the
    # 64-step kernel on the same levels, and the same validity mask
    rep = make_rep()
    rows = bulk.sphere_rows(rep.rank, length)
    shell = rep.bulk_context().shell(rows[bulk.cyclically_reduced(rows)])
    ok = np.ones(shell.count, dtype=bool)
    for m, (_, mu, resid) in zip(shell.comps, shell._jordan_tops()):
        _, want_mu, want_resid = bulk._top_eig_power(m)
        valid = want_resid < bulk.RESIDUAL_TOL
        np.testing.assert_array_equal(resid < bulk.RESIDUAL_TOL, valid)
        assert np.max(np.abs(np.log(np.abs(mu[valid])) - np.log(np.abs(want_mu[valid])))) < 1e-12
        ok &= valid
    np.testing.assert_array_equal(shell.jordan_coords()[1], ok)


def test_jordan_stepwise_rows_are_bit_identical():
    # words that are not cyclically reduced, and words of at most
    # SEED_LENGTH letters, keep the stepwise kernel's values exactly
    rep = reducible_rep(power=4)
    for length in range(1, 7):
        rows = bulk.sphere_rows(rep.rank, length)
        shell = rep.bulk_context().shell(rows)
        stepwise = _stepwise_rows(rows)
        assert stepwise.any()
        for m, got in zip(shell.comps, shell._jordan_tops()):
            for a, b in zip(got, bulk._top_eig_power(m)):
                assert a[stepwise].tobytes() == b[stepwise].tobytes()


def test_jordan_stepwise_kernel_reached_only_by_fallback_rows(monkeypatch):
    # timing-free guard on the fast path: in a phi_lambda ball count, the
    # stepwise kernel sees, for Jordan data, exactly the level matrices of
    # the words that are not cyclically reduced or have at most SEED_LENGTH
    # letters
    import sys
    from collections import Counter

    from pqcartan.counting import FunctionalHistCollector

    seen = Counter()
    stepwise = bulk._top_eig_power

    def spy(mats):
        if sys._getframe(1).f_code.co_name == "_jordan_tops":
            seen.update(m.tobytes() for m in mats)
        return stepwise(mats)

    rep = reducible_rep(power=4)
    ctx = rep.bulk_context()
    monkeypatch.setattr(bulk, "_top_eig_power", spy)
    spec = {"kind": "phi_lambda", "grid": np.linspace(0.0, 10.0, 16), "phi": [1.0, 0.0, -1.0]}
    run_bulk(ctx, 8, [(FunctionalHistCollector, spec)])
    want = Counter()
    for length in range(1, 9):
        rows = bulk.sphere_rows(rep.rank, length)
        shell = ctx.shell(rows)
        for m in shell.comps:
            want.update(a.tobytes() for a in m[_stepwise_rows(rows)])
    assert sum(want.values()) > 0
    assert seen == want


def test_bulk_bo_matches_high_precision_on_least_definite_words():
    # the twisted square J M^T J M is not normal; these words attain the
    # smallest |x^T J x| of shell 10 of two_orbit_rep (on the reducible
    # examples it is 1 on every word), and the reading from the tracked
    # attractor still gives b_o within 2e-9 of the exact slot projection; the
    # twisted square's eigenvalues span about e^190 here, beyond what dps 80
    # resolves
    rep = two_orbit_rep()
    ctx = rep.bulk_context()
    words = [[2, 2, 0, 2, 2, 2, 2, 2, 2, 2], [3, 3, 3, 1, 2, 2, 2, 2, 2, 2],
             [3, 1, 2, 2, 0, 2, 2, 2, 2, 2]]
    shell = ctx.shell(words)
    # per word, the smallest |x^T J x| over the levels' unit top eigenvectors x
    # of the twisted square; its top eigenvalue has condition about 1 / |x^T J x|
    definite = np.full(shell.count, np.inf)
    for m, sg in zip(shell.comps, ctx.level_signs):
        vals, vecs = np.linalg.eig((sg[:, None] * np.swapaxes(m, 1, 2)) @ (sg[:, None] * m))
        x = np.real(vecs[np.arange(shell.count), :, np.argmax(np.abs(vals), axis=1)])
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        definite = np.minimum(definite, np.abs(np.einsum("ni,i,ni->n", x, sg, x)))
    assert (definite < 0.42).all()
    assert shell.bo_valid_mask().all()
    for row, bo in zip(words, shell.bo_data()[0]):
        want, _ = oracle.slot_projection(oracle.row_product(rep, row), rep.form.signature)
        assert np.max(np.abs(bo - want)) < 1e-8


def _gapped_stack(rng, m):
    """(q, vals): 50 gapped PSD spectra q diag(vals) q^T, top eigenvector q[:, :, 0]."""
    q, _ = np.linalg.qr(rng.standard_normal((50, m, m)))
    vals = np.sort(rng.uniform(0.01, 0.5, (50, m)), axis=1)[:, ::-1]
    vals[:, 0] = 1.0
    vals *= rng.uniform(1e-3, 1e3, (50, 1))
    return q, vals


@pytest.mark.parametrize("m", [3, 10])
def test_tracked_kernel_matches_eigh_on_gapped_psd(m):
    # one step from a tracked vector near the top eigenvector, as for a word
    # whose prefix already fixes its attractor
    rng = np.random.default_rng(7)
    q, vals = _gapped_stack(rng, m)
    mats = q * np.sqrt(vals)[:, None, :]
    u = q[:, :, 0] + 1e-8 * rng.standard_normal((50, m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    _, mu, resid, _ = bulk._top_pair(mats, 1.0, u)
    assert (resid < bulk.RESIDUAL_TOL).all()
    np.testing.assert_allclose(mu, np.linalg.eigh(mats @ np.swapaxes(mats, 1, 2))[0][:, -1], rtol=1e-12)
    np.testing.assert_allclose(mu, np.linalg.svd(mats, compute_uv=False)[:, 0] ** 2, rtol=1e-12)


def test_tracked_kernel_masks_opposite_sign_pair():
    # M J M^T J = M diag(2, -2, -1) M^-1 for J = diag(1, 1, -1): a +-2 pair
    sg = np.array([1.0, 1.0, -1.0])
    pair = np.array([[np.sqrt(2), 0, 0], [0, 0, 1], [0, np.sqrt(2), 0]])
    mats = np.stack([pair, np.diag([3.0, 1.0, 0.5])])
    _, _, resid, _ = bulk._top_pair(mats, sg, bulk._start_vectors(2, 3))
    assert resid[0] > bulk.RESIDUAL_TOL
    assert resid[1] < bulk.RESIDUAL_TOL


def test_tracked_kernel_fallback_rows_match_stepwise_kernel():
    # rows whose tracked vector is off are read at the stepwise kernel's
    # vector, on those rows only, and keep its value and mask
    rng = np.random.default_rng(5)
    q, vals = _gapped_stack(rng, 4)
    mats = q * np.sqrt(vals)[:, None, :]
    for sg in (1.0, np.array([1.0, 1.0, -1.0, 1.0])):
        u = q[:, :, 0].copy()
        far = np.arange(0, 50, 3)
        u[far] = bulk._start_vectors(far.size, 4)
        x, mu, resid, _ = bulk._top_pair(mats, sg, u)
        b, mu_u, resid_u, _ = bulk._read_at(mats, sg, u)
        redo = np.flatnonzero(~(resid_u < bulk.RESIDUAL_TOL))
        assert set(far) <= set(redo)
        mr = mats[redo]
        want_x, want_mu, want_resid = bulk._top_eig_power((mr * sg) @ (np.swapaxes(mr, 1, 2) * sg))
        np.testing.assert_array_equal(x[redo], want_x)
        ok = want_resid < bulk.RESIDUAL_TOL
        np.testing.assert_array_equal(resid[redo] < bulk.RESIDUAL_TOL, ok)
        np.testing.assert_allclose(mu[redo][ok], want_mu[ok], rtol=1e-12)
        kept = np.setdiff1d(np.arange(50), redo)
        np.testing.assert_array_equal(x[kept], b[kept])
        np.testing.assert_array_equal(mu[kept], mu_u[kept])


@pytest.mark.parametrize("make_rep", [two_orbit_rep, lambda: reducible_rep(p=3, q=2, power=6)],
                         ids=["two_orbit", "reducible_32"])
def test_bulk_attractor_signs_match_flags(make_rep):
    from pqcartan.flags import o_generic

    rep = make_rep()
    signs = rep.bulk_context().shell(bulk.sphere_rows(2, 3)).attractor_signs()
    for w in sphere_words(2, 3):
        i = word_rank(w.letters, 2)
        sig = o_generic(rep.form, singular_flag(rep, w)).signature.signs
        assert tuple(int(s) for s in signs[i]) == sig


class Pieces:
    """Test collector: every piece the walk feeds it, in arrival order."""

    def __init__(self):
        self.parts = []

    def update(self, shell: ShellData):
        self.parts.append(shell)

    def merge(self, other):
        self.parts.extend(other.parts)


def _accessor_arrays(shell):
    """Levels, scales, log-dets and every public ShellData accessor's arrays, in a fixed order."""
    arrays = [*shell.comps, *shell.scales, shell.logdets]
    for name in ("ranks", "inverse_ranks", "cartan_prefixes", "cartan_coords", "attractor_forms",
                 "attractor_signs", "min_root_gap", "membership_mask", "bo_data", "bo_valid_mask",
                 "jordan_vectors", "jordan_coords"):
        a = getattr(shell, name)()
        arrays += list(a) if isinstance(a, (tuple, list)) else [a]
    return arrays


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4),
                                      lambda: reducible_rep(p=3, q=2, power=6)],
                         ids=["d3", "d5"])
def test_rows_entry_point_matches_run_bulk(make_rep):
    # every public ShellData accessor, byte for byte, so tests that read
    # chosen words through ctx.shell cover what run_bulk yields for them
    rep = make_rep()
    ctx = rep.bulk_context()
    [col] = run_bulk(ctx, 4, [(Pieces, {})])
    parts = [part for part in col.parts if part.length == 4]
    assert sum(part.count for part in parts) == sphere_size(rep.rank, 4)
    for part in parts:
        mine = ctx.shell(part.idx_rows)
        assert mine.length == 4
        assert (mine.idx_rows == part.idx_rows).all()
        for a, b in zip(_accessor_arrays(mine), _accessor_arrays(part), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make_rep,length", [(lambda: reducible_rep(power=4), 6),
                                             (lambda: reducible_rep(p=3, q=2, power=6), 5)],
                         ids=["d3", "d5"])
def test_rows_entry_point_reads_shuffled_duplicate_rows_as_single_rows(make_rep, length):
    # shell() extends each distinct prefix once and gathers the rows back, so a
    # row's bytes do not depend on which rows share the call, nor on their order
    rep = make_rep()
    ctx = rep.bulk_context()
    sphere = bulk.sphere_rows(rep.rank, length)
    pick = np.random.default_rng(19).integers(0, sphere.shape[0], size=40)
    rows = sphere[np.concatenate([pick, pick[:8], [pick[0]] * 3])]
    assert len(np.unique(rows, axis=0)) < rows.shape[0]
    together = _accessor_arrays(ctx.shell(rows))
    alone = [_accessor_arrays(ctx.shell(row[None])) for row in rows]
    for i, a in enumerate(together):
        b = np.concatenate([arrays[i] for arrays in alone])
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rows_entry_point_extends_each_distinct_prefix_once(monkeypatch):
    # the class representatives of length 11 (k = 2) share prefixes: one
    # extension per row and letter would be 128,864 row-extensions
    from pqcartan.counting import conjugacy_class_indices

    ctx = reducible_rep(power=4).bulk_context()
    rows = conjugacy_class_indices(2, 11)
    built = []
    extend = bulk._extend

    def spy(shell, letters):
        built.append(letters.size)
        return extend(shell, letters)

    monkeypatch.setattr(bulk, "_extend", spy)
    ctx.shell(rows)
    distinct = sum(len(np.unique(rows[:, :t], axis=0)) for t in range(bulk.SEED_LENGTH + 1, 12))
    assert sum(built) == distinct == 34_983


@pytest.mark.parametrize("rows", [[0, 2], np.zeros((3, 0), dtype=np.int8), np.zeros((1, 2, 2), dtype=np.int8)],
                         ids=["one-row-1d", "no-letters", "3d"])
def test_rows_entry_point_refuses_what_are_not_index_rows(rows):
    ctx = reducible_rep(power=4).bulk_context()
    with pytest.raises(ValueError, match="2-D index rows of at least one letter"):
        ctx.shell(rows)


def test_rows_entry_point_refuses_unreduced_words():
    # rows start from their reduced prefixes' shells, so a cancelling pair
    # would silently read another word's levels
    ctx = reducible_rep(power=4).bulk_context()
    with pytest.raises(ValueError):
        ctx.shell([[0, 2, 3, 1]])


@pytest.mark.parametrize("row", [[0, 4], [-2, 0]], ids=["past-alphabet", "negative"])
def test_rows_entry_point_refuses_indices_outside_the_alphabet(row):
    ctx = reducible_rep(power=4).bulk_context()
    with pytest.raises(ValueError, match="alphabet indices"):
        ctx.shell([row])


def test_thread_partitions_identical():
    ctx = reducible_rep(power=4).bulk_context()
    seq, par = ([(part.idx_rows.tobytes(), part.bo_data()[0].tobytes()) for part in col.parts]
                for [col] in (run_bulk(ctx, 4, [(Pieces, {})], threads=threads) for threads in (1, 4)))
    assert par == seq


def test_chunking_does_not_change_results(monkeypatch):
    rep = reducible_rep(power=4)
    ctx = rep.bulk_context()
    monkeypatch.setattr(bulk, "SLICE_BYTES", 1500)
    assert bulk.slice_words(3) == 7
    [a] = run_bulk(ctx, 4, [(Pieces, {})])
    monkeypatch.undo()
    [b] = run_bulk(ctx, 4, [(Pieces, {})])
    bo_a = np.concatenate([part.bo_data()[0] for part in a.parts if part.length == 4])
    bo_b = np.concatenate([part.bo_data()[0] for part in b.parts if part.length == 4])
    assert bo_a.tobytes() == bo_b.tobytes()


@pytest.mark.parametrize("make_rep,slice_bytes", [(lambda: reducible_rep(power=4), 1500),
                                                  (lambda: reducible_rep(p=3, q=2, power=6), 30000)],
                         ids=["d3", "d5"])
def test_no_piece_holds_more_than_one_slice(monkeypatch, make_rep, slice_bytes):
    rep = make_rep()
    ctx = rep.bulk_context()
    monkeypatch.setattr(bulk, "SLICE_BYTES", slice_bytes)
    words = bulk.slice_words(ctx.d)
    assert 3 <= words < 27
    [col] = run_bulk(ctx, 6, [(Pieces, {})])
    pieces = [(int(part.idx_rows[0, 0]), part.length, part.count) for part in col.parts]
    assert max(n for _, _, n in pieces) <= words
    for length in range(1, 7):
        assert sum(n for _, l, n in pieces if l == length) == sphere_size(rep.rank, length)
    # depth first: a subtree's shells arrive interleaved, not shell after shell
    lengths = [l for f, l, _ in pieces if f == 0]
    assert lengths != sorted(lengths)


def test_default_slice_keeps_benchmark_shells_whole():
    # one subtree's shell L - 1 is a single parent slice: ball_d3 (d = 3, L = 10)
    # and shells_d5 (d = 5, L = 8) see the same pieces as shell-by-shell reading
    assert bulk.slice_words(3) >= 3 ** 9
    assert bulk.slice_words(5) >= 3 ** 7


def _stepwise_walk(ctx, first, length_max):
    """The walk with every child shell built by ``_children``, seed shells included."""
    table = bulk.successor_table(ctx.alphabet_size)
    step = max(1, bulk.slice_words(ctx.d) // table.shape[1])

    def below(shell):
        yield shell
        if shell.length < length_max:
            for lo in range(0, shell.count, step):
                yield from below(bulk._children(shell.piece(slice(lo, lo + step)), table))

    return below(ctx.shell([[first]]))


@pytest.mark.parametrize("words", [None, 7], ids=["default-slice", "7-word-slice"])
@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4),
                                      lambda: reducible_rep(p=3, q=2, power=6)],
                         ids=["d3", "d5"])
def test_walk_reads_seed_shells_from_the_context(monkeypatch, make_rep, words):
    # the walk takes the children of words shorter than SEED_LENGTH from ctx.spheres,
    # so the product step never rebuilds a seed shell, and every piece keeps the
    # bytes of the walk that builds each child shell with _children
    rep = make_rep()
    ctx = rep.bulk_context()
    if words is not None:
        monkeypatch.setattr(bulk, "SLICE_BYTES", words * bulk.SLICE_BYTES // bulk.slice_words(ctx.d))
        assert bulk.slice_words(ctx.d) == words
    want = [piece for first in range(ctx.alphabet_size) for piece in _stepwise_walk(ctx, first, 6)]
    built = []
    extend = bulk._extend

    def spy(shell, letters):
        built.append(shell.length + 1)
        return extend(shell, letters)

    monkeypatch.setattr(bulk, "_extend", spy)
    [col] = run_bulk(ctx, 6, [(Pieces, {})])
    assert built and min(built) > bulk.SEED_LENGTH
    assert len(col.parts) == len(want)
    for got, ref in zip(col.parts, want):
        assert got.idx_rows.tobytes() == ref.idx_rows.tobytes()
        for a, b in zip(got.bo_data(), ref.bo_data()):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("width", range(1, 13))
def test_row_norms_are_numpys_norms_byte_for_byte(width):
    # below 8 columns the squares are added in index order, as numpy's reduction
    # adds them; from 8 on numpy sums pairwise and _row_norms defers to it
    rng = np.random.default_rng(width)
    x = rng.standard_normal((4000, width)) * np.exp(4.0 * rng.standard_normal((4000, width)))
    x[:5] = 0.0
    x[5:10, 0] = -3.0
    got, want = bulk._row_norms(x), np.linalg.norm(x, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_stepwise_kernel_never_gets_an_empty_stack(monkeypatch):
    # an empty call still runs POWER_ITERS steps; a phi_lambda ball and the
    # class reads call the kernel only with rows that need it
    from pqcartan.counting import FunctionalHistCollector, class_periods
    from pqcartan.weyl import ChamberA

    rep = reducible_rep(power=4)
    ctx = rep.bulk_context()
    sizes = []
    stepwise = bulk._top_eig_power

    def spy(mats):
        sizes.append(mats.shape[0])
        return stepwise(mats)

    monkeypatch.setattr(bulk, "_top_eig_power", spy)
    spec = {"kind": "phi_lambda", "grid": np.linspace(0.0, 10.0, 16), "phi": [1.0, 0.0, -1.0]}
    run_bulk(ctx, 7, [(FunctionalHistCollector, spec)])
    class_periods(rep, np.array([1.0, 0.0, -1.0]), ChamberA.default(3), 9)
    assert sizes and min(sizes) > 0
