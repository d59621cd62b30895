import numpy as np
import pytest

from pqcartan import bulk
from pqcartan.bulk import ShellData, ball_size, run_bulk, sphere_size, word_rank
from pqcartan.freegroup import reducible_rep, sphere_words, two_orbit_rep
from pqcartan.pq_cartan import pq_project
from pqcartan.projections import cartan, jordan
from pqcartan.weyl import merge_to_slots


class GrabAll:
    """Test collector: concatenates selected per-word data in canonical order."""

    def __init__(self, length_max):
        self.length_max = length_max
        self.rows = []

    def update(self, shell: ShellData):
        if shell.length > self.length_max:
            return
        bo, signs, gaps = shell.bo_data()
        lam, lam_ok = shell.jordan_coords()
        self.rows.append(
            (
                shell.length,
                shell.ranks(),
                shell.inverse_ranks(),
                shell.cartan_coords(),
                bo,
                shell.bo_valid_mask(),
                lam,
                shell.attractor_signs(),
                signs,
            )
        )

    def merge(self, other):
        self.rows.extend(other.rows)


def collect(rep, length):
    ctx = rep.bulk_context()
    [col] = run_bulk(ctx, length, [(GrabAll, {"length_max": length})])
    by_shell = {}
    for row in col.rows:
        by_shell.setdefault(row[0], []).append(row)
    out = {}
    for length_, rows in by_shell.items():
        ranks = np.concatenate([r[1] for r in rows])
        order = np.argsort(ranks)
        out[length_] = {
            "ranks": ranks[order],
            "inv_ranks": np.concatenate([r[2] for r in rows])[order],
            "at": np.concatenate([r[3] for r in rows])[order],
            "bo": np.concatenate([r[4] for r in rows])[order],
            "valid": np.concatenate([r[5] for r in rows])[order],
            "lam": np.concatenate([r[6] for r in rows])[order],
            "usigns": np.concatenate([r[7] for r in rows])[order],
            "signs": np.concatenate([r[8] for r in rows])[order],
        }
    return out


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
    data = collect(rep, length)
    o = rep.form
    for w in (w for l in range(1, length + 1) for w in sphere_words(rep.rank, l)):
        mat = rep.image(w)
        shell = data[w.length]
        i = word_rank(w.letters, rep.rank)
        assert shell["ranks"][i] == i
        at_ref = cartan(mat).coords
        assert np.max(np.abs(shell["at"][i] - at_ref)) < 1e-6
        lam_ref = jordan(mat).coords
        assert np.max(np.abs(shell["lam"][i] - lam_ref)) < 1e-6
        r = pq_project(o, mat)
        assert shell["valid"][i]
        assert np.max(np.abs(shell["bo"][i] - r.b_o.coords)) < 1e-6
        # both callers of the one slot map file the same signs to the same slots
        assert shell["signs"][i].tolist() == list(r.eigen_signs)
        assert merge_to_slots(shell["signs"][i]).tolist() == list(r.w_g.perm)


def test_bulk_long_words_match_high_precision():
    import mpmath

    mpmath.mp.dps = 80
    rep = reducible_rep(power=4)
    length = 8
    data = collect_at = None
    ctx = rep.bulk_context()
    [col] = run_bulk(ctx, length, [(GrabAll, {"length_max": length})])
    rows = [r for r in col.rows if r[0] == length]
    ranks = np.concatenate([r[1] for r in rows])
    order = np.argsort(ranks)
    at = np.concatenate([r[3] for r in rows])[order]
    bo = np.concatenate([r[4] for r in rows])[order]
    lam = np.concatenate([r[6] for r in rows])[order]
    words = list(sphere_words(2, length))
    stride = len(words) // 5
    jmat = mpmath.diag([1, 1, -1])
    for i in range(0, len(words), stride):
        w = words[i]
        exact = mpmath.eye(3)
        for l in w.letters:
            exact = exact * mpmath.matrix(rep.letter_image(l).true_matrix().tolist())
        # Cartan reference: log singular values (eigenvalues of M^T M)
        sv = mpmath.mp.eig(exact.T * exact, left=False, right=False)
        logs = sorted([float(mpmath.log(abs(v))) / 2 for v in sv], reverse=True)
        at_ref = np.array(logs) - np.mean(logs)
        assert np.max(np.abs(at[i] - at_ref)) < 1e-8
        # twisted square reference
        s = jmat * exact.T * jmat * exact
        vals, vecs = mpmath.mp.eig(s)
        idx2 = sorted(range(3), key=lambda t: -abs(vals[t]))
        halves = np.array([float(mpmath.log(abs(vals[t]))) for t in idx2]) / 2
        halves -= halves.mean()
        signs = []
        for t in idx2:
            v = np.array([complex(vecs[r, t]) for r in range(3)])
            v = np.real(v / np.exp(1j * np.angle(v[np.argmax(np.abs(v))])))
            signs.append(1 if v[0] ** 2 + v[1] ** 2 - v[2] ** 2 > 0 else -1)
        slots = np.empty(3)
        pos = [h for h, s_ in zip(halves, signs) if s_ > 0]
        neg = [h for h, s_ in zip(halves, signs) if s_ < 0]
        slots[: len(pos)] = pos
        slots[len(pos) :] = neg
        assert np.max(np.abs(bo[i] - slots)) < 1e-8
        # Jordan reference
        mv = mpmath.mp.eig(exact, left=False, right=False)
        jl = sorted([float(mpmath.log(abs(v))) for v in mv], reverse=True)
        lam_ref = np.array(jl) - np.mean(jl)
        assert np.max(np.abs(lam[i] - lam_ref)) < 1e-8


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4), two_orbit_rep],
                         ids=["reducible_21", "two_orbit"])
def test_bulk_cartan_matches_high_precision_at_length_10(make_rep):
    # the tracked-attractor Cartan reading at L=10 against exact log singular
    # values; M^T M spans about e^190 here, beyond what dps 80 resolves
    import mpmath

    mpmath.mp.dps = 200
    rep = make_rep()
    rows = bulk.sphere_rows(rep.rank, 10)[::7874]
    shell = rep.bulk_context().shell(rows)
    coords = shell.cartan_coords()
    assert len(rows) == 10 and np.isfinite(coords).all() and shell.membership_mask().all()
    for row, got in zip(rows, coords):
        exact = mpmath.eye(rep.dim)
        for i in row:
            exact = exact * mpmath.matrix(rep.letter_image(bulk.index_letter(int(i))).true_matrix().tolist())
        sv = mpmath.mp.eig(exact.T * exact, left=False, right=False)
        logs = sorted([float(mpmath.log(abs(v))) / 2 for v in sv], reverse=True)
        assert np.max(np.abs(got - (np.array(logs) - np.mean(logs)))) < 1e-8


class PickWords:
    """Test collector: Jordan and slot data of chosen words of one shell.

    Also records, per word, the smallest |x^T J x| over the levels' unit top
    eigenvectors x of the twisted square; its top eigenvalue has condition
    about 1 / |x^T J x|.
    """

    def __init__(self, length, ranks):
        self.length = length
        self.ranks = ranks
        self.words = {}

    def update(self, shell: ShellData):
        if shell.length != self.length:
            return
        sel = np.flatnonzero(np.isin(shell.ranks(), self.ranks))
        if sel.size == 0:
            return
        part = shell.piece(sel)
        lam, lam_ok = part.jordan_coords()
        bo = part.bo_data()[0]
        definite = np.full(part.count, np.inf)
        for m, sg in zip(part.comps, part.ctx.level_signs):
            vals, vecs = np.linalg.eig((sg[:, None] * np.swapaxes(m, 1, 2)) @ (sg[:, None] * m))
            top = np.argmax(np.abs(vals), axis=1)
            x = np.real(vecs[np.arange(part.count), :, top])
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            definite = np.minimum(definite, np.abs(np.einsum("ni,i,ni->n", x, sg, x)))
        for r, *row in zip(part.ranks(), lam, lam_ok, bo, part.bo_valid_mask(), definite):
            self.words[int(r)] = row

    def merge(self, other):
        self.words.update(other.words)


def pick_words(rep, words):
    """(alphabet-index word, exact mpmath product, PickWords row) per word."""
    import mpmath

    length = len(words[0])
    ranks = [word_rank([bulk.index_letter(i) for i in w], rep.rank) for w in words]
    [col] = run_bulk(rep.bulk_context(), length, [(PickWords, {"length": length, "ranks": ranks})])
    for w, r in zip(words, ranks):
        exact = mpmath.eye(rep.dim)
        for i in w:
            exact = exact * mpmath.matrix(rep.letter_image(bulk.index_letter(i)).true_matrix().tolist())
        yield w, exact, col.words[r]


def test_bulk_jordan_matches_high_precision_on_hard_words():
    # words whose level matrices are far from normal: the stepwise kernel
    # stays within 4e-9 of the exact Jordan projection, squaring M would not
    import mpmath

    mpmath.mp.dps = 80
    words = [[0, 0, 0, 2, 0, 0, 3, 1, 1, 1], [0, 0, 0, 2, 0, 3, 3, 1, 1, 1],
             [2, 0, 0, 0, 0, 0, 0, 0, 3, 3]]
    for _, exact, (lam, ok, *_) in pick_words(reducible_rep(power=4), words):
        mv = mpmath.mp.eig(exact, left=False, right=False)
        jl = sorted([float(mpmath.log(abs(v))) for v in mv], reverse=True)
        lam_ref = np.array(jl) - np.mean(jl)
        assert ok
        assert np.max(np.abs(lam - lam_ref)) < 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the level matrix of w = u c u^-1 stored in float64 "
                                       "loses the Jordan projection of c, and the residual mask does not catch it")
def test_jordan_of_non_cyclically_reduced_words_matches_high_precision():
    # 40 evenly spaced Jordan-valid words of the L=10 sphere whose first
    # letter is the inverse of their last, against the exact eigenvalue moduli
    import mpmath

    mpmath.mp.dps = 150
    rep = reducible_rep(power=4)
    rows = bulk.sphere_rows(rep.rank, 10)
    rows = rows[rows[:, 0] == (rows[:, -1] ^ 1)]
    lam, ok = rep.bulk_context().shell(rows).jordan_coords()
    picked = np.flatnonzero(ok)
    picked = picked[np.linspace(0, len(picked) - 1, 40).round().astype(int)]
    worst = 0.0
    for row, got in zip(rows[picked], lam[picked]):
        exact = mpmath.eye(rep.dim)
        for i in row:
            exact = exact * mpmath.matrix(rep.letter_image(bulk.index_letter(int(i))).true_matrix().tolist())
        mv = mpmath.mp.eig(exact, left=False, right=False)
        jl = sorted([float(mpmath.log(abs(v))) for v in mv], reverse=True)
        worst = max(worst, float(np.max(np.abs(got - (np.array(jl) - np.mean(jl))))))
    assert worst < 1e-8


def test_bulk_bo_matches_high_precision_on_least_definite_words():
    # the twisted square J M^T J M is not normal; these words attain the
    # smallest |x^T J x| of shell 10 of two_orbit_rep (on the reducible
    # examples it is 1 on every word), and the reading from the tracked
    # attractor still gives b_o within 2e-9 of the exact slot projection; the
    # twisted square's eigenvalues span about e^190 here, beyond what dps 80
    # resolves
    import mpmath

    mpmath.mp.dps = 200
    rep = two_orbit_rep()
    sg = rep.bulk_context().level_signs[0]
    jmat = mpmath.diag(sg.tolist())
    words = [[2, 2, 0, 2, 2, 2, 2, 2, 2, 2], [3, 3, 3, 1, 2, 2, 2, 2, 2, 2],
             [3, 1, 2, 2, 0, 2, 2, 2, 2, 2]]
    for _, exact, (_, _, bo, bo_ok, definite) in pick_words(rep, words):
        assert definite < 0.42
        vals, vecs = mpmath.mp.eig(jmat * exact.T * jmat * exact)
        order = sorted(range(3), key=lambda t: -abs(vals[t]))
        halves = np.array([float(mpmath.log(abs(vals[t]))) for t in order]) / 2
        halves -= halves.mean()
        signs = []
        for t in order:
            v = np.array([complex(vecs[r, t]) for r in range(3)])
            v = np.real(v / np.exp(1j * np.angle(v[np.argmax(np.abs(v))])))
            signs.append(np.sum(sg * v**2) > 0)
        slots = [h for h, pos in zip(halves, signs) if pos] + [h for h, pos in zip(halves, signs) if not pos]
        assert bo_ok
        assert np.max(np.abs(bo - slots)) < 1e-8


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
    from pqcartan.freegroup import singular_flag

    rep = make_rep()
    data = collect(rep, 3)
    for w in sphere_words(2, 3):
        i = word_rank(w.letters, 2)
        sig = o_generic(rep.form, singular_flag(rep, w)).signature.signs
        assert tuple(int(s) for s in data[3]["usigns"][i]) == sig


class GrabLevels:
    """Test collector: the level data of every word of one shell."""

    def __init__(self, length):
        self.length = length
        self.parts = []

    def update(self, shell: ShellData):
        if shell.length == self.length:
            self.parts.append(shell)

    def merge(self, other):
        self.parts.extend(other.parts)


@pytest.mark.parametrize("make_rep", [lambda: reducible_rep(power=4),
                                      lambda: reducible_rep(p=3, q=2, power=6)],
                         ids=["d3", "d5"])
def test_rows_entry_point_matches_run_bulk(make_rep):
    rep = make_rep()
    ctx = rep.bulk_context()
    [col] = run_bulk(ctx, 4, [(GrabLevels, {"length": 4})])
    for part in col.parts:
        mine = ctx.shell(part.idx_rows)
        assert mine.length == 4
        assert (mine.idx_rows == part.idx_rows).all()
        pairs = list(zip(mine.comps + mine.scales, part.comps + part.scales))
        pairs += [(mine.logdets, part.logdets), (mine.cartan_coords(), part.cartan_coords())]
        pairs += list(zip(mine.bo_data() + mine.jordan_coords(), part.bo_data() + part.jordan_coords()))
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()


def test_rows_entry_point_refuses_unreduced_words():
    # rows start from their reduced prefixes' shells, so a cancelling pair
    # would silently read another word's levels
    ctx = reducible_rep(power=4).bulk_context()
    with pytest.raises(ValueError):
        ctx.shell([[0, 2, 3, 1]])


def test_thread_partitions_identical():
    rep = reducible_rep(power=4)
    seq = collect(rep, 4)
    ctx = rep.bulk_context()
    [col] = run_bulk(ctx, 4, [(GrabAll, {"length_max": 4})], threads=4)
    by_shell = {}
    for row in col.rows:
        by_shell.setdefault(row[0], []).append(row)
    for length_, rows in by_shell.items():
        ranks = np.concatenate([r[1] for r in rows])
        order = np.argsort(ranks)
        bo = np.concatenate([r[4] for r in rows])[order]
        assert bo.tobytes() == seq[length_]["bo"].tobytes()


def test_cap_refusal():
    rep = reducible_rep(power=4)
    with pytest.raises(bulk.CapExceededError):
        run_bulk(rep.bulk_context(), 10, [(GrabAll, {"length_max": 10})], cap=100)


def test_chunking_does_not_change_results(monkeypatch):
    rep = reducible_rep(power=4)
    ctx = rep.bulk_context()
    monkeypatch.setattr(bulk, "DEFAULT_CHUNK", 7)
    [a] = run_bulk(ctx, 4, [(GrabAll, {"length_max": 4})])
    monkeypatch.setattr(bulk, "DEFAULT_CHUNK", 100000)
    [b] = run_bulk(ctx, 4, [(GrabAll, {"length_max": 4})])
    bo_a = np.concatenate([r[4] for r in a.rows if r[0] == 4])
    bo_b = np.concatenate([r[4] for r in b.rows if r[0] == 4])
    assert bo_a.tobytes() == bo_b.tobytes()
