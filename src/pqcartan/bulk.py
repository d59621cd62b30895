"""Vectorized sphere enumeration with per-level exterior-power tracking.

Words beyond a handful of letters have log-singular spreads far past what
one float64 matrix can resolve, so every per-word projection is read off
incrementally maintained exterior powers: each level's product is kept at
unit Frobenius norm with its own log-scale, and only well-conditioned top
singular/eigen data of each level is ever consumed.

One product step, ``_extend``, builds every level: it multiplies a word's
levels by a letter's unit compound, renormalises and adds the log-scales.
``subtree_pieces`` applies it as a depth-first walk under one first letter
(a piece, then the children of each prefix slice of it), so peak memory
follows the slice, not the word length: SLICE_BYTES counts what a piece
holds, its level state, cached readings and the step's temporaries
(``slice_words``: 7,710 words at d = 3, 1,401 at d = 5).  Words of up to
SEED_LENGTH letters it reads as slices of the context's seed shells, so the
step runs only past them.  ``run_bulk`` and the CLI's ``project`` and
``enumerate`` read balls and spheres through it.
``BulkContext.shell`` applies the step along arbitrary index rows, once per
distinct prefix, for the conjugacy classes (``counting.class_periods``,
``counting.default_phi``), the Gromov comparison and the equidistribution
boxes' cylinder words and the limit-set samples
(``freegroup.sample_limit_set`` unranks its strided ranks and reads them in
one batch); the sphere-wide readers take a sphere one rank range at a time
(``sphere_ranges``) and read batches of at most ``slice_words(d)`` rows.
The step treats rows independently, so every word gets the same level
data, bit for bit, whichever path reads it.

Every level also carries a tracked attractor t, a unit vector along the
top left singular direction of M.  For an Anosov representation the prefix
fixes that direction up to about e^(-gap |w|) (Bochi-Potrie-Sambarino), so
``_extend`` takes t from the parent's in O(C^2): y = M^T t and z = M y give
the residual |z - mu t| / mu of the parent's t (mu = |y|^2), and z / |z| is
the word's t.  ``cartan_prefixes`` reads sigma_1^2 = |M^T t|^2 and
``attractor_signs`` the form sign of t; ``_twisted_tops`` reads the twisted
square J M^T J M at t through its conjugate M J M^T J (same eigenvalues, top
eigenvector M x on the same prefix-stable side, J-self-adjoint, so its
J-Rayleigh value is second-order accurate), and one vector for both keeps
b_o bit-identical to the Cartan projection where M commutes with the form.
Rows whose residual is at or above RESIDUAL_TOL (L <= 3 on the shipped
examples) take the vector of the stepwise kernel ``_top_eig_power``, so a
top pair of equal modulus stays masked; ``BulkContext.of`` builds these
short shells once, the walk reads them as they are and ``BulkContext.shell``
starts each row from its prefix there.
``jordan_coords`` reads M's dominant eigenpair at M t / |M t| on cyclically
reduced words longer than SEED_LENGTH; other words keep the stepwise kernel,
as a word u c u^-1 stored as one float64 level loses lambda_1(c) once the
conjugator's spread passes float64 resolution, whichever kernel reads it.
Row norms of vectors narrower than 8 (``_row_norms``, in the stepwise
kernel and its residuals) add the squares in index order, the order numpy's
own reduction takes there, without the reduction's per-call set-up.

Enumeration order is canonical: shells by length, words lexicographic in
the alphabet (g1, g1^-1, g2, g2^-1, ...); ``rows_of_ranks`` builds the
index rows of given ranks of a sphere in this order, ``index_row`` one
word's, and ``_ranks_of``, its inverse, gives rows their ranks there;
``word_names`` prints rows as names (a.b'.a).
The walk's pieces of one shell arrive in this order, interleaved with
longer shells' pieces.  Worker partitioning is by first letter and results
are merged in alphabet order, so outputs are identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .forms import Form
from .numerics import minor_matrix, recentred_increments, vector_norm
from .weyl import file_to_slots

# bytes one walk piece or sphere-wide read holds (``slice_words``): 7,710 words at d = 3, 1,401 at d = 5.
# Measured, best of 24 passes on 1 BLAS thread: the d = 3 ball to L = 10 with four functionals and the class
# entropy to L = 11 took 0.43 s at 4 MiB, 0.44 at 3 MiB and 0.45 with unsplit shells; the d = 5 shells to
# L = 8 took 0.093, 0.097 and 0.091 s; its peak RSS is 41.5 MB at 4 MiB, 39.6 at 3 and 48.8 unsplit
SLICE_BYTES = 4 << 20
POWER_ITERS = 64
RESIDUAL_TOL = 1e-6
SEED_LENGTH = 3  # shells built once per context; their words need the stepwise fallback


def sphere_size(k: int, length: int) -> int:
    return 1 if length == 0 else 2 * k * (2 * k - 1) ** (length - 1)


def ball_size(k: int, length: int) -> int:
    return sum(sphere_size(k, l) for l in range(length + 1))


def letter_index(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (1 if letter < 0 else 0)


def index_letter(idx: int) -> int:
    gen = idx // 2 + 1
    return gen if idx % 2 == 0 else -gen


# by alphabet index: generator i is the i-th Latin letter, its inverse the letter primed
LETTER_NAMES = np.array(["abcdefgh"[abs(letter) - 1] + "'" * (letter < 0) for letter in map(index_letter, range(16))],
                        dtype=object)


def index_row(letters) -> np.ndarray:
    """The int8 alphabet-index row of a word's letters."""
    return np.array([letter_index(l) for l in letters], dtype=np.int8)


def word_names(rows) -> list[str]:
    """The printed names of alphabet-index rows: letter names joined by dots, as in a.b'.a."""
    return [".".join(names) for names in LETTER_NAMES[np.asarray(rows)].tolist()]


def cyclically_reduced(rows: np.ndarray) -> np.ndarray:
    """Per alphabet-index row of a reduced word: its last letter is not the inverse of its first."""
    return rows[:, 0] != rows[:, -1] ^ 1


def rows_of_ranks(ranks, k: int, length: int) -> np.ndarray:
    """(n, length) int8 alphabet-index rows of the words of the given canonical ranks in their sphere.

    The inverse of ``_ranks_of``: a rank's base-(2k-1) digits after the first
    letter are each letter's position among the letters that may follow its
    predecessor.  Raises ValueError below length 1 or for a rank outside the sphere.
    """
    if length < 1:
        raise ValueError(f"rows_of_ranks needs length >= 1, got {length}")
    rest = np.array(ranks, dtype=np.int64).reshape(-1)
    if rest.size and (rest.min() < 0 or rest.max() >= sphere_size(k, length)):
        raise ValueError(f"rows_of_ranks needs ranks in [0, {sphere_size(k, length)})")
    cols = np.empty((length, rest.size), dtype=np.int8)  # letter by letter; rows are transposed at the end
    for j in range(length - 1, 0, -1):
        q = rest // (2 * k - 1)
        rest -= q * (2 * k - 1)
        cols[j] = rest
        rest = q
    cols[0] = rest
    for j in range(1, length):
        cols[j] += cols[j] >= cols[j - 1] ^ 1
    return np.ascontiguousarray(cols.T)


def sphere_ranges(k: int, length: int):
    """The sphere's index rows in consecutive rank ranges, canonical order.

    A range has SLICE_BYTES // (8 length) rows: a sphere-wide reader holds
    about 8 bytes a letter while it unranks and filters a range.
    """
    n, step = sphere_size(k, length), max(1, SLICE_BYTES // (8 * length))
    for lo in range(0, n, step):
        yield rows_of_ranks(np.arange(lo, min(lo + step, n)), k, length)


def _ranks_of(idx_rows: np.ndarray, k: int) -> np.ndarray:
    n, length = idx_rows.shape
    rank = idx_rows[:, 0].astype(np.int64)
    for j in range(1, length):
        banned = idx_rows[:, j - 1] ^ 1
        pos = idx_rows[:, j] - (idx_rows[:, j] > banned)
        rank = rank * (2 * k - 1) + pos
    return rank


@dataclass
class BulkContext:
    """Per-level generator data in the form's standard coordinates."""

    k: int
    d: int
    p: int
    level_signs: list[np.ndarray]  # per level: diagonal of the standard form's level Gram
    spheres: list["ShellData"] = field(init=False, repr=False)  # shells 1..SEED_LENGTH

    @staticmethod
    def of(images_std: list[np.ndarray], form: Form) -> "BulkContext":
        """images_std: 2k matrices (gen, gen^-1 alternating) in the coordinates of ``form``, a standard form."""
        images = np.array(images_std)
        if np.iscomplexobj(images):
            raise ValueError("bulk enumeration supports real representations only")
        k, d = len(images) // 2, images.shape[-1]
        gen_entries, gen_scales = [], []
        for j in range(1, d):
            minors = minor_matrix(images, j)
            nrm = vector_norm(minors.reshape(len(images), -1))
            gen_entries.append(minors / nrm[:, None, None])
            gen_scales.append(np.log(nrm))
        logdets = np.linalg.slogdet(images)[1]
        ctx = BulkContext(k, d, form.signature[0], [np.diagonal(gram) for gram in form.level_grams])
        # each letter's attractor: the top eigenvector of its symmetric Gram M M^T, exact from LAPACK
        ctx.spheres = [ShellData(ctx, np.arange(2 * k, dtype=np.int8)[:, None], gen_entries, gen_scales, logdets,
                                 [np.linalg.eigh(m @ np.swapaxes(m, 1, 2))[1][:, :, -1] for m in gen_entries])]
        for _ in range(1, SEED_LENGTH):
            ctx.spheres.append(_children(ctx.spheres[-1], successor_table(2 * k)))
        for shell in ctx.spheres:  # the walk hands out slices of these: views no piece may write through
            for a in (shell.idx_rows, shell.logdets, *shell.comps, *shell.scales, *shell.attractors):
                a.setflags(write=False)
        return ctx

    @property
    def alphabet_size(self) -> int:
        return 2 * self.k

    def shell(self, idx_rows) -> "ShellData":
        """ShellData of arbitrary reduced words, given as equal-length alphabet-index rows.

        Each distinct prefix is built once: rows start from their prefix of up
        to SEED_LENGTH letters in ``spheres``, each distinct prefix is extended
        one letter at a time by ``_extend``, the step ``run_bulk`` takes, and
        one gather hands every row its word (none when the rows are distinct
        and in canonical order, as a whole sphere is).  ``_extend`` treats
        rows independently, so a word's level data equals, bit for bit, what
        ``run_bulk`` yields for it, whatever rows share the call.
        """
        idx_rows = np.asarray(idx_rows, dtype=np.int8)
        if idx_rows.ndim != 2 or idx_rows.shape[1] == 0:
            raise ValueError(f"BulkContext.shell needs 2-D index rows of at least one letter, got {idx_rows.shape}")
        if ((idx_rows < 0) | (idx_rows >= self.alphabet_size)).any():
            raise ValueError(f"BulkContext.shell needs alphabet indices in [0, {self.alphabet_size})")
        if (idx_rows[:, 1:] == idx_rows[:, :-1] ^ 1).any():
            raise ValueError("BulkContext.shell needs reduced words")
        s = min(idx_rows.shape[1], SEED_LENGTH)
        prefixes, inv = np.unique(_ranks_of(idx_rows[:, :s], self.k), return_inverse=True)
        shell = self.spheres[s - 1].piece(prefixes)
        for t in range(s, idx_rows.shape[1]):  # child key: distinct-prefix index, then letter
            children, inv = np.unique(inv * self.alphabet_size + idx_rows[:, t], return_inverse=True)
            shell = shell.piece(children // self.alphabet_size)  # each child's parent; frees the last depth first
            shell = _extend(shell, (children % self.alphabet_size)[:, None])
        if not np.array_equal(inv, np.arange(idx_rows.shape[0])):
            shell = shell.piece(inv)
        return shell


def successor_table(alphabet_size: int) -> np.ndarray:
    """Row per last-letter index: allowed next indices in alphabet order."""
    return np.array([[c for c in range(alphabet_size) if c != (prev ^ 1)]
                     for prev in range(alphabet_size)], dtype=np.int8)


def _start_vectors(n: int, m: int) -> np.ndarray:
    return _normalize_rows(np.tile(1.0 + 0.5 ** np.arange(m), (n, 1)))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit ``np.linalg.norm(x, axis=1)``.

    Below 8 columns numpy adds the squares in index order, as this loop
    does without the reduction's set-up (or its (n, C) array of squares);
    from 8 on it sums pairwise, so wider rows keep ``np.linalg.norm``.
    """
    if x.shape[1] >= 8:
        return np.linalg.norm(x, axis=1)
    total = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        total += x[:, j] * x[:, j]
    return np.sqrt(total, out=total)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    nrm = _row_norms(x)[:, None]
    nrm[nrm == 0.0] = 1.0
    return x / nrm


def _top_eig_power(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenpair per stacked matrix by power iteration.

    Returns (vectors, Rayleigh values, relative residuals); a residual above
    tolerance means no real dominant eigenvalue was found.
    """
    x = _start_vectors(*mats.shape[:2])
    for _ in range(POWER_ITERS):
        x = _normalize_rows(np.einsum("nij,nj->ni", mats, x))
    return _eig_read(mats, x)


def _eig_read(mats: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, Rayleigh values, relative residuals) of stacked matrices at unit vectors x."""
    mx = np.einsum("nij,nj->ni", mats, x)
    mu = np.einsum("ni,ni->n", x, mx)
    return x, mu, _row_norms(mx - mu[:, None] * x) / np.maximum(np.abs(mu), 1e-300)


def _j_rayleigh(m: np.ndarray, sg, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a^T J a / u^T J u, a = M^T J u): the J-Rayleigh value of M J M^T J at u, J = diag(sg)."""
    a = np.einsum("nji,nj->ni", m, sg * u)
    return np.einsum("ni,ni->n", a, sg * a) / np.einsum("ni,ni->n", u, sg * u), a


def _read_at(m: np.ndarray, sg, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(T u, J-Rayleigh value, relative residual, M^T J u) of T = M J M^T J at unit vectors u."""
    mu, a = _j_rayleigh(m, sg, u)
    b = np.einsum("nij,nj->ni", m, sg * a)
    r = b - mu[:, None] * u
    return b, mu, np.sqrt(np.einsum("ni,ni->n", r, r)) / np.maximum(np.abs(mu), 1e-300), a


def _top_pair(m: np.ndarray, sg, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Top eigendata of T = M J M^T J read at approximate top eigenvectors u.

    Returns (T u, the J-Rayleigh value, the relative residual, M^T J u).
    Rows whose residual is at or above tolerance (or not finite) are read at,
    and return in place of T u, the stepwise kernel's vector for T.
    """
    b, mu, resid, a = _read_at(m, sg, u)
    redo = np.flatnonzero(~(resid < RESIDUAL_TOL))
    if redo.size:
        mr = m[redo]
        b[redo] = _top_eig_power((mr * sg) @ (np.swapaxes(mr, 1, 2) * sg))[0]
        _, mu[redo], resid[redo], a[redo] = _read_at(mr, sg, b[redo])
    return b, mu, resid, a


def _memo(accessor):
    """A ShellData accessor whose result is computed once and cached under its name."""
    name = accessor.__name__

    @wraps(accessor)
    def cached(self):
        if name not in self._cache:
            self._cache[name] = accessor(self)
        return self._cache[name]

    return cached


class ShellData:
    """Lazy per-word measurements for one shell of one subtree."""

    def __init__(self, ctx: BulkContext, idx_rows: np.ndarray,
                 comps: list[np.ndarray], scales: list[np.ndarray], logdets: np.ndarray,
                 attractors: list[np.ndarray]):
        self.ctx = ctx
        self.idx_rows = idx_rows
        self.length = idx_rows.shape[1]
        self.comps = comps
        self.scales = scales
        self.logdets = logdets
        self.attractors = attractors  # per level: (n, C) tracked attractors, unit vectors
        self._cache: dict[str, object] = {}

    @property
    def count(self) -> int:
        return self.idx_rows.shape[0]

    def piece(self, rows) -> "ShellData":
        """The words of a row slice or index array, with an empty cache."""
        return ShellData(self.ctx, self.idx_rows[rows], [c[rows] for c in self.comps],
                         [s[rows] for s in self.scales], self.logdets[rows], [t[rows] for t in self.attractors])

    @_memo
    def ranks(self) -> np.ndarray:
        return _ranks_of(self.idx_rows, self.ctx.k)

    @_memo
    def inverse_ranks(self) -> np.ndarray:
        return _ranks_of(self.idx_rows[:, ::-1] ^ 1, self.ctx.k)

    def _line_signs(self, wedge_signs: np.ndarray) -> np.ndarray:
        """(n, d) form signs of a flag's lines from the signs of its level-j wedges."""
        q_ext = np.concatenate([np.ones((self.count, 1)), wedge_signs], axis=1)
        signs = q_ext[:, 1:] * q_ext[:, :-1]
        last = np.prod(signs, axis=1) * np.sign(np.prod(self.ctx.level_signs[0]))
        return np.column_stack([signs, last])

    # -- Cartan data ---------------------------------------------------

    @_memo
    def cartan_prefixes(self) -> np.ndarray:
        """(n, d) array: prefix sums of the sorted log singular values.

        sigma_1^2 of each level is read at the tracked attractor, |M^T t|^2.
        """
        return np.column_stack([0.5 * np.log(np.maximum(_j_rayleigh(m, 1.0, t)[0], 1e-300)) + s
                                for m, t, s in zip(self.comps, self.attractors, self.scales)] + [self.logdets])

    @_memo
    def cartan_coords(self) -> np.ndarray:
        """(n, d) recentered descending log singular values."""
        return recentred_increments(self.cartan_prefixes())

    @_memo
    def attractor_forms(self) -> np.ndarray:
        """(n, d - 1) level forms t^T J_j t of the unit tracked attractors.

        Level j's attractor wedge is the top left singular vector: the
        level's tracked attractor; the form restricted to the attractor
        flag's j-plane degenerates where this value vanishes.
        """
        return np.column_stack([np.einsum("ni,i,ni->n", t, sg, t)
                                for t, sg in zip(self.attractors, self.ctx.level_signs)])

    @_memo
    def attractor_signs(self) -> np.ndarray:
        """(n, d) orbit-signature signs of the singular (Cartan) attractor flag."""
        return self._line_signs(np.sign(self.attractor_forms()))

    def min_root_gap(self) -> np.ndarray:
        """Per word: smallest simple-root value of the Cartan projection."""
        return np.min(-np.diff(self.cartan_coords(), axis=1), axis=1)

    # -- twisted square / slot projection -------------------------------

    @_memo
    def _twisted_tops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per level: top eigenvalues, eigenline signs and residuals of S = J M^T J M.

        Read off the conjugate T = M J M^T J = M S M^-1: the same eigenvalues,
        and its top eigenvector M x lies, like the attractor, on the
        prefix-stable side, so it is read at the tracked attractor.
        With u = M x, a = M^T J u = mu J x, so x^T J x has the sign of a^T J a.
        """
        sgs = self.ctx.level_signs
        tops = [_top_pair(m, sg, t) for m, sg, t in zip(self.comps, sgs, self.attractors)]
        return (np.column_stack([mu for _, mu, _, _ in tops]),
                np.column_stack([np.sign(np.einsum("ni,ni->n", a, sg * a)) for (*_, a), sg in zip(tops, sgs)]),
                np.column_stack([resid for _, _, resid, _ in tops]))

    def membership_mask(self) -> np.ndarray:
        """Words whose twisted square has a real dominant pair on every level."""
        mus, _, resids = self._twisted_tops()
        return (resids < RESIDUAL_TOL).all(axis=1) & (mus != 0).all(axis=1) & np.isfinite(mus).all(axis=1)

    @_memo
    def bo_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot coordinates, eigenline signs (rank order) and modulus gaps.

        Signs come from prefix sign products of the level-j dominant
        eigenvectors, which are the wedges of the eigenline decomposition;
        a non-positive sign is filed as negative.
        """
        mus, qsigns, _ = self._twisted_tops()
        prefix = np.log(np.maximum(np.abs(mus), 1e-300)) + 2 * np.column_stack(self.scales)
        full = np.concatenate([prefix, (2 * self.logdets)[:, None]], axis=1)
        halves = recentred_increments(full / 2)
        gaps = -np.diff(halves, axis=1) * 2
        signs = self._line_signs(qsigns)
        return file_to_slots(halves, np.where(signs > 0, 1, -1)), signs, gaps

    def bo_valid_mask(self) -> np.ndarray:
        """Members whose eigenline signs fill the signature."""
        _, signs, _ = self.bo_data()
        return self.membership_mask() & (np.sum(signs > 0, axis=1) == self.ctx.p)

    # -- Jordan data -----------------------------------------------------

    @_memo
    def _jordan_tops(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level: (eigenvectors, Rayleigh values, residuals) of M.

        Read at M t / |M t| on cyclically reduced words longer than SEED_LENGTH; every other row, and a
        row whose residual there is not below RESIDUAL_TOL, takes the stepwise kernel's values, in one
        call per level width (the kernel treats rows independently, and its cost is mostly per call).
        """
        fast = cyclically_reduced(self.idx_rows) & (self.length > SEED_LENGTH)
        tops = [_eig_read(m, _normalize_rows(np.einsum("nij,nj->ni", m, t)))
                for m, t in zip(self.comps, self.attractors)]
        redo = [np.flatnonzero(~(fast & (resid < RESIDUAL_TOL))) for _, _, resid in tops]
        by_width: dict[int, list[int]] = {}
        for j, m in enumerate(self.comps):
            if redo[j].size:
                by_width.setdefault(m.shape[1], []).append(j)
        for levels in by_width.values():
            stepwise = _top_eig_power(np.concatenate([self.comps[j][redo[j]] for j in levels]))
            ends = np.cumsum([redo[j].size for j in levels])
            for j, hi in zip(levels, ends):
                for top, values in zip(tops[j], stepwise):
                    top[redo[j]] = values[hi - redo[j].size:hi]
        return tops

    def jordan_vectors(self) -> list[np.ndarray]:
        """Per level: (n, C_j) unit dominant eigenvectors of the level matrices."""
        return [x for x, _, _ in self._jordan_tops()]

    @_memo
    def jordan_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) recentered descending log eigenvalue moduli, with valid mask."""
        tops = self._jordan_tops()
        prefix = np.column_stack([np.log(np.maximum(np.abs(mu), 1e-300)) + s
                                  for (_, mu, _), s in zip(tops, self.scales)] + [self.logdets])
        ok = np.logical_and.reduce([resid < RESIDUAL_TOL for _, _, resid in tops])
        return recentred_increments(prefix), ok


def _extend(shell: ShellData, letters: np.ndarray) -> ShellData:
    """Every word of ``shell`` followed by each letter of its row of ``letters`` (n, w), in row order.

    The engine's one product step: each level is multiplied by the letter's
    unit compound (one broadcast product, no copy of the parents' levels)
    and renormalised to unit Frobenius norm, the log-scales are added, and
    the attractor takes one power step of the word's M M^T from its parent's.
    """
    ctx, gen = shell.ctx, shell.ctx.spheres[0]
    w = letters.shape[1]
    comps, scales, attractors = [], [], []
    for j in range(ctx.d - 1):
        prod = (shell.comps[j][:, None] @ gen.comps[j][letters]).reshape(-1, *gen.comps[j].shape[1:])
        nrm = np.sqrt(np.einsum("nij,nij->n", prod, prod))
        nrm[nrm == 0.0] = 1.0
        prod /= nrm[:, None, None]
        comps.append(prod)
        scales.append((shell.scales[j][:, None] + gen.scales[j][letters]).reshape(-1) + np.log(nrm))
        attractors.append(_normalize_rows(_top_pair(prod, 1.0, np.repeat(shell.attractors[j], w, axis=0))[0]))
    idx = np.concatenate([np.repeat(shell.idx_rows, w, axis=0), letters.reshape(-1, 1).astype(np.int8)], axis=1)
    return ShellData(ctx, idx, comps, scales, (shell.logdets[:, None] + gen.logdets[letters]).reshape(-1), attractors)


def _children(shell: ShellData, table: np.ndarray) -> ShellData:
    """Every reduced one-letter extension of every word, in canonical order."""
    return _extend(shell, table[shell.idx_rows[:, -1]])


def slice_words(d: int) -> int:
    """Words per walk piece: SLICE_BYTES over what a word of a piece holds, sum_j (C_j^2 + 2 C_j + 1) + 12 d doubles.

    That is the word's level state (C_j^2 + C_j + 1 doubles a level, C_j = C(d, j)) and what reading it adds:
    one more C_j-vector a level and 12 doubles a line, for the cached Cartan, twisted, slot and Jordan values
    and the product step's temporaries (a piece peaks at 558 bytes a word at d = 3 under the four ball
    functionals against 544 counted, and at 3,032 at d = 5 under the comparison and direction collectors
    against 2,992).
    """
    return max(1, SLICE_BYTES // (8 * (sum(math.comb(d, j) ** 2 + 2 * math.comb(d, j) + 1 for j in range(1, d))
                                       + 12 * d)))


def subtree_pieces(ctx: BulkContext, first: int, length_max: int):
    """Pieces of the words of lengths 1..length_max that start with alphabet index ``first``.

    Depth first: a piece, then the pieces below each prefix slice of it, so each shell's pieces arrive in
    canonical order, of at most ``slice_words(d)`` words (or one parent's children).  The children of a
    slice of words shorter than SEED_LENGTH are one contiguous rank range of the context's next seed shell,
    read from ``ctx.spheres`` (bit-identical rows, as ``BulkContext.shell`` promises); longer words' children
    are built by ``_extend``.  The consumer should drop its reference to a piece before asking for the next,
    which is built then; the walk drops its readings.
    """
    table = successor_table(ctx.alphabet_size)
    fan = table.shape[1]
    step = max(1, slice_words(ctx.d) // fan)

    def children_of(shell: ShellData, lo: int, hi: int) -> ShellData:
        if shell.length >= SEED_LENGTH:
            return _children(shell.piece(slice(lo, hi)), table)
        r0 = int(_ranks_of(shell.idx_rows[:1], ctx.k)[0])  # a seed-length piece is a contiguous rank range
        return ctx.spheres[shell.length].piece(slice((r0 + lo) * fan, (r0 + hi) * fan))

    def below(shell: ShellData):
        yield shell
        shell._cache.clear()
        if shell.length < length_max:
            for lo in range(0, shell.count, step):
                yield from below(children_of(shell, lo, min(lo + step, shell.count)))

    return below(ctx.shell([[first]]))


def _run_subtree(args):
    ctx, first, length_max, collector_specs = args
    collectors = [cls(**kwargs) for cls, kwargs in collector_specs]
    for piece in subtree_pieces(ctx, first, length_max):
        for c in collectors:
            c.update(piece)
        del piece
    return collectors


def run_bulk(ctx: BulkContext, length_max: int, collector_specs, threads: int = 1):
    """Run collectors over all shells 1..length_max; returns merged collectors.

    Each first letter's ``subtree_pieces`` feed its own collectors, so a
    collector sees shells interleaved, each in canonical order.  The
    identity word (shell zero) is not visited; callers account for it.
    Results are independent of ``threads`` because subtrees are merged in
    alphabet order and the slices are fixed.
    """
    firsts = list(range(ctx.alphabet_size))
    tasks = [(ctx, f, length_max, collector_specs) for f in firsts]
    if threads <= 1:
        per_subtree = [_run_subtree(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # local: only a multi-worker run pays for the import

        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            per_subtree = list(pool.map(_run_subtree, tasks))
    merged = per_subtree[0]
    for other in per_subtree[1:]:
        for mine, theirs in zip(merged, other):
            mine.merge(theirs)
    return merged
