"""Vectorized sphere enumeration with per-level exterior-power tracking.

Words beyond a handful of letters have log-singular spreads far past what
one float64 matrix can resolve, so every per-word projection is read off
incrementally maintained exterior powers: each level's product is kept at
unit Frobenius norm with its own log-scale, and only well-conditioned top
singular/eigen data of each level is ever consumed.

One product step, ``_extend``, builds every level: it multiplies a word's
levels by a letter's unit compound, renormalises and adds the log-scales.
``run_bulk`` applies it as a fan-out over each shell (``_children``);
``BulkContext.shell`` applies it along arbitrary index rows, for the
conjugacy classes (``counting.class_periods``, ``counting.default_phi``),
the Gromov comparison and the limit flags (``freegroup.singular_flag``,
``freegroup.attracting_flag``; ``freegroup.sample_limit_set`` reads all its
sampled words in one batch), so every word gets the same level data, bit
for bit, whichever path reads it.

Two kernels compute the top eigendata of a level, both as the direction of
M^64 x0 for a fixed start vector x0, with the Rayleigh value and residual
taken against the matrix itself.  The square-type levels (the Cartan Gram
M^T M and the twisted square J M^T J M) use ``_top_eig_squared``: six
renormalised batched squarings and one product with x0, several times
cheaper than 64 matrix-vector steps.  The Gram matrix is symmetric, so
squaring it costs no accuracy.  The twisted square is only J-self-adjoint
(its top eigenvalue has condition about 1/|x^T J x| for the unit top
eigenvector x); it uses the squared kernel because the two kernels agree on
it to 1e-15 in log|mu|, with no residual mask flipped, over every word of
d=3 L=9..10 and d=5 L=7..8, and b_o stays within 2e-9 of mpmath on the
words of shell 10 of ``two_orbit_rep`` with the smallest |x^T J x| (0.42;
it is 1 on every word of the reducible examples).  The Cartan kernel's top
right singular vector v also gives the attractor: M v is along the top left
singular vector, so ``attractor_signs`` runs no kernel of its own.  The
Jordan level reads the level matrix M itself, which is far from normal on
long words; squaring it costs up to 1e-4 in the Jordan projection against
mpmath, so ``jordan_coords`` keeps the stepwise ``_top_eig_power``, which
stays within 4e-9, and caches its vectors for the Gromov comparison.

Enumeration order is canonical: shells by length, words lexicographic in
the alphabet (g1, g1^-1, g2, g2^-1, ...); ``sphere_rows`` builds a sphere's
index rows in this order, and ``word_rank`` is a word's row number there.
Worker partitioning is by first letter and results are merged in alphabet
order, so outputs are identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import wraps

import numpy as np

from .numerics import minor_matrix, subset_table

__all__ = [
    "BulkContext",
    "ShellData",
    "run_bulk",
    "sphere_size",
    "ball_size",
    "sphere_rows",
    "word_rank",
    "CapExceededError",
]

DEFAULT_CHUNK = 200_000
POWER_ITERS = 64
SQUARINGS = POWER_ITERS.bit_length() - 1
assert POWER_ITERS == 1 << SQUARINGS, "the squared kernel needs a power of two"
SQUARE_BLOCK = 4096
RESIDUAL_TOL = 1e-6


class CapExceededError(RuntimeError):
    def __init__(self, cap: int, requested: int):
        super().__init__(f"enumeration of {requested} words exceeds the cap of {cap}")
        self.cap = cap
        self.requested = requested


def sphere_size(k: int, length: int) -> int:
    if length == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (length - 1)


def ball_size(k: int, length: int) -> int:
    return sum(sphere_size(k, l) for l in range(length + 1))


def letter_index(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (1 if letter < 0 else 0)


def index_letter(idx: int) -> int:
    gen = idx // 2 + 1
    return gen if idx % 2 == 0 else -gen


def sphere_rows(k: int, length: int) -> np.ndarray:
    """(n, length) int8 alphabet-index rows of the sphere's words, canonical order.

    Needs length >= 1; row i is the word of rank i.
    """
    table = successor_table(2 * k)
    rows = np.arange(2 * k, dtype=np.int8)[:, None]
    for _ in range(length - 1):
        nxt = table[rows[:, -1]].reshape(-1, 1)
        rows = np.concatenate([np.repeat(rows, table.shape[1], axis=0), nxt], axis=1)
    return rows


def word_rank(word, k: int) -> int:
    """Rank of a reduced word inside its own shell, canonical order."""
    if not word:
        return 0
    return int(_ranks_of(np.array([[letter_index(l) for l in word]], dtype=np.int8), k)[0])


def _inverse_indices(idx_rows: np.ndarray) -> np.ndarray:
    return idx_rows[:, ::-1] ^ 1


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
    gen_entries: list[np.ndarray]  # per level: (2k, C, C)
    gen_scales: list[np.ndarray]  # per level: (2k,)
    gen_logdets: np.ndarray  # (2k,)
    level_signs: list[np.ndarray]  # per level: diagonal of the standard level form

    @staticmethod
    def of(images_std: list[np.ndarray], p: int) -> "BulkContext":
        """images_std: 2k matrices (gen, gen^-1 alternating) in standard coordinates."""
        if any(np.iscomplexobj(m) for m in images_std):
            raise ValueError("bulk enumeration supports real representations only")
        d = images_std[0].shape[0]
        k = len(images_std) // 2
        levels = range(1, d)
        gen_entries, gen_scales = [], []
        for j in levels:
            ents, scales = [], []
            for m in images_std:
                cj = minor_matrix(m, j)
                nrm = np.linalg.norm(cj)
                ents.append(cj / nrm)
                scales.append(np.log(nrm))
            gen_entries.append(np.array(ents))
            gen_scales.append(np.array(scales))
        logdets = np.array([np.linalg.slogdet(m)[1] for m in images_std])
        base_signs = np.array([1.0] * p + [-1.0] * (d - p))
        level_signs = [np.prod(base_signs[subset_table(d, j)], axis=1) for j in levels]
        return BulkContext(k, d, p, gen_entries, gen_scales, logdets, level_signs)

    @property
    def alphabet_size(self) -> int:
        return 2 * self.k

    def shell(self, idx_rows) -> "ShellData":
        """ShellData of arbitrary words, given as equal-length alphabet-index rows.

        Each row is seeded from its first letter and extended one letter at a
        time by ``_extend``, the step ``run_bulk`` takes, so a word's level
        data equals, bit for bit, what ``run_bulk`` yields for it.
        """
        idx_rows = np.asarray(idx_rows, dtype=np.int8)
        first = idx_rows[:, 0]
        shell = ShellData(self, 1, idx_rows[:, :1], [e[first] for e in self.gen_entries],
                          [s[first] for s in self.gen_scales], self.gen_logdets[first])
        for t in range(1, idx_rows.shape[1]):
            shell = _extend(shell, slice(None), idx_rows[:, t])
        return shell


def successor_table(alphabet_size: int) -> np.ndarray:
    """Row per last-letter index: allowed next indices in alphabet order."""
    return np.array([[c for c in range(alphabet_size) if c != (prev ^ 1)]
                     for prev in range(alphabet_size)], dtype=np.int8)


def _recentred_increments(prefix: np.ndarray) -> np.ndarray:
    """Consecutive differences of per-level prefix sums, recentred to sum zero."""
    out = np.diff(prefix, axis=1, prepend=0.0)
    out -= out.mean(axis=1, keepdims=True)
    return out


def _start_vectors(n: int, m: int) -> np.ndarray:
    x = np.tile(1.0 + 0.5 ** np.arange(m), (n, 1))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    return x / nrm


def _rayleigh(mats: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, Rayleigh value, relative residual) of unit vectors x against mats."""
    mx = np.einsum("nij,nj->ni", mats, x)
    mu = np.einsum("ni,ni->n", x, mx)
    resid = np.linalg.norm(mx - mu[:, None] * x, axis=1) / np.maximum(np.abs(mu), 1e-300)
    return x, mu, resid


def _top_eig_power(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenpair per stacked matrix by power iteration.

    Returns (vectors, rayleigh values, relative residuals); a residual above
    tolerance means no real dominant eigenvalue was found.
    """
    n, m, _ = mats.shape
    x = _start_vectors(n, m)
    for _ in range(POWER_ITERS):
        x = _normalize_rows(np.einsum("nij,nj->ni", mats, x))
    return _rayleigh(mats, x)


def _top_eig_squared(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Same result as ``_top_eig_power``: the direction of mats^POWER_ITERS x0.

    The power is formed by log2(POWER_ITERS) batched squarings, each
    renormalised to unit Frobenius norm, and applied once to the start
    vector.  Squaring merges eigenvalues of equal modulus and opposite sign,
    so the Rayleigh value and the residual are taken against the unsquared
    matrices: such a pair keeps a large residual and stays masked.  Meant
    for the square-type levels (see the module docstring); squaring a
    non-normal level matrix loses digits.
    """
    n, m, _ = mats.shape
    p = mats
    for _ in range(SQUARINGS):
        p = p @ p
        nrm = np.sqrt(np.einsum("nij,nij->n", p, p))
        nrm[nrm == 0.0] = 1.0
        p /= nrm[:, None, None]
    x = _normalize_rows(np.einsum("nij,nj->ni", p, _start_vectors(n, m)))
    return _rayleigh(mats, x)


def _top_eig_of_squares(m: np.ndarray, square) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_top_eig_squared(square(b))`` over row blocks b of the level stack m.

    A block's matrices, squarings and scaled copies are freed before the
    next block, so the transients stay at a few SQUARE_BLOCK x m x m arrays
    however many words a shell piece holds.
    """
    n, k, _ = m.shape
    x, mu, resid = np.empty((n, k)), np.empty(n), np.empty(n)
    for lo in range(0, n, SQUARE_BLOCK):
        b = slice(lo, lo + SQUARE_BLOCK)
        x[b], mu[b], resid[b] = _top_eig_squared(square(m[b]))
    return x, mu, resid


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

    def __init__(self, ctx: BulkContext, length: int, idx_rows: np.ndarray,
                 comps: list[np.ndarray], scales: list[np.ndarray], logdets: np.ndarray):
        self.ctx = ctx
        self.length = length
        self.idx_rows = idx_rows
        self.comps = comps
        self.scales = scales
        self.logdets = logdets
        self._cache: dict[str, object] = {}

    @property
    def count(self) -> int:
        return self.idx_rows.shape[0]

    def piece(self, rows: slice) -> "ShellData":
        """The words of a row slice, with an empty cache."""
        return ShellData(self.ctx, self.length, self.idx_rows[rows], [c[rows] for c in self.comps],
                         [s[rows] for s in self.scales], self.logdets[rows])

    @_memo
    def ranks(self) -> np.ndarray:
        return _ranks_of(self.idx_rows, self.ctx.k)

    @_memo
    def inverse_ranks(self) -> np.ndarray:
        return _ranks_of(_inverse_indices(self.idx_rows), self.ctx.k)

    def _line_signs(self, wedge_signs: np.ndarray) -> np.ndarray:
        """(n, d) form signs of a flag's lines from the signs of its level-j wedges."""
        q_ext = np.concatenate([np.ones((self.count, 1)), wedge_signs], axis=1)
        signs = q_ext[:, 1:] * q_ext[:, :-1]
        last = np.prod(signs, axis=1) * np.sign(np.prod(self.ctx.level_signs[0]))
        return np.column_stack([signs, last])

    # -- Cartan data ---------------------------------------------------

    @_memo
    def _cartan_tops(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level: top right singular vectors and top eigenvalues of M^T M."""
        return [_top_eig_of_squares(m, lambda b: np.swapaxes(b, 1, 2) @ b)[:2] for m in self.comps]

    @_memo
    def cartan_prefixes(self) -> np.ndarray:
        """(n, d) array: prefix sums of the sorted log singular values."""
        return np.column_stack([0.5 * np.log(np.maximum(mu, 1e-300)) + s
                                for (_, mu), s in zip(self._cartan_tops(), self.scales)] + [self.logdets])

    @_memo
    def cartan_coords(self) -> np.ndarray:
        """(n, d) recentered descending log singular values."""
        return _recentred_increments(self.cartan_prefixes())

    @_memo
    def attractor_signs(self) -> np.ndarray:
        """(n, d) orbit-signature signs of the singular (Cartan) attractor flag.

        Level j's attractor wedge is the top left singular vector, along M v
        for the right one v of the Cartan kernel; only the sign of its form
        value is read, so M v is not normalised.
        """
        qs = []
        for m, (v, _), sg in zip(self.comps, self._cartan_tops(), self.ctx.level_signs):
            u = np.einsum("nij,nj->ni", m, v)
            qs.append(np.sign(np.einsum("ni,i,ni->n", u, sg, u)))
        return self._line_signs(np.column_stack(qs))

    def min_root_gap(self) -> np.ndarray:
        """Per word: smallest simple-root value of the Cartan projection."""
        return np.min(-np.diff(self.cartan_coords(), axis=1), axis=1)

    # -- twisted square / slot projection -------------------------------

    @_memo
    def _twisted_tops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per level: top eigendata of S_j = J_j M_j^T J_j M_j (normalized)."""
        mus, signs, resids = [], [], []
        for m, sg in zip(self.comps, self.ctx.level_signs):
            x, mu, resid = _top_eig_of_squares(
                m, lambda b: (sg[:, None] * np.swapaxes(b, 1, 2)) @ (sg[:, None] * b))
            mus.append(mu)
            resids.append(resid)
            signs.append(np.sign(np.einsum("ni,i,ni->n", x, sg, x)))
        return tuple(np.column_stack(a) for a in (mus, signs, resids))

    def membership_mask(self) -> np.ndarray:
        """Words whose twisted square has a real dominant pair on every level."""
        mus, _, resids = self._twisted_tops()
        return (resids < RESIDUAL_TOL).all(axis=1) & (mus != 0).all(axis=1) & np.isfinite(mus).all(axis=1)

    @_memo
    def bo_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot coordinates, eigenline signs (rank order) and modulus gaps.

        Signs come from prefix sign products of the level-j dominant
        eigenvectors, which are the wedges of the eigenline decomposition.
        """
        p = self.ctx.p
        mus, qsigns, _ = self._twisted_tops()
        prefix = np.log(np.maximum(np.abs(mus), 1e-300)) + 2 * np.column_stack(self.scales)
        full = np.concatenate([prefix, (2 * self.logdets)[:, None]], axis=1)
        halves = _recentred_increments(full / 2)
        gaps = -np.diff(halves, axis=1) * 2
        signs = self._line_signs(qsigns)
        pos_rank = np.cumsum(signs > 0, axis=1) - 1
        neg_rank = np.cumsum(signs < 0, axis=1) - 1
        slots = np.where(signs > 0, pos_rank, p + neg_rank)
        bo = np.full((self.count, self.ctx.d), np.nan)
        np.put_along_axis(bo, slots.astype(np.int64), halves, axis=1)
        return bo, signs, gaps

    def bo_valid_mask(self) -> np.ndarray:
        """Members whose eigenline signs fill the signature."""
        _, signs, _ = self.bo_data()
        return self.membership_mask() & (np.sum(signs > 0, axis=1) == self.ctx.p)

    # -- Jordan data -----------------------------------------------------

    @_memo
    def _jordan_tops(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level: stepwise-kernel (vectors, Rayleigh values, residuals) of M."""
        return [_top_eig_power(m) for m in self.comps]

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
        return _recentred_increments(prefix), ok


def _extend(shell: ShellData, parents, letters: np.ndarray) -> ShellData:
    """The words ``shell[parents]``, each followed by its letter in ``letters``.

    The engine's one product step: each level is multiplied by the letter's
    unit compound and renormalised to unit Frobenius norm, and the log-scales
    are added.  ``parents`` is an index array (a fan-out) or a slice.
    """
    ctx = shell.ctx
    comps, scales = [], []
    for j in range(ctx.d - 1):
        prod = shell.comps[j][parents] @ ctx.gen_entries[j][letters]
        nrm = np.sqrt(np.einsum("nij,nij->n", prod, prod))
        nrm[nrm == 0.0] = 1.0
        prod /= nrm[:, None, None]
        comps.append(prod)
        scales.append(shell.scales[j][parents] + ctx.gen_scales[j][letters] + np.log(nrm))
    idx = np.concatenate([shell.idx_rows[parents], letters[:, None].astype(np.int8)], axis=1)
    return ShellData(ctx, shell.length + 1, idx, comps, scales,
                     shell.logdets[parents] + ctx.gen_logdets[letters])


def _children(shell: ShellData, table: np.ndarray) -> ShellData:
    """Every reduced one-letter extension of every word, in canonical order."""
    letters = table[shell.idx_rows[:, -1]].reshape(-1)
    return _extend(shell, np.repeat(np.arange(shell.count), table.shape[1]), letters)


def _collect_chunked(shell: ShellData, collectors, chunk: int):
    for lo in range(0, shell.count, chunk):
        piece = shell.piece(slice(lo, lo + chunk))
        for c in collectors:
            c.update(piece)


def _run_subtree(args):
    ctx, first, length_max, collector_specs, chunk = args
    collectors = [cls(**kwargs) for cls, kwargs in collector_specs]
    table = successor_table(ctx.alphabet_size)
    shell = ctx.shell([[first]])
    _collect_chunked(shell, collectors, chunk)
    parent_chunk = max(1, chunk // table.shape[1])
    for length in range(2, length_max + 1):
        if length < length_max:
            shell = _children(shell, table)
            _collect_chunked(shell, collectors, chunk)
        else:
            # final shell is streamed in parent slices, never materialized
            for lo in range(0, shell.count, parent_chunk):
                _collect_chunked(_children(shell.piece(slice(lo, lo + parent_chunk)), table),
                                 collectors, chunk)
    return collectors


def run_bulk(ctx: BulkContext, length_max: int, collector_specs, threads: int = 1,
             chunk: int = DEFAULT_CHUNK, cap: int | None = None):
    """Run collectors over all shells 1..length_max; returns merged collectors.

    The identity word (shell zero) is not visited; callers account for it.
    Results are independent of ``threads`` because subtrees are merged in
    alphabet order and chunking is fixed.
    """
    total = ball_size(ctx.k, length_max) - 1
    if cap is not None and total > cap:
        raise CapExceededError(cap, total)
    firsts = list(range(ctx.alphabet_size))
    tasks = [(ctx, f, length_max, collector_specs, chunk) for f in firsts]
    if threads <= 1:
        per_subtree = [_run_subtree(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            per_subtree = list(pool.map(_run_subtree, tasks))
    merged = per_subtree[0]
    for other in per_subtree[1:]:
        for mine, theirs in zip(merged, other):
            mine.merge(theirs)
    return merged
