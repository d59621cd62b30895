"""Vectorized sphere enumeration with per-level exterior-power tracking.

Words beyond a handful of letters have log-singular spreads far past what
one float64 matrix can resolve, so every per-word projection is read off
incrementally maintained exterior powers: each level's product is kept at
unit Frobenius norm with its own log-scale, and only well-conditioned top
singular/eigen data of each level is ever consumed.

Two kernels compute that top eigendata, both as the direction of M^64 x0
for a fixed start vector x0, with the Rayleigh value and residual taken
against the matrix itself.  The square-type levels (the Cartan Gram
M^T M, the twisted square J M^T J M and the attractor Gram M M^T) use
``_top_eig_squared``: six renormalised batched squarings and one product
with x0, several times cheaper than 64 matrix-vector steps.  The Gram
matrices are symmetric, so squaring them costs no accuracy.  The twisted
square is only J-self-adjoint (its top eigenvalue has condition about
1/|x^T J x| for the unit top eigenvector x); it uses the squared kernel
because the two kernels agree on it to 1e-15 in log|mu|, with no
residual mask flipped, over every word of d=3 L=9..10 and d=5 L=7..8,
and b_o stays within 2e-9 of mpmath on the words of shell 10 of
``two_orbit_rep`` with the smallest |x^T J x| (0.42; it is 1 on every
word of the reducible examples).  The Jordan level reads the level
matrix M itself, which is far from normal on long words; squaring it
costs up to 1e-4 in the Jordan projection against mpmath, so
``jordan_coords`` (and the level kernels in ``counting``) keep the
stepwise ``_top_eig_power``, which stays within 4e-9.

Enumeration order is canonical: shells by length, words lexicographic in
the alphabet (g1, g1^-1, g2, g2^-1, ...).  Worker partitioning is by first
letter and results are merged in alphabet order, so outputs are identical
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import numpy as np

from .numerics import minor_matrix

__all__ = [
    "BulkContext",
    "ShellData",
    "run_bulk",
    "sphere_size",
    "ball_size",
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


def word_rank(word, k: int) -> int:
    """Rank of a reduced word inside its own shell, canonical order."""
    if not word:
        return 0
    idx = [letter_index(l) for l in word]
    rank = idx[0]
    for prev, cur in zip(idx, idx[1:]):
        banned = prev ^ 1
        pos = cur - (1 if cur > banned else 0)
        rank = rank * (2 * k - 1) + pos
    return rank


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
        level_signs = []
        from itertools import combinations

        for j in levels:
            level_signs.append(
                np.array([np.prod(base_signs[list(s)]) for s in combinations(range(d), j)])
            )
        return BulkContext(k, d, p, gen_entries, gen_scales, logdets, level_signs)

    @property
    def alphabet_size(self) -> int:
        return 2 * self.k

    def successor_table(self) -> np.ndarray:
        """Row per last-letter index: allowed next indices in alphabet order."""
        a = self.alphabet_size
        table = np.empty((a, a - 1), dtype=np.int8)
        for prev in range(a):
            table[prev] = [c for c in range(a) if c != (prev ^ 1)]
        return table


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


def _top_eig_power(mats: np.ndarray, iters: int = POWER_ITERS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenpair per stacked matrix by power iteration.

    Returns (vectors, rayleigh values, relative residuals); a residual above
    tolerance means no real dominant eigenvalue was found.
    """
    n, m, _ = mats.shape
    x = _start_vectors(n, m)
    for _ in range(iters):
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

    def ranks(self) -> np.ndarray:
        if "ranks" not in self._cache:
            self._cache["ranks"] = _ranks_of(self.idx_rows, self.ctx.k)
        return self._cache["ranks"]

    def inverse_ranks(self) -> np.ndarray:
        if "inv_ranks" not in self._cache:
            self._cache["inv_ranks"] = _ranks_of(_inverse_indices(self.idx_rows), self.ctx.k)
        return self._cache["inv_ranks"]

    # -- Cartan data ---------------------------------------------------

    def cartan_prefixes(self) -> np.ndarray:
        """(n, d) array: prefix sums of the sorted log singular values."""
        if "at_prefix" in self._cache:
            return self._cache["at_prefix"]
        d = self.ctx.d
        out = np.empty((self.count, d))
        for j in range(1, d):
            m = self.comps[j - 1]
            _, mu, _ = _top_eig_of_squares(m, lambda b: np.swapaxes(b, 1, 2) @ b)
            out[:, j - 1] = 0.5 * np.log(np.maximum(mu, 1e-300)) + self.scales[j - 1]
        out[:, d - 1] = self.logdets
        self._cache["at_prefix"] = out
        return out

    def cartan_coords(self) -> np.ndarray:
        """(n, d) recentered descending log singular values."""
        if "at" in self._cache:
            return self._cache["at"]
        pref = self.cartan_prefixes()
        coords = np.diff(np.concatenate([np.zeros((self.count, 1)), pref], axis=1), axis=1)
        coords -= coords.mean(axis=1, keepdims=True)
        self._cache["at"] = coords
        return coords

    # -- twisted square / slot projection -------------------------------

    def _twisted_tops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per level: top eigendata of S_j = J_j M_j^T J_j M_j (normalized)."""
        if "s_tops" in self._cache:
            return self._cache["s_tops"]
        d = self.ctx.d
        mus = np.empty((self.count, d - 1))
        signs = np.empty((self.count, d - 1))
        resids = np.empty((self.count, d - 1))
        for j in range(1, d):
            m = self.comps[j - 1]
            sg = self.ctx.level_signs[j - 1]
            x, mu, resid = _top_eig_of_squares(
                m, lambda b: (sg[:, None] * np.swapaxes(b, 1, 2)) @ (sg[:, None] * b))
            mus[:, j - 1] = mu
            resids[:, j - 1] = resid
            signs[:, j - 1] = np.sign(np.einsum("ni,i,ni->n", x, sg, x))
        out = (mus, signs, resids)
        self._cache["s_tops"] = out
        return out

    def membership_mask(self, tol: float = RESIDUAL_TOL) -> np.ndarray:
        """Words whose twisted square has a real dominant pair on every level."""
        mus, _, resids = self._twisted_tops()
        return (resids < tol).all(axis=1) & (mus != 0).all(axis=1) & np.isfinite(mus).all(axis=1)

    def bo_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot coordinates, eigenline signs (rank order) and modulus gaps.

        Signs come from prefix sign products of the level-j dominant
        eigenvectors, which are the wedges of the eigenline decomposition.
        """
        if "bo" in self._cache:
            return self._cache["bo"]
        d, p = self.ctx.d, self.ctx.p
        mus, qsigns, _ = self._twisted_tops()
        prefix = np.log(np.maximum(np.abs(mus), 1e-300)) + 2 * np.column_stack(self.scales)
        full = np.concatenate([prefix, (2 * self.logdets)[:, None]], axis=1)
        halves = np.diff(np.concatenate([np.zeros((self.count, 1)), full], axis=1), axis=1) / 2
        halves -= halves.mean(axis=1, keepdims=True)
        gaps = -np.diff(halves, axis=1) * 2
        q_ext = np.concatenate([np.ones((self.count, 1)), qsigns], axis=1)
        line_signs = q_ext[:, 1:] * q_ext[:, :-1]
        last = np.prod(line_signs, axis=1) * np.sign(np.prod(self.ctx.level_signs[0]))
        signs = np.column_stack([line_signs, last])
        pos_rank = np.cumsum(signs > 0, axis=1) - 1
        neg_rank = np.cumsum(signs < 0, axis=1) - 1
        slots = np.where(signs > 0, pos_rank, p + neg_rank)
        bo = np.full((self.count, d), np.nan)
        np.put_along_axis(bo, slots.astype(np.int64), halves, axis=1)
        out = (bo, signs, gaps)
        self._cache["bo"] = out
        return out

    def bo_valid_mask(self, tol: float = RESIDUAL_TOL) -> np.ndarray:
        """Members whose eigenline signs fill the signature."""
        _, signs, _ = self.bo_data()
        p = self.ctx.p
        return self.membership_mask(tol) & (np.sum(signs > 0, axis=1) == p)

    # -- Jordan data -----------------------------------------------------

    def jordan_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, d) recentered descending log eigenvalue moduli, with valid mask."""
        if "jordan" in self._cache:
            return self._cache["jordan"]
        d = self.ctx.d
        prefix = np.empty((self.count, d))
        ok = np.ones(self.count, dtype=bool)
        for j in range(1, d):
            _, mu, resid = _top_eig_power(self.comps[j - 1])
            prefix[:, j - 1] = np.log(np.maximum(np.abs(mu), 1e-300)) + self.scales[j - 1]
            ok &= resid < RESIDUAL_TOL
        prefix[:, d - 1] = self.logdets
        coords = np.diff(np.concatenate([np.zeros((self.count, 1)), prefix], axis=1), axis=1)
        coords -= coords.mean(axis=1, keepdims=True)
        out = (coords, ok)
        self._cache["jordan"] = out
        return out

    def attractor_signs(self) -> np.ndarray:
        """(n, d) orbit-signature signs of the singular (Cartan) attractor flag."""
        if "u_signs" in self._cache:
            return self._cache["u_signs"]
        d = self.ctx.d
        qs = np.empty((self.count, d - 1))
        for j in range(1, d):
            m = self.comps[j - 1]
            x, _, _ = _top_eig_of_squares(m, lambda b: b @ np.swapaxes(b, 1, 2))  # M M^T: left singular data
            qs[:, j - 1] = np.sign(np.einsum("ni,i,ni->n", x, self.ctx.level_signs[j - 1], x))
        q_ext = np.concatenate([np.ones((self.count, 1)), qs], axis=1)
        signs = q_ext[:, 1:] * q_ext[:, :-1]
        last = np.prod(signs, axis=1) * np.sign(np.prod(self.ctx.level_signs[0]))
        out = np.column_stack([signs, last])
        self._cache["u_signs"] = out
        return out

    def min_root_gap(self) -> np.ndarray:
        """Per word: smallest simple-root value of the Cartan projection."""
        return np.min(-np.diff(self.cartan_coords(), axis=1), axis=1)


def _seed_subtree(ctx: BulkContext, first: int):
    comps = [ctx.gen_entries[j][first : first + 1].copy() for j in range(ctx.d - 1)]
    scales = [ctx.gen_scales[j][first : first + 1].copy() for j in range(ctx.d - 1)]
    idx = np.array([[first]], dtype=np.int8)
    logdets = ctx.gen_logdets[first : first + 1].copy()
    return idx, comps, scales, logdets


def _children(ctx: BulkContext, idx, comps, scales, logdets, table):
    a = ctx.alphabet_size
    n = idx.shape[0]
    child_letters = table[idx[:, -1]].reshape(-1)
    parent_rep = np.repeat(np.arange(n), a - 1)
    new_idx = np.concatenate(
        [idx[parent_rep], child_letters[:, None].astype(np.int8)], axis=1
    )
    new_comps, new_scales = [], []
    for j in range(ctx.d - 1):
        prod = comps[j][parent_rep] @ ctx.gen_entries[j][child_letters]
        nrm = np.sqrt(np.einsum("nij,nij->n", prod, prod))
        nrm[nrm == 0.0] = 1.0
        prod /= nrm[:, None, None]
        new_comps.append(prod)
        new_scales.append(scales[j][parent_rep] + ctx.gen_scales[j][child_letters] + np.log(nrm))
    new_logdets = logdets[parent_rep] + ctx.gen_logdets[child_letters]
    return new_idx, new_comps, new_scales, new_logdets


def _collect_chunked(ctx, length, idx, comps, scales, logdets, collectors, chunk):
    n = idx.shape[0]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        piece = ShellData(
            ctx,
            length,
            idx[lo:hi],
            [c_[lo:hi] for c_ in comps],
            [s_[lo:hi] for s_ in scales],
            logdets[lo:hi],
        )
        for c in collectors:
            c.update(piece)


def _run_subtree(args):
    ctx, first, length_max, collector_specs, chunk = args
    collectors = [cls(**kwargs) for cls, kwargs in collector_specs]
    table = ctx.successor_table()
    idx, comps, scales, logdets = _seed_subtree(ctx, first)
    _collect_chunked(ctx, 1, idx, comps, scales, logdets, collectors, chunk)
    fanout = ctx.alphabet_size - 1
    for length in range(2, length_max + 1):
        if length < length_max:
            idx, comps, scales, logdets = _children(ctx, idx, comps, scales, logdets, table)
            _collect_chunked(ctx, length, idx, comps, scales, logdets, collectors, chunk)
        else:
            # final shell is streamed in parent slices, never materialized
            parent_chunk = max(1, chunk // fanout)
            n = idx.shape[0]
            for lo in range(0, n, parent_chunk):
                hi = min(lo + parent_chunk, n)
                ci, cc, cs, cl = _children(
                    ctx,
                    idx[lo:hi],
                    [c_[lo:hi] for c_ in comps],
                    [s_[lo:hi] for s_ in scales],
                    logdets[lo:hi],
                    table,
                )
                _collect_chunked(ctx, length, ci, cc, cs, cl, collectors, chunk)
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
