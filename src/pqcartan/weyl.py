"""Weyl group elements, slot chambers and chamber/flag dictionaries.

Vectors of the Cartan subspace are length-d sum-zero arrays indexed by the
reference lines: indices 0..p-1 are the positive lines, p..d-1 the negative
ones, each class carrying its standard descending order.  A full chamber is
a total order on the lines; the slot chamber (descending within each sign
class) is the union of the binom(d, p) compatible full chambers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

import numpy as np

__all__ = [
    "WeylElement",
    "ChamberB",
    "ChamberA",
    "compatible_chambers",
    "merge_to_slots",
    "embed_compatible",
    "opposition_b",
    "iota_b",
    "chamber_from_signs",
    "iota_of_chamber",
]

CHAMBER_TOL = 1e-10
REFERENCE_LINE_TOL = 1e-9


@dataclass(frozen=True)
class WeylElement:
    """A permutation of the reference lines with a signed-matrix lift.

    perm[i] is the image line of line i; acting on a coordinate vector x
    gives y with y[perm[i]] = x[i].
    """

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {self.perm}")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def act(self, x: np.ndarray) -> np.ndarray:
        y = np.empty_like(np.asarray(x, dtype=float))
        y[list(self.perm)] = x
        return y

    def inverse(self) -> "WeylElement":
        inv = [0] * self.dim
        for i, j in enumerate(self.perm):
            inv[j] = i
        return WeylElement(tuple(inv))

    def lift(self) -> np.ndarray:
        """Permutation-matrix representative in the standard maximal compact.

        One row is negated when needed to land in SL; the sign is invisible
        projectively.
        """
        d = self.dim
        m = np.zeros((d, d))
        for i, j in enumerate(self.perm):
            m[j, i] = 1.0
        if np.linalg.det(m) < 0:
            m[self.perm[0], 0] = -1.0
        return m

    @staticmethod
    def identity(d: int) -> "WeylElement":
        return WeylElement(tuple(range(d)))


@dataclass(frozen=True)
class ChamberB:
    """The slot chamber: descending within positive and within negative slots."""

    p: int
    q: int

    @property
    def dim(self) -> int:
        return self.p + self.q

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        pos, neg = x[: self.p], x[self.p :]
        return bool(np.all(np.diff(pos) <= CHAMBER_TOL) and np.all(np.diff(neg) <= CHAMBER_TOL))


@dataclass(frozen=True)
class ChamberA:
    """A full Weyl chamber, as the total order of lines it induces.

    order[k] is the line sitting at rank k; the chamber is
    {x : x[order[0]] >= ... >= x[order[d-1]]}.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a total order on lines: {self.order}")

    @property
    def dim(self) -> int:
        return len(self.order)

    def contains(self, x: np.ndarray) -> bool:
        vals = np.asarray(x, dtype=float)[list(self.order)]
        return bool(np.all(np.diff(vals) <= CHAMBER_TOL))

    def place(self, descending_values: np.ndarray) -> np.ndarray:
        """Vector of this chamber with the given rank-ordered values."""
        y = np.empty(self.dim)
        y[list(self.order)] = np.asarray(descending_values, dtype=float)
        return y

    def read(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x read in chamber rank order."""
        return np.asarray(x, dtype=float)[list(self.order)]

    def is_compatible(self, p: int) -> bool:
        """Whether this chamber sits inside the slot chamber of signature p."""
        pos = [i for i in self.order if i < p]
        neg = [i for i in self.order if i >= p]
        return pos == sorted(pos) and neg == sorted(neg)

    def signs(self, p: int) -> tuple[int, ...]:
        return tuple(1 if i < p else -1 for i in self.order)

    @staticmethod
    def default(d: int) -> "ChamberA":
        return ChamberA(tuple(range(d)))


def compatible_chambers(p: int, q: int) -> list[ChamberA]:
    """All full chambers inside the slot chamber: shuffles of the two orders."""
    if p < 1 or q < 1:
        raise ValueError("signature entries must be positive")
    d = p + q
    out = []
    for pos_slots in combinations(range(d), p):
        order = [0] * d
        pos_iter = iter(range(p))
        neg_iter = iter(range(p, d))
        pos_set = set(pos_slots)
        for k in range(d):
            order[k] = next(pos_iter) if k in pos_set else next(neg_iter)
        out.append(ChamberA(tuple(order)))
    assert len(out) == comb(d, p)
    return out


def merge_to_slots(signs) -> tuple[int, ...]:
    """Stable two-pile merge: rank k of the given sign goes to its next slot.

    Returns the map rank -> slot for a sign sequence read in chamber order;
    positive ranks fill slots 0..p-1 in order, negative ranks p..d-1.
    """
    signs = list(signs)
    p = sum(1 for s in signs if s > 0)
    next_pos, next_neg = 0, p
    out = []
    for s in signs:
        if s > 0:
            out.append(next_pos)
            next_pos += 1
        elif s < 0:
            out.append(next_neg)
            next_neg += 1
        else:
            raise ValueError("signs must be +-1")
    return tuple(out)


def embed_compatible(chamber: ChamberA, p: int) -> WeylElement:
    """The unique sign-preserving Weyl element taking the chamber into slots.

    The element permutes positive lines among themselves and negative lines
    among themselves (so its lift preserves the diagonal standard form), and
    w . chamber is slot-compatible.
    """
    signs = chamber.signs(p)
    if sum(1 for s in signs if s > 0) != p:
        raise ValueError(f"sign count does not match signature p={p}")
    rank_to_slot = merge_to_slots(signs)
    d = chamber.dim
    perm = [0] * d
    for k in range(d):
        perm[chamber.order[k]] = rank_to_slot[k]
    return WeylElement(tuple(perm))


def opposition_b(p: int, q: int) -> WeylElement:
    """Order reversal within positives and within negatives."""
    perm = [p - 1 - i for i in range(p)] + [p + (q - 1 - j) for j in range(q)]
    return WeylElement(tuple(perm))


def iota_b(p: int, q: int, x: np.ndarray) -> np.ndarray:
    """Opposition involution of the slot chamber: X -> -w_b . X."""
    return -opposition_b(p, q).act(np.asarray(x, dtype=float))


def iota_of_chamber(chamber: ChamberA, p: int) -> ChamberA:
    """Image chamber under the slot-chamber opposition involution."""
    q = chamber.dim - p
    w = opposition_b(p, q)
    return ChamberA(tuple(reversed([w.perm[i] for i in chamber.order])))


def chamber_from_signs(signs) -> ChamberA:
    """The slot-compatible chamber whose line signs read in rank order match.

    Rank k receives the next unused line of the matching sign class.
    """
    return ChamberA(merge_to_slots(signs))


def flag_chamber(flag_basis: np.ndarray) -> ChamberA:
    """Inverse dictionary: the chamber of a coordinate flag.

    Accepts only flags whose columns are reference lines (up to sign and
    tolerance); anything else raises.
    """
    b = np.asarray(flag_basis)
    d = b.shape[0]
    order = []
    for j in range(d):
        col = b[:, j] / np.linalg.norm(b[:, j])
        i = int(np.argmax(np.abs(col)))
        off_axis = np.linalg.norm(col) ** 2 - col[i] ** 2
        if abs(abs(col[i]) - 1.0) > REFERENCE_LINE_TOL or off_axis > REFERENCE_LINE_TOL:
            raise ValueError(f"column {j} does not span a reference line")
        order.append(i)
    return ChamberA(tuple(order))


def act_on_chamber(w: WeylElement, chamber: ChamberA) -> ChamberA:
    return ChamberA(tuple(w.perm[i] for i in chamber.order))


def chamber_transition(target: ChamberA, source: ChamberA) -> WeylElement:
    """The Weyl element w with w . source = target."""
    d = target.dim
    perm = [0] * d
    for k in range(d):
        perm[source.order[k]] = target.order[k]
    return WeylElement(tuple(perm))


def all_weyl(d: int):
    for p in permutations(range(d)):
        yield WeylElement(p)
