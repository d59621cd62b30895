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

import numpy as np

__all__ = [
    "WeylElement",
    "ChamberB",
    "ChamberA",
    "compatible_chambers",
    "merge_to_slots",
    "file_to_slots",
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
        return ChamberA(self.perm).place(np.asarray(x, dtype=float))

    def inverse(self) -> "WeylElement":
        return WeylElement(tuple(ChamberA(self.perm).place(np.arange(self.dim)).tolist()))

    def lift(self) -> np.ndarray:
        """Permutation-matrix representative in the standard maximal compact.

        One row is negated when needed to land in SL; the sign is invisible
        projectively.
        """
        m = np.eye(self.dim)[:, list(self.perm)]
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
        return bool(np.all(np.diff(self.read(np.asarray(x, dtype=float))) <= CHAMBER_TOL))

    def place(self, descending_values) -> np.ndarray:
        """(..., d) vectors of this chamber with the given rank-ordered values.

        The value of rank k sits at line order[k]; the dtype is kept.
        """
        values = np.asarray(descending_values)
        y = np.empty_like(values)
        y[..., list(self.order)] = values
        return y

    def read(self, x) -> np.ndarray:
        """(..., d) coordinates of x read in chamber rank order; inverse of ``place``."""
        return np.asarray(x)[..., list(self.order)]

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
    """All full chambers inside the slot chamber: shuffles of the two orders.

    One per choice of the p ranks holding positive lines, in lexicographic
    order of those ranks.
    """
    if p < 1 or q < 1:
        raise ValueError("signature entries must be positive")
    d = p + q
    return [chamber_from_signs([1 if k in pos_ranks else -1 for k in range(d)])
            for pos_ranks in combinations(range(d), p)]


def merge_to_slots(signs) -> np.ndarray:
    """Stable two-pile merge: rank k of the given sign goes to its next slot.

    Takes a (..., d) array of +-1 signs read in chamber order and returns
    the (..., d) integer map rank -> slot of each sequence: with p positive
    signs in the sequence, positive ranks fill slots 0..p-1 in order and
    negative ranks p..d-1.
    """
    signs = np.asarray(signs)
    pos, neg = signs > 0, signs < 0
    if (pos == neg).any():  # a sign that is neither positive nor negative
        raise ValueError("signs must be +-1")
    pos_slot = pos.cumsum(axis=-1) - 1
    return np.where(pos, pos_slot, pos_slot[..., -1:] + neg.cumsum(axis=-1))


def file_to_slots(values: np.ndarray, signs) -> np.ndarray:
    """(..., d) rank-ordered values filed into slots: rank k goes to slot merge_to_slots(signs)[k]."""
    out = np.empty_like(values)
    np.put_along_axis(out, merge_to_slots(signs), values, axis=-1)
    return out


def embed_compatible(chamber: ChamberA, p: int) -> WeylElement:
    """The unique sign-preserving Weyl element taking the chamber into slots.

    The element permutes positive lines among themselves and negative lines
    among themselves (so its lift preserves the diagonal standard form), and
    w . chamber is slot-compatible.
    """
    signs = chamber.signs(p)
    if sum(1 for s in signs if s > 0) != p:
        raise ValueError(f"sign count does not match signature p={p}")
    return WeylElement(tuple(chamber.place(merge_to_slots(signs)).tolist()))


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
    return ChamberA(tuple(merge_to_slots(signs).tolist()))


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
        off_axis = np.linalg.norm(col) ** 2 - abs(col[i]) ** 2
        if abs(abs(col[i]) - 1.0) > REFERENCE_LINE_TOL or off_axis > REFERENCE_LINE_TOL:
            raise ValueError(f"column {j} does not span a reference line")
        order.append(i)
    return ChamberA(tuple(order))


def act_on_chamber(w: WeylElement, chamber: ChamberA) -> ChamberA:
    return ChamberA(tuple(w.perm[i] for i in chamber.order))


def chamber_transition(target: ChamberA, source: ChamberA) -> WeylElement:
    """The Weyl element w with w . source = target: line source.order[k] goes to target.order[k]."""
    return WeylElement(tuple(source.place(target.order).tolist()))


def all_weyl(d: int):
    for p in permutations(range(d)):
        yield WeylElement(p)
