"""Weyl group elements, full chambers and the rank-to-slot map.

Vectors of the Cartan subspace are length-d sum-zero arrays indexed by the
reference lines: indices 0..p-1 are the positive lines, p..d-1 the negative
ones, each class carrying its standard descending order.  A full chamber is
a total order on the lines; the slot chamber (descending within each sign
class) is the union of the binom(d, p) compatible full chambers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def lift(self) -> np.ndarray:
        """Permutation-matrix representative in the standard maximal compact.

        One row is negated when needed to land in SL; the sign is invisible
        projectively.
        """
        m = np.eye(self.dim)[:, list(self.perm)]
        if np.linalg.det(m) < 0:
            m[self.perm[0], 0] = -1.0
        return m


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


def opposition_b(p: int, q: int) -> WeylElement:
    """Order reversal within positives and within negatives."""
    perm = [p - 1 - i for i in range(p)] + [p + (q - 1 - j) for j in range(q)]
    return WeylElement(tuple(perm))


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


def chamber_transition(target: ChamberA, source: ChamberA) -> WeylElement:
    """The Weyl element w with w . source = target: line source.order[k] goes to target.order[k]."""
    return WeylElement(tuple(source.place(target.order).tolist()))

