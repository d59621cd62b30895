"""The one high-precision reference of the test suite.

Exact products of float64 matrices in mpmath, and the readings the engine
and the word-wise API are checked against: recentred log singular values
(Cartan), recentred log eigenvalue moduli (Jordan), and the slot vector b_o
of the twisted square with its rank -> slot map.  A representation is read
only through its stored letters (``rep.images_std`` and ``rep.image_scales``)
and a form only through its signature, so no reading here goes through the
library's kernels, slot map or recentring.

Every value is computed at DPS digits under ``mpmath.workdps``, which leaves
the global precision as it found it.
"""

import mpmath
import numpy as np

DPS = 200  # the twisted squares of L=10 words span about e^190


def product(mats):
    """The exact product of float64 matrices, left to right."""
    with mpmath.workdps(DPS):
        exact = mpmath.eye(len(mats[0]))
        for m in mats:
            exact = exact * mpmath.matrix(np.asarray(m).tolist())
        return exact


def row_product(rep, row):
    """The exact product of a word's stored letters, given as an alphabet-index row.

    Index 2i is generator i + 1 and index 2i + 1 its inverse.
    """
    return product([np.exp(rep.image_scales[i]) * rep.images_std[i] for i in np.asarray(row).tolist()])


def unit_and_log_norm(exact):
    """(exact / |exact|_F as float64, log |exact|_F)."""
    with mpmath.workdps(DPS):
        nrm = mpmath.norm(exact)
        return np.array((exact / nrm).tolist(), dtype=float), float(mpmath.log(nrm))


def _recentred_log_moduli(values, power=1):
    """Descending log |v| / power of mpmath numbers, recentred to sum zero."""
    logs = np.array(sorted((float(mpmath.log(abs(v))) / power for v in values), reverse=True))
    return logs - logs.mean()


def cartan(exact):
    """Recentred descending log singular values: half the log eigenvalues of exact^T exact."""
    with mpmath.workdps(DPS):
        return _recentred_log_moduli(mpmath.eig(exact.T * exact, left=False, right=False), power=2)


def jordan(exact):
    """Recentred descending log eigenvalue moduli."""
    with mpmath.workdps(DPS):
        return _recentred_log_moduli(mpmath.eig(exact, left=False, right=False))


def slot_projection(exact, signature):
    """(b_o, rank -> slot map) of the twisted square J exact^T J exact, J = diag(1^p, (-1)^q).

    Rank k is the eigenvalue of k-th largest modulus; its value is half its
    log modulus, recentred.  Its eigenline is positive where x^T J x > 0 at
    the eigenvector x turned real by the phase of its largest entry.  Slots
    take the positive ranks first, then the negative ones, each class in
    rank (descending) order.
    """
    p, q = signature
    sg = [1] * p + [-1] * q
    with mpmath.workdps(DPS):
        jmat = mpmath.diag(sg)
        vals, vecs = mpmath.eig(jmat * exact.T * jmat * exact)
        order = sorted(range(p + q), key=lambda t: -abs(vals[t]))
        halves = np.array([float(mpmath.log(abs(vals[t]))) / 2 for t in order])
        positive = []
        for t in order:
            v = [vecs[r, t] for r in range(p + q)]
            top = max(v, key=abs)
            x = [mpmath.re(c * abs(top) / top) for c in v]
            positive.append(sum(s * c**2 for s, c in zip(sg, x)) > 0)
    by_slot = [k for k in range(p + q) if positive[k]] + [k for k in range(p + q) if not positive[k]]
    slot_of = np.empty(p + q, dtype=int)
    slot_of[by_slot] = np.arange(p + q)
    return (halves - halves.mean())[by_slot], slot_of
