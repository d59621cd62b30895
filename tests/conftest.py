import numpy as np
import pytest

from pqcartan.forms import Form, sample_isometry
from pqcartan.numerics import ScaledMatrix
from pqcartan.weyl import WeylElement


@pytest.fixture
def s1():
    """Reference setup: d=3 real, J=diag(1,1,-1)."""
    return Form.standard(2, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_sl(rng, d, spread=1.0):
    """A well-conditioned random matrix, determinant-normalized in scaled form."""
    a = rng.standard_normal((d, d)) + spread * np.eye(d)
    while abs(np.linalg.det(a)) < 1e-3:
        a = rng.standard_normal((d, d)) + spread * np.eye(d)
    a = a / abs(np.linalg.det(a)) ** (1.0 / d)
    return ScaledMatrix.of(a)


def random_slot_vector(rng, p, q, radius=5.0):
    """A vector of the slot chamber, descending within each sign class."""
    d = p + q
    x = rng.standard_normal(d)
    x[:p] = np.sort(x[:p])[::-1]
    x[p:] = np.sort(x[p:])[::-1]
    x -= x.mean()
    x *= radius * rng.random() / max(np.linalg.norm(x), 1e-9)
    return x


def sample_decomposable(rng, o, x=None, lift_perm=None):
    """g = h w exp(X) h' with isometries h, h', a signed permutation lift w."""
    p, q = o.signature
    d = o.dim
    if x is None:
        x = random_slot_vector(rng, p, q)
    perm = tuple(rng.permutation(d)) if lift_perm is None else lift_perm
    w = WeylElement(perm).lift()
    signs = np.where(rng.random(d) < 0.5, 1.0, -1.0)
    h = sample_isometry(o, rng)
    h2 = sample_isometry(o, rng)
    core = ScaledMatrix.of((w * signs[None, :] @ np.diag(np.exp(x))).astype(h.entries.dtype))
    return h @ core @ h2, x
