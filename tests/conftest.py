import numpy as np
import pytest

from pqcartan import bulk
from pqcartan.bulk import _ranks_of, index_letter, index_row, letter_index, successor_table
from pqcartan.flags import Flag
from pqcartan.forms import Form, sample_isometry
from pqcartan.freegroup import Representation
from pqcartan.numerics import NumericsError, ScaledMatrix, subset_table
from pqcartan.weyl import WeylElement, opposition_b


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


# float64 references that tests compare the library against: reduced words
# in canonical order (as index rows and as letter tuples), their ranks and printed names, a word's dense
# product, the slot-chamber opposition, the sine distance of flags, and a word's singular flag assembled
# from one SVD per exterior-power level of the engine's product


def sphere_rows(k: int, length: int) -> np.ndarray:
    """(n, length) int8 alphabet-index rows of the sphere's words, canonical order, built letter by letter.

    Row i is the word of rank i; raises ValueError below length 1.  The reference for
    ``bulk.rows_of_ranks``, which unranks rows without building the sphere.
    """
    if length < 1:
        raise ValueError(f"sphere_rows needs length >= 1, got {length}")
    table = successor_table(2 * k)
    rows = np.arange(2 * k, dtype=np.int8)[:, None]
    for _ in range(length - 1):
        nxt = table[rows[:, -1]].reshape(-1, 1)
        rows = np.concatenate([np.repeat(rows, table.shape[1], axis=0), nxt], axis=1)
    return rows


def sphere_words(k: int, length: int):
    """All reduced words of the given length as letter tuples, canonical order."""
    if length == 0:
        yield ()
        return
    for row in sphere_rows(k, length).tolist():
        yield row_letters(row)


def row_letters(row) -> tuple[int, ...]:
    """The letters of an alphabet-index row."""
    return tuple(index_letter(i) for i in row)


def inverse_word(letters) -> tuple[int, ...]:
    """The letters of a reduced word's inverse."""
    return tuple(-letter for letter in reversed(letters))


def word_name(letters) -> str:
    """A word's printed name, letter by letter: a, a', b, ... joined by dots; the reference for ``bulk.word_names``."""
    return ".".join("abcdefgh"[abs(letter) - 1] + ("'" if letter < 0 else "") for letter in letters)


def word_image(rep: Representation, letters) -> ScaledMatrix:
    """The float64 product of a word's stored letter images, folded left to right from the identity."""
    acc = ScaledMatrix.identity(rep.dim, rep.form.field_tag)
    for letter in letters:
        i = letter_index(letter)
        acc = acc @ ScaledMatrix(rep.images_std[i], float(rep.image_scales[i]))
    return acc


def word_rank(word, k: int) -> int:
    """Rank of a reduced word inside its own shell, canonical order."""
    if not word:
        return 0
    return int(_ranks_of(index_row(word)[None], k)[0])


def iota_b(p: int, q: int, x: np.ndarray) -> np.ndarray:
    """Opposition involution of the slot chamber: X -> -w_b . X."""
    return -opposition_b(p, q).act(np.asarray(x, dtype=float))


def flag_distance(x: Flag, y: Flag) -> float:
    """Largest sine-metric distance between wedge lines across all levels."""
    if x.dim != y.dim:
        raise ValueError("flags of different dimensions")
    return max(line_distance(u, v) for u, v in zip(x.wedges, y.wedges))


def line_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Sine of the angle between projective points, stable near zero."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    resid = v - u * np.vdot(u, v)
    return float(np.linalg.norm(resid))


def singular_flag(rep: Representation, letters) -> Flag:
    """Cartan attractor of the word's image: an SVD of each exterior-power level, stacked into a flag."""
    d = rep.dim
    comps = rep.bulk_context().shell(bulk.index_row(letters)[None]).comps
    cols = np.zeros((d, d))
    q_prev = np.zeros((d, 0))
    for j in range(1, d):
        sub = subspace_from_wedge(np.linalg.svd(comps[j - 1][0])[0][:, 0], d, j)
        resid = sub - q_prev @ (q_prev.T @ sub)
        cols[:, j - 1] = np.linalg.svd(resid, full_matrices=False)[0][:, 0]
        q_prev, _ = np.linalg.qr(cols[:, :j])
    cols[:, d - 1] = np.linalg.svd(np.eye(d) - q_prev @ q_prev.T)[0][:, 0]
    return Flag.of(cols)


def subspace_from_wedge(w: np.ndarray, d: int, j: int) -> np.ndarray:
    """Recover the j-dimensional subspace from a decomposable wedge vector.

    Solves x wedge w = 0 as a linear system in x; the wedge must be
    decomposable (it always is when it came from a subspace).
    """
    if j == d:
        return np.eye(d, dtype=w.dtype)
    subs_j = {tuple(s): i for i, s in enumerate(subset_table(d, j).tolist())}
    subs_j1 = subset_table(d, j + 1).tolist()
    rows = np.zeros((len(subs_j1), d), dtype=np.complex128 if np.iscomplexobj(w) else np.float64)
    for r, sup in enumerate(subs_j1):
        for pos, i in enumerate(sup):
            rest = tuple(sup[:pos] + sup[pos + 1 :])
            rows[r, i] = ((-1) ** pos) * w[subs_j[rest]]
    _, sv, vh = np.linalg.svd(rows)
    large = int(np.sum(sv > 1e-10 * sv[0])) if sv.size else 0
    if large > d - j:
        raise NumericsError("wedge vector is not decomposable within tolerance")
    return vh[d - j :, :].conj().T
