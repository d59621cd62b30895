"""Free-group words, Schottky builders with certification, limit sampling.

Letters are nonzero integers: i stands for the i-th generator, -i for its
inverse.  The canonical alphabet order is (1, -1, 2, -2, ...); spheres are
enumerated lexicographically in this order, shortest first, and the
enumeration is partitionable by first letter for parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import bulk
from .bulk import BulkContext, sphere_rows
from .flags import Flag, line_hyperplane_distance, o_generic
from .forms import DEGENERACY_RTOL, Form, induced_form
from .numerics import ScaledMatrix, wedge_coordinates
from .projections import GAP_TOL, NotLoxodromicError, eigen_flag, fixed_pair_separation, ping_pong_levels

__all__ = [
    "Word",
    "Representation",
    "SchottkyRejection",
    "build_schottky",
    "build_reducible_example",
    "sample_limit_set",
]


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if l == 0:
            raise ValueError("letters are nonzero integers")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A reduced word; multiplication re-reduces at the seam."""

    letters: tuple[int, ...]

    @staticmethod
    def of(letters) -> "Word":
        return Word(reduce_letters(letters))

    @property
    def length(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word.of(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        names = "abcdefgh"
        return ".".join(names[abs(l) - 1] + ("'" if l < 0 else "") for l in self.letters)


@dataclass
class Representation:
    """Generator images with inverses, a basepoint form and build metadata.

    Images are stored in the form's standard coordinates (the congruence is
    applied once at build time), and so is every flag read off them.
    """

    rank: int
    form: Form
    images_std: list[np.ndarray]  # 2k matrices, order (g1, g1^-1, g2, ...)
    image_scales: np.ndarray
    metadata: dict = field(default_factory=dict)
    certificate: dict | None = None
    _bulk: BulkContext | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def of(generators: list[ScaledMatrix], form: Form, metadata: dict | None = None) -> "Representation":
        t = form.standard_basis
        t_inv = np.linalg.inv(t)
        images, scales = [], []
        for g in generators:
            for m in (g, g.inv()):
                std = ScaledMatrix.of(t_inv @ m.entries @ t, m.log_scale)
                images.append(std.entries)
                scales.append(std.log_scale)
        return Representation(
            rank=len(generators),
            form=Form.standard(*form.signature, form.field_tag),
            images_std=images,
            image_scales=np.array(scales),
            metadata=dict(metadata or {}),
        )

    @property
    def dim(self) -> int:
        return self.form.dim

    def letter_image(self, letter: int) -> ScaledMatrix:
        i = bulk.letter_index(letter)
        return ScaledMatrix(self.images_std[i], float(self.image_scales[i]))

    def image(self, word: Word | tuple) -> ScaledMatrix:
        letters = word.letters if isinstance(word, Word) else tuple(word)
        acc = ScaledMatrix.identity(self.dim, self.form.field_tag)
        for l in letters:
            acc = acc @ self.letter_image(l)
        return acc

    def bulk_context(self) -> BulkContext:
        if self._bulk is None:
            self._bulk = BulkContext.of(self.images_std, self.form.signature[0])
        return self._bulk


def row_word(row) -> Word:
    """The word of an alphabet-index row."""
    return Word(tuple(bulk.index_letter(i) for i in row))


@dataclass(frozen=True)
class SchottkyRejection:
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return False


def build_schottky(
    generators: list[ScaledMatrix],
    o: Form,
    power: int = 1,
    metadata: dict | None = None,
):
    """Certified ping-pong representation from loxodromic generators.

    Images are the given power of the generators.  Certification checks, on
    every exterior-power level: each image's fixed flags are generic for the
    form and pairwise separated across letters, and each image contracts the
    complement of an eps-ball around its repelling hyperplane into an
    eps-ball around its attracting line, with eps one sixth of the smallest
    separation (the slack the ping-pong geometry needs).  Failures produce a
    rejection report naming the pair and level.
    """
    reasons: list[str] = []
    t = o.standard_basis
    t_inv = np.linalg.inv(t)
    std_gens = [ScaledMatrix.of(t_inv @ g.entries @ t, g.log_scale) for g in generators]
    o_std = Form.standard(*o.signature, o.field_tag)
    images = [g.power(power) for g in std_gens]
    k = len(generators)
    d = o.dim

    flags_plus: list[Flag] = []
    flags_minus: list[Flag] = []
    for i, g in enumerate(images):
        try:
            fp = eigen_flag(g)
        except NotLoxodromicError:
            reasons.append(f"generator {i} image not loxodromic")
            continue
        fm = Flag.of(fp.basis[:, ::-1])
        flags_plus.append(fp)
        flags_minus.append(fm)
        for name, f in (("attractor", fp), ("repellor", fm)):
            if not o_generic(o_std, f).generic:
                reasons.append(f"generator {i} {name} flag not generic for the form")
    if reasons:
        return SchottkyRejection(tuple(reasons))

    # letter fixed data: letter 2i is g_i^power, 2i+1 its inverse
    plus_of = {2 * i: flags_plus[i] for i in range(k)}
    plus_of.update({2 * i + 1: flags_minus[i] for i in range(k)})
    minus_of = {2 * i: flags_minus[i] for i in range(k)}
    minus_of.update({2 * i + 1: flags_plus[i] for i in range(k)})

    sep = np.inf
    for s in range(2 * k):
        for tl in range(2 * k):
            if tl == (s ^ 1):
                continue
            for j in range(1, d):
                *_, dist = fixed_pair_separation(plus_of[s], minus_of[tl], j)
                if dist < 1e-12:
                    reasons.append(f"letters {s},{tl} share fixed data at level {j}")
                sep = min(sep, dist)
    for i, f in enumerate(flags_plus + flags_minus):
        for j in range(1, d):
            oj = induced_form(o_std, j)
            v = wedge_coordinates(f.basis, j)
            sep = min(sep, line_hyperplane_distance(v, v, oj.gram))
    if reasons:
        return SchottkyRejection(tuple(reasons))

    # the fixed flags are generic, so every separation, and with it eps, is positive
    eps = sep / 6.0
    for i, g in enumerate(images):
        if not ping_pong_levels(g, flags_plus[i], flags_minus[i], eps, eps):
            reasons.append(f"generator {i} image fails ({eps:.3g},{eps:.3g})-contraction")
    if reasons:
        return SchottkyRejection(tuple(reasons))

    meta = dict(metadata or {})
    meta.update({"power": power, "kind": meta.get("kind", "schottky")})
    rep = Representation.of(images, o_std, meta)
    rep.certificate = {"r": eps, "eps": eps, "separation": float(sep), "power": power}
    return rep


def sl2_irreducible(a: np.ndarray, n: int) -> np.ndarray:
    """Image of a 2x2 matrix under the dimension-n irreducible (symmetric power)."""
    if n == 1:
        return np.eye(1, dtype=a.dtype)
    m = n - 1
    out = np.zeros((n, n), dtype=np.float64 if not np.iscomplexobj(a) else np.complex128)
    (p, q), (r, s) = a
    # basis e1^{m-i} e2^i; column i expands (a e1)^{m-i} (a e2)^i
    for i in range(n):
        coeff = np.zeros(n, dtype=out.dtype)
        for t in range(m - i + 1):
            c1 = comb(m - i, t) * p ** (m - i - t) * r**t
            for u in range(i + 1):
                c2 = comb(i, u) * q ** (i - u) * s**u
                coeff[t + u] += c1 * c2
        out[:, i] = coeff
    return out


def build_reducible_example(
    p: int,
    q: int,
    sl2_generators: list[np.ndarray],
    power: int = 1,
    metadata: dict | None = None,
):
    """Block representation: dim-p and dim-q irreducibles of an SL2 pair.

    Needs p and q of different parity so the two weight ladders interleave;
    the block splitting is orthogonal for the standard form, definite on
    each factor, which forces every limit flag to be generic.  The result is
    flagged non-Zariski-dense.  Certification runs as for any Schottky input.
    """
    if (p - q) % 2 == 0:
        raise ValueError("block construction needs p, q of different parity")
    d = p + q
    gens = []
    for a in sl2_generators:
        a = np.asarray(a, dtype=np.float64)
        if abs(np.linalg.det(a) - 1.0) > 1e-10:
            raise ValueError("SL2 generators must have determinant one")
        if abs(np.trace(a)) <= 2.0:
            raise ValueError("SL2 generator is not loxodromic (|trace| <= 2)")
        block = np.zeros((d, d))
        block[:p, :p] = sl2_irreducible(a, p)
        block[p:, p:] = sl2_irreducible(a, q)
        gens.append(ScaledMatrix.of(block))
    o = Form.standard(p, q)
    meta = dict(metadata or {})
    meta.update({"kind": "reducible-block", "zariski_dense": False})
    return build_schottky(gens, o, power=power, metadata=meta)


def sample_limit_set(rep: Representation, length: int, count: int):
    """Orbit signatures of the Cartan attractor flags of evenly spaced words.

    The candidates are the words of rank 0, s, 2s, ... for the stride
    s = sphere size // count, read off the engine in one batch and taken in
    order until count of them are classified.  A word is classified by the
    form signs of its tracked attractors (``ShellData.attractor_signs``);
    one without a singular gap (its attractor flag is not determined) or
    whose attractor j-plane is degenerate for the form (|t^T J_j t| below
    DEGENERACY_RTOL at some level j) is reported, never silently dropped.
    For an Anosov representation these flags converge to the limit set.
    Returns (signatures, reports): sign tuples and (word, reason) pairs.
    """
    rows = sphere_rows(rep.rank, length)
    rows = rows[:: max(1, len(rows) // max(1, count))]
    shell = rep.bulk_context().shell(rows)
    gapless = shell.min_root_gap() <= GAP_TOL
    degenerate = np.abs(shell.attractor_forms()) < DEGENERACY_RTOL
    signs = shell.attractor_signs().astype(int)
    signatures, reports = [], []
    for i, row in enumerate(rows.tolist()):
        if len(signatures) >= count:
            break
        if gapless[i]:
            reports.append((row_word(row), "no singular gap"))
        elif degenerate[i].any():
            reports.append((row_word(row), f"non-generic sample at level {np.argmax(degenerate[i]) + 1}"))
        else:
            signatures.append(tuple(signs[i].tolist()))
    return signatures, reports


# ---------------------------------------------------------------------------
# reference construction recipes
# ---------------------------------------------------------------------------


SL2_SPREAD = 1.2
SL2_ANGLE = 0.9
TWO_ORBIT_EXPONENTS = ((1.3, 0.0, -1.3), (1.45, 0.1, -1.55))
SINGLE_ORBIT_EXPONENTS = ((1.3, -1.3, 0.0), (1.45, -1.55, 0.1))
DIAGONAL_BOOST = 0.8
DIAGONAL_ROT = 1.1
ROTATION_CONTROL_SEED = 5


def sl2_schottky_pair() -> list[np.ndarray]:
    """A hyperbolic SL2 pair with crossed axes: diag boost and its rotation."""
    boost = np.diag([np.exp(SL2_SPREAD), np.exp(-SL2_SPREAD)])
    c, s = np.cos(SL2_ANGLE), np.sin(SL2_ANGLE)
    rot = np.array([[c, -s], [s, c]])
    return [boost, rot @ boost @ rot.T]


def reducible_rep(p: int = 2, q: int = 1, power: int = 3):
    """Block Schottky pair: the single-orbit reference representation."""
    return build_reducible_example(p, q, sl2_schottky_pair(), power, {"recipe": f"reducible-{p}{q}"})


def _conjugated_diagonal_pair(exponents, exponents2, power, recipe):
    """Schottky pair: diag(e^exponents) and h diag(e^exponents2) h^-1, form (2,1).

    h = expm(DIAGONAL_BOOST E_13 + DIAGONAL_ROT E_12) is an isometry of the
    form (a boost in the (1,3)-plane composed with a rotation in the
    (1,2)-plane), so the second generator keeps the line signs of the first
    one's fixed flags.
    """
    from scipy.linalg import expm  # local: keeps the slow scipy.linalg import out of `import pqcartan`

    o = Form.standard(2, 1)
    g1 = ScaledMatrix.of(np.diag(np.exp(np.asarray(exponents, dtype=float))))
    e_boost = np.array([[0, 0, 1.0], [0, 0, 0], [1, 0, 0]])
    e_rot = np.array([[0, -1.0, 0], [1, 0, 0], [0, 0, 0]])
    h = expm(DIAGONAL_BOOST * e_boost + DIAGONAL_ROT * e_rot)
    core = np.diag(np.exp(np.asarray(exponents2, dtype=float)))
    g2 = ScaledMatrix.of(h @ core @ np.linalg.inv(h))
    return build_schottky([g1, g2], o, power=power, metadata={"recipe": recipe})


def two_orbit_rep(power: int = 5):
    """Diagonalizable pair whose fixed flags meet two open orbits.

    Both generators have coordinate-type attracting flags of signature
    (+,+,-) and repelling flags of signature (-,+,+); conjugating the second
    by an isometry of the form keeps the signs while separating the fixed
    flags, so the limit set meets exactly these two orbits.
    """
    return _conjugated_diagonal_pair(*TWO_ORBIT_EXPONENTS, power, "two-orbit-diagonal")


def single_orbit_rep(power: int = 5):
    """Irreducible-looking pair with all fixed flags in one open orbit.

    The eigenvalue assigned to the negative line sits in the middle of the
    spectrum, so attracting and repelling flags alike carry the palindromic
    signature (+,-,+); the limit set then meets a single open orbit while
    the group looks Zariski dense (density is assumed, never verified).
    """
    return _conjugated_diagonal_pair(*SINGLE_ORBIT_EXPONENTS, power, "single-orbit-diagonal")


def rotation_control_rep() -> Representation:
    """Compact control group: generators are sampled rotations (never Anosov)."""
    rng = np.random.default_rng(ROTATION_CONTROL_SEED)
    gens = []
    for _ in range(2):
        a = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(a)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        gens.append(ScaledMatrix.of(q))
    meta = {"recipe": "rotation-control", "seed": ROTATION_CONTROL_SEED, "kind": "control"}
    return Representation.of(gens, Form.standard(2, 1), meta)


RECIPES = {
    "reducible-21": lambda params: reducible_rep(**params),
    "two-orbit": lambda params: two_orbit_rep(**params),
    "single-orbit": lambda params: single_orbit_rep(**params),
    "rotation-control": lambda params: rotation_control_rep(**params),
}


def representation_from_config(cfg: dict):
    """Build (and certify, when applicable) a representation from a config dict.

    Either ``recipe`` + ``params`` or explicit ``generators`` (list of d x d
    row-major matrices) with ``form`` and ``power`` must be supplied.
    """
    if "recipe" in cfg:
        name = cfg["recipe"]
        if name not in RECIPES:
            raise ValueError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
        return RECIPES[name](dict(cfg.get("params", {})))
    if "generators" not in cfg:
        raise ValueError("config needs either 'recipe' or 'generators'")
    gens = [ScaledMatrix.of(np.array(g, dtype=np.float64)) for g in cfg["generators"]]
    power = int(cfg.get("power", 1))
    return build_schottky(gens, Form.from_config(cfg), power=power, metadata={"recipe": "explicit"})

