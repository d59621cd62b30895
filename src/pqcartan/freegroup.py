"""Free-group representations: Schottky builders with certification, reference recipes, limit sampling.

Letters are nonzero integers: i stands for the i-th generator, -i for its
inverse.  Words are held as alphabet-index rows in ``bulk`` (canonical
alphabet order (1, -1, 2, -2, ...)), which also prints their names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .bulk import BulkContext, rows_of_ranks, sphere_size, word_names
from .flags import Flag, fixed_pair_separation, line_hyperplane_distance, o_generic
from .forms import DEGENERACY_RTOL, Form
from .numerics import ScaledMatrix
from .projections import GAP_TOL, NotLoxodromicError, eigen_flag, ping_pong_levels


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

    def bulk_context(self) -> BulkContext:
        if self._bulk is None:
            self._bulk = BulkContext.of(self.images_std, self.form)
        return self._bulk


class SchottkyRejection(Exception):
    """Certification failed; ``reasons`` names each failed check."""

    def __init__(self, reasons):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(self.reasons))


def build_schottky(
    generators: list[ScaledMatrix],
    o: Form,
    power: int,
    metadata: dict | None = None,
) -> Representation:
    """Certified ping-pong representation from loxodromic generators.

    Images are the given power of the generators.  Certification checks, on
    every exterior-power level: each image's fixed flags are generic for the
    form and pairwise separated across letters, and each image contracts the
    complement of an eps-ball around its repelling hyperplane into an
    eps-ball around its attracting line, with eps one sixth of the smallest
    separation (the slack the ping-pong geometry needs).  Failures raise a
    SchottkyRejection naming the generator, pair and level.
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
        raise SchottkyRejection(reasons)

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
    for f in flags_plus + flags_minus:
        for v, gram in zip(f.wedges, o_std.level_grams):
            sep = min(sep, line_hyperplane_distance(v, v, gram))
    if reasons:
        raise SchottkyRejection(reasons)

    # the fixed flags are generic, so every separation, and with it eps, is positive
    eps = sep / 6.0
    for i, g in enumerate(images):
        if not ping_pong_levels(g, flags_plus[i], flags_minus[i], eps, eps):
            reasons.append(f"generator {i} image fails ({eps:.3g},{eps:.3g})-contraction")
    if reasons:
        raise SchottkyRejection(reasons)

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
    power: int,
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
    s = sphere size // count, unranked (``rows_of_ranks``) without building
    the sphere, read off the engine in one batch and taken in
    order until count of them are classified.  A word is classified by the
    form signs of its tracked attractors (``ShellData.attractor_signs``);
    one without a singular gap (its attractor flag is not determined) or
    whose attractor j-plane is degenerate for the form (|t^T J_j t| below
    DEGENERACY_RTOL at some level j) is reported, never silently dropped.
    For an Anosov representation these flags converge to the limit set.
    Returns (signatures, reports): sign tuples and (word name, reason) pairs.
    """
    n = sphere_size(rep.rank, length)
    rows = rows_of_ranks(np.arange(0, n, max(1, n // max(1, count))), rep.rank, length)
    shell = rep.bulk_context().shell(rows)
    gapless = shell.min_root_gap() <= GAP_TOL
    degenerate = np.abs(shell.attractor_forms()) < DEGENERACY_RTOL
    signs = shell.attractor_signs().astype(int)
    signatures, reports = [], []
    for i in range(len(rows)):
        if len(signatures) >= count:
            break
        if gapless[i]:
            reports.append((i, "no singular gap"))
        elif degenerate[i].any():
            reports.append((i, f"non-generic sample at level {np.argmax(degenerate[i]) + 1}"))
        else:
            signatures.append(tuple(signs[i].tolist()))
    # only the reported words are named, so a rank past the eight of bulk.LETTER_NAMES samples all the same
    names = word_names(rows[[i for i, _ in reports]])
    return signatures, [(name, reason) for name, (_, reason) in zip(names, reports)]


# ---------------------------------------------------------------------------
# reference construction recipes
# ---------------------------------------------------------------------------


SL2_SPREAD = 1.2
SL2_ANGLE = 0.9
TWO_ORBIT_EXPONENTS = ((1.3, 0.0, -1.3), (1.45, 0.1, -1.55))
SINGLE_ORBIT_EXPONENTS = ((1.3, -1.3, 0.0), (1.45, -1.55, 0.1))
# exp(0.8 (E_13 + E_31) + 1.1 (E_21 - E_12)) as scipy.linalg.expm rounds it; the recipes' certificates and
# the witness words of the tests rest on these bits, which forms._expm matches only to about 1e-16
DIAGONAL_CONJUGATOR = ((0.7282828890461597, -0.9984381492253955, 0.7261368358002876),
                       (0.9984381492253952, 0.4231970100804441, 0.41949308357785875),
                       (0.7261368358002875, -0.4194930835778589, 1.3050858789657156))
ROTATION_CONTROL_SEED = 5


def sl2_schottky_pair() -> list[np.ndarray]:
    """A hyperbolic SL2 pair with crossed axes: diag boost and its rotation."""
    boost = np.diag([np.exp(SL2_SPREAD), np.exp(-SL2_SPREAD)])
    c, s = np.cos(SL2_ANGLE), np.sin(SL2_ANGLE)
    rot = np.array([[c, -s], [s, c]])
    return [boost, rot @ boost @ rot.T]


def reducible_rep(p: int = 2, q: int = 1, power: int = 4):
    """Block Schottky pair: the single-orbit reference representation (power 4 is the least that certifies (2,1)
    and (1,2); (3,2) needs 6)."""
    return build_reducible_example(p, q, sl2_schottky_pair(), power, {"recipe": f"reducible-{p}{q}"})


def _conjugated_diagonal_pair(exponents, exponents2, power, recipe):
    """Schottky pair: diag(e^exponents) and h diag(e^exponents2) h^-1, form (2,1).

    h = DIAGONAL_CONJUGATOR is an isometry of the form (the exponential of a
    boost in the (1,3)-plane plus a rotation in the (1,2)-plane), so the
    second generator keeps the line signs of the first one's fixed flags.
    """
    o = Form.standard(2, 1)
    g1 = ScaledMatrix.of(np.diag(np.exp(np.asarray(exponents, dtype=float))))
    h = np.array(DIAGONAL_CONJUGATOR)
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
    "reducible-21": reducible_rep,
    "two-orbit": two_orbit_rep,
    "single-orbit": single_orbit_rep,
    "rotation-control": rotation_control_rep,
}


def representation_from_config(cfg: dict):
    """Build (and certify, when applicable) a representation from a config dict.

    Either ``recipe`` + ``params`` or explicit ``generators`` (list of d x d
    row-major matrices) with ``form`` and ``power`` must be supplied; a key
    of the other path is refused, not ignored.
    """
    path, foreign = ("recipe", ("generators", "form", "power")) if "recipe" in cfg else ("generators", ("params",))
    if path not in cfg:
        raise ValueError("config needs either 'recipe' or 'generators'")
    for key in foreign:
        if key in cfg:
            raise ValueError(f"a representation built from {path!r} takes no {key!r} key")
    if path == "recipe":
        name = cfg["recipe"]
        if name not in RECIPES:
            raise ValueError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
        return RECIPES[name](**cfg.get("params", {}))
    gens = [ScaledMatrix.of(np.array(g, dtype=np.float64)) for g in cfg["generators"]]
    return build_schottky(gens, Form.from_config(cfg), power=cfg.get("power", 1), metadata={"recipe": "explicit"})

