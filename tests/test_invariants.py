"""Cross-module invariants over Schottky samples (bulk-backed regressions)."""

import numpy as np

from pqcartan import bulk
from pqcartan.bulk import ShellData
from pqcartan.counting import ComparisonCollector
from pqcartan.forms import Form
from pqcartan.freegroup import (
    Representation,
    reducible_rep,
    single_orbit_rep,
    sl2_irreducible,
    sl2_schottky_pair,
    two_orbit_rep,
)
from pqcartan.numerics import ScaledMatrix

from conftest import random_generic_flag, sphere_rows


def test_cartan_additivity_defect_bounded():
    # |a_j(g h) - a_j(g) - a_j(h)| stays bounded along shells when the
    # flags stay uniformly transverse (right-multiplication by a generator)
    rep = reducible_rep(power=4)
    length_max = 9
    ctx = rep.bulk_context()
    k = rep.rank
    rows = {l: sphere_rows(k, l) for l in range(1, length_max + 1)}
    at = {l: ctx.shell(r).cartan_coords() for l, r in rows.items()}
    b_index, b_inv_index = 2, 3  # alphabet indices of the second generator pair
    at_gen = at[1][b_index]
    per_shell_max = {}
    for length in range(1, length_max):
        # words not ending in b^-1 keep their length when multiplied by b
        mask = rows[length][:, -1] != b_inv_index
        kept = rows[length][mask]
        appended = np.concatenate(
            [kept, np.full((kept.shape[0], 1), b_index, dtype=kept.dtype)], axis=1
        )
        ranks_ws = bulk._ranks_of(appended, k)
        dev = np.abs(at[length + 1][ranks_ws] - at[length][mask] - at_gen[None, :]).max(axis=1)
        per_shell_max[length] = float(dev.max())
    shells = sorted(per_shell_max)
    early = max(per_shell_max[s] for s in shells[:4])
    late = per_shell_max[shells[-1]]
    assert late <= max(1.1 * early, early + 0.05)


def test_half_twisted_cartan_close_to_cartan():
    # ||(1/2) a(sigma(g^-1) g) - a(g)|| bounded on Schottky samples; moderate
    # scale keeps the dense twisted singular values trustworthy
    from pqcartan.forms import o_adjoint
    from pqcartan.projections import cartan

    gens = []
    for a in sl2_schottky_pair():
        block = np.zeros((3, 3))
        block[:2, :2] = sl2_irreducible(a, 2)
        block[2, 2] = 1.0
        gens.append(ScaledMatrix.of(block))
    rep = Representation.of(gens, Form.standard(2, 1))
    from conftest import sphere_words, word_image

    per_shell = {}
    for length in range(1, 6):
        worst = 0.0
        for w in sphere_words(rep.rank, length):
            mat = word_image(rep, w)
            s = o_adjoint(rep.form, mat) @ mat
            dev = np.linalg.norm(0.5 * cartan(s).coords - cartan(mat).coords)
            worst = max(worst, dev)
        per_shell[length] = worst
    assert per_shell[5] <= max(1.2 * max(per_shell[s] for s in (1, 2, 3)), 0.7)


class ProximityCollector:
    """Per-shell max distance between twisted and singular attractors.

    Level lines: the twisted attractor wedge is the dominant eigenvector of
    M_j J M_j^T J, the singular one of M_j M_j^T.
    """

    def __init__(self, length_min, length_max):
        self.length_min = length_min
        self.length_max = length_max
        self.maxima = {}
        self.all_member = True

    def update(self, shell: ShellData):
        if not (self.length_min <= shell.length <= self.length_max):
            return
        self.all_member &= bool(shell.membership_mask().all())
        d = shell.ctx.d
        worst = np.zeros(shell.count)
        for j in range(1, d):
            m = shell.comps[j - 1]
            sg = shell.ctx.level_signs[j - 1]
            twisted = np.einsum("nij,j,nkj,k->nik", m, sg, m, sg)
            vals, vecs = np.linalg.eig(twisted)
            x_o = np.real(vecs[np.arange(shell.count), :, np.argmax(np.abs(vals), axis=1)])
            x_o /= np.linalg.norm(x_o, axis=1, keepdims=True)
            gram = np.einsum("nij,nkj->nik", m, m)
            x_t = np.linalg.eigh(gram)[1][:, :, -1]
            inner = np.einsum("ni,ni->n", x_o, x_t)
            resid = x_o - inner[:, None] * x_t
            worst = np.maximum(worst, np.linalg.norm(resid, axis=1))
        cur = self.maxima.get(shell.length, 0.0)
        self.maxima[shell.length] = max(cur, float(worst.max()))

    def merge(self, other):
        self.all_member &= other.all_member
        for s, v in other.maxima.items():
            self.maxima[s] = max(self.maxima.get(s, 0.0), v)


def test_twisted_attractor_approaches_singular_attractor():
    # certified representation: every word of length 4..12 has a loxodromic
    # twisted square, and the twisted attractor approaches the singular one
    rep = reducible_rep(power=4)
    [col] = bulk.run_bulk(rep.bulk_context(), 12,
                          [(ProximityCollector, {"length_min": 4, "length_max": 12})])
    assert col.all_member
    m = col.maxima
    # distances converge below measurement resolution before shell 4 at this
    # power; compare at resolution and pin the absolute bound
    assert m[12] <= m[4] + 1e-12
    assert m[12] < 1e-6


def test_single_orbit_weyl_coordinate_constant():
    rep = single_orbit_rep()
    [col] = bulk.run_bulk(rep.bulk_context(), 8,
                          [(ComparisonCollector, {"length_max": 8})])
    sigs = set()
    for length, chunks in col.store.items():
        if length < 4:
            continue
        for c in chunks:
            for row in c[2]:
                sigs.add(tuple(int(v) for v in row))
    assert sigs == {(1, -1, 1)}
    devs = col.shell_max_deviation(rep.form.signature[0])
    assert max(devs[s] for s in range(4, 9)) < 3.0


def test_same_group_two_forms_different_weyl_sets():
    # the same generator images seen through two basepoint forms meet one
    # open orbit for one form and two for the other
    from pqcartan.counting import limit_signatures

    two = two_orbit_rep()
    sig1, _ = limit_signatures(two)
    assert len(sig1) == 2
    gens = [ScaledMatrix(two.images_std[2 * i], float(two.image_scales[2 * i]))
            for i in range(two.rank)]
    other_form = Form.of(np.diag([1.0, -1.0, 1.0]))
    rep2 = Representation.of(gens, other_form)
    sig2, bad = limit_signatures(rep2)
    assert not bad
    assert len(sig2) == 1


def test_busemann_scale_invariance(rng):
    from pqcartan.cocycles import busemann_o, busemann_tau

    o = Form.standard(2, 1)
    f = random_generic_flag(rng, o)
    g = ScaledMatrix.of(np.diag([1.7, 0.9, 0.4]) + 0.1 * rng.standard_normal((3, 3)))
    g7 = g.rescaled(7.0)
    assert np.max(np.abs(busemann_tau(g, f).coords - busemann_tau(g7, f).coords)) < 1e-10
    assert np.max(np.abs(busemann_o(o, g, f).coords - busemann_o(o, g7, f).coords)) < 1e-10
