"""Dirichlet solver and reproduction integrals on rotated sphere unions.

Boundary data is a polynomial q restricted to the union of p rotated unit
spheres: on the sector e^{ij pi/p} S its values are q(e^{ij pi/p} zeta).
Calls take q and p themselves; nothing is cached between calls.

Every integral goes through one kernel operator (``_integrals_at``): the
data-independent kernel is built from the pair invariants (B, x2 * zb2)
once per bounded block, shared by every datum; every datum is a
polynomial, which the operator evaluates at its own nodes with the
kernels' phases; and the node sum of weights * kernel * data over a row of
sectors is an exact sliced matrix product (``quadrature._sliced_sums``),
so no value depends on the blocks or on BLAS.  Three calls batch points
and data: ``poisson_integrals`` at sector points, which it takes as real
rows (k, n) and sectors (k,) (``geometry.sector_points``), and
``lie_ball_poisson_integrals`` and ``hua_integrals`` at complex points
(k, n) of the open Lie ball.

The block plan.  The operator sums over node sets.  A shared sphere rule,
or a Lie rule's base, is one node set for every point; a pole-aligned
template (``aligned_rule``) turned to each rotated real point is one node
set per point, so it needs real points.  The kernel is built at the
kernel nodes: every node of a shared rule, with circle run 1, or a
template's polar nodes, repeated over their rings, with circle run 2A.
g consecutive sectors, or Lie angles, form one row of g R <= 2^10 nodes
(``_group``, fixed by R and the sector count alone), and each (point,
datum, row) is one exact dot.  A block is node sets x points x data x
sectors, its sectors rounded up to whole rows.  Its kernel slices
(2k R floats per point and sector), data slices (2k R floats per node
set, datum and sector) and slice-pair join (8 k^2 floats per point, datum
and row) each hold at most ``_BLOCK_ELEMENTS`` floats, points first, then
data, then sectors, and a block of several node sets holds at most that
many evaluated values; but a call whose whole slices and join each fit 8
``_BLOCK_ELEMENTS`` runs as one block.  Per block of node sets the data
are evaluated from one power table (``polyalg._power_table``), every
sector at once when the values fit, else per block of sectors.  Per
block, the kernel and the data are cut (``quadrature._split``), the data
slices are summed over circles of ``run`` nodes, and one
``_sliced_sums`` runs over (node set x row) batches; one
``compensated_sum`` then adds each entry's rows.  No block splits a row,
and every slice takes its scale from its whole row, so no value depends
on the plan.

The kernel routes (``_sector_kernels``) evaluate one integral
independently: the closed-form kernel P(x, e^{ij pi/p} zeta)
(hermitian-symmetry route), which ``poisson_integrals`` takes; its
boundary form (1 - |x|^{2p}) / |e^{-ik pi/p} x - zeta|^n (principal-sqrt
route); and Z_m^p(x, e^{ij pi/p} zeta) by each zonal route, whose
integral is the degree-m spectral value of the data, q(x) for q in H_m^p.
The test suite holds the first two to agree at the 1e-11 scale, a genuine
numeric check of the conjugation identity between the two displays, and
every zonal route to reproduce H_m^p.
"""

from __future__ import annotations

import numpy as np

from . import kernels, polyalg, quadrature
from .geometry import _require_nodes, lie_norm, sector_phases
from .polyalg import MultiPoly

__all__ = [
    "BoundaryData",
    "poisson_integrals",
    "hua_integrals",
    "lie_ball_poisson_integrals",
    "sector_values",
    "choose_rule",
    "aligned_rule",
    "choose_lie_rule",
]


class BoundaryData:
    """Restriction of a polynomial q to the union of p rotated unit
    spheres.  No call takes it: ``poisson_integrals`` takes q and p."""

    def __init__(self, q: MultiPoly, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.q, self.p, self.n = q, p, q.n


# --------------------------------------------------------------------------
# the kernel operator
# --------------------------------------------------------------------------

# Kernel routes: the closed-form Poisson kernel, its boundary form
# (1 - x2^p) / (conj(phase) x - zeta)^{n}, and the Cauchy-Hua kernel.  A
# pair (zonal route, m) is the zonal polyharmonic Z_m^p(z, phase * zeta).
_POISSON, _BOUNDARY_FORM, _HUA = "poisson", "boundary-form", "hua"

# Most float64 values the slices of one block hold: the kernel slices of a
# block of points x sectors, or the data slices of a block of node sets x
# data x sectors; eight times as many when that makes the whole call one
# block.  It bounds peak memory only: no block splits a row of sectors, and
# the scale of every slice comes from its whole row, so every value is
# bit-identical for any budget.
_BLOCK_ELEMENTS = 1 << 16


def _group(size: int, sectors: int) -> tuple:
    """(g, rows, width, slices) for ``sectors`` sectors of ``size`` nodes
    summed g consecutive sectors to a row: the g of rows of at most 2^10
    nodes (one sector at least) with the least work, ceil(S / g) rows of
    g R nodes, zero sectors padding the last, plus 64 nodes' worth per row
    for its products and its join; and the slicing of a row.  A row of at
    most 2^10 nodes takes no more slices than one sector
    (``quadrature._slicing``: 3 up to 2^13 nodes) and stays well inside a
    block.  All four depend on the two counts alone, so no value depends on
    the plan or on the batch."""
    most = max(1, min(sectors, (1 << 10) // size))
    group = min(range(most, 0, -1),
                key=lambda g: -(-sectors // g) * (g * size + 64))
    return (group, -(-sectors // group),
            *quadrature._slicing(group * size))


def _rows(values: np.ndarray, group: int) -> np.ndarray:
    """(..., S, R) values as (..., ceil(S / group), group R) rows of
    ``group`` consecutive sectors; zero sectors pad the last row and add
    exact zeros to its sums."""
    *lead, sectors, size = values.shape
    if sectors % group:
        values = np.concatenate((values, np.zeros(
            (*lead, -sectors % group, size), dtype=values.dtype)), axis=-2)
    return values.reshape(*lead, -1, group * size)


def _dots(zs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """zs . node for every node, summed in coordinate order (no BLAS), so
    that no row depends on the others."""
    return sum(zs[..., k, None] * nodes[:, k] for k in range(nodes.shape[1]))


def _sector_kernels(route, p: int, zs: np.ndarray, phases: np.ndarray,
                    nodes: np.ndarray, rn: np.ndarray) -> np.ndarray:
    """Kernels (P, S, R) between points zs (P, n) and every phases[s] *
    nodes[r], from x2 = z.z, B = conj(phase) (node . z) and
    zb2 = conj(phase)^2 rn with rn = |node|^2; the Cauchy-Hua route ignores
    ``p``."""
    n = zs.shape[1]
    x2 = np.sum(zs * zs, axis=1)[:, None, None]
    conj = np.conj(phases)[:, None]
    if route == _BOUNDARY_FORM:
        xk = conj * zs[:, None, :]
        v2 = np.sum(xk * xk, axis=2)[:, :, None] - 2.0 * _dots(xk, nodes) + rn
        return kernels.boundary_form_values(n, p, x2, v2)
    B = conj * _dots(zs, nodes)[:, None, :]
    zb2 = conj ** 2 * rn
    if route == _POISSON:
        return kernels.poisson_from_products(n, p, x2, B, zb2)
    if route == _HUA:
        return kernels.cauchy_hua_from_products(n, x2, B, zb2)
    zonal, m = route
    return kernels.zonal_from_products(n, m, p, B, x2 * zb2, zonal)


def _turned(nodes: np.ndarray, coords: np.ndarray) -> tuple:
    """The Householder reflections H = I - 2 v v^T / (v . v), v = u + s e_n,
    of real points a = coords[i] (P, n), with u = a/|a| (e_n for a = 0) and
    s = +1 if u_n >= 0, else -1: the nodes (R, n) reflected for each point,
    (P, R, n), and the c (P,) with H a = c e_n, c = -s|a|.  v . v =
    2 + 2|u_n| >= 2 keeps H accurate, and sums run in coordinate order, so
    no point's copy depends on the others."""
    n = coords.shape[1]
    norm = np.sqrt(sum(coords[:, k] * coords[:, k] for k in range(n)))
    u = np.where(norm[:, None] > 0.0, coords, np.eye(n)[-1]) \
        / np.where(norm > 0.0, norm, 1.0)[:, None]
    sign = np.where(u[:, -1] < 0.0, -1.0, 1.0)
    v = u.copy()
    v[:, -1] += sign
    scale = 2.0 / sum(v[:, k] * v[:, k] for k in range(n))
    return (nodes - (scale[:, None] * v)[:, None, :]
            * _dots(v, nodes)[:, :, None], -sign * norm)


def _integrals_at(route, p: int, coords: np.ndarray, turns,
               phases: np.ndarray, rule: quadrature.SphereRule,
               data: list) -> np.ndarray:
    """(len(coords), len(data)) matrix of (1/S) sum_s int_S K(z_i, phases[s]
    zeta) f_d(phases[s] zeta) dsigma for polynomials f_d = data[d], at the
    rotated real points z_i = turns[i] coords[i] of real rows ``coords``, or
    at the complex points ``coords`` when ``turns`` is None.  A pole-aligned
    template needs real points: at complex ones, ValueError.

    On a template each point x = e^{i theta} a integrates over its own copy
    H zeta, reflected by ``_turned`` so that its pole lies on +-a/|a|
    (``aligned_rule`` has the proof of exactness).  The kernel at
    (x, H zeta) is the kernel at (H x, zeta) = (e^{i theta} c e_n, zeta), a
    function of t = zeta_n alone: it is built once per polar node, so the
    reflection's rounding never reaches a kernel value.  The polar index is
    outermost, so each run of 2A consecutive nodes is one circle of the
    S^{n-2} factor: one kernel value and one weight, so one kernel slice of
    the same row scale.  So the kernel is weighted and cut once per run,
    and the data slices are summed over each run first: every such sum
    regroups a partial sum of the unfolded row, which ``_split`` proves
    exact at the width of g R nodes, so g R / (2A) terms give every bit of
    g R."""
    n, size, count, sectors = rule.n, rule.count, len(data), len(phases)
    template = rule.azimuth is not None
    if template and turns is None:
        raise ValueError("a pole-aligned template turns to real points only")
    # node sets x points of each; nodes per polar ring, and per circle
    sets, members = (len(coords), 1) if template else (1, len(coords))
    per, run = (size // rule.resolution, 2 * rule.azimuth) if template \
        else (1, 1)
    polar, weights = rule.nodes[::per], rule.weights[::run]
    rn = np.sum(polar * polar, axis=1)
    group, groups, width, slices = _group(size, sectors)
    row, pair = 2 * slices * size, 8 * slices * slices
    budget = _BLOCK_ELEMENTS  # the block plan of the module docstring
    if max(sectors * row * max(len(coords), sets * count),
           groups * pair * len(coords) * count) <= 8 * budget:
        budget *= 8
    z_step = max(1, min(members, budget // (row * group)))
    n_step = max(1, min(sets, budget // (row * group * z_step),
                        budget // (max(count, 1) * sectors * size)))
    d_step = max(1, min(count, budget // (row * group * n_step),
                        budget // (pair * n_step * z_step)))
    s_step = max(1, min(sectors, budget // (row * n_step * z_step),
                        budget // (row * n_step * d_step),
                        group * (budget // (pair * n_step * z_step
                                            * d_step))))
    s_step = -(-s_step // group) * group
    e_step = sectors if n_step * count * sectors * size <= budget else s_step
    if not template:
        nodes = rule.nodes
        zs = (coords if turns is None else turns[:, None] * coords)[None]

    def cut(a, fold=1):  # the slices (N, G, A, k, g R / fold) of (N, A, S, R)
        vs = quadrature._split(_rows(a, group).transpose(0, 2, 1, 3), width,
                               slices)
        if fold == 1:
            return vs
        folded = vs[..., ::fold].copy()  # each circle's exact slice sums
        for j in range(1, fold):
            folded += vs[..., j::fold]
        return folded

    partial = np.empty((sets, members, count, groups), dtype=complex)
    for c0 in range(0, sets, n_step):
        chosen = slice(c0, c0 + n_step)
        if template:
            nodes, pole = _turned(rule.nodes, coords[chosen])
            zs = np.zeros((len(pole), 1, n), dtype=complex)
            zs[:, 0, -1] = pole * turns[chosen]
        # preallocated: stacking the data's arrays would hold them twice
        values = np.empty((count, e_step, len(zs) * size), dtype=complex)
        table = polyalg._power_table(nodes.reshape(-1, n), data)
        for s0 in range(0, sectors, s_step):
            block = slice(s0, min(s0 + s_step, sectors))
            rows = slice(s0 // group, -(-block.stop // group))
            if s0 % e_step == 0:  # the first kernel block of an evaluated one
                evaluated = phases[s0:s0 + e_step]
                polyalg._evaluate(data, table, evaluated,
                                  values[:, :len(evaluated)])
                if s0 + e_step >= sectors:  # the last evaluation
                    del table
            here = values[:, s0 % e_step:][:, :block.stop - s0]
            here = here.reshape(*here.shape[:2], len(zs), size).transpose(
                2, 0, 1, 3)
            held = cut(here, run) if d_step == count else None
            for i in range(0, members, z_step):
                kv = _sector_kernels(route, p, zs[:, i:i + z_step].reshape(
                    -1, n), phases[block], polar, rn)
                if per > run:  # every circle of a polar ring
                    kv = np.repeat(kv, per // run, axis=-1)
                ks = cut((weights * kv).reshape(len(zs), -1, *kv.shape[1:]))
                for d in range(0, count, d_step):
                    vs = held if held is not None \
                        else cut(here[:, d:d + d_step], run)
                    sums = quadrature._sliced_sums(
                        ks.reshape(-1, *ks.shape[2:]),
                        vs.reshape(-1, *vs.shape[2:]))
                    partial[chosen, i:i + z_step, d:d + d_step, rows] = \
                        sums.reshape(len(zs), -1, *sums.shape[1:]) \
                        .transpose(0, 2, 3, 1)
                    del vs  # each block is freed before the next one is built
                del ks
            del held
    return quadrature.compensated_sum(
        partial.reshape(len(coords), count, groups), axis=-1) / sectors


def sector_values(qs: list, phases: list, rows, coords: np.ndarray
                  ) -> np.ndarray:
    """(len(coords), len(qs)) values q(phases[rows[i]] * coords[i]) at the
    rows ``coords`` (k, n), real or complex: one ``_evaluate`` of every
    polynomial over every point, with the phases as one phase array, each
    point read from its own phase's row."""
    values = np.empty((len(qs), len(phases), len(coords)), dtype=complex)
    polyalg._evaluate(qs, polyalg._power_table(coords, qs), phases, values)
    return values[:, rows, np.arange(len(coords))].T


def _sector_integrals(route, qs: list, p: int, coords, sectors,
                      rule: quadrature.SphereRule) -> np.ndarray:
    """The (points, data) matrix on one route at interior sector points,
    real rows ``coords`` (k, n) of radius < 1 - 1e-9
    (``kernels.point_radii``) in ``sectors`` (k,), for polynomials ``qs``
    sharing n on the union of p rotated spheres."""
    if len({q.n for q in qs}) != 1 or p < 1:
        raise ValueError("need polynomials sharing n, and p >= 1")
    n = qs[0].n
    if np.iscomplexobj(coords):
        raise ValueError("need real rows: give complex sector points as "
                         "their real rows and sectors")
    coords, sectors = np.asarray(coords, dtype=float), np.asarray(sectors)
    if coords.shape != (len(sectors), n) or not np.isin(sectors,
                                                         range(p)).all():
        raise ValueError(f"need real rows (k, {n}) in sectors 0 to {p - 1}")
    if not np.all(kernels.point_radii(coords) < 1.0 - 1e-9):
        raise ValueError("interior points need hermitian radius < 1 - 1e-9")
    phases = sector_phases(range(p), p)
    return _integrals_at(route, p, coords, phases[sectors], phases, rule, qs)


# --------------------------------------------------------------------------
# reproduction integrals
# --------------------------------------------------------------------------

def poisson_integrals(qs, p: int, coords, sectors,
                      rule: quadrature.SphereRule) -> np.ndarray:
    """Poisson integrals of many polynomials qs, restricted to the union of
    p rotated spheres, at many interior points, real rows ``coords`` (k, n)
    in ``sectors`` (k,).

    Entry (i, d) is (1/p) sum_j int_S q_d(e^{ij pi/p} zeta)
    P(x_i, e^{ij pi/p} zeta) dsigma; every datum shares the kernel values,
    which are built once per block of points.  For any polynomial q the
    integral is u_p(x) = ``polyalg.poisson_polynomial`` (q, p), which is q
    itself when Delta^p q = 0 (up to quadrature truncation).
    """
    return _sector_integrals(_POISSON, list(qs), p, coords, sectors, rule)


# --------------------------------------------------------------------------
# Cauchy-Hua reproduction and the order limit on the Lie ball
# --------------------------------------------------------------------------

def _lie_ball_points(us: list, zs, n: int) -> np.ndarray:
    """The points ``zs`` of the open Lie ball as a complex (k, n) stack, for
    polynomials ``us`` in n variables."""
    zc = np.array(zs, dtype=complex)
    if any(u.n != n for u in us) or zc.ndim != 2 or zc.shape[1] != n:
        raise ValueError("dimension mismatch")
    if not np.all(lie_norm(zc) < 1.0):
        raise ValueError("z must lie in the open Lie ball")
    return zc


def hua_integrals(us, zs, lie_rule: quadrature.LieSphereRule) -> np.ndarray:
    """Lie-sphere averages of H(z_i, w) u_d(w) for many holomorphic
    polynomials u_d and points z_i of the open Lie ball: a (len(zs),
    len(us)) matrix.  Each entry reproduces u_d(z_i) for polynomial u_d.
    Each datum is evaluated once per block of angles, by one phase-array
    ``polyalg._evaluate`` on the real nodes."""
    us = list(us)
    zc = _lie_ball_points(us, zs, lie_rule.base.n)
    return _integrals_at(_HUA, 0, zc, None, np.exp(1j * lie_rule.angles),
                         lie_rule.base, us)


def lie_ball_poisson_integrals(qs, p: int, zs,
                               rule: quadrature.SphereRule) -> np.ndarray:
    """Poisson integrals u_p(z_i) of many polynomials q_d at points z_i of
    the open Lie ball: the (len(zs), len(qs)) matrix of (1/p) sum_j int_S
    P_p(z_i, e^{ij pi/p} zeta) q_d(e^{ij pi/p} zeta) dsigma.  For
    holomorphic q, u_p(z) converges to q(z), the Cauchy-Hua integral
    (``hua_integrals``), as p grows."""
    if p < 1:
        raise ValueError("orders must be >= 1")
    qs = list(qs)
    zc = _lie_ball_points(qs, zs, rule.n)
    return _integrals_at(_POISSON, p, zc, None, sector_phases(range(p), p),
                         rule, qs)


# --------------------------------------------------------------------------
# rule selection
# --------------------------------------------------------------------------

def choose_rule(n: int, p: int, degree: int, radius: float, tol: float,
                aligned: bool = False) -> quadrature.SphereRule:
    """The one rule-sizing policy: for Poisson integrals of data of degree
    d = ``degree`` up to ``radius``, exactness d + M + 4 with M the kernel
    truncation degree at r = radius: the smallest whose proven tail bound
    sum_{m>M} dim H_m^p r^m is below ``tol``.  With ``aligned`` (n >= 3),
    the pole-aligned template of that polar exactness (``aligned_rule``).
    An unresolvable truncation or a rule above the node cap raises
    ValueError."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must be in [0, 1)")
    m_trunc = kernels.truncation_degree(n, p, radius, tol)
    resolution = quadrature.resolution_for_exactness(
        n, max(degree, 0) + m_trunc + 4)
    if aligned:
        return aligned_rule(n, resolution, degree)
    return quadrature.sphere_rule(n, resolution)


def aligned_rule(n: int, resolution: int,
                 degree: int) -> quadrature.SphereRule:
    """The pole-aligned template for Poisson integrals of degree-d data
    (d = ``degree``) at rotated real points, n >= 3: the Gauss product rule
    whose polar factor has L = ``resolution`` nodes (exactness 2L - 1) and
    whose S^{n-2} factor has resolution A = ceil((d + 1) / 2), at most L
    (exactness 2A - 1 >= d).  Each point x = e^{i theta} a integrates with
    its own copy, turned by a reflection H that takes the pole e_n to
    +-a/|a| (``_turned``; any frame at a = 0).

    Proof that the copy integrates Z_m^p(x, .) f exactly whenever
    m + d <= 2L - 1, the guarantee ``choose_rule`` gives with a rule of one
    resolution L.  The sphere measure is invariant under H, so take
    g(zeta) = Z_m^p(x, e^{i s pi/p} H zeta) f(e^{i s pi/p} H zeta) on the
    template.  Z_m^p depends on zeta only through
    B = e^{i(theta - s pi/p)} a . H zeta = +-e^{i(theta - s pi/p)} |a| t,
    t = zeta_n, and x2 zb2 = e^{2i(theta - s pi/p)} |a|^2 (its Gegenbauer
    form), so it is a polynomial of degree m in t.  Write zeta =
    (sqrt(1 - t^2) y, t) with y on S^{n-2}: f(e^{i s pi/p} H zeta), of
    degree <= d, is sum_b g_b(t) (1 - t^2)^{b/2} h_b(y) with h_b homogeneous
    of degree b <= d and deg g_b <= d - b.  The S^{n-2} factor is exact for
    degree 2A - 1 >= d, so it averages each h_b exactly: to 0 for odd b and
    to a constant c_b for even b.  What is left, sum over even b of
    c_b Z(t) g_b(t) (1 - t^2)^{b/2}, is a polynomial in t of degree
    <= m + d, which the polar Gauss rule of the weight (1 - t^2)^{(n-3)/2}
    integrates exactly when m + d <= 2L - 1; the sphere measure is that
    weight times the measure of S^{n-2}, so this is the exact integral.
    The Poisson kernel is sum_m Z_m^p, so a template of ``choose_rule``'s
    polar resolution leaves the same tail as its rule of one resolution,
    from far fewer nodes: at n = 3, 2A azimuth angles instead of 2L."""
    return quadrature.sphere_rule(n, resolution,
                                  azimuth=min(resolution,
                                              max(1, (degree + 2) // 2)))


def choose_lie_rule(n: int, degree: int, radius: float,
                    tol: float) -> quadrature.LieSphereRule:
    """The Lie-sphere rule for Cauchy-Hua integrals of holomorphic data of
    degree <= d = ``degree`` at Lie norm L(z) <= ``radius``: a base rule of
    exactness 2d + 1 and the least A >= 4 with 2A > d and sum_{m>=2A}
    dim P_m L^m <= ``tol``, the error bound for data with |u| <= 1 on the
    Lie sphere.  Proof: u of degree e <= d and the degree-m term of H obey
    K_m(z, e^{it} zeta) u(e^{it} zeta) = e^{i(e-m)t} K_m(z, zeta) u(zeta).
    The A angles a pi / A cancel every even e - m but e - m = 0 (mod 2A).
    Exactness 2d + 1 makes the base symmetric under zeta -> -zeta (an even
    circle at n = 2; Gauss products always are), so it cancels every odd
    e - m and integrates m = e, which reproduces u(z), exactly.  Left are
    m = e + 2jA, j >= 1, each at most dim P_m L(z)^m: |K_m(z, w)| <=
    dim P_m L(z)^m on the Lie sphere (``kernels._tail_bound``), and the
    weights are positive with sum 1.  Over the node cap: ValueError."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must be in [0, 1)")
    base = quadrature.sphere_rule(n, quadrature.resolution_for_exactness(
        n, 2 * degree + 1))
    angular = max(4, degree // 2 + 1)
    inverse = [(1.0 - radius) ** (j - n) for j in range(n)]  # for every A
    while kernels._nb_tail(n - 1, radius, 2 * angular, inverse) > tol:
        _require_nodes(f"{angular} angles", angular * base.count,
                       "Lie-sphere nodes")
        angular += 1
    return quadrature.LieSphereRule(base, angular)
