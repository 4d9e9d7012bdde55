"""Dirichlet solver and reproduction integrals on rotated sphere unions.

Boundary data is a polynomial q restricted to the union of p rotated unit
spheres: on the sector e^{ij pi/p} S its values are q(e^{ij pi/p} zeta).
``BoundaryData`` holds q and p only; nothing is cached between calls.

Every integral goes through one kernel operator: the data-independent
kernel is built from the pair invariants (B, x2 * zb2) once per bounded
block of points x sectors, shared by every datum; every datum is a
polynomial, which the operator evaluates at its own nodes with the
kernels' phases, once per block of sectors; and the node sum of
weights * kernel * data over a row of sectors is an exact sliced matrix
product (``quadrature._sliced_sums``), so no value depends on the blocks
or on BLAS.  ``poisson_integrals``, ``dirichlet_solve`` and ``hua_integrals``
batch points and data; ``poisson_integral`` and ``hua_reproduce`` are their
1 x 1 cases, and ``spectral_component`` pairs the data with the zonal
polyharmonic Z_m^p.  Given a pole-aligned template (``aligned_rule``),
``poisson_integrals`` and ``dirichlet_solve`` turn it to each point, whose
kernel is zonal about the point's real direction, and evaluate the data at
each point's own nodes.

The block plan: g consecutive sectors, or Lie angles, form one row of
g R <= 2^10 nodes (``_group``, fixed by R and the sector count alone), and
each (point, datum, row) is one exact dot.  A block's kernel slices
(points x sectors x 2k R floats), data slices (data x sectors x 2k R
floats) and slice-pair join (8 k^2 floats per point, datum and row) each
hold at most ``_BLOCK_ELEMENTS`` floats, its sectors rounded up to whole
rows, but a call whose whole slices and join each fit 8
``_BLOCK_ELEMENTS`` runs as one block.  The data are evaluated from one
power table per node set (``polyalg._power_table``): one per call, or one
per block of points on a turned template.  No block splits a row, and
every slice takes its scale from its whole row, so no value depends on the
plan.

Two independent evaluation routes compute the same solution:

* ``poisson_integral`` pairs boundary values with the closed-form kernel
  P(x, e^{ij pi/p} zeta) (hermitian-symmetry route);
* ``dirichlet_solve`` pairs them with the boundary form
  (1 - |x|^{2p}) / |e^{-ik pi/p} x - zeta|^n (principal-sqrt route).

Their agreement (1e-11 scale) is a genuine numeric check of the conjugation
identity between the two displays, and is enforced in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, polyalg, quadrature
from .geometry import RotatedVector, as_complex_vector, as_rotated, lie_norm
from .polyalg import MultiPoly

__all__ = [
    "BoundaryData",
    "DirichletSolution",
    "LimitExperiment",
    "poisson_integral",
    "poisson_integrals",
    "dirichlet_solve",
    "spectral_component",
    "hua_reproduce",
    "hua_integrals",
    "polyharmonic_limit_experiment",
    "choose_rule",
    "aligned_rule",
    "choose_lie_rule",
]


class BoundaryData:
    """Restriction of a polynomial q to the union of p rotated unit spheres:
    on the sector e^{ij pi/p} S its values are q(e^{ij pi/p} zeta).  It
    holds no values: the kernel operator evaluates q at its own nodes with
    the kernels' sector phases, and callers size the rule (``choose_rule``)
    from q's degree."""

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
# block of points x sectors, or the data slices of a block of data x
# sectors; eight times as many when that makes the whole call one block.
# It bounds peak memory only: no block splits a row of sectors, and the
# scale of every slice comes from its whole row, so every value is
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


def _sector_phases(p: int) -> np.ndarray:
    return np.exp(1j * np.arange(p) * math.pi / p)


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


def _integrate(route, p: int, zs: np.ndarray, phases: np.ndarray,
               rule: quadrature.SphereRule, data: list) -> np.ndarray:
    """(len(zs), len(data)) matrix of (1/S) sum_s int_S K(z_i, phases[s]
    zeta) f_d(phases[s] zeta) dsigma for polynomials f_d = data[d].

    The node sum is one exact dot per point, datum and group of g
    consecutive sectors (``_group``), taken as one row of g R nodes:
    weights * K and the data are cut into error-free slices
    (``quadrature._split``), multiplied exactly and joined per (point,
    datum, group) by ``quadrature._sliced_sums``; a compensated sum then
    adds the groups.  Each kernel value is built and cut once, in a block
    of points x whole groups shared by every datum.  The data are
    evaluated once per block of sectors, by one ``polyalg._evaluate`` from
    the call's one power table of the nodes into one (data, sectors, nodes)
    array that lives for that block only: every sector at once when all
    the values fit ``_BLOCK_ELEMENTS``, else the sectors of one kernel
    block.  The data are cut from it once per block of points, or once in
    all when they fit one block.
    """
    size, sectors = rule.count, len(phases)
    rn = np.sum(rule.nodes * rule.nodes, axis=1)
    group, groups, width, slices = _group(size, sectors)
    # a block's kernel slices and data slices (2 k R floats per point or
    # datum and sector), and its slice-pair sums with the temporaries of
    # their join (about four times the 2 k^2 floats per point, datum and
    # group) each hold at most the budget, eight _BLOCK_ELEMENTS when that
    # makes the whole call one block; a block's sectors, rounded up to
    # whole groups, hold one group per point or datum at least
    row, pair = 2 * slices * size, 8 * slices * slices
    budget = _BLOCK_ELEMENTS
    if max(sectors * row * max(len(zs), len(data)),
           groups * pair * len(zs) * len(data)) <= 8 * budget:
        budget *= 8
    z_step = max(1, min(len(zs), budget // (row * group)))
    d_step = max(1, min(len(data), budget // (row * group),
                        budget // (pair * z_step)))
    s_step = max(1, min(sectors, budget // (row * z_step),
                        budget // (row * d_step),
                        group * (budget // (pair * z_step * d_step))))
    s_step = -(-s_step // group) * group
    e_step = sectors if len(data) * sectors * size <= _BLOCK_ELEMENTS \
        else s_step
    # preallocated: stacking the data's arrays would hold them twice
    values = np.empty((len(data), e_step, size), dtype=complex)
    table = polyalg._power_table(rule.nodes, data)

    def cut(a):  # the slices (G, A, k, g R) of values a (A, S, R)
        return quadrature._split(_rows(a, group).transpose(1, 0, 2), width,
                                 slices)

    partial = np.empty((len(zs), len(data), groups), dtype=complex)
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
        held = cut(here) if d_step == len(data) else None
        for i in range(0, len(zs), z_step):
            ks = cut(rule.weights * _sector_kernels(
                route, p, zs[i:i + z_step], phases[block], rule.nodes, rn))
            for d in range(0, len(data), d_step):
                vs = cut(here[d:d + d_step]) if held is None else held
                partial[i:i + z_step, d:d + d_step, rows] = \
                    quadrature._sliced_sums(ks, vs).transpose(1, 2, 0)
                del vs  # each block is freed before the next one is built
            del ks
        del held
    return quadrature.compensated_sum(partial, axis=-1) / sectors


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


def _aligned_integrate(route, p: int, xs: list, phases: np.ndarray,
                       rule: quadrature.SphereRule, data: list) -> np.ndarray:
    """The (len(xs), len(data)) matrix of ``_integrate`` for rotated real
    points x = e^{i theta} a and polynomial data, each point with its own copy
    H zeta of the pole-aligned template ``rule``, reflected by ``_turned``
    so that its pole lies on +-a/|a| (``aligned_rule`` has the proof of
    exactness).  The kernel at (x, H zeta) is the kernel at
    (H x, zeta) = (e^{i theta} c e_n, zeta), a function of t = zeta_n
    alone: it is built once per polar node and repeated over the S^{n-2}
    nodes that share it (the template's polar index is outermost), so the
    reflection's rounding never reaches a kernel value.

    ``phases`` are the sectors' phases, as for ``_integrate``, and the
    sectors join in the same rows of g consecutive sectors (``_rows``).
    Per block of points: the reflected nodes, one ``polyalg._evaluate`` of
    the data from one power table of all of them, one kernel build, one
    ``_split`` of each, and one exact ``_sliced_sums`` whose stacked rows
    are (point, group) pairs, so a product multiplies one point's slices
    with its own data.  A block's kernel slices and its data slices each
    hold at most ``_BLOCK_ELEMENTS`` floats (one point at least); every
    value is computed per point, so each is bit-identical for any
    budget."""
    n, size, count, sectors = rule.n, rule.count, len(data), len(phases)
    per = size // rule.resolution  # nodes per polar node
    polar = rule.nodes[::per]
    rn = np.sum(polar * polar, axis=1)
    group, groups, width, slices = _group(size, sectors)
    step = max(1, _BLOCK_ELEMENTS // (2 * slices * size * sectors * count))
    out = np.empty((len(xs), count), dtype=complex)
    for i in range(0, len(xs), step):
        block = xs[i:i + step]
        points = len(block)
        nodes, pole = _turned(rule.nodes, np.array([x.coords for x in block]))
        zs = np.zeros((points, n), dtype=complex)
        zs[:, -1] = pole * np.exp(1j * np.array([x.angle for x in block]))
        ks = quadrature._split(_rows(rule.weights * np.repeat(_sector_kernels(
            route, p, zs, phases, polar, rn), per, axis=-1), group),
            width, slices)
        flat = nodes.reshape(-1, n)
        values = np.empty((count, sectors, points * size), dtype=complex)
        polyalg._evaluate(data, polyalg._power_table(flat, data), phases,
                          values)
        vs = quadrature._split(_rows(values.reshape(
            count, sectors, points, size).transpose(2, 0, 1, 3), group)
            .transpose(0, 2, 1, 3), width, slices)
        sums = quadrature._sliced_sums(
            ks.reshape(points * groups, 1, slices, -1),
            vs.reshape(points * groups, count, slices, -1))
        out[i:i + points] = quadrature.compensated_sum(
            sums.reshape(points, groups, count).transpose(0, 2, 1),
            axis=-1) / sectors
    return out


def _values_at(qs: list, xs: list) -> np.ndarray:
    """(len(xs), len(qs)) values of polynomials at rotated points, with the
    distinct sector phases as the phase array of ``_sector_values``; each
    value equals ``q.evaluate(x)`` bit for bit."""
    angles = sorted({x.angle for x in xs})
    return _sector_values(
        qs, [np.exp(1j * angle) for angle in angles],
        [angles.index(x.angle) for x in xs],
        np.array([x.coords for x in xs]).reshape(len(xs), qs[0].n))


def _sector_values(qs: list, phases: list, rows, coords: np.ndarray
                   ) -> np.ndarray:
    """(len(coords), len(qs)) values q(phases[rows[i]] * coords[i]): one
    ``_evaluate`` of every polynomial over every point, with the phases as
    one phase array, each point read from its own phase's row."""
    values = np.empty((len(qs), len(phases), len(coords)), dtype=complex)
    polyalg._evaluate(qs, polyalg._power_table(coords, qs), phases, values)
    return values[:, rows, np.arange(len(coords))].T


def _interior_point(x, p: int) -> RotatedVector:
    x = as_rotated(x)
    x.sector_index(p)
    if not x.radius < 1.0 - 1e-9:
        raise ValueError("interior points need hermitian radius < 1 - 1e-9")
    return x


def _rotated_integrals(route, data: list, points,
                       rule: quadrature.SphereRule) -> tuple:
    """Interior points and their (points, data) matrix on one route, for
    boundary data sharing n and p; a pole-aligned template is turned to
    each point."""
    if len({(f.n, f.p) for f in data}) != 1:
        raise ValueError("need boundary data sharing n and p")
    n, p = data[0].n, data[0].p
    xs = [_interior_point(x, p) for x in points]
    if any(x.n != n for x in xs):
        raise ValueError("dimension mismatch")
    return xs, _integrals_at(route, p, xs, _sector_phases(p), rule,
                             [f.q for f in data])


def _integrals_at(route, p: int, xs: list, phases: np.ndarray,
                  rule: quadrature.SphereRule, qs: list) -> np.ndarray:
    """``_integrate`` at rotated points, each point with its own turned copy
    of a pole-aligned template (``_aligned_integrate``)."""
    if rule.azimuth is not None:
        return _aligned_integrate(route, p, xs, phases, rule, qs)
    zs = np.array([x.to_complex() for x in xs]).reshape(len(xs), rule.n)
    return _integrate(route, p, zs, phases, rule, qs)


# --------------------------------------------------------------------------
# reproduction integrals
# --------------------------------------------------------------------------

def poisson_integrals(data, points,
                      rule: quadrature.SphereRule) -> np.ndarray:
    """Poisson integrals of many boundary data at many interior points.

    Entry (i, d) is (1/p) sum_j int_S f_d(e^{ij pi/p} zeta)
    P(x_i, e^{ij pi/p} zeta) dsigma; every datum shares the kernel values,
    which are built once per block of points.
    """
    return _rotated_integrals(_POISSON, list(data), points, rule)[1]


def poisson_integral(f: BoundaryData, x, rule: quadrature.SphereRule) -> complex:
    """(1/p) sum_j int_S f(e^{ij pi/p} zeta) P(x, e^{ij pi/p} zeta) dsigma."""
    return complex(poisson_integrals([f], [x], rule)[0, 0])


@dataclass
class DirichletSolution:
    """Solution values at interior points, with their data and rule."""

    boundary: BoundaryData
    rule: quadrature.SphereRule
    points: list
    values: np.ndarray
    sector_indices: list = field(default_factory=list)

    @property
    def p(self) -> int:
        return self.boundary.p


def dirichlet_solve(f: BoundaryData, points,
                    rule: quadrature.SphereRule) -> DirichletSolution:
    """Solve the Dirichlet problem at interior points via the boundary form.

    Each value is (1/p) sum_k int_S f(e^{ik pi/p} zeta)
    (1-|x|^{2p}) / |e^{-ik pi/p} x - zeta|^n dsigma(zeta).  For any
    polynomial data q the integral is u_p(x) = ``polyalg.poisson_polynomial``
    (q, p), the sum of q's order-p Almansi components, which is q itself
    when Delta^p q = 0 (up to quadrature truncation).
    """
    pts, values = _rotated_integrals(_BOUNDARY_FORM, [f], points, rule)
    return DirichletSolution(
        boundary=f, rule=rule, points=pts, values=values[:, 0],
        sector_indices=[x.sector_index(f.p) for x in pts])


def spectral_component(f: BoundaryData, m: int, eta,
                       rule: quadrature.SphereRule,
                       route: str = kernels.ROUTE_GEGENBAUER_DIFF) -> complex:
    """<f, Z_m^p(., eta)> over the rotated spheres: the degree-m spectral
    value of f at eta.  For f restricted from a degree-m order-p
    polyharmonic q this equals q(eta).  By hermitian symmetry it is
    (1/p) sum_j int_S Z_m^p(eta, e^{ij pi/p} zeta) f(e^{ij pi/p} zeta)."""
    if m < 0:
        return 0j
    eta_c = as_complex_vector(eta)
    if eta_c.size != f.n:
        raise ValueError("dimension mismatch")
    return complex(_integrate((route, m), f.p, eta_c[None, :],
                              _sector_phases(f.p), rule, [f.q])[0, 0])


# --------------------------------------------------------------------------
# Cauchy-Hua reproduction and the order limit
# --------------------------------------------------------------------------

def hua_integrals(us, zs, lie_rule: quadrature.LieSphereRule) -> np.ndarray:
    """Lie-sphere averages of H(z_i, w) u_d(w) for many holomorphic
    polynomials u_d and points z_i of the open Lie ball: a (len(zs),
    len(us)) matrix.  Each entry reproduces u_d(z_i) for polynomial u_d.
    Each datum is evaluated once per block of angles, by one phase-array
    ``eval_at`` on the real nodes."""
    us, base = list(us), lie_rule.base
    zc = [as_complex_vector(z) for z in zs]
    if any(u.n != base.n for u in us) or any(z.size != base.n for z in zc):
        raise ValueError("dimension mismatch")
    if not all(lie_norm(z) < 1.0 for z in zc):
        raise ValueError("z must lie in the open Lie ball")
    return _integrate(_HUA, 0, np.array(zc).reshape(len(zc), base.n),
                      np.exp(1j * lie_rule.angles), base, us)


def hua_reproduce(u: MultiPoly, z, lie_rule: quadrature.LieSphereRule) -> complex:
    """Average of H(z, w) u(w) over the Lie sphere; reproduces holomorphic
    polynomials at z in the open Lie ball."""
    return complex(hua_integrals([u], [z], lie_rule)[0, 0])


@dataclass(frozen=True)
class LimitExperiment:
    """Rows (p, value, error vs the holomorphic reference) plus the
    Cauchy-Hua integral of the same data."""

    reference: complex
    rows: tuple
    hua_value: complex
    hua_error: float


def polyharmonic_limit_experiment(u: MultiPoly, z, p_list,
                                  rule: quadrature.SphereRule,
                                  lie_rule: quadrature.LieSphereRule
                                  ) -> LimitExperiment:
    """Evaluate u_p(z) for increasing order p and compare with u(z).

    ``u`` is a holomorphic polynomial (boundary data on each rotated sphere
    union is its restriction); as p grows, u_p(z) converges to u(z) for z in
    the open Lie ball, and matches the Cauchy-Hua reproduction integral
    over ``lie_rule`` (``choose_lie_rule``).
    """
    zc = as_complex_vector(z)
    if not lie_norm(zc) < 1.0:
        raise ValueError("z must lie in the open Lie ball")
    reference = u.evaluate(zc)
    rows = []
    for p in map(int, p_list):
        if p < 1:
            raise ValueError("orders must be >= 1")
        value = complex(_integrate(_POISSON, p, zc[None, :],
                                   _sector_phases(p), rule, [u])[0, 0])
        rows.append((p, value, abs(value - reference)))
    hua_value = hua_reproduce(u, zc, lie_rule)
    return LimitExperiment(
        reference=complex(reference),
        rows=tuple(rows),
        hua_value=complex(hua_value),
        hua_error=abs(hua_value - reference))


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
    while (kernels._nb_tail(n - 1, radius, 2 * angular) > tol
           and angular * base.count <= quadrature._MAX_NODES):
        angular += 1
    return quadrature.lie_sphere_rule(base, angular)
