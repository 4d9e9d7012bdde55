"""Dirichlet solver and reproduction integrals on rotated sphere unions.

Boundary data lives on the union of p rotated unit spheres: a function is a
list of per-sector evaluators f_j(nodes) giving values of f on the sector
e^{ij pi/p} S.  ``BoundaryData`` caches node values per (rule, sector), so
repeated solves against the same rule reuse every evaluation.

Every integral goes through one kernel operator: the data-independent
kernel is built from the pair invariants (B, x2 * zb2) once per bounded
block of points x sectors x nodes, shared by every datum, and weights *
kernel * data is reduced along the node axis by the compensated
``quadrature.compensated_sum``.  ``poisson_integrals``, ``dirichlet_solve``
and ``hua_integrals`` batch points and data; ``poisson_integral`` and
``hua_reproduce`` are their 1 x 1 cases.

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

from . import kernels, quadrature
from .geometry import (RotatedVector, as_complex_vector, as_rotated,
                       bilinear_square, lie_norm)
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
]


class BoundaryData:
    """Function on the union of p rotated unit spheres.

    Per-sector evaluators take an (R, n) array of real sphere points and
    return complex values of f on e^{ij pi/p} * points.  When built from a
    polynomial, the polynomial is kept as a tag enabling degree-aware rule
    selection; tagged constructions are spot-checked against the tag.
    """

    def __init__(self, evaluators, n: int, tag: MultiPoly | None = None):
        evaluators = list(evaluators)
        if not evaluators:
            raise ValueError("need at least one sector evaluator")
        if n < 2:
            raise ValueError("n must be >= 2")
        self.p = len(evaluators)
        self.n = n
        self.tag = tag
        self._evaluators = evaluators
        self._cache: dict = {}
        if tag is not None:
            if tag.n != n:
                raise ValueError("tag dimension mismatch")
            self._spot_check()

    @classmethod
    def from_polynomial(cls, q: MultiPoly, p: int) -> "BoundaryData":
        """Restriction of a polynomial to the union of p rotated spheres."""
        if p < 1:
            raise ValueError("p must be >= 1")

        def make(j):
            phase = np.exp(1j * j * math.pi / p)
            return lambda pts: q.eval_at(pts, phase=phase)

        return cls([make(j) for j in range(p)], q.n, tag=q)

    @classmethod
    def from_sector_callables(cls, fns, n: int,
                              tag: MultiPoly | None = None) -> "BoundaryData":
        return cls(fns, n, tag=tag)

    def _spot_check(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((10, self.n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        scale = max(1.0, self.tag.coefficient_scale())
        for j in range(self.p):
            got = np.asarray(self._evaluators[j](pts), dtype=complex)
            want = self.tag.eval_at(pts, phase=np.exp(1j * j * math.pi / self.p))
            if np.max(np.abs(got - want)) > 1e-12 * scale:
                raise ValueError(
                    f"sector {j} evaluator disagrees with the polynomial tag")

    def sector_values(self, j: int, rule: quadrature.SphereRule) -> np.ndarray:
        """Values of f on sector j at the rule's nodes (cached per rule)."""
        if not 0 <= j < self.p:
            raise ValueError("sector index out of range")
        key = (id(rule), j)
        cached = self._cache.get(key)
        if cached is None:
            self._cache[key] = (rule, np.asarray(
                self._evaluators[j](rule.nodes), dtype=complex))
            cached = self._cache[key]
        return cached[1]


# --------------------------------------------------------------------------
# the kernel operator
# --------------------------------------------------------------------------

# Kernel routes: the closed-form Poisson kernel, its boundary form
# (1 - x2^p) / (conj(phase) x - zeta)^{n}, and the Cauchy-Hua kernel.
_POISSON, _BOUNDARY_FORM, _HUA = "poisson", "boundary-form", "hua"

# Most kernel values, or (point, datum, node) products, one block holds.  It
# bounds peak memory only: no block splits the node axis of a sum, so every
# value is bit-identical for any budget.
_BLOCK_ELEMENTS = 1 << 14


def _sector_phases(p: int) -> np.ndarray:
    return np.exp(1j * np.arange(p) * math.pi / p)


def _dots(zs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """zs . node for every node, summed in coordinate order (no BLAS), so
    that no row depends on the others."""
    return sum(zs[..., k, None] * nodes[:, k] for k in range(nodes.shape[1]))


def _sector_kernels(route: str, p: int, zs: np.ndarray, phases: np.ndarray,
                    nodes: np.ndarray) -> np.ndarray:
    """Kernels (P, S, R) between points zs (P, n) and every phases[s] *
    nodes[r], from x2 = z.z, B = conj(phase) (node . z) and
    zb2 = conj(phase)^2 |node|^2; the Cauchy-Hua route ignores ``p``."""
    n = zs.shape[1]
    rn = np.sum(nodes * nodes, axis=1)
    x2 = np.sum(zs * zs, axis=1)[:, None, None]
    conj = np.conj(phases)[:, None]
    if route == _BOUNDARY_FORM:
        xk = conj * zs[:, None, :]
        v2 = np.sum(xk * xk, axis=2)[:, :, None] - 2.0 * _dots(xk, nodes) + rn
        return kernels.boundary_form_values(n, p, x2, v2)
    B = conj * _dots(zs, nodes)[:, None, :]
    if route == _POISSON:
        return kernels.poisson_from_products(n, p, x2, B, conj ** 2 * rn)
    return kernels.cauchy_hua_from_products(n, x2, B, conj ** 2 * rn)


def _integrate(route: str, p: int, zs: np.ndarray, phases: np.ndarray,
               rule: quadrature.SphereRule, data: list) -> np.ndarray:
    """(len(zs), len(data)) matrix of (1/S) sum_s int_S K(z_i, phases[s]
    zeta) f_d(phases[s] zeta) dsigma, where data[d](s) gives the values of
    f_d at phases[s] * nodes.

    Each kernel value is built once, in a block of points x sectors x nodes
    shared by every datum.  The products weights * K * f are reduced along
    the node axis by one compensated sum per (point, datum, sector), and the
    sector sums by a second one.
    """
    size, sectors = rule.count, len(phases)
    s_step = max(1, min(sectors, _BLOCK_ELEMENTS // size))
    partial = np.empty((len(zs), len(data), sectors), dtype=complex)
    for s0 in range(0, sectors, s_step):
        block = range(s0, min(s0 + s_step, sectors))
        width = len(block) * size
        z_step = max(1, min(len(zs), _BLOCK_ELEMENTS // width))
        d_step = max(1, _BLOCK_ELEMENTS // (z_step * width))
        for i in range(0, len(zs), z_step):
            wk = rule.weights * _sector_kernels(route, p, zs[i:i + z_step],
                                                phases[block], rule.nodes)
            for d in range(0, len(data), d_step):
                values = np.array([[f(s) for s in block]
                                   for f in data[d:d + d_step]])
                partial[i:i + z_step, d:d + d_step, block] = \
                    quadrature.compensated_sum(wk[:, None] * values, axis=-1)
    return quadrature.compensated_sum(partial, axis=-1) / sectors


def _interior_point(x, p: int) -> RotatedVector:
    x = as_rotated(x)
    x.sector_index(p)
    if not x.radius < 1.0 - 1e-9:
        raise ValueError("interior points need hermitian radius < 1 - 1e-9")
    return x


def _rotated_integrals(route: str, data: list, points,
                       rule: quadrature.SphereRule) -> tuple:
    """Interior points and their (points, data) matrix on one route, for
    boundary data sharing n and p."""
    if len({(f.n, f.p) for f in data}) != 1:
        raise ValueError("need boundary data sharing n and p")
    n, p = data[0].n, data[0].p
    xs = [_interior_point(x, p) for x in points]
    if any(x.n != n for x in xs):
        raise ValueError("dimension mismatch")
    zs = np.array([x.to_complex() for x in xs]).reshape(len(xs), n)
    sectors = [lambda j, f=f: f.sector_values(j, rule) for f in data]
    return xs, _integrate(route, p, zs, _sector_phases(p), rule, sectors)


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
    """Solution values plus an evaluator for further interior points."""

    boundary: BoundaryData
    rule: quadrature.SphereRule
    points: list
    values: np.ndarray
    sector_indices: list = field(default_factory=list)

    @property
    def p(self) -> int:
        return self.boundary.p

    def evaluate(self, x) -> complex:
        return complex(dirichlet_solve(self.boundary, [x],
                                       self.rule).values[0])


def dirichlet_solve(f: BoundaryData, points,
                    rule: quadrature.SphereRule) -> DirichletSolution:
    """Solve the Dirichlet problem at interior points via the boundary form.

    Each value is (1/p) sum_k int_S f(e^{ik pi/p} zeta)
    (1-|x|^{2p}) / |e^{-ik pi/p} x - zeta|^n dsigma(zeta); for boundary data
    restricted from an order-p polyharmonic polynomial this reproduces the
    polynomial (up to quadrature truncation).
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
    polyharmonic q this equals q(eta)."""
    if m < 0:
        return 0j
    eta_c = as_complex_vector(eta)
    if eta_c.size != f.n:
        raise ValueError("dimension mismatch")
    zb2 = complex(np.conj(bilinear_square(eta_c)))
    rn = np.sum(rule.nodes * rule.nodes, axis=1)
    phases = _sector_phases(f.p)

    def zfun(j, nodes):
        B = phases[j] * (nodes @ np.conj(eta_c))
        x2 = phases[j] ** 2 * rn
        return kernels.zonal_from_products(f.n, m, f.p, B, x2 * zb2, route)

    return quadrature.rotated_inner_product(f, zfun, f.p, rule)


# --------------------------------------------------------------------------
# Cauchy-Hua reproduction and the order limit
# --------------------------------------------------------------------------

def hua_integrals(us, zs, lie_rule: quadrature.LieSphereRule) -> np.ndarray:
    """Lie-sphere averages of H(z_i, w) u_d(w) for many holomorphic
    polynomials u_d and points z_i of the open Lie ball: a (len(zs),
    len(us)) matrix.  Each entry reproduces u_d(z_i) for polynomial u_d."""
    us, base = list(us), lie_rule.base
    zc = [as_complex_vector(z) for z in zs]
    if any(u.n != base.n for u in us) or any(z.size != base.n for z in zc):
        raise ValueError("dimension mismatch")
    if not all(lie_norm(z) < 1.0 for z in zc):
        raise ValueError("z must lie in the open Lie ball")
    phases = np.exp(1j * lie_rule.angles)
    data = [lambda a, u=u: u.eval_at(phases[a] * base.nodes) for u in us]
    return _integrate(_HUA, 0, np.array(zc).reshape(len(zc), base.n), phases,
                      base, data)


def hua_reproduce(u: MultiPoly, z, lie_rule: quadrature.LieSphereRule) -> complex:
    """Average of H(z, w) u(w) over the Lie sphere; reproduces holomorphic
    polynomials at z in the open Lie ball."""
    return complex(hua_integrals([u], [z], lie_rule)[0, 0])


def _poisson_value_at_complex(u: MultiPoly, z, p: int,
                              rule: quadrature.SphereRule) -> complex:
    """u_p(z): Poisson integral of u's restriction, first argument complex."""
    phases = _sector_phases(p)
    zc = as_complex_vector(z)
    return complex(_integrate(
        _POISSON, p, zc[None, :], phases, rule,
        [lambda k: u.eval_at(rule.nodes, phase=phases[k])])[0, 0])


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
                                  angular: int = 64) -> LimitExperiment:
    """Evaluate u_p(z) for increasing order p and compare with u(z).

    ``u`` is a holomorphic polynomial (boundary data on each rotated sphere
    union is its restriction); as p grows, u_p(z) converges to u(z) for z in
    the open Lie ball, and matches the Cauchy-Hua reproduction integral.
    """
    zc = as_complex_vector(z)
    if not lie_norm(zc) < 1.0:
        raise ValueError("z must lie in the open Lie ball")
    reference = u.evaluate(zc)
    rows = []
    for p in p_list:
        if p < 1:
            raise ValueError("orders must be >= 1")
        value = _poisson_value_at_complex(u, zc, int(p), rule)
        rows.append((int(p), value, abs(value - reference)))
    lie = quadrature.lie_sphere_rule(rule, angular)
    hua_value = hua_reproduce(u.to_numeric(), zc, lie)
    return LimitExperiment(
        reference=complex(reference),
        rows=tuple(rows),
        hua_value=complex(hua_value),
        hua_error=abs(hua_value - reference))


# --------------------------------------------------------------------------
# rule selection
# --------------------------------------------------------------------------

def choose_rule(n: int, p: int, f: BoundaryData | None, radius: float,
                tol: float, resolution: int | None = None,
                seed: int | None = None) -> quadrature.SphereRule:
    """Select a sphere rule for Poisson integrals at the given radius.

    Tagged (polynomial) data picks exactness degree d + M + 4 where M is the
    certified kernel truncation degree at r = radius and d the data degree.
    Untagged data requires an explicit ``resolution`` (callers should verify
    convergence by doubling).  n >= 4 falls back to seeded Monte Carlo.
    """
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must be in [0, 1)")
    if n >= 4:
        return quadrature.sphere_rule(n, resolution or 20000, seed=seed)
    if f is not None and f.tag is not None:
        d = max(f.tag.degree(), 0)
        m_trunc = kernels.truncation_degree(n, p, radius, tol)
        return quadrature.sphere_rule(
            n, quadrature.resolution_for_exactness(n, d + m_trunc + 4))
    if resolution is None:
        raise ValueError("untagged boundary data needs an explicit resolution")
    return quadrature.sphere_rule(n, resolution, seed=seed)
