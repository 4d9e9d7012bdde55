"""Named verification suites over the kernel, solver, and algebra layers.

Each suite measures a family of analytic identities on a deterministic
random sample and reports one row per property: the measured worst-case
deviation together with the tolerance it must stay within.  The same rows
back the ``verify`` subcommand of the command line and the acceptance
tests, so a passing report means the identities hold at the advertised
tolerances, not merely that the code ran.

Conventions: sampling is driven entirely by the ``seed`` argument
(``numpy.random.default_rng``); iteration orders are fixed, so reports are
bit-reproducible.  Deviations for exact-arithmetic checks count failures
(0.0 means every case held exactly).  Suites that integrate need a
deterministic quadrature rule and therefore accept n in {2, 3} only;
algebraic suites accept any n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import kernels, polyalg, quadrature, solver
from .geometry import RotatedVector, as_complex_vector, lie_norm
from .kernels import KernelParams, ROUTES
from .polyalg import MultiPoly, dim_Hp, polyharmonic_basis

__all__ = [
    "PropertyResult",
    "SUITES",
    "run_suite",
    "suite_route_agreement",
    "suite_series_identity",
    "suite_diagonal_dim",
    "suite_orthogonality",
    "suite_reproduction",
    "suite_almansi",
    "suite_sector_integrals",
    "suite_hua_convergence",
    "suite_hua_reproduction",
    "suite_kernel_symmetry",
    "suite_far_cap",
    "suite_gegenbauer",
]


@dataclass(frozen=True)
class PropertyResult:
    """Measured worst-case deviation of one named property."""

    suite: str
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _unit_coords(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _sphere_point(rng, n: int, p: int) -> RotatedVector:
    return RotatedVector.sector(int(rng.integers(p)), p, _unit_coords(rng, n))


def _interior_point(rng, n: int, p: int, rmin: float,
                    rmax: float) -> RotatedVector:
    r = rng.uniform(rmin, rmax)
    return RotatedVector.sector(int(rng.integers(p)), p,
                                r * _unit_coords(rng, n))


def _lie_point(rng, n: int, target: float) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z * (target / lie_norm(z))


def _require_plane_rule(n: int, where: str):
    if n not in (2, 3):
        raise ValueError(f"{where} needs a deterministic rule; n must be 2 or 3")


def _zonal_term_scale(n: int, m: int, p: int, B: complex, P: complex) -> float:
    """Magnitude budget of the monomial expansion sum_k c_k B^{m-2k} P^k;
    route gaps are measured against it so that cancellation-heavy points do
    not inflate relative errors beyond what double precision can express."""
    coeffs = kernels._float_coeffs(n, m, p, False)
    return float(sum(abs(c) * abs(B) ** (m - 2 * k) * abs(P) ** k
                     for k, c in enumerate(coeffs)))


# --------------------------------------------------------------------------
# kernel suites
# --------------------------------------------------------------------------

def suite_route_agreement(n: int = 2, p: int = 1, seed: int = 0,
                          max_degree: int = 8, pairs: int = 100,
                          tolerance: float = 1e-10) -> list:
    """The three zonal evaluation routes agree on random rotated pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        x = _interior_point(rng, n, p, 0.0, 0.9)
        zeta = _sphere_point(rng, n, p)
        B, x2, zb2 = kernels.pair_invariants(x, zeta)
        P = x2 * zb2
        for m in range(max_degree + 1):
            values = [kernels.zonal_from_products(n, m, p, B, P, route)
                      for route in ROUTES]
            scale = max(_zonal_term_scale(n, m, p, B, P), 1e-30)
            gap = max(abs(a - b) for a in values for b in values)
            worst = max(worst, gap / scale)
    return [PropertyResult("route-agreement", "max-relative-route-gap",
                           worst, tolerance)]


def suite_series_identity(n: int = 2, p: int = 1, seed: int = 0,
                          points: int = 100, radius: float = 0.8,
                          max_terms: int = 200,
                          tolerance: float = 1e-8) -> list:
    """Closed-form Poisson kernel equals its truncated zonal series."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    most_terms = 0
    for _ in range(points):
        x = _interior_point(rng, n, p, 0.05, radius)
        zeta = _sphere_point(rng, n, p)
        closed = kernels.poisson_kernel(x, zeta, p)
        series = kernels.poisson_kernel_series(x, zeta, p,
                                               tol=tolerance / 4.0,
                                               max_terms=max_terms)
        worst = max(worst, abs(closed - series.value))
        most_terms = max(most_terms, series.terms_used)
    return [
        PropertyResult("series-identity", "max-closed-vs-series-gap",
                       worst, tolerance),
        PropertyResult("series-identity", "max-terms-used",
                       float(most_terms), float(max_terms)),
    ]


def suite_diagonal_dim(n: int = 2, p: int = 1, seed: int = 0,
                       max_degree: int = 8, samples: int = 3,
                       tolerance: float = 1e-9) -> list:
    """Z_m^p(eta, eta) equals dim H_m^p in every sector, and dim formulas
    equal exact nullspace dimensions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    dim_misses = 0
    for m in range(max_degree + 1):
        dim = dim_Hp(n, m, p)
        if len(polyharmonic_basis(n, m, p)) != dim:
            dim_misses += 1
        for j in range(p):
            for _ in range(samples):
                eta = RotatedVector.sector(j, p, _unit_coords(rng, n))
                value = kernels.zonal_polyharmonic(KernelParams(n, p, m),
                                                   eta, eta)
                worst = max(worst, abs(value - dim))
    return [
        PropertyResult("diagonal-dim", "max-diagonal-vs-dimension-gap",
                       worst, tolerance),
        PropertyResult("diagonal-dim", "dimension-formula-vs-nullspace",
                       float(dim_misses), 0.0),
    ]


def suite_kernel_symmetry(n: int = 2, p: int = 1, seed: int = 0,
                          max_degree: int = 8, pairs: int = 50,
                          tolerance: float = 1e-11) -> list:
    """Hermitian symmetry, the scalar scaling rule, the diagonal bound,
    and same-sector reality/positivity of the Poisson kernel."""
    rng = np.random.default_rng(seed)
    sym = 0.0
    scal = 0.0
    bound = 0.0
    pos = 0.0
    for _ in range(pairs):
        zeta = _sphere_point(rng, n, p)
        eta = _sphere_point(rng, n, p)
        a = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        zc = zeta.to_complex()
        ec = eta.to_complex()
        for m in range(max_degree + 1):
            params = KernelParams(n, p, m)
            fwd = kernels.zonal_polyharmonic(params, zc, ec)
            rev = kernels.zonal_polyharmonic(params, ec, zc)
            scale = max(1.0, abs(fwd), abs(rev))
            sym = max(sym, abs(np.conj(fwd) - rev) / scale)
            left = kernels.zonal_polyharmonic(params, a * zc, ec)
            right = kernels.zonal_polyharmonic(params, zc, np.conj(a) * ec)
            scale = max(1.0, abs(left), abs(right))
            scal = max(scal, abs(left - right) / scale)
            bound = max(bound, abs(fwd) / dim_Hp(n, m, p))
        x = RotatedVector.sector(zeta.sector_index(p), p,
                                 rng.uniform(0.05, 0.95) * _unit_coords(rng, n))
        value = kernels.poisson_kernel(x, zeta, p)
        pos = max(pos, abs(value.imag) / abs(value),
                  max(0.0, -value.real) / abs(value))
    return [
        PropertyResult("kernel-symmetry", "hermitian-symmetry", sym, tolerance),
        PropertyResult("kernel-symmetry", "scaling-rule", scal, tolerance),
        PropertyResult("kernel-symmetry", "diagonal-bound", bound, 1.0 + 1e-9),
        PropertyResult("kernel-symmetry", "same-sector-positivity", pos, 1e-12),
    ]


def suite_far_cap(n: int = 2, p: int = 1, seed: int = 0, delta: float = 0.5,
                  radii: tuple = (0.9, 0.99),
                  tolerance: float = 1e-9) -> list:
    """Mass of |P_p| far from the boundary point stays under the cap
    p (1 - r^{2p}) / delta^n and shrinks as r -> 1."""
    _require_plane_rule(n, "far-cap")
    rng = np.random.default_rng(seed)
    rule = quadrature.sphere_rule(n, 512 if n == 2 else 64)
    eta = _unit_coords(rng, n)
    dots = rule.nodes @ eta
    masses = []
    excess = 0.0
    for r in radii:
        xs = np.array([RotatedVector(-k * math.pi / p, r * eta).to_complex()
                       for k in range(p)])
        values = np.abs(solver._sector_kernels(solver._POISSON, p, xs,
                                               np.ones(1), rule.nodes))
        total = 0.0
        for k in range(p):
            dist_sq = 2.0 - 2.0 * math.cos(k * math.pi / p) * dots
            far = dist_sq > delta * delta
            total += float(np.sum(rule.weights[far] * values[k, 0, far]))
        cap = p * (1.0 - r ** (2 * p)) / delta ** n
        masses.append(total)
        excess = max(excess, total - cap)
    return [
        PropertyResult("far-cap", "cap-excess", excess, tolerance),
        PropertyResult("far-cap", "mass-decreases-toward-boundary",
                       max(0.0, masses[-1] - masses[0]), 0.0),
    ]


def suite_hua_convergence(n: int = 2, p: int = 1, seed: int = 0,
                          pairs: int = 20, alpha: float = 0.5,
                          p_list: tuple = (1, 2, 4, 8)) -> list:
    """|P_p - H| stays under alpha^{2p} max|H| and decreases with p."""
    rng = np.random.default_rng(seed)
    sample = []
    for _ in range(pairs):
        lz = rng.uniform(0.3, 0.7)
        lw = rng.uniform(0.3, min(0.98 * alpha / lz, 0.7))
        sample.append((_lie_point(rng, n, lz), _lie_point(rng, n, lw)))
    ratio = 0.0
    gaps = []
    for q in p_list:
        gap, bound = kernels.hua_convergence_gap(sample, int(q))
        gaps.append(gap)
        ratio = max(ratio, gap / bound)
    rise = max(max(0.0, b - a) for a, b in zip(gaps, gaps[1:]))
    return [
        PropertyResult("hua-convergence", "gap-over-bound-ratio",
                       ratio, 1.0 + 1e-9),
        PropertyResult("hua-convergence", "gap-monotone-decrease", rise, 0.0),
    ]


def suite_hua_reproduction(n: int = 2, p: int = 1, seed: int = 0,
                           max_degree: int = 4, points: int = 10,
                           lie_radius: float = 0.6, angular: int = 32,
                           exactness: int = 42,
                           tolerance: float = 1e-6) -> list:
    """Lie-sphere quadrature of H(z, .) u reproduces holomorphic monomials.

    The kernel series at Lie radius r contributes ~ m r^m at degree m, so
    the base rule must stay exact well past the data degree: exactness 42
    pushes the misintegrated tail below 1e-7 at r = 0.6.
    """
    _require_plane_rule(n, "hua-reproduction")
    rng = np.random.default_rng(seed)
    base = quadrature.sphere_rule(
        n, quadrature.resolution_for_exactness(n, exactness))
    lie = quadrature.lie_sphere_rule(base, angular)
    zs = np.array([_lie_point(rng, n, rng.uniform(0.2, lie_radius))
                   for _ in range(points)])
    us = [MultiPoly.monomial(n, exps, 1, exact=False)
          for degree in range(max_degree + 1)
          for exps in polyalg._monomials(n, degree)]
    got = solver.hua_integrals(us, zs, lie)
    want = np.array([u.eval_at(zs) for u in us]).T
    worst = float(np.max(np.abs(got - want)))
    return [PropertyResult("hua-reproduction", "max-reproduction-error",
                           worst, tolerance)]


# --------------------------------------------------------------------------
# solver suites
# --------------------------------------------------------------------------

def suite_reproduction(n: int = 2, p: int = 1, seed: int = 0,
                       max_degree: int = 6, points_per_sector: int = 20,
                       radius: float = 0.6,
                       tolerance: float = 1e-9) -> list:
    """Poisson integrals reproduce every basis element of H_m^p at
    interior points, with an exact-degree rule."""
    _require_plane_rule(n, "reproduction")
    rng = np.random.default_rng(seed)
    exactness = max_degree + kernels.truncation_degree(n, p, radius, 1e-11) + 4
    rule = quadrature.sphere_rule(
        n, quadrature.resolution_for_exactness(n, exactness))
    xs = [RotatedVector.sector(j, p, rng.uniform(0.1, radius)
                               * _unit_coords(rng, n))
          for j in range(p) for _ in range(points_per_sector)]
    coords = np.array([x.coords for x in xs]).reshape(p, points_per_sector, n)
    worst = 0.0
    for m in range(max_degree + 1):  # a batch per degree bounds memory
        basis = polyharmonic_basis(n, m, p)
        got = solver.poisson_integrals(
            [solver.BoundaryData.from_polynomial(q, p) for q in basis], xs,
            rule)
        want = [np.concatenate([
            q.eval_at(c, phase=np.exp(1j * j * math.pi / p))
            for j, c in enumerate(coords)]) for q in basis]
        worst = max(worst, float(np.max(np.abs(got - np.transpose(want)))))
    return [PropertyResult("reproduction", "max-reproduction-error",
                           worst, tolerance)]


def suite_orthogonality(n: int = 2, p: int = 1, seed: int = 0,
                        max_degree: int = 6,
                        tolerance: float = 1e-10) -> list:
    """Cross-degree inner products on the union of rotated spheres vanish."""
    _require_plane_rule(n, "orthogonality")
    rule = quadrature.sphere_rule(
        n, quadrature.resolution_for_exactness(n, 2 * max_degree))
    phases = [np.exp(1j * j * math.pi / p) for j in range(p)]
    values = []  # per degree: array (basis, sector, node)
    for m in range(max_degree + 1):
        basis = polyharmonic_basis(n, m, p)
        values.append(np.array(
            [[q.eval_at(rule.nodes, phase=ph) for ph in phases]
             for q in basis]))
    worst = 0.0
    weighted = [v * rule.weights for v in values]
    for m in range(max_degree + 1):
        for l in range(m + 1, max_degree + 1):
            gram = np.einsum("ijk,ljk->il", weighted[m],
                             np.conj(values[l])) / p
            worst = max(worst, float(np.max(np.abs(gram))))
    return [PropertyResult("orthogonality", "max-cross-degree-inner-product",
                           worst, tolerance)]


def suite_sector_integrals(n: int = 2, p: int = 1, seed: int = 0,
                           points: int = 20, radius: float = 0.7,
                           tolerance: float = 1e-10) -> list:
    """Prescribed sphere integrals of the Poisson kernel over each rotated
    copy: the per-sector identity and its unit average."""
    _require_plane_rule(n, "sector-integrals")
    rng = np.random.default_rng(seed)
    exactness = kernels.truncation_degree(n, p, radius, 1e-12) + 4
    rule = quadrature.sphere_rule(
        n, quadrature.resolution_for_exactness(n, exactness))
    samples = [rng.uniform(0.1, radius) * _unit_coords(rng, n)
               for _ in range(points)]
    # int_S P(e^{-ik pi/p} x, zeta) dsigma for every sample and k at once
    xs = np.array([RotatedVector(-k * math.pi / p, coords).to_complex()
                   for coords in samples for k in range(p)])
    lhs_all = solver._integrate(solver._POISSON, p, xs, np.ones(1), rule, [
        lambda s: np.ones(rule.count)]).reshape(points, p)
    dev_sector = 0.0
    dev_average = 0.0
    for coords, lhs_row in zip(samples, lhs_all):
        r2 = float(coords @ coords)
        for k, lhs in enumerate(lhs_row):
            rhs = sum(np.exp(-2j * k * j * math.pi / p) * r2 ** j
                      for j in range(p))
            dev_sector = max(dev_sector, abs(lhs - rhs))
        average = quadrature.compensated_sum(lhs_row) / p
        dev_average = max(dev_average, abs(average - 1.0))
    return [
        PropertyResult("sector-integrals", "per-sector-identity",
                       dev_sector, tolerance),
        PropertyResult("sector-integrals", "unit-average", dev_average,
                       tolerance),
    ]


# --------------------------------------------------------------------------
# algebra suites
# --------------------------------------------------------------------------

def _random_homogeneous(rng, n: int, m: int) -> MultiPoly:
    out = MultiPoly.zero(n)
    for exps in polyalg._monomials(n, m):
        if rng.uniform() < 0.65:
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num:
                out = out + MultiPoly.monomial(n, exps, Fraction(num, den))
    if out.is_zero():
        out = MultiPoly.monomial(n, polyalg._monomials(n, m)[0], 1)
    return out


def suite_almansi(n: int = 2, p: int = 1, seed: int = 0, count: int = 40,
                  max_degree: int = 8) -> list:
    """Exact Almansi behavior on random rational homogeneous polynomials:
    reassembly, annihilation, uniqueness, and the one-step direct sum."""
    rng = np.random.default_rng(seed)
    reassembly = annihilation = uniqueness = direct_sum = 0
    for _ in range(count):
        m = int(rng.integers(0, max_degree + 1))
        q = _random_homogeneous(rng, n, m)
        components = polyalg.polyharmonic_almansi(q, p)
        if polyalg.almansi_reassemble(components, n, p) != q:
            reassembly += 1
        if not all(polyalg.is_polyharmonic(c, p) for c in components):
            annihilation += 1
        perturbed = list(components)
        bump = MultiPoly.monomial(n, polyalg._monomials(n, m)[0], 1)
        perturbed[0] = perturbed[0] + bump
        if polyalg.almansi_reassemble(perturbed, n, p) == q:
            uniqueness += 1
        if m >= 2 * p:
            head, rest = polyalg.polyharmonic_split(q, p)
            radial = MultiPoly.radial_square(n) ** p
            ok = (polyalg.is_polyharmonic(head, p)
                  and head + radial * rest == q)
            if not ok:
                direct_sum += 1
    return [
        PropertyResult("almansi", "reassembly-failures",
                       float(reassembly), 0.0),
        PropertyResult("almansi", "annihilation-failures",
                       float(annihilation), 0.0),
        PropertyResult("almansi", "uniqueness-failures",
                       float(uniqueness), 0.0),
        PropertyResult("almansi", "direct-sum-failures",
                       float(direct_sum), 0.0),
    ]


# --------------------------------------------------------------------------
# special-function suite
# --------------------------------------------------------------------------

def suite_gegenbauer(n: int = 2, p: int = 1, seed: int = 0,
                     max_degree: int = 30, t_points: int = 101,
                     tolerance: float = 1e-11) -> list:
    """Recurrence vs exact explicit sum, and geometric convergence of the
    generating-function partial sums.  Ignores n and p."""
    from . import gegenbauer as gg  # the submodule, imported lazily

    del n, p, seed
    lambdas = (1, 1.5, 2, 2.5)
    ts = np.linspace(-1.0, 1.0, t_points)
    worst = 0.0
    for lam in lambdas:
        for m in range(max_degree + 1):
            for t in ts:
                a = gg.gegenbauer(lam, m, float(t))
                b = gg.gegenbauer_explicit(lam, m, float(t))
                worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    # geometric decay of partial sums toward the closed form
    decay = 0.0
    for lam in lambdas:
        for t in (-0.9, -0.3, 0.4, 0.8):
            for w in (0.5, 0.5j, -0.45):
                closed = gg.generating_function(lam, t, w)
                e10 = abs(gg.generating_partial_sum(lam, t, w, 10) - closed)
                e40 = abs(gg.generating_partial_sum(lam, t, w, 40) - closed)
                decay = max(decay, e40 / max(e10, 1e-12))
    return [
        PropertyResult("gegenbauer", "recurrence-vs-explicit", worst,
                       tolerance),
        PropertyResult("gegenbauer", "partial-sum-decay-ratio", decay,
                       0.6 ** 30),
    ]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

SUITES = {
    "route-agreement": suite_route_agreement,
    "series-identity": suite_series_identity,
    "diagonal-dim": suite_diagonal_dim,
    "orthogonality": suite_orthogonality,
    "reproduction": suite_reproduction,
    "almansi": suite_almansi,
    "sector-integrals": suite_sector_integrals,
    "hua-convergence": suite_hua_convergence,
    "hua-reproduction": suite_hua_reproduction,
    "kernel-symmetry": suite_kernel_symmetry,
    "far-cap": suite_far_cap,
    "gegenbauer": suite_gegenbauer,
}


def run_suite(name: str, n: int = 2, p: int = 1, seed: int = 0,
              tolerance: float | None = None) -> list:
    """Run one registered suite; ``tolerance`` overrides every row's
    tolerance when given."""
    fn = SUITES.get(name)
    if fn is None:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    rows = fn(n=n, p=p, seed=seed)
    if tolerance is not None:
        rows = [replace(row, tolerance=float(tolerance)) for row in rows]
    return rows
