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
(0.0 means every case held exactly).  Rules are sized by proven bounds
(``solver.choose_rule``, ``solver.choose_lie_rule``) or integrand degrees,
but for ``far-cap``, whose cap holds for any positive rule.  A suite's
signature names only those of n, p, seed and ``tolerance`` that its body
reads, and ``run_suite`` passes it exactly those; its sample counts, radii
and top degrees are constants that its docstring states.  Every suite
accepts any n >= 2 and p >= 1; one whose rule or
kernel values exceed the node cap raises ``ValueError``, and so do p
sectors of values or sampled coordinates past it
(``geometry._require_nodes``, checked before any is built) and more than
``polyalg._MAX_MONOMIALS`` monomials of its top degree to enumerate.
Suites call the solver's public batched names, but ``sector-integrals``
(one sphere) and ``far-cap`` (kernel values at the nodes) read
``solver._integrals_at`` and ``_sector_kernels``; a test lists each
private name that this module reads, with its reason.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gegenbauer as gg
from . import kernels, polyalg, quadrature, solver
from .geometry import _require_nodes, lie_norm, sector_phases, sector_points
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

def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Real rows (k, n) over their norms as np.linalg.norm takes them
    (``kernels.point_radii``)."""
    return v / kernels.point_radii(v)[:, None]


def _pairs(rng, n: int, p: int, count: int, rmin: float,
           rmax: float) -> tuple:
    """``count`` pairs of an interior and a sphere point, drawn in turn
    (radius, sector and direction of x, then sector and direction of
    zeta), as stacked complex arrays (count, n) of ``sector_points``."""
    draws = [(rng.uniform(rmin, rmax), rng.integers(p), rng.standard_normal(n),
              rng.integers(p), rng.standard_normal(n)) for _ in range(count)]
    r, j, x, k, zeta = (np.array(column) for column in zip(*draws))
    return (sector_points(r[:, None] * _unit_rows(x), j, p),
            sector_points(_unit_rows(zeta), k, p))


def _lie_points(parts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Complex rows from the real and imaginary parts (k, 2, n), scaled to
    the Lie norms ``targets`` by one stacked ``lie_norm``."""
    zs = parts[:, 0] + 1j * parts[:, 1]
    return zs * (targets / lie_norm(zs))[:, None]


# --------------------------------------------------------------------------
# kernel suites
# --------------------------------------------------------------------------

def suite_route_agreement(n: int = 2, p: int = 1, seed: int = 0,
                          tolerance: float = 1e-10) -> list:
    """The three zonal evaluation routes agree on 100 random rotated pairs
    at every degree 0 to 8."""
    max_degree, pairs = 8, 100
    _require_nodes(f"n={n}", 2 * n * pairs, "sampled coordinates")
    rng = np.random.default_rng(seed)
    B, x2, zb2 = kernels.pair_invariants(*_pairs(rng, n, p, pairs, 0.0, 0.9))
    _, gaps, scales = kernels.zonal_routes(n, range(max_degree + 1), p, B,
                                           x2 * zb2)
    worst = float(np.max(gaps.max(axis=1) / np.maximum(scales, 1e-30),
                         initial=0.0))
    return [PropertyResult("route-agreement", "max-relative-route-gap",
                           worst, tolerance)]


def suite_series_identity(n: int = 2, p: int = 1, seed: int = 0,
                          tolerance: float = 1e-8) -> list:
    """Closed-form Poisson kernel equals its truncated zonal series, on 100
    pairs with |x| up to 0.8, the series cut at tolerance / 4 within 200
    terms."""
    points, radius, max_terms = 100, 0.8, 200
    _require_nodes(f"n={n}", 2 * n * points, "sampled coordinates")
    _require_nodes(f"n={n}", n * n, "Lie-norm minors")  # lie_norm's cap
    rng = np.random.default_rng(seed)
    xs, zetas = _pairs(rng, n, p, points, 0.05, radius)
    B, x2, zb2 = kernels.pair_invariants(xs, zetas)
    closed = kernels.poisson_from_products(n, p, x2, B, zb2)
    values, terms, _, refusals = kernels.poisson_series(
        n, p, B, x2 * zb2, (lie_norm(xs) * lie_norm(zetas)).tolist(),
        tolerance / 4.0, max_terms)
    for refusal in refusals:
        if refusal is not None:
            raise refusal
    worst = max(map(abs, (closed - values).tolist()))
    most_terms = int(terms.max())
    return [
        PropertyResult("series-identity", "max-closed-vs-series-gap",
                       worst, tolerance),
        PropertyResult("series-identity", "max-terms-used",
                       float(most_terms), float(max_terms)),
    ]


@lru_cache(maxsize=None)
def _annihilated(basis: tuple, p: int) -> bool:
    """Whether Delta^p kills every element of ``basis``; once per basis."""
    return all(polyalg.is_polyharmonic(q, p) for q in basis)


def suite_diagonal_dim(n: int = 2, p: int = 1, seed: int = 0,
                       tolerance: float = 1e-9) -> list:
    """Z_m^p(eta, eta) equals dim H_m^p in every sector, and each degree's
    basis has dim_Hp elements, independent by construction (one free
    monomial each) and annihilated exactly by Delta^p: dim ker >= dim_Hp.
    Degrees 0 to 8; a degree's points are drawn at once, 3 in each
    sector."""
    max_degree, samples = 8, 3
    polyalg._require_monomials(n, max_degree)
    _require_nodes(f"p={p}", p * samples * (max_degree + 1), "diagonal points")
    rng = np.random.default_rng(seed)
    sectors = np.repeat(np.arange(p), samples)
    worst = 0.0
    dim_misses = 0
    for m in range(max_degree + 1):
        dim = dim_Hp(n, m, p)
        basis = tuple(polyharmonic_basis(n, m, p))
        if len(basis) != dim or not _annihilated(basis, p):
            dim_misses += 1
        etas = sector_points(_unit_rows(rng.standard_normal((p * samples, n))),
                             sectors, p)
        B, x2, zb2 = kernels.pair_invariants(etas, etas)
        # |value - dim| by libm's hypot, as Python's abs takes it (numpy's
        # complex abs rounds otherwise)
        gaps = kernels.zonal_from_products(n, m, p, B, x2 * zb2) - dim
        worst = max(worst, float(np.max(np.hypot(gaps.real, gaps.imag))))
    return [
        PropertyResult("diagonal-dim", "max-diagonal-vs-dimension-gap",
                       worst, tolerance),
        PropertyResult("diagonal-dim", "dimension-formula-vs-nullspace",
                       float(dim_misses), 0.0),
    ]


def suite_kernel_symmetry(n: int = 2, p: int = 1, seed: int = 0,
                          tolerance: float = 1e-11) -> list:
    """Hermitian symmetry, the scalar scaling rule, the diagonal bound at
    degrees 0 to 8, and same-sector reality/positivity of the Poisson
    kernel over 50 stacked pairs; a Poisson value that underflows (large
    n) raises ValueError."""
    max_degree, pairs = 8, 50
    _require_nodes(f"n={n}", 3 * n * pairs, "sampled coordinates")
    rng = np.random.default_rng(seed)
    # per pair: the sectors and directions of zeta and eta, the scalar a,
    # and the radius and direction of x, in zeta's sector
    j, zeta, k, eta, scalars, r, x = (np.array(c) for c in zip(*[(
        rng.integers(p), rng.standard_normal(n), rng.integers(p),
        rng.standard_normal(n), complex(*rng.uniform(-1.4, 1.4, 2)),
        rng.uniform(0.05, 0.95), rng.standard_normal(n))
        for _ in range(pairs)]))
    zetas = sector_points(_unit_rows(zeta), j, p)
    etas = sector_points(_unit_rows(eta), k, p)
    a = scalars[:, None]
    # Z(zeta, eta), Z(eta, zeta), Z(a zeta, eta) and Z(zeta, conj(a) eta)
    # over (degree, pair)
    invariants = [kernels.pair_invariants(u, v) for u, v in (
        (zetas, etas), (etas, zetas), (a * zetas, etas),
        (zetas, np.conj(a) * etas))]
    fwd, rev, left, right = (np.array([kernels.zonal_from_products(
        n, m, p, B, x2 * zb2) for m in range(max_degree + 1)])
        for B, x2, zb2 in invariants)
    # the symmetry and scaling gaps, each max |u - v| / max(1, |u|, |v|)
    sym, scal = (float(np.max(np.abs(u - v) / np.fmax(
        1.0, np.fmax(np.abs(u), np.abs(v))))) for u, v in (
            (np.conj(fwd), rev), (left, right)))
    dims = [[float(dim_Hp(n, m, p))] for m in range(max_degree + 1)]
    bound = float(np.max(np.abs(fwd) / dims))
    B, x2, zb2 = kernels.pair_invariants(
        sector_points(r[:, None] * _unit_rows(x), j, p), zetas)
    value = kernels.poisson_from_products(n, p, x2, B, zb2)
    if not np.all(np.abs(value) > 0.0):
        raise ValueError(f"n={n}: a same-sector Poisson value underflows")
    pos = float(np.max(np.fmax(np.abs(value.imag), -value.real)
                       / np.abs(value)))
    return [
        PropertyResult("kernel-symmetry", "hermitian-symmetry", sym, tolerance),
        PropertyResult("kernel-symmetry", "scaling-rule", scal, tolerance),
        PropertyResult("kernel-symmetry", "diagonal-bound", bound, 1.0 + 1e-9),
        PropertyResult("kernel-symmetry", "same-sector-positivity", pos, 1e-12),
    ]


def suite_far_cap(n: int = 2, p: int = 1, seed: int = 0,
                  tolerance: float = 1e-9) -> list:
    """Mass of |P_p| far from the boundary point stays under the cap
    p (1 - r^{2p}) / delta^n, delta = 0.5, and shrinks as r runs through
    0.9, 0.99 and 0.999.

    A node is far when the kernel denominator has |v^2| > delta^2, that is
    when |P_p| < (1 - r^{2p}) / delta^n there, so the cap holds for any
    positive rule summing to 1 and the decrease carries the content."""
    delta, radii = 0.5, (0.9, 0.99, 0.999)
    rng = np.random.default_rng(seed)
    rule = quadrature.sphere_rule(n, {2: 512, 3: 64, 4: 32}.get(n, 12))
    _require_nodes(f"p={p}", p * rule.count, "kernel values")
    eta = _unit_rows(rng.standard_normal((1, n)))[0]
    rn = np.sum(rule.nodes * rule.nodes, axis=1)
    k = np.arange(p)  # e^{-ik pi/p} a is -a in sector p - k for k >= 1
    masses = []
    excess = 0.0
    for r in radii:
        xs = sector_points(np.where(k > 0, -r, r)[:, None] * eta, -k % p, p)
        values = np.abs(solver._sector_kernels(
            solver._POISSON, p, xs, np.ones(1), rule.nodes, rn))[:, 0]
        node_cap = (1.0 - r ** (2 * p)) / delta ** n
        total = quadrature.compensated_sum(
            np.where(values < node_cap, rule.weights * values, 0.0)).real
        cap = p * node_cap
        masses.append(total)
        excess = max(excess, total - cap)
    return [
        PropertyResult("far-cap", "cap-excess", excess, tolerance),
        PropertyResult("far-cap", "mass-decreases-toward-boundary",
                       max(0.0, masses[-1] - masses[0]), 0.0),
    ]


def suite_hua_convergence(n: int = 2, seed: int = 0) -> list:
    """|P_p - H| stays under alpha^{2p} max|H| and decreases as p runs
    through the fixed orders 1, 2, 4 and 8, on 20 pairs with L(z) L(w) <=
    0.98 alpha, alpha = 0.5."""
    pairs, alpha, p_list = 20, 0.5, (1, 2, 4, 8)
    _require_nodes(f"n={n}", 4 * n * pairs, "sampled coordinates")
    _require_nodes(f"n={n}", n * n, "Lie-norm minors")  # lie_norm's cap
    rng = np.random.default_rng(seed)
    targets, parts = [], []
    for _ in range(pairs):  # two Lie norms, then the parts of z and w
        lz = rng.uniform(0.3, 0.7)
        targets += [lz, rng.uniform(0.3, min(0.98 * alpha / lz, 0.7))]
        parts.append(rng.standard_normal((2, 2, n)))
    zs = _lie_points(np.concatenate(parts), np.array(targets))
    sample = list(zip(zs[::2], zs[1::2]))
    gaps, bounds = zip(*(kernels.hua_convergence_gap(sample, q)
                         for q in p_list))
    ratio = max(gap / bound for gap, bound in zip(gaps, bounds))
    rise = max(max(0.0, b - a) for a, b in zip(gaps, gaps[1:]))
    return [
        PropertyResult("hua-convergence", "gap-over-bound-ratio",
                       ratio, 1.0 + 1e-9),
        PropertyResult("hua-convergence", "gap-monotone-decrease", rise, 0.0),
    ]


def suite_hua_reproduction(n: int = 2, seed: int = 0,
                           tolerance: float = 1e-6) -> list:
    """Lie-sphere quadrature of H(z, .) u reproduces the holomorphic
    monomials u of degree 0 to 4 at 10 points of Lie norm up to 0.6.

    Its rule is ``solver.choose_lie_rule`` at tolerance / 100, and |u| <= 1
    on the Lie sphere, so the row is proven at every n.  Its kernel values,
    points x angles x nodes, are held to the node cap: n >= 6 is refused.
    """
    max_degree, points, lie_radius = 4, 10, 0.6
    rng = np.random.default_rng(seed)
    lie = solver.choose_lie_rule(n, max_degree, lie_radius, tolerance / 100)
    _require_nodes(f"n={n}", points * lie.angular * lie.base.count,
                   "kernel values")
    targets, parts = zip(*[(rng.uniform(0.2, lie_radius),
                            rng.standard_normal((2, n)))
                           for _ in range(points)])
    zs = _lie_points(np.array(parts), np.array(targets))
    us = [MultiPoly.monomial(n, exps)
          for degree in range(max_degree + 1)
          for exps in polyalg._monomials(n, degree)]
    got = solver.hua_integrals(us, zs, lie)
    want = solver.sector_values(us, [1.0], np.zeros(points, dtype=int), zs)
    worst = float(np.max(np.abs(got - want)))
    return [PropertyResult("hua-reproduction", "max-reproduction-error",
                           worst, tolerance)]


# --------------------------------------------------------------------------
# solver suites
# --------------------------------------------------------------------------

def suite_reproduction(n: int = 2, p: int = 1, seed: int = 0,
                       tolerance: float = 1e-9) -> list:
    """Poisson integrals reproduce every basis element of H_m^p, m = 0 to
    6, at 20 interior points per sector of radius up to 0.6, with an
    exact-degree rule: the pole-aligned template turned to each point when
    the points hold fewer template nodes than the shared rule has (n = 4:
    20 x 1,280 against 128,000 nodes)."""
    max_degree, points_per_sector, radius = 6, 20, 0.6
    rng = np.random.default_rng(seed)
    # the integral operator holds a partial sum per point, datum and sector
    elements = sum(dim_Hp(n, m, p) for m in range(max_degree + 1))
    _require_nodes(f"p={p}", p * p * points_per_sector * elements,
                   "partial sums")
    rule = solver.choose_rule(n, p, max_degree, radius, 1e-11)
    # each point's radius, then its direction
    r, v = (np.array(c) for c in zip(*[
        (rng.uniform(0.1, radius), rng.standard_normal(n))
        for _ in range(p * points_per_sector)]))
    coords = r[:, None] * _unit_rows(v)
    rows = np.repeat(np.arange(p), points_per_sector)
    basis = [q for m in range(max_degree + 1)
             for q in polyharmonic_basis(n, m, p)]
    if n >= 3:
        template = solver.choose_rule(n, p, max_degree, radius, 1e-11,
                                      aligned=True)
        if len(coords) * template.count < rule.count:
            rule = template
    got = solver.poisson_integrals(basis, p, coords, rows, rule)
    want = solver.sector_values(basis, sector_phases(range(p), p), rows,
                                coords)
    worst = float(np.max(np.abs(got - want)))
    return [PropertyResult("reproduction", "max-reproduction-error",
                           worst, tolerance)]


def suite_orthogonality(n: int = 2, p: int = 1,
                        tolerance: float = 1e-10) -> list:
    """Cross-degree inner products of the bases of degrees 0 to 6 on the
    union of rotated spheres vanish."""
    max_degree = 6
    rule = quadrature.sphere_rule(
        n, quadrature.resolution_for_exactness(n, 2 * max_degree))
    elements = sum(dim_Hp(n, m, p) for m in range(max_degree + 1))
    _require_nodes(f"p={p}", p * elements * rule.count, "basis values")
    phases = sector_phases(range(p), p)
    bases = [polyharmonic_basis(n, m, p) for m in range(max_degree + 1)]
    table = polyalg._power_table(rule.nodes, sum(bases, []))
    values = []  # per degree: array (basis, sector, node)
    for basis in bases:
        values.append(np.empty((len(basis), p, rule.count), dtype=complex))
        polyalg._evaluate(basis, table, phases, values[-1])
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
                           tolerance: float = 1e-10) -> list:
    """Prescribed sphere integrals of the Poisson kernel over each rotated
    copy, at 20 samples of radius up to 0.7: the per-sector identity and
    its unit average.

    At n >= 3 each sample integrates over its own turned copy of the
    pole-aligned template of ``solver.choose_rule``'s polar resolution (100
    nodes at n = 3, against 5,000 for the shared rule): each sample
    e^{-ik pi/p} x is a rotated real point, so ``solver.aligned_rule``'s
    proof covers P_p(e^{-ik pi/p} x, .) times the constant datum 1."""
    points, radius = 20, 0.7
    rng = np.random.default_rng(seed)
    rule = solver.choose_rule(n, p, 0, radius, 1e-12, aligned=n >= 3)
    # each sample, turned into every sector, meets p sectors of nodes
    _require_nodes(f"p={p}", p * p * rule.count, "kernel values per sample")
    r, v = (np.array(c) for c in zip(*[
        (rng.uniform(0.1, radius), rng.standard_normal(n))
        for _ in range(points)]))
    samples = r[:, None] * _unit_rows(v)
    # int_S P(e^{-ik pi/p} x, zeta) dsigma for every sample and k at once;
    # e^{-ik pi/p} x is -x in sector p - k for k >= 1
    turn = np.tile(np.arange(p), points)
    lhs_all = solver._integrals_at(
        solver._POISSON, p, np.where(turn > 0, -1.0, 1.0)[:, None]
        * np.repeat(samples, p, axis=0), sector_phases(-turn % p, p),
        np.ones(1), rule, [MultiPoly.constant(n, 1)]).reshape(points, p)
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
    terms = {}  # numerators over 2520 = lcm(1, ..., 9)
    for exps in polyalg._monomials(n, m):
        if rng.uniform() < 0.65:
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num:
                terms[exps] = (num * (2520 // den), 0)
    x1_m = (m,) + (0,) * (n - 1)
    return MultiPoly._exact(n, terms or {x1_m: (2520, 0)}, 2520)


def suite_almansi(n: int = 2, p: int = 1, seed: int = 0) -> list:
    """Exact Almansi behavior on 40 random rational homogeneous polynomials
    of degree up to 8: reassembly, annihilation, uniqueness, and the
    one-step direct sum."""
    count, max_degree = 40, 8
    polyalg._require_monomials(n, max_degree)
    rng = np.random.default_rng(seed)
    reassembly = annihilation = uniqueness = direct_sum = 0
    for _ in range(count):
        m = int(rng.integers(0, max_degree + 1))
        q = _random_homogeneous(rng, n, m)
        components = polyalg.polyharmonic_almansi(q, p)
        if polyalg.almansi_reassemble(components, n, p) != q:
            reassembly += 1
        harmonic = [polyalg.is_polyharmonic(c, p) for c in components]
        if not all(harmonic):
            annihilation += 1
        perturbed = list(components)
        bump = MultiPoly.monomial(n, polyalg._monomials(n, m)[0], 1)
        perturbed[0] = perturbed[0] + bump
        if polyalg.almansi_reassemble(perturbed, n, p) == q:
            uniqueness += 1
        if m >= 2 * p:
            head, rest = polyalg.polyharmonic_split(q, p)
            ok = ((harmonic[0] if head == components[0]  # Delta^p applied
                   else polyalg.is_polyharmonic(head, p))
                  and polyalg.almansi_reassemble([head, rest], n, p) == q)
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

def suite_gegenbauer(tolerance: float = 1e-11) -> list:
    """Recurrence vs exact explicit sum at degrees 0 to 30 and 101 evenly
    spaced t in [-1, 1], and geometric convergence of the
    generating-function partial sums.  The explicit sum
    (``gegenbauer_explicit``) is the factorial formula, never the
    recurrence, in integers at each float t, rounded once."""
    max_degree, lambdas = 30, (1, 1.5, 2, 2.5)
    ts = np.linspace(-1.0, 1.0, 101)
    worst = 0.0
    for lam in lambdas:
        for m in range(max_degree + 1):
            recurrence = gg.gegenbauer(lam, m, ts).tolist()
            for t, a in zip(ts.tolist(), recurrence):
                b = gg.gegenbauer_explicit(lam, m, t)
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
    """Run one registered suite, passing it exactly those inputs that its
    signature names; a ``tolerance`` of None leaves the suite's own.  A
    given ``tolerance`` sets the suite's tolerance rows, and any rule or
    series the suite sizes from it, never a count or ratio row."""
    fn = SUITES.get(name)
    if fn is None:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    given = {"n": n, "p": p, "seed": seed, "tolerance": tolerance}
    return fn(**{key: given[key] for key in inspect.signature(fn).parameters
                 if given[key] is not None})
