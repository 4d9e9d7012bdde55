"""Dirichlet solves, reproduction integrals, and the order limit.

Boundary data restricted from a p-harmonic polynomial must come back
unchanged at interior points, the two kernel displays (rotated form and
boundary form) must agree, and the rising-order experiment must converge
to the holomorphic value with a non-increasing error column.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from polyball import kernels, quadrature, solver
from polyball.geometry import RotatedVector, bilinear_square, lie_norm
from polyball.polyalg import MultiPoly, polyharmonic_basis
from polyball.solver import (
    BoundaryData,
    choose_rule,
    dirichlet_solve,
    hua_integrals,
    hua_reproduce,
    poisson_integral,
    poisson_integrals,
    polyharmonic_limit_experiment,
    spectral_component,
)

RNG = np.random.default_rng(60)


def interior_points(n: int, p: int, count: int, rng,
                    rmax: float = 0.6) -> list:
    out = []
    for _ in range(count):
        y = rng.standard_normal(n)
        y *= rng.uniform(0.1, rmax) / np.linalg.norm(y)
        out.append(RotatedVector.sector(int(rng.integers(p)), p, y))
    return out


# --------------------------------------------------------------------------
# boundary data
# --------------------------------------------------------------------------

def test_boundary_data_from_polynomial_keeps_tag():
    q = MultiPoly.from_text("x1^2 - x2^2", n=2)
    data = BoundaryData.from_polynomial(q, 2)
    assert data.p == 2
    assert data.tag is q


def test_boundary_data_spot_check_rejects_mismatched_evaluators():
    q = MultiPoly.from_text("x1", n=2)
    wrong = [lambda pts: np.zeros(pts.shape[0], dtype=complex)]
    with pytest.raises(ValueError):
        BoundaryData(wrong, 2, tag=q)


def test_boundary_data_sector_values_are_cached_per_rule():
    q = MultiPoly.from_text("x1^3", n=2)
    data = BoundaryData.from_polynomial(q, 2)
    rule = quadrature.sphere_rule(2, 16)
    first = data.sector_values(0, rule)
    second = data.sector_values(0, rule)
    assert first is second


# --------------------------------------------------------------------------
# reproduction and form equality
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n,p,m", [(2, 1, 4), (2, 2, 5), (3, 2, 3)])
def test_poisson_integral_reproduces_polyharmonic_basis(n, p, m):
    rng = np.random.default_rng(1000 + n + 10 * p + 100 * m)
    rule = choose_rule(n, p, BoundaryData.from_polynomial(
        MultiPoly.monomial(n, (m,) + (0,) * (n - 1), 1), p),
        radius=0.6, tol=1e-11)
    for q in polyharmonic_basis(n, m, p)[:4]:
        data = BoundaryData.from_polynomial(q, p)
        for x in interior_points(n, p, 5, rng):
            got = poisson_integral(data, x, rule)
            want = q.evaluate(x)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_dirichlet_solve_matches_poisson_integral():
    q = MultiPoly.from_text("x1^2 - x2^2 + x1 x2", n=2)
    p = 2
    data = BoundaryData.from_polynomial(q, p)
    rule = choose_rule(2, p, data, radius=0.7, tol=1e-11)
    pts = interior_points(2, p, 12, np.random.default_rng(5), rmax=0.7)
    sol = dirichlet_solve(data, pts, rule)
    for x, v in zip(pts, sol.values):
        direct = poisson_integral(data, x, rule)
        assert abs(v - direct) <= 1e-11 * max(1.0, abs(direct))
    assert sol.sector_indices == [x.sector_index(p) for x in pts]


def test_dirichlet_solution_evaluate_extends_to_new_points():
    q = MultiPoly.from_text("x1", n=2)
    data = BoundaryData.from_polynomial(q, 1)
    rule = choose_rule(2, 1, data, radius=0.5, tol=1e-11)
    sol = dirichlet_solve(data, [np.array([0.2, 0.1])], rule)
    got = sol.evaluate(np.array([0.3, 0.4]))
    assert got == pytest.approx(0.3, abs=1e-10)


def test_dirichlet_rejects_exterior_and_off_sector_points():
    q = MultiPoly.from_text("x1", n=2)
    data = BoundaryData.from_polynomial(q, 2)
    rule = quadrature.sphere_rule(2, 16)
    with pytest.raises(ValueError):
        dirichlet_solve(data, [np.array([1.5, 0.0])], rule)
    with pytest.raises(ValueError):
        dirichlet_solve(data, [RotatedVector(0.123, np.array([0.3, 0.0]))],
                        rule)


# --------------------------------------------------------------------------
# the batched kernel operator against the per-point, per-sector loop
# --------------------------------------------------------------------------

def _fsum(values) -> complex:
    values = np.asarray(values, dtype=complex)
    return complex(math.fsum(values.real), math.fsum(values.imag))


def reference_integrals(route: str, data, points, rule) -> np.ndarray:
    """One kernel array per point and sector from the point's own
    invariants, an fsum per sector and an fsum over the sectors."""
    rn = np.sum(rule.nodes ** 2, axis=1)
    out = np.empty((len(points), len(data)), dtype=complex)
    for i, x in enumerate(points):
        xc = x.to_complex()
        x2 = bilinear_square(xc)
        for d, f in enumerate(data):
            parts = []
            for j in range(f.p):
                conj = np.conj(np.exp(1j * j * math.pi / f.p))
                if route == "poisson":
                    kv = kernels.poisson_from_products(
                        f.n, f.p, x2, conj * (rule.nodes @ xc), conj ** 2 * rn)
                else:
                    xk = conj * xc
                    kv = kernels.boundary_form_values(
                        f.n, f.p, x2,
                        bilinear_square(xk) - 2.0 * (rule.nodes @ xk) + rn)
                parts.append(_fsum(rule.weights * f.sector_values(j, rule)
                                   * kv))
            out[i, d] = _fsum(parts) / f.p
    return out


def operator_case(n: int, p: int):
    """Basis data of degrees 0-3, interior points over every sector, and
    the rule choose_rule picks for them."""
    rng = np.random.default_rng(200 + 10 * n + p)
    basis = [q for m in range(4) for q in polyharmonic_basis(n, m, p)]
    data = [BoundaryData.from_polynomial(q, p) for q in basis[::2]]
    rule = choose_rule(n, p, data[-1], radius=0.7, tol=1e-11)
    return data, interior_points(n, p, 7, rng, rmax=0.7), rule


@pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3) for p in (1, 2, 3)])
def test_batched_operator_matches_per_sector_loop(n, p):
    data, points, rule = operator_case(n, p)
    routes = {
        "poisson": poisson_integrals(data, points, rule),
        "boundary-form": np.array([dirichlet_solve(f, points, rule).values
                                   for f in data]).T,
    }
    for route, got in routes.items():
        want = reference_integrals(route, data, points, rule)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-13, route


def test_batched_hua_matches_per_angle_loop():
    rng = np.random.default_rng(41)
    lie = quadrature.lie_sphere_rule(quadrature.sphere_rule(3, 8), 6)
    us = [MultiPoly.from_text(t, n=3).to_numeric()
          for t in ("1", "x1 x3", "x2^3 + (0,1) x1")]
    zs = [z * (0.5 / lie_norm(z)) for z in
          rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))]
    got = hua_integrals(us, zs, lie)
    base = lie.base
    for i, z in enumerate(zs):
        for d, u in enumerate(us):
            parts = []
            for angle in lie.angles:
                w = np.exp(1j * angle) * base.nodes
                denom = (bilinear_square(z) * np.conj(np.sum(w * w, axis=1))
                         - 2.0 * (np.conj(w) @ z) + 1.0)
                parts.append(_fsum(base.weights * u.eval_at(w)
                                   * denom ** -1.5))
            want = _fsum(parts) / lie.angular
            assert abs(got[i, d] - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("budget", [1, 500, 1 << 20])
def test_operator_blocks_leave_every_value_bit_identical(monkeypatch,
                                                         budget):
    data, points, rule = operator_case(2, 2)
    lie = quadrature.lie_sphere_rule(quadrature.sphere_rule(2, 12), 8)
    us = [MultiPoly.from_text(t, n=2).to_numeric() for t in ("x1", "x2^2")]
    zs = [np.array([0.3, 0.1j]), np.array([-0.2, 0.4 + 0.1j])]

    def results():
        return (poisson_integrals(data, points, rule),
                dirichlet_solve(data[1], points, rule).values,
                hua_integrals(us, zs, lie))

    default = results()
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", budget)
    for a, b in zip(default, results()):
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# sector integrals and spectral components
# --------------------------------------------------------------------------

def test_poisson_integral_of_constant_is_one():
    for p in (1, 2, 3):
        data = BoundaryData.from_polynomial(MultiPoly.constant(2, 1), p)
        rule = choose_rule(2, p, data, radius=0.8, tol=1e-12)
        for x in interior_points(2, p, 6, np.random.default_rng(7),
                                 rmax=0.8):
            got = poisson_integral(data, x, rule)
            assert abs(got - 1.0) <= 1e-10


def test_spectral_component_recovers_polyharmonic_values():
    n, p, m = 2, 2, 4
    q = polyharmonic_basis(n, m, p)[1]
    data = BoundaryData.from_polynomial(q, p)
    rule = quadrature.sphere_rule(n, quadrature.resolution_for_exactness(
        n, 2 * m + 4))
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.standard_normal(n)
        eta = RotatedVector.sector(int(rng.integers(p)), p,
                                   y / np.linalg.norm(y))
        got = spectral_component(data, m, eta.to_complex(), rule)
        want = q.evaluate(eta)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_spectral_components_sum_to_boundary_value():
    n, p = 2, 2
    q = MultiPoly.from_text("x1^3 + x1 x2 - 1/2 x2^2", n=2)
    data = BoundaryData.from_polynomial(q, p)
    d = q.degree()
    rule = quadrature.sphere_rule(n, quadrature.resolution_for_exactness(
        n, 2 * d + 4))
    rng = np.random.default_rng(21)
    for _ in range(20):
        y = rng.standard_normal(n)
        eta = RotatedVector.sector(int(rng.integers(p)), p,
                                   y / np.linalg.norm(y))
        total = sum(spectral_component(data, m, eta.to_complex(), rule)
                    for m in range(d + 1))
        want = q.evaluate(eta)
        assert abs(total - want) <= 1e-9 * max(1.0, abs(want))


# --------------------------------------------------------------------------
# Cauchy-Hua reproduction and the order limit
# --------------------------------------------------------------------------

def test_hua_reproduce_monomials():
    rng = np.random.default_rng(33)
    base = quadrature.sphere_rule(2, quadrature.resolution_for_exactness(
        2, 42))
    lie = quadrature.lie_sphere_rule(base, 32)
    for text in ("1", "x1^2", "x1 x2"):
        u = MultiPoly.from_text(text, n=2).to_numeric()
        for _ in range(4):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= 0.5 / lie_norm(z)
            got = hua_reproduce(u, z, lie)
            want = u.evaluate(z)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_limit_experiment_error_column_and_hua_row():
    u = MultiPoly.from_text("x1^2", n=2)
    z = np.array([0.4, 0.2])
    trunc = kernels.truncation_degree(2, 64, lie_norm(z), 1e-13)
    rule = quadrature.sphere_rule(2, quadrature.resolution_for_exactness(
        2, 2 + trunc + 4))
    result = polyharmonic_limit_experiment(u, z, [1, 2, 4, 8, 16, 64], rule)
    errors = [row[2] for row in result.rows]
    # the p = 1 error is the exact ladder discrepancy |1 - z^2| * 1/2
    assert errors[0] == pytest.approx(0.4, abs=1e-9)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3
    assert abs(result.rows[-1][1] - result.hua_value) <= 1e-4
    assert result.reference == pytest.approx(0.16, abs=1e-15)


def test_limit_experiment_validates_inputs():
    u = MultiPoly.from_text("x1", n=2)
    rule = quadrature.sphere_rule(2, 16)
    with pytest.raises(ValueError):
        polyharmonic_limit_experiment(u, np.array([1.2, 0.0]), [1], rule)
    with pytest.raises(ValueError):
        polyharmonic_limit_experiment(u, np.array([0.3, 0.0]), [0], rule)


# --------------------------------------------------------------------------
# rule selection
# --------------------------------------------------------------------------

def test_choose_rule_tagged_covers_data_degree_plus_truncation():
    q = MultiPoly.from_text("x1^3", n=2)
    data = BoundaryData.from_polynomial(q, 1)
    rule = choose_rule(2, 1, data, radius=0.5, tol=1e-10)
    needed = 3 + kernels.truncation_degree(2, 1, 0.5, 1e-10) + 4
    assert rule.exactness >= needed


def test_choose_rule_untagged_needs_resolution():
    data = BoundaryData.from_sector_callables(
        [lambda pts: np.ones(pts.shape[0], dtype=complex)], 2)
    with pytest.raises(ValueError):
        choose_rule(2, 1, data, radius=0.5, tol=1e-10)
    rule = choose_rule(2, 1, data, radius=0.5, tol=1e-10, resolution=64)
    assert rule.resolution == 64


def test_choose_rule_monte_carlo_for_high_dimension():
    rule = choose_rule(4, 1, None, radius=0.5, tol=1e-6, seed=3)
    assert rule.kind == "monte-carlo"
    assert rule.seed == 3


def test_choose_rule_rejects_bad_radius():
    with pytest.raises(ValueError):
        choose_rule(2, 1, None, radius=1.0, tol=1e-10)
