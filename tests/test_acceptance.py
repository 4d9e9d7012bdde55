"""Acceptance gate: eleven numbered criteria at their stated tolerances.

Each test prints one pass/fail line (visible with `pytest -s` or on
failure) and asserts the criterion.  Criteria lean on the named property
suites with their default parameters, which match the criterion texts:
route agreement at 100 pairs per (n, p), series truncation capped at 200
terms, reproduction over the full basis of each degree at exact-degree
rules, and so on.  Criterion 6 draws its 200 random polynomials here.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from polyball import kernels, quadrature
from polyball.geometry import lie_norm
from polyball.polyalg import (
    MultiPoly,
    almansi_reassemble,
    polyharmonic_almansi,
)
from polyball.solver import choose_lie_rule, polyharmonic_limit_experiment
from polyball.suites import run_suite

NP_COMBOS = [(n, p) for n in (2, 3) for p in (1, 2, 3)]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name:<24s} {verdict}  {detail}")


def run_over_combos(name: str, combos=NP_COMBOS, seed: int = 0):
    """Worst (deviation, tolerance) row over the combos, plus overall pass."""
    all_ok = True
    worst_ratio = -1.0
    worst = None
    for n, p in combos:
        for row in run_suite(name, n=n, p=p, seed=seed):
            all_ok &= row.passed
            ratio = row.deviation / max(row.tolerance, 1e-300)
            if ratio > worst_ratio:
                worst_ratio, worst = ratio, row
    return all_ok, worst


def test_criterion_01_route_agreement():
    ok, worst = run_over_combos("route-agreement")
    report(1, "route-agreement", ok,
           f"max relative route gap {worst.deviation:.3e} (tol 1e-10)")
    assert ok


def test_criterion_02_kernel_series_identity():
    ok, worst = run_over_combos("series-identity")
    report(2, "series-identity", ok,
           f"worst row {worst.name} = {worst.deviation:.3e} "
           f"(tol {worst.tolerance:.0e})")
    assert ok


def test_criterion_03_diagonal_dimension_identity():
    ok, worst = run_over_combos("diagonal-dim")
    report(3, "diagonal-dimension", ok,
           f"max |Z(eta,eta) - dim| {worst.deviation:.3e} (tol 1e-9), "
           "dim formula == nullspace dim")
    assert ok


def test_criterion_04_reproducing_property():
    ok, worst = run_over_combos("reproduction")
    report(4, "reproduction", ok,
           f"max basis reproduction error {worst.deviation:.3e} (tol 1e-9)")
    assert ok


def test_criterion_05_orthogonality():
    ok, worst = run_over_combos("orthogonality",
                                combos=NP_COMBOS + [(4, 1), (4, 2), (4, 3)])
    report(5, "orthogonality", ok,
           f"max cross-degree |<u,v>| {worst.deviation:.3e} (tol 1e-10)")
    assert ok


def test_criterion_06_almansi_exactness():
    rng = np.random.default_rng(600)
    failures = 0
    count = 0
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        m = int(rng.integers(0, 9))
        p = int(rng.integers(1, 4))
        q = _random_rational_homogeneous(n, m, rng)
        comps = polyharmonic_almansi(q, p)
        for c in comps:
            out = c
            for _ in range(p):
                out = out.laplacian()
            if out.coefficient_scale() != 0.0:
                failures += 1
        if (almansi_reassemble(comps, n, p) - q).coefficient_scale() != 0.0:
            failures += 1
        count += 1
    ok = failures == 0 and count == 200
    report(6, "almansi-exactness", ok,
           f"{count} random polynomials, {failures} inexact results")
    assert ok


def _random_rational_homogeneous(n: int, m: int, rng) -> MultiPoly:
    total = MultiPoly.zero(n)
    picked = False
    exps_list = _exponents(n, m)
    for exps in exps_list:
        if rng.random() < 0.65:
            c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            if c:
                total = total + MultiPoly.monomial(n, exps, c)
                picked = True
    if not picked:
        total = MultiPoly.monomial(n, exps_list[0], 1)
    return total


def _exponents(n: int, m: int):
    if n == 1:
        return [(m,)]
    out = []
    for head in range(m, -1, -1):
        for rest in _exponents(n - 1, m - head):
            out.append((head,) + rest)
    return out


def test_criterion_07_sector_integral_identities():
    ok, worst = run_over_combos("sector-integrals",
                                combos=NP_COMBOS + [(4, 1)])
    report(7, "sector-integrals", ok,
           f"max identity deviation {worst.deviation:.3e} (tol 1e-10)")
    assert ok


def test_criterion_08_cauchy_hua_convergence():
    ok, worst = run_over_combos("hua-convergence",
                                combos=[(2, 1), (3, 1)])
    report(8, "hua-convergence", ok,
           f"max gap/bound ratio {worst.deviation:.3e} "
           "(p in {1,2,4,8}, alpha <= 0.5)")
    assert ok


def test_criterion_09_cauchy_hua_reproduction():
    ok, worst = run_over_combos("hua-reproduction",
                                combos=[(2, 1), (3, 1)])
    report(9, "hua-reproduction", ok,
           f"max |integral - u(z)| {worst.deviation:.3e} (tol 1e-6)")
    assert ok


def test_criterion_10_limit_theorem():
    u = MultiPoly.from_text("x1^2", n=2)
    z = np.array([0.4, 0.2])
    p_list = [1, 2, 4, 8, 16, 64]
    trunc = kernels.truncation_degree(2, 64, lie_norm(z), 1e-13)
    rule = quadrature.sphere_rule(
        2, quadrature.resolution_for_exactness(2, 2 + trunc + 4))
    lie = choose_lie_rule(2, u.degree(), lie_norm(z), 1e-8)
    result = polyharmonic_limit_experiment(u, z, p_list, rule, lie)
    errors = [row[2] for row in result.rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    final_ok = errors[-1] <= 1e-3
    hua_ok = abs(result.rows[-1][1] - result.hua_value) <= 1e-4
    ok = monotone and final_ok and hua_ok
    report(10, "limit-theorem", ok,
           f"errors {errors[0]:.2e} -> {errors[-1]:.2e}, "
           f"|u_64 - hua| {abs(result.rows[-1][1] - result.hua_value):.2e}")
    assert monotone, "error column must be non-increasing"
    assert final_ok, "p = 64 error must be <= 1e-3"
    assert hua_ok, "u_64 must match the Cauchy-Hua integral within 1e-4"


def test_criterion_11_gegenbauer_self_consistency():
    ok, worst = run_over_combos("gegenbauer", combos=[(2, 1)])
    report(11, "gegenbauer", ok,
           f"worst row {worst.name} = {worst.deviation:.3e}")
    assert ok
