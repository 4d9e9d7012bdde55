"""Named verification suites: registry coverage and pass behavior."""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest

from polyball import geometry, kernels, polyalg, quadrature, solver, suites
from polyball.geometry import RotatedVector
from polyball.polyalg import MultiPoly
from polyball.suites import (SUITES, PropertyResult, run_suite,
                             suite_diagonal_dim, suite_far_cap,
                             suite_hua_reproduction, suite_kernel_symmetry,
                             suite_reproduction)

EXPECTED_NAMES = {
    "route-agreement",
    "series-identity",
    "diagonal-dim",
    "orthogonality",
    "reproduction",
    "almansi",
    "sector-integrals",
    "hua-convergence",
    "hua-reproduction",
    "kernel-symmetry",
    "far-cap",
    "gegenbauer",
}


def test_registry_names():
    assert set(SUITES) == EXPECTED_NAMES


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES - {"reproduction",
                                                          "gegenbauer"}))
def test_each_suite_passes_at_default_tolerances(name):
    rows = run_suite(name, n=2, p=2, seed=1)
    assert rows, "suite produced no property rows"
    for row in rows:
        assert isinstance(row, PropertyResult)
        assert row.suite == name
        assert row.passed, f"{row.name}: {row.deviation} > {row.tolerance}"


def test_reproduction_suite_passes():
    # the heaviest suite; run one configuration here, the rest in acceptance
    rows = run_suite("reproduction", n=2, p=2, seed=1)
    assert all(r.passed for r in rows)


def test_reproduction_suite_passes_in_four_dimensions():
    # on templates turned to its 20 points
    rows = suite_reproduction(n=4, p=1, seed=1)
    assert all(r.passed for r in rows)


class _Chosen(Exception):
    pass


def test_reproduction_turns_a_template_only_where_the_counts_favour_it(
        monkeypatch):
    # points x template nodes against the shared rule's nodes: at n = 4,
    # p = 1 the 20 points turn a template of 1,280 nodes (25,600 nodes in
    # all, against 128,000) and the suite stays under 160 MB; every n <= 3
    # shape at the default sizes keeps the shared rule
    chosen = []
    integrals_at = solver._integrals_at

    def recorded(*args):
        chosen.append((args[5].azimuth, args[5].count))
        return integrals_at(*args)

    monkeypatch.setattr(solver, "_integrals_at", recorded)
    tracemalloc.start()
    try:
        [row] = suite_reproduction(n=4, p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.passed and peak < 160e6
    assert chosen == [(4, 1280)]

    def stopped(*args):
        chosen.append(args[5].azimuth)
        raise _Chosen

    monkeypatch.setattr(solver, "_integrals_at", stopped)
    for n, p in ((2, 1), (2, 3), (3, 1), (3, 2), (3, 3)):
        chosen.clear()
        with pytest.raises(_Chosen):
            suite_reproduction(n=n, p=p)
        assert chosen == [None], (n, p)


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 2)])
def test_far_cap_holds_up_to_radius_0999_in_higher_dimensions(n, p):
    # the old distance-based far set failed here: cap-excess 0.75 at
    # n = 4, p = 2 and 3.06 at p = 3
    rows = suite_far_cap(n=n, p=p, seed=1)
    assert all(r.passed for r in rows), rows


def test_gegenbauer_suite_ignores_geometry_arguments():
    a = run_suite("gegenbauer", n=2, p=1, seed=0)
    b = run_suite("gegenbauer", n=3, p=3, seed=9)
    assert [(r.name, r.deviation) for r in a] \
        == [(r.name, r.deviation) for r in b]


def test_every_suite_parameter_is_read_in_its_body():
    # a parameter that a suite deletes or never loads is an input that
    # shapes no row
    for name, fn in SUITES.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        loaded = {node.id for node in ast.walk(tree.body[0])
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        params = set(inspect.signature(fn).parameters)
        assert params <= {"n", "p", "seed", "tolerance"}, name
        assert params <= loaded, (name, params - loaded)


def test_run_suite_passes_each_suite_exactly_its_parameters(monkeypatch):
    calls = {}

    def recorded(name, fn):
        @functools.wraps(fn)  # run_suite reads the suite's signature
        def call(**kwargs):
            calls[name] = kwargs
            return []
        return call

    for name, fn in SUITES.items():
        monkeypatch.setitem(SUITES, name, recorded(name, fn))
    given = {"n": 3, "p": 2, "seed": 7, "tolerance": 1e-7}
    for name in SUITES:
        params = inspect.signature(SUITES[name]).parameters
        run_suite(name, **given)
        assert calls[name] == {key: given[key] for key in params}, name
        # no tolerance leaves the suite's own default
        run_suite(name, n=3, p=2, seed=7)
        assert calls[name] == {key: given[key] for key in params
                               if key != "tolerance"}, name


def test_unknown_suite_raises_with_known_names():
    with pytest.raises(ValueError) as err:
        run_suite("no-such-suite")
    message = str(err.value)
    assert "route-agreement" in message


def test_seed_changes_samples_but_not_verdict():
    # p = 2 so the three routes use genuinely different coefficient tables
    a = run_suite("route-agreement", n=2, p=2, seed=0)
    b = run_suite("route-agreement", n=2, p=2, seed=1)
    assert all(r.passed for r in a + b)
    assert a[0].deviation != b[0].deviation


# each suite's rows that no tolerance sets: counts, ratios and fixed bounds
FIXED_ROWS = {
    ("diagonal-dim", "dimension-formula-vs-nullspace"): 0.0,
    ("series-identity", "max-terms-used"): 200.0,
    ("kernel-symmetry", "diagonal-bound"): 1.0 + 1e-9,
    ("kernel-symmetry", "same-sector-positivity"): 1e-12,
    ("far-cap", "mass-decreases-toward-boundary"): 0.0,
    ("hua-convergence", "gap-over-bound-ratio"): 1.0 + 1e-9,
    ("hua-convergence", "gap-monotone-decrease"): 0.0,
    ("gegenbauer", "partial-sum-decay-ratio"): 0.6 ** 30,
    ("almansi", "reassembly-failures"): 0.0,
}


@pytest.mark.parametrize("tolerance", [1e-30, 1000.0])
@pytest.mark.parametrize("name", ["diagonal-dim", "kernel-symmetry",
                                  "far-cap", "hua-convergence", "gegenbauer",
                                  "almansi"])
def test_tolerance_override_sets_only_tolerance_rows(name, tolerance):
    # the value goes to the suite's own tolerance argument: its tolerance
    # rows take it, and count and ratio rows keep their bounds
    default = run_suite(name, n=2, p=1, seed=0)
    rows = run_suite(name, n=2, p=1, seed=0, tolerance=tolerance)
    assert [r.name for r in rows] == [r.name for r in default]
    for row, before in zip(rows, default):
        fixed = FIXED_ROWS.get((name, row.name))
        if fixed is not None or name in ("hua-convergence", "almansi"):
            assert row.tolerance == before.tolerance
            assert fixed is None or row.tolerance == fixed
        else:
            assert row.tolerance == tolerance
            assert row.passed or tolerance < 1.0


def test_series_identity_tolerance_sizes_the_series_not_its_term_bound():
    # a tolerance below the series' reach is refused by the suite, not
    # judged against its term count
    with pytest.raises(ValueError):
        run_suite("series-identity", n=2, p=1, seed=0, tolerance=1e-30)
    rows = run_suite("series-identity", n=2, p=1, seed=0, tolerance=1e-6)
    terms = next(r for r in rows if r.name == "max-terms-used")
    assert terms.tolerance == 200.0 and terms.passed


def test_diagonal_dim_counts_a_basis_element_that_is_not_annihilated(
        monkeypatch):
    # the right count is not enough: |x|^2 x1^(m-2) added to the first
    # element keeps the count and breaks Delta^1 at every degree m >= 2,
    # that is at degrees 2 to 8
    def nullspace_row():
        rows = suite_diagonal_dim(n=2, p=1)
        return next(r for r in rows
                    if r.name == "dimension-formula-vs-nullspace")

    assert nullspace_row().deviation == 0.0
    build = polyalg._polyharmonic_basis

    def spoiled(n, m, p):
        basis = build(n, m, p)
        if m < 2:
            return basis
        bump = MultiPoly.radial_square(n) * MultiPoly.monomial(
            n, (m - 2,) + (0,) * (n - 1))
        return (basis[0] + bump,) + basis[1:]

    monkeypatch.setattr(polyalg, "_polyharmonic_basis", spoiled)
    row = nullspace_row()
    assert row.deviation == 7.0 and not row.passed


def test_almansi_counts_a_split_whose_head_is_not_polyharmonic(monkeypatch):
    # a split that returns (q, 0) reassembles q, but its head is not
    # p-polyharmonic at any of the 23 draws of degree 2p or more
    def direct_sum_row():
        rows = run_suite("almansi", n=2, p=2, seed=11)
        return next(r for r in rows if r.name == "direct-sum-failures")

    assert direct_sum_row().deviation == 0.0
    monkeypatch.setattr(polyalg, "polyharmonic_split",
                        lambda q, p: (q, MultiPoly.zero(q.n)))
    row = direct_sum_row()
    assert row.deviation == 23.0 and not row.passed


def _per_sample_diagonal_gap(n, p, seed, max_degree=8, samples=3):
    """The diagonal-dim gap by one kernel call on a one-row stack per
    sample, drawing the points in the suite's order."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in range(max_degree + 1):
        dim = polyalg.dim_Hp(n, m, p)
        for j in range(p):
            for _ in range(samples):
                v = rng.standard_normal(n)
                eta = RotatedVector.sector(j, p, v / np.linalg.norm(v))
                B, x2, zb2 = kernels.pair_invariants(
                    *[eta.to_complex()[None]] * 2)
                [value] = kernels.zonal_from_products(n, m, p, B, x2 * zb2)
                worst = max(worst, abs(value - dim))
    return worst


@pytest.mark.parametrize("p", [1, 2, 3])
def test_diagonal_dim_equals_the_per_sample_kernel_loop(p):
    for seed in range(50):
        n = 2 + seed % 4
        row = suite_diagonal_dim(n, p, seed)[0]
        assert row.deviation == _per_sample_diagonal_gap(n, p, seed), seed


def test_diagonal_dim_makes_one_kernel_call_per_degree(monkeypatch):
    calls = []
    batched = kernels.zonal_from_products

    def counted(n, m, p, B, P, *args):
        calls.append((m, len(P)))
        return batched(n, m, p, B, P, *args)

    monkeypatch.setattr(kernels, "zonal_from_products", counted)
    suite_diagonal_dim(n=3, p=3)
    assert calls == [(m, 9) for m in range(9)]


def _per_pair_kernel_symmetry(n, p, seed, max_degree=8, pairs=50):
    """The kernel-symmetry deviations by kernel calls on one pair at a time
    (its four zonal arguments stacked), drawing the points in the suite's
    order."""
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(p), rng.standard_normal(n), rng.integers(p),
              rng.standard_normal(n), complex(*rng.uniform(-1.4, 1.4, 2)),
              rng.uniform(0.05, 0.95), rng.standard_normal(n))
             for _ in range(pairs)]
    sym = scal = bound = pos = 0.0
    for j, zeta, k, eta, a, r, x in draws:
        zc = RotatedVector.sector(int(j), p, zeta / np.linalg.norm(zeta))
        z = zc.to_complex()
        e = RotatedVector.sector(int(k), p, eta / np.linalg.norm(eta)
                                 ).to_complex()
        B, x2, zb2 = kernels.pair_invariants(
            np.array([z, e, a * z, z]), np.array([e, z, e, a.conjugate() * e]))
        for m in range(max_degree + 1):
            fwd, rev, left, right = map(complex, kernels.zonal_from_products(
                n, m, p, B, x2 * zb2))
            sym = max(sym, abs(fwd.conjugate() - rev)
                      / max(1.0, abs(fwd), abs(rev)))
            scal = max(scal, abs(left - right)
                       / max(1.0, abs(left), abs(right)))
            bound = max(bound, abs(fwd) / polyalg.dim_Hp(n, m, p))
        value = kernels.poisson_kernel(
            RotatedVector.sector(int(j), p, r * (x / np.linalg.norm(x))), zc, p)
        pos = max(pos, abs(value.imag) / abs(value), -value.real / abs(value))
    return sym, scal, bound, pos


@pytest.mark.parametrize("n,p", [(2, 1), (2, 3), (3, 2), (5, 3)])
def test_kernel_symmetry_equals_the_per_pair_kernel_loop(n, p):
    # the stacked rows against kernel calls pair by pair: the zonal and
    # Poisson values are equal, but numpy's array abs and its products by
    # the scalars a may round a last bit otherwise, so each row is held to
    # 4 eps of max(1, deviation)
    eps = np.finfo(float).eps
    for seed in range(5):
        rows = suite_kernel_symmetry(n, p, seed)
        want = _per_pair_kernel_symmetry(n, p, seed)
        for row, value in zip(rows, want, strict=True):
            assert abs(row.deviation - value) <= 4 * eps * max(1.0, value), (
                seed, row.name, row.deviation, value)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hua_reproduction_stays_below_the_tail_its_rule_is_sized_to(
        n, monkeypatch):
    choose, sized = solver.choose_lie_rule, []

    def spy(*args):  # the rule the suite sizes
        sized.append(choose(*args))
        return sized[-1]

    monkeypatch.setattr(solver, "choose_lie_rule", spy)
    for seed in range(5):
        (row,) = suite_hua_reproduction(n=n, seed=seed)
        lie = sized[-1]
        tail = kernels._nb_tail(n - 1, 0.6, 2 * lie.angular)
        assert tail <= 1e-8 and row.tolerance == 1e-6
        assert row.deviation <= tail, (seed, row.deviation, tail)
    if n == 2:  # symmetric under zeta -> -zeta
        assert lie.base.count % 2 == 0


def test_an_odd_circle_breaks_the_hua_reproduction_bound(monkeypatch):
    # exactness 2 * max_degree gives the n = 2 circle 9 points: not
    # symmetric under zeta -> -zeta, so the odd d - m terms survive
    sized = solver.choose_lie_rule(2, 4, 0.6, 1e-8)
    odd = quadrature.LieSphereRule(quadrature.sphere_rule(
        2, quadrature.resolution_for_exactness(2, 8)), sized.angular)
    assert odd.base.count == 9
    monkeypatch.setattr(solver, "choose_lie_rule", lambda *args: odd)
    (row,) = suite_hua_reproduction(n=2, seed=0)
    assert row.deviation > 1e4 * kernels._nb_tail(1, 0.6, 2 * sized.angular)
    assert not row.passed


def _first_refused_p(per_sector) -> int:
    """The least p whose p sectors of per_sector(p) values pass the cap."""
    p = 1
    while p * per_sector(p) <= geometry._MAX_NODES:
        p += 1
    return p


# each suite's values per sector at n = 2, from its fixed sizes, and a builder
# that the refusal must come before
_SECTOR_SIZES = {
    "far-cap": (lambda p: quadrature.sphere_rule(2, 512).count,
                (solver, "_sector_kernels")),
    "sector-integrals": (
        lambda p: p * solver.choose_rule(2, p, 0, 0.7, 1e-12).count,
        (solver, "_integrals_at")),
    "reproduction": (
        lambda p: 20 * p * sum(polyalg.dim_Hp(2, m, p) for m in range(7)),
        (solver, "choose_rule")),
    "orthogonality": (
        lambda p: sum(polyalg.dim_Hp(2, m, p) for m in range(7))
        * quadrature.sphere_rule(
            2, quadrature.resolution_for_exactness(2, 12)).count,
        (suites, "sector_phases")),
    "diagonal-dim": (lambda p: 3 * 9, (suites, "polyharmonic_basis")),
}


@pytest.mark.parametrize("name", sorted(_SECTOR_SIZES))
def test_suites_refuse_p_past_the_node_cap_before_building(name,
                                                           monkeypatch):
    # the first refused p, computed: the suite is not run big below it
    per_sector, (module, builder) = _SECTOR_SIZES[name]
    p = _first_refused_p(per_sector)

    def built(*args, **kwargs):
        raise AssertionError(f"{builder} called at p={p}")

    monkeypatch.setattr(module, builder, built)
    with pytest.raises(ValueError, match=f"^p={p}: .* exceed the node cap"):
        run_suite(name, n=2, p=p)
