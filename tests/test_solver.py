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

from polyball import (cli, geometry, kernels, polyalg, quadrature, solver,
                      suites)
from polyball.geometry import (RotatedVector, bilinear_square, lie_norm,
                               sector_phases)
from polyball.polyalg import MultiPoly, polyharmonic_basis
from polyball.solver import (
    BoundaryData,
    choose_rule,
    hua_integrals,
    lie_ball_poisson_integrals,
    poisson_integrals,
)

RNG = np.random.default_rng(60)


def interior_points(n: int, p: int, count: int, rng,
                    rmax: float = 0.6) -> tuple:
    """(coords, sectors): ``count`` real rows of radius below ``rmax`` and
    their sectors, the form the batched calls take."""
    coords, sectors = [], []
    for _ in range(count):
        y = rng.standard_normal(n)
        y *= rng.uniform(0.1, rmax) / np.linalg.norm(y)
        coords.append(y)
        sectors.append(int(rng.integers(p)))
    return np.array(coords), np.array(sectors)


def rotated(points: tuple, p: int) -> list:
    """The ``RotatedVector`` of each of ``interior_points``' points."""
    return [RotatedVector.sector(j, p, a) for a, j in zip(*points)]


def boundary_form(qs: list, p: int, coords, sectors, rule) -> np.ndarray:
    """The boundary-form route's (points, data) matrix: (1/p) sum_k int_S
    q(e^{ik pi/p} zeta) (1 - |x|^{2p}) / |e^{-ik pi/p} x - zeta|^n."""
    return solver._sector_integrals(solver._BOUNDARY_FORM, qs, p, coords,
                                    sectors, rule)


def spectral(q: MultiPoly, p: int, m: int, eta, rule,
             route: str = kernels.ROUTE_GEGENBAUER_DIFF) -> complex:
    """<q, Z_m^p(., eta)> over the p rotated spheres, Z_m^p by ``route``:
    the degree-m spectral value of q at eta, which is q(eta) for q in
    H_m^p."""
    return complex(solver._integrals_at(
        (route, m), p, geometry.as_complex_vector(eta)[None, :], None,
        sector_phases(range(p), p), rule, [q])[0, 0])


# --------------------------------------------------------------------------
# boundary data
# --------------------------------------------------------------------------

def test_boundary_data_is_its_polynomial():
    q = MultiPoly.from_text("x1^2 - x2^2", n=2)
    data = BoundaryData(q, 2)
    assert (data.n, data.p) == (2, 2)
    with pytest.raises(ValueError):
        BoundaryData(q, 0)


def _recorded_phases(monkeypatch) -> tuple:
    """Lists that collect (datum, phases) of every datum the operator
    evaluates (``polyalg._evaluate``) and the phases of every kernel
    build."""
    evaluated, built = [], []
    evaluate, sector_kernels = polyalg._evaluate, solver._sector_kernels

    def recorded_eval(polys, table, phases, out):
        evaluated.extend((q, np.array(phases)) for q in polys)
        return evaluate(polys, table, phases, out)

    def recorded_kernels(route, p, zs, phases, *args):
        built.append(np.array(phases))
        return sector_kernels(route, p, zs, phases, *args)

    monkeypatch.setattr(polyalg, "_evaluate", recorded_eval)
    monkeypatch.setattr(solver, "_sector_kernels", recorded_kernels)
    return evaluated, built


def test_boundary_data_uses_the_kernel_sector_phases(monkeypatch):
    # p = 6 is the first order where e^{5 i pi / 6} from the real angle
    # and from the complex product 1j * 5 * pi / 6 round differently; data
    # and kernels must share one
    evaluated, built = _recorded_phases(monkeypatch)
    want = sector_phases(range(6), 6)
    q = MultiPoly.from_text("x1^3 - 2 * x1 x2 + x3 + 1", n=3)
    for rule in (quadrature.sphere_rule(3, 6),
                 solver.aligned_rule(3, 6, q.degree())):
        evaluated.clear()
        built.clear()
        poisson_integrals([q], 6, [[0.2, -0.1, 0.3]], [5], rule)
        np.testing.assert_array_equal(
            np.concatenate([phase for _, phase in evaluated]), want)
        np.testing.assert_array_equal(np.concatenate(built), want)


def test_boundary_data_evaluates_every_sector_in_one_pass(monkeypatch):
    # each datum is evaluated once per block of sectors, and never again
    # for another block of points or data: its calls cover every sector
    # once.  A block holds every sector when all the values fit the budget
    # (one pass, even where the kernels take a few sectors at a time), else
    # the sectors of one kernel block.  Kernel blocks cover every sector
    # once, in whole groups: 7 sectors of 200 nodes join in rows of four
    # (800 nodes, the last row padded) for any budget.  The whole call is
    # one block when its slices (100,800 floats here) fit eight budgets
    evaluated, built = _recorded_phases(monkeypatch)
    qs = [MultiPoly.from_text(t, n=3)
          for t in ("x1^2 x2 + 2 * x3", "x3 - 1", "(0,1) x1 x2")]
    points = interior_points(3, 7, 12, np.random.default_rng(3))
    rule = quadrature.sphere_rule(3, 10)
    phases = sector_phases(range(7), 7)
    assert solver._group(rule.count, 7)[0] == 4
    assert len(qs) * 7 * rule.count == 4200  # the values of every sector
    for budget, passes, kernel_blocks in ((1 << 20, 1, 1), (1 << 16, 1, 1),
                                          (4500, 1, 2), (3000, 2, 2),
                                          (1, 2, 2)):
        evaluated.clear()
        built.clear()
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", budget)
        poisson_integrals(qs, 7, *points, rule)
        blocks = []  # the kernels' sector blocks, each once per point block
        for block in built:
            if not blocks or not np.array_equal(blocks[-1], block):
                blocks.append(block)
        assert len(blocks) == kernel_blocks, budget
        assert all(len(block) % 4 == 0 for block in blocks[:-1]), budget
        np.testing.assert_array_equal(np.concatenate(blocks), phases)
        assert len(evaluated) == len(qs) * passes, budget
        for q in qs:
            mine = [phase for q0, phase in evaluated if q0 is q]
            assert len(mine) == passes, budget
            np.testing.assert_array_equal(np.concatenate(mine), phases)


def test_one_by_one_integrals_equal_their_batched_entries():
    # sectors join in rows fixed by the node and sector counts alone, so a
    # 1 x 1 call reduces every entry as the batched call does: 7 sectors
    # and 7 Lie angles of 200 nodes, each in rows of four with a padded
    # last row
    qs = [MultiPoly.from_text(t, n=3)
          for t in ("x1^2 x2 + 2 * x3", "x3 - 1", "(0,1) x1 x2^3")]
    points = interior_points(3, 7, 4, np.random.default_rng(5))
    rule = quadrature.sphere_rule(3, 10)
    lie = quadrature.LieSphereRule(rule, 7)
    assert solver._group(rule.count, 7)[0] == 4
    zs = [np.array([0.3, 0.1j, -0.2]), np.array([-0.2, 0.4 + 0.1j, 0.1])]
    batched = poisson_integrals(qs, 7, *points, rule)
    hua = hua_integrals(qs, zs, lie)
    for d, q in enumerate(qs):
        for i, (coords, j) in enumerate(zip(*points)):
            assert poisson_integrals([q], 7, [coords], [j], rule)[0, 0] \
                == batched[i, d]
        for i, z in enumerate(zs):
            assert hua_integrals([q], [z], lie)[0, 0] == hua[i, d]


# --------------------------------------------------------------------------
# reproduction and form equality
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n,p,m", [(2, 1, 4), (2, 2, 5), (3, 2, 3)])
def test_poisson_integral_reproduces_polyharmonic_basis(n, p, m):
    rng = np.random.default_rng(1000 + n + 10 * p + 100 * m)
    rule = choose_rule(n, p, m, radius=0.6, tol=1e-11)
    for q in polyharmonic_basis(n, m, p)[:4]:
        points = interior_points(n, p, 5, rng)
        got = poisson_integrals([q], p, *points, rule)[:, 0]
        for value, x in zip(got, rotated(points, p)):
            want = q.evaluate(x)
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want))


def test_boundary_form_route_matches_poisson_integral():
    q = MultiPoly.from_text("x1^2 - x2^2 + x1 x2", n=2)
    p = 2
    rule = choose_rule(2, p, q.degree(), radius=0.7, tol=1e-11)
    pts = interior_points(2, p, 12, np.random.default_rng(5), rmax=0.7)
    values = boundary_form([q], p, *pts, rule)[:, 0]
    assert values.shape == (12,)
    for v, direct in zip(values, poisson_integrals([q], p, *pts, rule)[:, 0]):
        assert abs(v - direct) <= 1e-11 * max(1.0, abs(direct))


def test_dirichlet_rejects_exterior_and_off_sector_points():
    q = MultiPoly.from_text("x1", n=2)
    rule = quadrature.sphere_rule(2, 16)
    edge = 1.0 - 1e-9  # the solver's interior radius
    for coords, sectors in (([[1.5, 0.0]], [0]), ([[edge, 0.0]], [1]),
                            ([[0.3, 0.0]], [2]), ([[0.3, 0.0]], [-1]),
                            ([[0.3, 0.0, 0.0]], [0]), ([[0.3, 0.0]], [0, 1])):
        with pytest.raises(ValueError):
            boundary_form([q], 2, coords, sectors, rule)
    with pytest.raises(ValueError, match="real rows"):  # not cast to real
        boundary_form([q], 2, geometry.sector_points([[0.3, 0.0]], [1], 2),
                      [1], rule)
    assert boundary_form([q], 2, [[0.3, 0.0]], [1], rule).shape == (1, 1)
    with pytest.raises(ValueError):  # the Poisson route checks its sectors
        poisson_integrals([q], 2, [[0.3, 0.0]], [2], rule)
    for qs, p in (([q], 0), ([q, MultiPoly.from_text("x1", n=3)], 2)):
        with pytest.raises(ValueError, match="sharing n, and p >= 1"):
            poisson_integrals(qs, p, [[0.3, 0.0]], [0], rule)


# --------------------------------------------------------------------------
# the batched kernel operator against the per-point, per-sector loop
# --------------------------------------------------------------------------

def _fsum(values) -> complex:
    values = np.asarray(values, dtype=complex)
    return complex(math.fsum(values.real), math.fsum(values.imag))


def reference_integrals(route: str, qs, p, points, rule) -> np.ndarray:
    """One kernel array per point and sector from the point's own
    invariants (the boundary form straight from (1 - x2^p) / v2^{n/2},
    v2 = (e^{-ij pi/p} x - zeta)^2, not from ``kernels``), an fsum per
    sector and an fsum over the sectors."""
    rn = np.sum(rule.nodes ** 2, axis=1)
    out = np.empty((len(points[0]), len(qs)), dtype=complex)
    for i, x in enumerate(rotated(points, p)):
        xc = x.to_complex()
        x2 = bilinear_square(xc)
        for d, q in enumerate(qs):
            parts = []
            for j in range(p):
                conj = np.conj(np.exp(1j * j * math.pi / p))
                if route == "poisson":
                    kv = kernels.poisson_from_products(
                        q.n, p, x2, conj * (rule.nodes @ xc), conj ** 2 * rn)
                else:  # the boundary form from its formula
                    v2 = np.sum((conj * xc - rule.nodes) ** 2, axis=1)
                    kv = (1.0 - x2 ** p) / v2 ** (q.n / 2)
                values = q.eval_at(rule.nodes, phase=sector_phases([j], p)[0])
                parts.append(_fsum(rule.weights * values * kv))
            out[i, d] = _fsum(parts) / p
    return out


def operator_case(n: int, p: int):
    """Basis data of degrees 0-3, interior points over every sector, and
    the rule choose_rule picks for them."""
    rng = np.random.default_rng(200 + 10 * n + p)
    basis = [q for m in range(4) for q in polyharmonic_basis(n, m, p)]
    rule = choose_rule(n, p, basis[-1].degree(), radius=0.7, tol=1e-11)
    return basis[::2], interior_points(n, p, 7, rng, rmax=0.7), rule


@pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3) for p in (1, 2, 3)])
def test_batched_operator_matches_per_sector_loop(n, p):
    qs, points, rule = operator_case(n, p)
    routes = {
        "poisson": poisson_integrals(qs, p, *points, rule),
        "boundary-form": boundary_form(qs, p, *points, rule),
    }
    for route, got in routes.items():
        want = reference_integrals(route, qs, p, points, rule)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-13, route


def test_batched_hua_matches_per_angle_loop():
    rng = np.random.default_rng(41)
    lie = quadrature.LieSphereRule(quadrature.sphere_rule(3, 8), 6)
    us = [MultiPoly.from_text(t, n=3)
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
    qs, points, rule = operator_case(2, 2)
    lie = quadrature.LieSphereRule(quadrature.sphere_rule(2, 12), 8)
    us = [MultiPoly.from_text(t, n=2) for t in ("x1", "x2^2")]
    zs = [np.array([0.3, 0.1j]), np.array([-0.2, 0.4 + 0.1j])]

    def results():
        return (poisson_integrals(qs, 2, *points, rule),
                boundary_form(qs[1:2], 2, *points, rule),
                hua_integrals(us, zs, lie))

    default = results()
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", budget)
    for a, b in zip(default, results()):
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# pole-aligned templates
# --------------------------------------------------------------------------

def random_polynomial(n: int, degree: int, rng) -> MultiPoly:
    """Complex coefficients on every monomial of degree <= ``degree``."""
    terms = []
    for exps in np.ndindex(*(degree + 1,) * n):
        if sum(exps) <= degree:
            c = complex(*np.round(rng.standard_normal(2), 3))
            terms.append(f"({c.real!r},{c.imag!r}) " + " ".join(
                f"x{i + 1}^{e}" for i, e in enumerate(exps) if e))
    return MultiPoly.from_text(" + ".join(terms), n=n)


@pytest.mark.parametrize("n", [3, 4])
def test_aligned_rule_integrates_zonal_times_data_exactly(n):
    # Z_m^p(x, .) f with m + d <= 2L - 1, on a template turned to x, against
    # a rule shared by every point that is exact for degree m + d.  Every
    # data degree is drawn, and an even m <= d as well as any m: at even d
    # an S^{n-2} factor of exactness d - 1 misses the y-degree-d part, which
    # only a zonal part of even degree <= d sees (parity and Gegenbauer
    # orthogonality)
    rng = np.random.default_rng(160 + n)
    route = kernels.ROUTE_GEGENBAUER_DIFF
    for d in range(7):
        q, p = random_polynomial(n, d, rng), int(rng.integers(1, 4))
        resolution = int(rng.integers(4, 7))
        template = solver.aligned_rule(n, resolution, d)
        point = interior_points(n, p, 1, rng, rmax=0.9)
        [x] = rotated(point, p)
        for m in (2 * int(rng.integers(0, d // 2 + 1)),
                  int(rng.integers(0, 2 * resolution - d))):
            got = solver._sector_integrals((route, m), [q], p, *point,
                                           template)[0, 0]
            shared = quadrature.sphere_rule(
                n, quadrature.resolution_for_exactness(n, m + d))
            want = spectral(q, p, m, x, shared, route)
            # every zonal term is at most sum |e_k| |a|^m, the data sum |c|
            # (the terms are numerators over q.denom)
            scale = sum(abs(c) for c in kernels._float_coeffs(
                n, m, p, False)) * x.radius ** m \
                * sum(abs(complex(a, b)) for a, b in q.terms.values()) \
                / q.denom
            assert abs(got - want) <= 1e-13 * scale, (d, m, p)


# blocks of 1, 2 and all 7 points for poisson_integrals
@pytest.mark.parametrize("budget", [1, 10000, 1 << 20])
def test_aligned_rows_equal_their_one_point_integrals(monkeypatch, budget):
    qs, points, rule = operator_case(3, 2)
    template = choose_rule(3, 2, 3, radius=0.7, tol=1e-11, aligned=True)
    assert template.count * 20 < rule.count
    shared = poisson_integrals(qs, 2, *points, rule)
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", budget)
    got = poisson_integrals(qs, 2, *points, template)
    forms = boundary_form(qs[1:2], 2, *points, template)[:, 0]
    for i in range(len(forms)):
        one = [a[i:i + 1] for a in points]
        np.testing.assert_array_equal(
            got[i], poisson_integrals(qs, 2, *one, template)[0])
        assert forms[i] == boundary_form(qs[1:2], 2, *one, template)[0, 0]
    # both rules reproduce the polyharmonic data to the tolerance
    assert np.max(np.abs(got - shared)) <= 1e-10
    assert np.max(np.abs(forms - got[:, 1])) <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_aligned_sector_integrals_match_the_shared_rule(p):
    # sector-integrals at n >= 3: int_S P_p(e^{-ik pi/p} x, zeta) dsigma
    # over sector 0 alone (the one-sector phase set), each sample on its own
    # turned template, equals the shared rule's value
    rng = np.random.default_rng(70 + p)
    xs = []
    for k in range(p):
        a = rng.standard_normal(3)
        xs.append(RotatedVector(-k * math.pi / p,
                                rng.uniform(0.1, 0.7) * a / np.linalg.norm(a)))
    one, sector = [MultiPoly.constant(3, 1)], np.ones(1)
    shared = choose_rule(3, p, 0, 0.7, 1e-12)
    template = choose_rule(3, p, 0, 0.7, 1e-12, aligned=True)
    assert template.count * 40 < shared.count
    got = solver._integrals_at(
        solver._POISSON, p, np.array([x.coords for x in xs]),
        np.exp(1j * np.array([x.angle for x in xs])), sector, template, one)
    want = solver._integrals_at(solver._POISSON, p,
                                np.array([x.to_complex() for x in xs]), None,
                                sector, shared, one)
    assert np.max(np.abs(got - want)) <= 1e-13


def _per_node_template_integrals(route, p, coords, turns, phases, rule,
                                 data):
    """A turned template's integrals with one term per node, computed
    apart from ``solver._integrals_at``: each polar kernel value is repeated
    over its whole ring, weighted node by node, and every row's products
    run over all g R nodes."""
    n, size, count, sectors = rule.n, rule.count, len(data), len(phases)
    per = size // rule.resolution
    polar = rule.nodes[::per]
    rn = np.sum(polar * polar, axis=1)
    group, groups, width, slices = solver._group(size, sectors)
    step = max(1, solver._BLOCK_ELEMENTS
               // (2 * slices * size * sectors * count))
    out = np.empty((len(coords), count), dtype=complex)
    for i in range(0, len(coords), step):
        points = len(coords[i:i + step])
        nodes, pole = solver._turned(rule.nodes, coords[i:i + step])
        zs = np.zeros((points, n), dtype=complex)
        zs[:, -1] = pole * turns[i:i + step]
        ks = quadrature._split(solver._rows(rule.weights * np.repeat(
            solver._sector_kernels(route, p, zs, phases, polar, rn), per,
            axis=-1), group), width, slices)
        values = np.empty((count, sectors, points * size), dtype=complex)
        polyalg._evaluate(data, polyalg._power_table(nodes.reshape(-1, n),
                                                     data), phases, values)
        vs = quadrature._split(solver._rows(values.reshape(
            count, sectors, points, size).transpose(2, 0, 1, 3), group)
            .transpose(0, 2, 1, 3), width, slices)
        sums = quadrature._sliced_sums(
            ks.reshape(points * groups, 1, slices, -1),
            vs.reshape(points * groups, count, slices, -1))
        out[i:i + points] = quadrature.compensated_sum(
            sums.reshape(points, groups, count).transpose(0, 2, 1),
            axis=-1) / sectors
    return out


@pytest.mark.parametrize("n,p", [(n, p) for n in (3, 4, 5) for p in (1, 2, 3)])
def test_circle_folds_leave_every_template_value_bit_identical(monkeypatch,
                                                               n, p):
    # a template circle shares one kernel value and one weight, and the
    # exact slice sums of its data regroup the exact sums of the whole row,
    # so one term per circle gives every bit of one term per node; the
    # azimuth A = 3 puts A^{n-3} circles on each polar ring at n >= 4
    rng = np.random.default_rng(280 + 10 * n + p)
    data = [random_polynomial(n, d, rng) for d in (1, 4)]
    template = solver.aligned_rule(n, 5, 4)
    coords, sectors = interior_points(n, p, 7, rng, rmax=0.8)
    phases = sector_phases(range(p), p)
    for budget in (1, 60000, 1 << 20):
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", budget)
        for route in (solver._POISSON, solver._BOUNDARY_FORM):
            args = (route, p, coords, phases[sectors], phases, template,
                    data)
            np.testing.assert_array_equal(
                solver._integrals_at(*args),
                _per_node_template_integrals(*args))


def test_template_products_contract_one_term_per_circle(monkeypatch):
    # dirichlet n=3, p=3 of degree-5 data at 16 points, the first at radius
    # 0.8: a template of 75 polar nodes x 6 azimuth angles, one sector per
    # row.  The kernel side is cut from 16 x 3 x 75 values, not 16 x 3 x
    # 450, and each (point, row) product contracts 75 terms, not 450
    cuts, products = [], []
    split, sliced_sums = quadrature._split, quadrature._sliced_sums

    def recorded_split(values, width, slices):
        cuts.append(np.shape(values))
        return split(values, width, slices)

    def recorded_sums(ks, vs):
        products.append((ks.shape, vs.shape))
        return sliced_sums(ks, vs)

    monkeypatch.setattr(quadrature, "_split", recorded_split)
    monkeypatch.setattr(quadrature, "_sliced_sums", recorded_sums)
    rng = np.random.default_rng(28)
    coords, sectors = interior_points(3, 3, 16, rng, rmax=0.8)
    coords[0] *= 0.8 / np.linalg.norm(coords[0])
    table = cli.run_command("dirichlet", {
        "n": 3, "p": 3, "boundary": random_polynomial(3, 5, rng).to_text(),
        "points": coords.tolist(), "sectors": sectors.tolist()})
    assert table.exit_code() == 0
    rule = table.metadata["rule"]
    assert (rule["count"], rule["azimuth"]) == (450, 3)
    group, _, _, _ = solver._group(450, 3)
    # the kernel's rows are g R / 2A wide, the data's g R
    kernel = [shape for shape in cuts if shape[-1] == group * 75]
    assert sum(math.prod(shape) for shape in kernel) == 16 * 3 * 75
    assert products and all(
        ks[-1] == vs[-1] == group * 75 and ks[1] == 1
        for ks, vs in products)


def test_a_turned_template_call_that_fits_is_one_block(monkeypatch):
    # dirichlet n=3, p=2 of degree-4 data at 16 points, the first at radius
    # 0.8 (the solve workload's median shape): the slices of a 444-node
    # template fit eight budgets, so one power table holds every point's
    # turned copy, where one budget alone would take blocks of 12 and 4
    shapes = []
    power_table = polyalg._power_table

    def recorded(points, polys):
        shapes.append(points.shape)
        return power_table(points, polys)

    monkeypatch.setattr(polyalg, "_power_table", recorded)
    rng = np.random.default_rng(29)
    coords, sectors = interior_points(3, 2, 16, rng, rmax=0.8)
    coords[0] *= 0.8 / np.linalg.norm(coords[0])
    table = cli.run_command("dirichlet", {
        "n": 3, "p": 2, "boundary": random_polynomial(3, 4, rng).to_text(),
        "points": coords.tolist(), "sectors": sectors.tolist()})
    assert table.exit_code() == 0
    rule = table.metadata["rule"]
    assert (rule["count"], rule["azimuth"]) == (444, 3)
    # then the reference values u_p(x) at the 16 points themselves
    assert shapes == [(16 * 444, 3), (16, 3)]


def test_a_template_needs_real_points_to_turn_to():
    # at a complex point a pole-aligned template has no real direction to
    # turn to; taken as a shared rule its Lie rule missed u(z) here by
    # 9.0e-3, where the sized Lie rule misses it by 1.4e-16
    template = solver.aligned_rule(3, 8, 3)
    u = MultiPoly.from_text("x1^2 x2 + (0,1) x3 - 1", n=3)
    z = np.array([0.3, 0.1j, -0.2])
    lie = solver.choose_lie_rule(3, u.degree(), lie_norm(z), 1e-12)
    with pytest.raises(ValueError, match="real points"):
        spectral(u, 2, 2, z, template)
    with pytest.raises(ValueError, match="real points"):
        hua_integrals([u], [z], quadrature.LieSphereRule(template, 8))
    with pytest.raises(ValueError, match="real points"):
        lie_ball_poisson_integrals([u], 2, [z], template)
    assert abs(hua_integrals([u], [z], lie)[0, 0] - u.evaluate(z)) <= 1e-13


@pytest.mark.parametrize("n,p", [(n, p) for n in (3, 4) for p in (1, 2, 3)])
def test_aligned_dirichlet_rows_meet_one_tail_term_of_the_polar_rule(n, p):
    # every term Z_m^p f with m <= 2L - 1 - d is integrated exactly on the
    # turned template, and its exact integral is 0 for m > d, so a row
    # misses u_p(x) by at most sum |c_alpha| times the tail past
    # 2L - 1 - d, plus the rounding slack of the aligned tests
    rng = np.random.default_rng(290 + 10 * n + p)
    q = random_polynomial(n, 3, rng)
    coords, sectors = interior_points(n, p, 8, rng, rmax=0.8)
    coords[0] *= 0.8 / np.linalg.norm(coords[0])
    table = cli.run_command("dirichlet", {
        "n": n, "p": p, "boundary": q.to_text(), "points": coords.tolist(),
        "sectors": sectors.tolist()})
    rule = table.metadata["rule"]
    assert rule["type"] == "pole-aligned"
    size = sum(abs(complex(a, b)) for a, b in q.terms.values()) / q.denom
    top = 2 * rule["resolution"] - 1 - q.degree()
    for row, x in zip(table.rows, coords):
        cells = dict(zip(table.columns, row))
        assert cells["status"] == "ok"
        tail = kernels._tail_bound(n, p, float(np.linalg.norm(x)), top)
        assert cells["abs_error"] <= size * (tail + 1e-13)


def _recorded_products(monkeypatch) -> list:
    """A list that collects (dtype, m n k) of every ``np.matmul``."""
    sizes = []
    matmul = np.matmul

    def recorded(a, b, *args, **kwargs):
        sizes.append((a.dtype, a.shape[-2] * a.shape[-1] * b.shape[-1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    return sizes


def test_every_matrix_product_stays_on_the_calling_thread(monkeypatch):
    # OpenBLAS 0.3.31 (numpy 2.4.6, 2 cores) runs a float64 product of at
    # most 2^18 multiply-adds on the calling thread, and a complex128 one
    # below 2^16 (it wakes its worker threads at 65,536, 32 x 64 x 32 and
    # 64 x 16 x 64, not at 64,512 or 61,440); a larger one wakes worker
    # threads that spin after it returns
    # threads too; turned templates run in the dirichlet request, the
    # sector-integrals suite and reproduction at n = 4
    sizes = _recorded_products(monkeypatch)
    rng = np.random.default_rng(428)
    coords, sectors = interior_points(3, 3, 16, rng, rmax=0.8)
    table = cli.run_command("dirichlet", {
        "n": 3, "p": 3, "boundary": random_polynomial(3, 5, rng).to_text(),
        "points": coords.tolist(), "sectors": sectors.tolist()})
    assert table.exit_code() == 0
    for suite, n, p in (("reproduction", 3, 1), ("hua-reproduction", 2, 1),
                        ("reproduction", 2, 3), ("sector-integrals", 3, 2),
                        ("reproduction", 4, 1)):
        assert all(row.passed for row in suites.run_suite(suite, n=n, p=p))
    assert {dtype for dtype, _ in sizes} <= {np.dtype(float),
                                             np.dtype(complex)}
    assert all(size <= 1 << 18 if dtype == float else size < 1 << 16
               for dtype, size in sizes)
    assert any(dtype == complex for dtype, _ in sizes)


@pytest.mark.parametrize("n,products", [(4, 810), (5, 7821)])
def test_hua_reproduction_makes_no_more_products_than_per_angle_dots(
        monkeypatch, n, products):
    # the products of the suite when every Lie angle took its own real
    # dots over 2k slices per part: complex slices and rows of angles
    # take no more
    sizes = _recorded_products(monkeypatch)
    [row] = suites.suite_hua_reproduction(n=n)
    assert row.passed and len(sizes) <= products


def test_hua_integrals_evaluate_each_datum_once_per_block(monkeypatch):
    lie = quadrature.LieSphereRule(quadrature.sphere_rule(2, 12), 8)
    us = [MultiPoly.from_text(t, n=2) for t in ("1", "x1", "x2^2 + x1 x2")]
    zs = [np.array([0.3, 0.1j]), np.array([-0.2, 0.4 + 0.1j])]
    phases = []
    evaluate = polyalg._evaluate

    def recorded(polys, table, phase, out):
        phases.extend([np.shape(phase)] * len(polys))
        return evaluate(polys, table, phase, out)

    monkeypatch.setattr(polyalg, "_evaluate", recorded)
    hua_integrals(us, zs, lie)
    assert phases == [(lie.angular,)] * len(us)


def test_each_operator_call_builds_one_power_table_per_node_set(
        monkeypatch):
    # the node powers are built once per call and shared by every datum and
    # every block of sectors; a pole-aligned template's node set is the
    # turned copies of one block of points
    shapes = []
    power_table = polyalg._power_table

    def recorded(points, polys):
        shapes.append(points.shape)
        return power_table(points, polys)

    monkeypatch.setattr(polyalg, "_power_table", recorded)
    qs = [MultiPoly.from_text(t, n=3)
          for t in ("x1^3 x2 + 2 * x3^2", "x3 - 1", "(0,1) x1 x2^4")]
    points = interior_points(3, 3, 4, np.random.default_rng(3))
    rule = quadrature.sphere_rule(3, 6)
    template = solver.aligned_rule(3, 6, 5)
    for budget in (1 << 20, 500, 1):
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", budget)
        shapes.clear()
        poisson_integrals(qs, 3, *points, rule)
        assert shapes == [rule.nodes.shape], budget
        shapes.clear()
        poisson_integrals(qs, 3, *points, template)
        assert all(r % template.count == 0 and k == 3 for r, k in shapes)
        assert sum(r for r, _ in shapes) == len(points[0]) * template.count
        if budget == 1:
            assert len(shapes) == len(points[0])
    lie = quadrature.LieSphereRule(quadrature.sphere_rule(2, 12), 8)
    shapes.clear()
    hua_integrals([MultiPoly.from_text(t, n=2) for t in ("x1^3", "x2^2")],
                  [np.array([0.3, 0.1j]), np.array([-0.2, 0.4])], lie)
    assert shapes == [lie.base.nodes.shape]
    shapes.clear()
    solver.sector_values(qs, sector_phases(range(3), 3), points[1],
                         points[0])
    assert shapes == [(len(points[0]), 3)]


def test_a_call_whose_join_fits_eight_budgets_is_one_block(monkeypatch):
    # verify hua-reproduction at n = 2 is 10 points x 15 monomials x 23 Lie
    # angles x 10 nodes: one block, where the per-point budget alone would
    # cut it into 8 blocks of 3 angles, and one exact dot over a row of all
    # 230 nodes per point and monomial.  A 1 x 1 hua-limit integral builds
    # no more kernel blocks than per-angle blocks of that budget alone
    # would, its blocks rounded up to whole rows of angles
    builds, dots = [], []
    sector_kernels, sliced_sums = solver._sector_kernels, \
        quadrature._sliced_sums

    def recorded(route, p, zs, phases, *args):
        builds.append((len(zs), len(phases)))
        return sector_kernels(route, p, zs, phases, *args)

    def recorded_sums(ks, vs):
        dots.append((ks.shape, vs.shape))
        return sliced_sums(ks, vs)

    monkeypatch.setattr(solver, "_sector_kernels", recorded)
    monkeypatch.setattr(quadrature, "_sliced_sums", recorded_sums)
    [row] = suites.suite_hua_reproduction(n=2)
    assert row.passed and builds == [(10, 23)]
    assert dots == [((1, 10, 3, 230), (1, 15, 3, 230))]
    u = MultiPoly.from_text("x1^3 x2 + (0,2) * x3^4 - x2^2", n=3)
    for degree, radius in ((8, 0.9), (10, 0.8), (6, 0.3)):
        lie = solver.choose_lie_rule(3, degree, radius, 1e-12)
        _, slices = quadrature._slicing(lie.base.count)
        budget = solver._BLOCK_ELEMENTS
        per_point = max(1, min(lie.angular,
                               budget // (2 * slices * lie.base.count),
                               budget // (16 * slices * slices)))
        builds.clear()
        hua_integrals([u], [np.array([0.3, 0.1j, -0.2])], lie)
        assert sum(s for _, s in builds) == lie.angular
        assert len(builds) <= -(-lie.angular // per_point)


# --------------------------------------------------------------------------
# sector integrals and spectral components
# --------------------------------------------------------------------------

def test_poisson_integral_of_constant_is_one():
    for p in (1, 2, 3):
        rule = choose_rule(2, p, 0, radius=0.8, tol=1e-12)
        points = interior_points(2, p, 6, np.random.default_rng(7), rmax=0.8)
        got = poisson_integrals([MultiPoly.constant(2, 1)], p, *points, rule)
        assert np.all(np.abs(got - 1.0) <= 1e-10)


def test_spectral_component_recovers_polyharmonic_values():
    n, p, m = 2, 2, 4
    q = polyharmonic_basis(n, m, p)[1]
    rule = quadrature.sphere_rule(n, quadrature.resolution_for_exactness(
        n, 2 * m + 4))
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.standard_normal(n)
        eta = RotatedVector.sector(int(rng.integers(p)), p,
                                   y / np.linalg.norm(y))
        want = q.evaluate(eta)
        for route in kernels.ROUTES:  # each route's kernel at the nodes
            got = spectral(q, p, m, eta.to_complex(), rule, route)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), route


def test_spectral_components_sum_to_boundary_value():
    n, p = 2, 2
    q = MultiPoly.from_text("x1^3 + x1 x2 - 1/2 x2^2", n=2)
    d = q.degree()
    rule = quadrature.sphere_rule(n, quadrature.resolution_for_exactness(
        n, 2 * d + 4))
    rng = np.random.default_rng(21)
    for _ in range(20):
        y = rng.standard_normal(n)
        eta = RotatedVector.sector(int(rng.integers(p)), p,
                                   y / np.linalg.norm(y))
        total = sum(spectral(q, p, m, eta.to_complex(), rule)
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
    lie = quadrature.LieSphereRule(base, 32)
    for text in ("1", "x1^2", "x1 x2"):
        u = MultiPoly.from_text(text, n=2)
        for _ in range(4):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= 0.5 / lie_norm(z)
            got = hua_integrals([u], [z], lie)[0, 0]
            want = u.evaluate(z)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_limit_experiment_error_column_and_hua_row():
    u = MultiPoly.from_text("x1^2", n=2)
    z = np.array([0.4, 0.2])
    trunc = kernels.truncation_degree(2, 64, lie_norm(z), 1e-13)
    rule = quadrature.sphere_rule(2, quadrature.resolution_for_exactness(
        2, 2 + trunc + 4))
    lie = solver.choose_lie_rule(2, u.degree(), lie_norm(z), 1e-8)
    values = [lie_ball_poisson_integrals([u], p, [z], rule)[0, 0]
              for p in (1, 2, 4, 8, 16, 64)]
    reference = u.evaluate(z)
    errors = [abs(value - reference) for value in values]
    # the p = 1 error is the exact ladder discrepancy |1 - z^2| * 1/2
    assert errors[0] == pytest.approx(0.4, abs=1e-9)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3
    assert abs(values[-1] - hua_integrals([u], [z], lie)[0, 0]) <= 1e-4
    assert reference == pytest.approx(0.16, abs=1e-15)


def test_limit_experiment_validates_inputs():
    u = MultiPoly.from_text("x1", n=2)
    rule = quadrature.sphere_rule(2, 16)
    lie = quadrature.LieSphereRule(rule, 8)
    with pytest.raises(ValueError, match="open Lie ball"):
        lie_ball_poisson_integrals([u], 1, [np.array([1.2, 0.0])], rule)
    with pytest.raises(ValueError, match="open Lie ball"):
        hua_integrals([u], [np.array([1.2, 0.0])], lie)
    with pytest.raises(ValueError, match="orders must be >= 1"):
        lie_ball_poisson_integrals([u], 0, [np.array([0.3, 0.0])], rule)
    for call in (lambda zs: lie_ball_poisson_integrals([u], 1, zs, rule),
                 lambda zs: hua_integrals([u], zs, lie)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call([np.array([0.3, 0.0, 0.1])])


# --------------------------------------------------------------------------
# rule selection
# --------------------------------------------------------------------------

def test_choose_rule_tagged_covers_data_degree_plus_truncation():
    q = MultiPoly.from_text("x1^3", n=2)
    rule = choose_rule(2, 1, q.degree(), radius=0.5, tol=1e-10)
    needed = 3 + kernels.truncation_degree(2, 1, 0.5, 1e-10) + 4
    assert rule.exactness >= needed


def test_choose_rule_tagged_covers_high_dimension():
    q = MultiPoly.from_text("x1 x2 x4", n=4)
    rule = choose_rule(4, 2, q.degree(), radius=0.5, tol=1e-10)
    needed = 3 + kernels.truncation_degree(4, 2, 0.5, 1e-10) + 4
    assert rule.exactness >= needed
    assert rule.kind == "gauss-product"


def test_choose_rule_rejects_bad_radius():
    with pytest.raises(ValueError):
        choose_rule(2, 1, 0, radius=1.0, tol=1e-10)
