"""Sphere and Lie-sphere quadrature rules.

Oracle: normalized monomial moments over the unit sphere.  For multi-index
a with all entries even, the moment is prod (a_i - 1)!! / prod_{k<|a|/2}
(n + 2k); any odd entry gives zero.  Rules claim an exactness degree and
must hit these moments to 1e-13 through that degree.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_gegenbauer

from polyball import geometry, quadrature
from polyball.quadrature import (
    LieSphereRule,
    SphereRule,
    compensated_sum,
    resolution_for_exactness,
    rule_from_json,
    rule_to_json,
    sphere_rule,
)


def exact_moment(n: int, exps) -> float:
    if any(e % 2 for e in exps):
        return 0.0
    total = sum(exps)
    num = 1.0
    for e in exps:
        for k in range(e - 1, 0, -2):
            num *= k
    den = 1.0
    for k in range(total // 2):
        den *= n + 2 * k
    return num / den


def lie_average(F, lie: LieSphereRule) -> complex:
    """Average of F over the Lie sphere by the product rule; F takes every
    point e^{i angle} node of the rule at once."""
    base = lie.base
    pts = np.exp(1j * lie.angles)[:, None, None] * base.nodes
    values = F(pts.reshape(-1, base.n)).reshape(lie.angular, base.count)
    return compensated_sum(base.weights * values) / lie.angular


def monomials_up_to(n: int, degree: int):
    def rec(dim, d):
        if dim == 1:
            yield (d,)
            return
        for head in range(d + 1):
            for rest in rec(dim - 1, d - head):
                yield (head,) + rest
    for d in range(degree + 1):
        yield from rec(n, d)


# --------------------------------------------------------------------------
# exactness against analytic moments
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n,degree", [(2, 8), (2, 15), (3, 8), (3, 13),
                                      (4, 9), (5, 7)])
def test_rule_integrates_monomials_to_exact_moments(n, degree):
    rule = sphere_rule(n, resolution_for_exactness(n, degree))
    assert rule.exactness >= degree
    for exps in monomials_up_to(n, degree):
        got = compensated_sum(rule.weights * np.prod(
            rule.nodes ** np.array(exps), axis=1))
        assert abs(got - exact_moment(n, exps)) <= 1e-13


@pytest.mark.parametrize("n,resolution,azimuth", [(3, 9, 1), (3, 12, 3),
                                                  (4, 8, 2), (5, 6, 2)])
def test_template_is_exact_to_its_polar_degree_along_the_pole(n, resolution,
                                                              azimuth):
    # x'^b x_n^j is ((1 - t^2)^{|b|/2} y^b) t^j: the S^{n-2} factor is exact
    # for |b| <= 2A - 1, then the polar factor for |b| + j <= 2L - 1
    rule = sphere_rule(n, resolution, azimuth)
    assert (rule.resolution, rule.azimuth) == (resolution, azimuth)
    assert rule.count == 2 * azimuth ** (n - 2) * resolution
    assert rule.exactness == 2 * azimuth - 1
    assert np.all(rule.weights > 0)
    for b in monomials_up_to(n - 1, 2 * azimuth - 1):
        for j in range(2 * resolution - sum(b)):
            exps = b + (j,)
            got = compensated_sum(rule.weights * np.prod(
                rule.nodes ** np.array(exps), axis=1))
            assert abs(got - exact_moment(n, exps)) <= 1e-13, exps


def test_template_azimuth_is_validated():
    for n, resolution, azimuth in ((2, 8, 2), (3, 8, 0), (3, 8, 9)):
        with pytest.raises(ValueError, match="azimuth"):
            sphere_rule(n, resolution, azimuth)
    # the cap is that of the rule of one resolution, whatever the azimuth
    with pytest.raises(ValueError, match="node cap"):
        sphere_rule(3, 1025, 1)


def test_weights_are_positive_and_normalized():
    for n in (2, 3, 4, 5):
        rule = sphere_rule(n, resolution_for_exactness(n, 10))
        assert np.all(rule.weights > 0)
        assert abs(np.sum(rule.weights) - 1.0) <= 1e-14
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) \
            <= 1e-13


def reference_plane_rule(n: int, resolution: int) -> tuple:
    """Nodes and weights of the n = 2 and n = 3 rules as built before the
    product recursion: the uniform circle, and Gauss-Legendre in the polar
    cosine times the uniform 2L-angle azimuth."""
    if n == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        return (np.column_stack([np.cos(theta), np.sin(theta)]),
                np.full(resolution, 1.0 / resolution))
    u, v = leggauss(resolution)
    m_az = 2 * resolution
    phi = 2.0 * math.pi * np.arange(m_az) / m_az
    s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    nodes = np.empty((resolution * m_az, 3))
    weights = np.empty(resolution * m_az)
    for i in range(resolution):
        rows = slice(i * m_az, (i + 1) * m_az)
        nodes[rows, 0] = s[i] * np.cos(phi)
        nodes[rows, 1] = s[i] * np.sin(phi)
        nodes[rows, 2] = u[i]
        weights[rows] = v[i] / (2.0 * m_az)
    return nodes, weights


def test_circle_rule_is_bit_identical_to_the_reference():
    for resolution in range(4, 200):
        rule = sphere_rule(2, resolution)
        nodes, weights = reference_plane_rule(2, resolution)
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.weights, weights)
        assert (rule.exactness, rule.resolution, rule.kind) \
            == (resolution - 1, resolution, "trapezoid")


def test_three_dimensional_rule_matches_the_legendre_reference():
    for resolution in range(4, 101):
        rule = sphere_rule(3, resolution)
        nodes, weights = reference_plane_rule(3, resolution)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14
        assert np.max(np.abs(rule.weights - weights)) <= 1e-14
        assert (rule.exactness, rule.resolution, rule.kind) \
            == (2 * resolution - 1, resolution, "gauss-product")


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("count", [4, 7, 42])
def test_polar_rule_matches_scipy_gegenbauer_roots(lam, count):
    # S^{k-1} carries the Gegenbauer weight (1 - t^2)^{lam - 1/2}, k = 2 lam + 2
    t, w = quadrature._polar_rule(int(2 * lam + 2), count)
    x, v = roots_gegenbauer(count, lam)
    assert np.max(np.abs(t - x)) <= 1e-15
    assert np.max(np.abs(w - v / np.sum(v))) <= 1e-14


def test_polar_rules_are_built_once_per_process(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix):
        calls.append(len(matrix))
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    quadrature._polar_rule.cache_clear()
    first, second = sphere_rule(3, 11), sphere_rule(3, 11)
    assert calls == [11]
    assert first is not second
    assert first.nodes.tobytes() == second.nodes.tobytes()
    assert rule_to_json(first) == rule_to_json(second)
    for array in quadrature._polar_rule(3, 11):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_rules_above_the_node_cap_are_refused_before_building():
    cap = geometry._MAX_NODES
    for n, resolution in ((2, cap + 1), (2, 10 ** 12), (3, 1025), (4, 102),
                          (6, 31), (10 ** 9, 4)):
        with pytest.raises(ValueError, match="node cap"):
            sphere_rule(n, resolution)
    base = sphere_rule(3, 16)  # 512 nodes
    LieSphereRule(base, cap // base.count)  # exactly at the cap
    with pytest.raises(ValueError, match="node cap"):
        LieSphereRule(base, cap // base.count + 1)


# --------------------------------------------------------------------------
# Lie-sphere rules
# --------------------------------------------------------------------------

def test_lie_sphere_integral_of_constant_is_one():
    lie = LieSphereRule(sphere_rule(2, 32), 16)
    got = lie_average(lambda pts: np.ones(pts.shape[0], dtype=complex), lie)
    assert got == pytest.approx(1.0, abs=1e-14)


def test_lie_sphere_integral_kills_odd_phase_frequencies():
    lie = LieSphereRule(sphere_rule(2, 32), 16)
    # z1^2 has even total degree: survives with the x1^2 moment at phase^2
    got = lie_average(lambda pts: pts[:, 0] ** 2, lie)
    assert abs(got) <= 1e-14  # e^{2i a} averages to zero over [0, pi)


def test_lie_sphere_integral_doubling_stability():
    def F(pts):
        z1 = pts[:, 0]
        return np.abs(z1) ** 4

    base = sphere_rule(3, resolution_for_exactness(3, 8))
    coarse = lie_average(F, LieSphereRule(base, 16))
    fine = lie_average(F, LieSphereRule(
        sphere_rule(3, 2 * base.resolution), 32))
    assert abs(coarse - fine) <= 1e-10


def test_angular_resolution_floor():
    with pytest.raises(ValueError):
        LieSphereRule(sphere_rule(2, 16), 3)


# --------------------------------------------------------------------------
# serialization and summation
# --------------------------------------------------------------------------

def test_rule_serialization_round_trip_is_bit_exact():
    for rule in (sphere_rule(2, 20), sphere_rule(3, 9), sphere_rule(4, 5),
                 sphere_rule(3, 9, 2), sphere_rule(4, 5, 5)):
        data = json.loads(json.dumps(rule_to_json(rule)))
        assert data["type"] == ("sphere" if rule.azimuth is None
                                else "pole-aligned")
        back = rule_from_json(data)
        np.testing.assert_array_equal(back.nodes, rule.nodes)
        np.testing.assert_array_equal(back.weights, rule.weights)
        assert back.exactness == rule.exactness
        assert back.kind == rule.kind
        assert back.resolution == rule.resolution
        assert back.azimuth == rule.azimuth


def test_rule_from_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        rule_from_json({"type": "cube"})


def test_rule_from_json_rejects_records_that_do_not_rebuild():
    rule = sphere_rule(3, 6)
    record = rule_to_json(rule)
    tampered = dict(record, sha256=record["sha256"][::-1])
    other = dict(record, resolution=7)
    old_format = {key: record[key]
                  for key in ("type", "n", "kind", "resolution", "exactness")}
    old_format.update(nodes=rule.nodes.tolist(), weights=rule.weights.tolist())
    lie = {"type": "lie-sphere", "angular": 8, "base": tampered}
    aligned = rule_to_json(sphere_rule(3, 6, 2))
    no_azimuth = {k: v for k, v in aligned.items() if k != "azimuth"}
    for bad in (tampered, other, old_format, lie, no_azimuth,
                dict(aligned, azimuth=3), dict(record, type="pole-aligned",
                                               azimuth=2)):
        with pytest.raises(ValueError):
            rule_from_json(bad)


def test_compensated_sum_beats_naive_on_cancelling_terms():
    terms = [1e16, 3.14159, -1e16]
    assert compensated_sum(terms) == pytest.approx(3.14159, abs=1e-12)


def test_zeros_up_to_the_next_power_of_two_change_no_bit():
    # the kernel series sums pairs of different lengths in one call by
    # padding each with zeros to the power of two above it
    rng = np.random.default_rng(91)
    for count in [*range(1, 70), 127, 128, 129, 1000]:
        terms = ill_conditioned(rng, count, 1e12) \
            + 1j * rng.uniform(-1e-3, 1e-3, count)
        terms[rng.integers(count)] = complex(-0.0, -0.0)
        padded = np.zeros((2, 1 << (count - 1).bit_length()), dtype=complex)
        padded[0, :count] = terms
        padded[1, :count] = terms[::-1]
        want = np.array([compensated_sum(terms), compensated_sum(terms[::-1])])
        got = compensated_sum(padded, axis=-1)
        assert (got.view(np.uint64) == want.view(np.uint64)).all(), count


def ill_conditioned(rng, count: int, cond: float) -> np.ndarray:
    """Shuffled real terms whose sum has condition number sum|t| / |sum t|
    near ``cond``: large terms of spread exponents, their rounded near-
    negatives, and O(1) terms that survive the cancellation."""
    half = count // 3
    big = rng.uniform(-1.0, 1.0, half) * 2.0 ** rng.integers(
        0, int(math.log2(cond)), half)
    near = -(big * (1.0 + rng.uniform(-1.0, 1.0, half) * 2.0 ** -40))
    small = rng.uniform(-1.0, 1.0, count - 2 * half)
    terms = np.concatenate([big, near, small])
    rng.shuffle(terms)
    return terms


SUM2_CASES = [(count, cond) for count in (2, 3, 17, 1000, 4099)
              for cond in (1e2, 1e6, 1e12)]


@pytest.mark.parametrize("count,cond", SUM2_CASES)
def test_compensated_sum_meets_the_sum2_bound_against_fsum(count, cond):
    # |result - S| <= u |S| + 2 h^2 u^2 sum|t| per part, and fsum is within
    # u |S| of S; the slack is 2u |S| and 3 h^2 u^2 sum|t|
    rng = np.random.default_rng(count + int(math.log10(cond)))
    re = ill_conditioned(rng, count, cond)
    im = ill_conditioned(rng, count, cond)
    got = compensated_sum(re + 1j * im)
    u = 2.0 ** -53
    h = max(1, math.ceil(math.log2(count)))
    for part, terms in ((got.real, re), (got.imag, im)):
        want = math.fsum(terms)
        bound = (2 * u * abs(want)
                 + 3 * h * h * u * u * math.fsum(np.abs(terms)))
        assert abs(part - want) <= bound


def test_ill_conditioned_sums_defeat_the_naive_sum():
    # the oracle test above must separate Sum2 from a plain sum
    rng = np.random.default_rng(12)
    terms = ill_conditioned(rng, 4099, 1e12)
    want = math.fsum(terms)
    assert math.fsum(np.abs(terms)) / abs(want) >= 1e10
    assert abs(float(np.sum(terms)) - want) > 1e-10 * abs(want)
    assert abs(compensated_sum(terms).real - want) <= 1e-15 * abs(want)


def test_compensated_sum_along_an_axis_matches_each_slice_bitwise():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((5, 37, 11)) \
        + 1j * rng.standard_normal((5, 37, 11))
    for axis in range(3):
        got = compensated_sum(values, axis=axis)
        moved = np.moveaxis(values, axis, -1)
        assert got.shape == moved.shape[:-1]
        for index in np.ndindex(*got.shape):
            assert got[index] == compensated_sum(moved[index])
    assert compensated_sum([]) == 0j
    assert compensated_sum(np.zeros((3, 0)), axis=1).shape == (3,)


def test_sphere_rule_validation():
    with pytest.raises(ValueError):
        sphere_rule(1, 10)
    with pytest.raises(ValueError):
        sphere_rule(2, 3)
    with pytest.raises(ValueError):
        SphereRule(n=2, nodes=np.zeros((3, 3)), weights=np.ones(3) / 3,
                   exactness=1, kind="trapezoid", resolution=3)


# --------------------------------------------------------------------------
# exact sliced products
# --------------------------------------------------------------------------

U = 2.0 ** -53


def exact_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a * b as four exact parts each (Dekker's splitting:
    halves of at most 26 bits multiply without rounding)."""
    def halves(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi
    ah, al = halves(a)
    bh, bl = halves(b)
    return np.concatenate([ah * bh, ah * bl, al * bh, al * bl])


def spread_values(rng, shape) -> np.ndarray:
    """Complex values with full mantissas whose moduli spread over 2^20."""
    return ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            * 2.0 ** rng.integers(-20, 1, shape))


SLICE_COUNTS = [4, 100, 2048, 2049, (1 << 17) + 3]


@pytest.mark.parametrize("cancel", [False, True])
@pytest.mark.parametrize("count", SLICE_COUNTS)
def test_sliced_sums_meet_their_bound_against_exact_products(count, cancel):
    # |result - S| <= u |S| + (1 + u) rho + 2 h^2 u^2 T per part, with the
    # k^2-term join's h, rho and T of quadrature._sliced_sums, and the
    # correctly rounded fsum is within u |S| of S
    rng = np.random.default_rng(count + 7 * cancel)
    width, slices = quadrature._slicing(count)
    points, data = (1, 1) if count > 4096 else (3, 2)
    kernel = spread_values(rng, (2, points, count))
    values = spread_values(rng, (2, data, count))
    if cancel:  # a second half of nodes takes back the first almost exactly
        half = count // 2
        kernel[..., half:2 * half] = kernel[..., :half]
        values[..., half:2 * half] = -values[..., :half] * (
            1.0 + 2.0 ** -45 * rng.standard_normal((2, data, half)))
        values[..., 2 * half:] = 0.0
    got = quadrature._sliced_sums(quadrature._split(kernel, width, slices),
                                  quadrature._split(values, width, slices))
    assert got.shape == (2, points, data)
    h = math.ceil(math.log2(slices * slices))
    eps = math.sqrt(2.0) * 2.0 ** (1 - slices * width)
    rho = eps * (2 + eps)
    total = (1 + 2.0 ** (3 - width)) ** 2
    worst_cond = math.inf
    for s, i, d in np.ndindex(*got.shape):
        k, v = kernel[s, i], values[s, d]
        scale = count * np.max(np.abs(k)) * np.max(np.abs(v))
        for part, products in (
                (got[s, i, d].real, np.concatenate([
                    exact_products(k.real, v.real),
                    -exact_products(k.imag, v.imag)])),
                (got[s, i, d].imag, np.concatenate([
                    exact_products(k.real, v.imag),
                    exact_products(k.imag, v.real)]))):
            want = math.fsum(products)
            bound = 2 * U * abs(want) + ((1 + U) * rho
                                         + 2 * h * h * U * U * total) * scale
            assert abs(part - want) <= bound, (s, i, d)
            worst_cond = min(worst_cond,
                             math.fsum(np.abs(products)) / abs(want))
    if cancel:
        assert worst_cond >= 1e10


@pytest.mark.parametrize("count", [3, 2048, 2049, 70001])
def test_slice_products_are_exact_for_any_tiling(monkeypatch, count):
    # integers of the slice width, scaled by unrelated powers of two per row
    # and column: every partial sum is exact, so each tiling returns the
    # correctly rounded (here exact) sums bit for bit
    rng = np.random.default_rng(count)
    width, _ = quadrature._slicing(count)
    top = 1 << width
    a = (rng.integers(-top, top + 1, (2, 5, count)).astype(float)
         * 2.0 ** rng.integers(-60, 60, (2, 5, 1)))
    b = (rng.integers(-top, top + 1, (2, count, 3)).astype(float)
         * 2.0 ** rng.integers(-60, 60, (2, 1, 3)))
    want = np.array([[[math.fsum(a[s, i] * b[s, :, j]) for j in range(3)]
                      for i in range(5)] for s in range(2)])
    np.testing.assert_array_equal(quadrature._matmul(a, b), want)
    np.testing.assert_array_equal(a @ b, want)
    monkeypatch.setattr(quadrature, "_GEMM_SIZE", 64)
    np.testing.assert_array_equal(quadrature._matmul(a, b), want)


def gaussian_columns(rng, top: int, count: int) -> tuple:
    """Gaussian integers a + ib, a, b >= 0, of modulus at most ``top`` and
    the largest such on the first node, and two columns whose products with
    them have one sign per part: (c - id) gives a c + b d in the real part,
    (d + ic) the same in the imaginary part."""
    row, columns = np.empty(count, complex), np.empty((count, 2), complex)
    for z in (row, columns[:, 0]):
        theta = rng.uniform(0.0, math.pi / 2, count)
        np.floor(top * np.cos(theta), out=z.real)
        np.floor(top * np.sin(theta), out=z.imag)
        z[0] = top
    columns[:, 0].imag *= -1.0
    columns[:, 1] = 1j * columns[:, 0]
    return row, columns


def near_top(rng, shape) -> np.ndarray:
    """Complex values whose parts lie just below 1, the power of two that
    sets their scale: a slice cut without the guard bit would reach
    sqrt2 2^w units."""
    return (1.0 - 2.0 ** -8 * rng.random(shape)) \
        + 1j * (1.0 - 2.0 ** -8 * rng.random(shape))


@pytest.mark.parametrize("count", [1 << 13, (1 << 13) + 1, 1 << 21])
def test_shared_scale_slices_keep_every_product_sum_exact(monkeypatch,
                                                         count):
    # the proof's extreme: slices of modulus 2^w units whose products add
    # with one sign, to R 2^(2w) <= 2^53; and the slices _split cuts from
    # rows at the top of their scale, with data columns of aligned signs.
    # Each tiling returns the sums of the exact products bit for bit
    rng = np.random.default_rng(count)
    width, slices = quadrature._slicing(count)
    a, b = gaussian_columns(rng, 1 << width, count)
    cases = [(a[None, None], b[None])]
    small = count < 1 << 20  # the cut slices of 2^21 nodes need 0.4 GB
    if small:
        ks = quadrature._split(near_top(rng, (1, count)), width, slices)
        values = near_top(rng, (2, count))
        values[0] = values[0].conj()
        vs = quadrature._split(values, width, slices)
        cases.append((ks, vs.reshape(1, 2 * slices, count)
                      .transpose(0, 2, 1)))
    # a slice is N 2^c with |N| <= 2^(w + 1), so each product of two is
    # exact in a double; fsum rounds their sum once
    wants = [[[(math.fsum(itertools.chain(k.real * v.real, -k.imag * v.imag)),
                math.fsum(itertools.chain(k.real * v.imag, k.imag * v.real)))
               for v in y[0].T] for k in x[0]] for x, y in cases]
    # 64 cuts 2^21 nodes into 300,000 products; it is left out there
    for gemm in (quadrature._GEMM_SIZE, 1 << 10, 64)[:2 + small]:
        monkeypatch.setattr(quadrature, "_GEMM_SIZE", gemm)
        for (x, y), want in zip(cases, wants):
            got = quadrature._matmul(x, y)[0]
            assert [[(z.real, z.imag) for z in row] for row in got.tolist()] \
                == want, gemm


def test_slicing_widths_keep_every_sum_exact_and_the_remainder_small():
    for count in [1, 2, 4, 2048, 2049, 1 << 17, (1 << 17) + 1, 1 << 21]:
        width, slices = quadrature._slicing(count)
        assert math.ceil(math.log2(count)) + 2 * width <= 53
        assert slices * width >= 60 and (slices - 1) * width < 60
    assert quadrature._slicing(1 << 13)[1] == 3
    assert quadrature._slicing((1 << 13) + 1)[1] == 4
    assert quadrature._slicing(1 << 21)[1] == 4
