"""Sphere and Lie-sphere quadrature rules.

Oracle: normalized monomial moments over the unit sphere.  For multi-index
a with all entries even, the moment is prod (a_i - 1)!! / prod_{k<|a|/2}
(n + 2k); any odd entry gives zero.  Rules claim an exactness degree and
must hit these moments to 1e-13 through that degree.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from polyball.quadrature import (
    LieSphereRule,
    SphereRule,
    compensated_sum,
    lie_sphere_integral,
    lie_sphere_rule,
    resolution_for_exactness,
    rotated_inner_product,
    rule_from_json,
    rule_to_json,
    sphere_integral,
    sphere_rule,
    weighted_dot,
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

@pytest.mark.parametrize("n,degree", [(2, 8), (2, 15), (3, 8), (3, 13)])
def test_rule_integrates_monomials_to_exact_moments(n, degree):
    rule = sphere_rule(n, resolution_for_exactness(n, degree))
    assert rule.exactness >= degree
    for exps in monomials_up_to(n, degree):
        got = sphere_integral(lambda pts: np.prod(
            pts ** np.array(exps), axis=1), rule)
        assert abs(got - exact_moment(n, exps)) <= 1e-13


def test_weights_are_positive_and_normalized():
    for n in (2, 3):
        rule = sphere_rule(n, resolution_for_exactness(n, 10))
        assert np.all(rule.weights > 0)
        assert abs(np.sum(rule.weights) - 1.0) <= 1e-14
        assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) \
            <= 1e-13


def test_monte_carlo_rule_for_n_four_is_seeded_and_statistical():
    rule_a = sphere_rule(4, 20000, seed=11)
    rule_b = sphere_rule(4, 20000, seed=11)
    np.testing.assert_array_equal(rule_a.nodes, rule_b.nodes)
    got = sphere_integral(lambda pts: pts[:, 0] ** 2, rule_a)
    # E[x1^2] = 1/4; MC tolerance at 5 sigma-ish
    assert abs(got - 0.25) <= 5.0 / math.sqrt(rule_a.count)


def test_doubled_rule_keeps_family_and_doubles_resolution():
    rule = sphere_rule(2, 16)
    twice = rule.doubled()
    assert twice.resolution == 32
    assert twice.kind == rule.kind


# --------------------------------------------------------------------------
# inner products on the rotated spheres
# --------------------------------------------------------------------------

def _poly_sampler(coeff, freq):
    def f(j, nodes):
        phase = np.exp(1j * j * np.pi / 2)
        theta = np.arctan2(nodes[:, 1], nodes[:, 0])
        return coeff * phase ** freq * np.exp(1j * freq * theta)
    return f


def test_rotated_inner_product_conjugate_symmetry():
    rule = sphere_rule(2, 64)
    f = _poly_sampler(1.3 + 0.2j, 3)
    g = _poly_sampler(0.7 - 1.1j, 3)
    a = rotated_inner_product(f, g, 2, rule)
    b = rotated_inner_product(g, f, 2, rule)
    assert abs(a - np.conj(b)) <= 1e-13 * max(1.0, abs(a))


def test_rotated_inner_product_self_is_nonnegative():
    rule = sphere_rule(2, 64)
    f = _poly_sampler(0.9 + 0.4j, 2)
    v = rotated_inner_product(f, f, 2, rule)
    assert abs(v.imag) <= 1e-13 * max(1.0, abs(v))
    assert v.real >= -1e-13


def test_weighted_dot_matches_manual_sum():
    rule = sphere_rule(3, 6)
    u = rule.nodes[:, 0] + 1j * rule.nodes[:, 1]
    v = rule.nodes[:, 2].astype(complex)
    want = np.sum(rule.weights * u * np.conj(v))
    assert weighted_dot(rule, u, v) == pytest.approx(want, abs=1e-15)


# --------------------------------------------------------------------------
# Lie-sphere rules
# --------------------------------------------------------------------------

def test_lie_sphere_integral_of_constant_is_one():
    lie = lie_sphere_rule(sphere_rule(2, 32), 16)
    got = lie_sphere_integral(
        lambda pts: np.ones(pts.shape[0], dtype=complex), lie)
    assert got == pytest.approx(1.0, abs=1e-14)


def test_lie_sphere_integral_kills_odd_phase_frequencies():
    lie = lie_sphere_rule(sphere_rule(2, 32), 16)
    # z1^2 has even total degree: survives with the x1^2 moment at phase^2
    got = lie_sphere_integral(lambda pts: pts[:, 0] ** 2, lie)
    assert abs(got) <= 1e-14  # e^{2i a} averages to zero over [0, pi)


def test_lie_sphere_integral_doubling_stability():
    def F(pts):
        z1 = pts[:, 0]
        return np.abs(z1) ** 4

    base = sphere_rule(3, resolution_for_exactness(3, 8))
    coarse = lie_sphere_integral(F, lie_sphere_rule(base, 16))
    fine = lie_sphere_integral(F, lie_sphere_rule(base.doubled(), 32))
    assert abs(coarse - fine) <= 1e-10


def test_angular_resolution_floor():
    with pytest.raises(ValueError):
        lie_sphere_rule(sphere_rule(2, 16), 3)


# --------------------------------------------------------------------------
# serialization and summation
# --------------------------------------------------------------------------

def test_rule_serialization_round_trip_is_bit_exact():
    for rule in (sphere_rule(2, 20), sphere_rule(3, 9),
                 sphere_rule(4, 500, seed=3)):
        data = json.loads(json.dumps(rule_to_json(rule)))
        back = rule_from_json(data)
        np.testing.assert_array_equal(back.nodes, rule.nodes)
        np.testing.assert_array_equal(back.weights, rule.weights)
        assert back.exactness == rule.exactness
        assert back.kind == rule.kind
        assert back.seed == rule.seed


def test_lie_rule_serialization_round_trip():
    lie = lie_sphere_rule(sphere_rule(2, 12), 8)
    back = rule_from_json(json.loads(json.dumps(rule_to_json(lie))))
    assert isinstance(back, LieSphereRule)
    assert back.angular == 8
    np.testing.assert_array_equal(back.base.nodes, lie.base.nodes)


def test_rule_from_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        rule_from_json({"type": "cube"})


def test_compensated_sum_beats_naive_on_cancelling_terms():
    terms = [1e16, 3.14159, -1e16]
    assert compensated_sum(terms) == pytest.approx(3.14159, abs=1e-12)


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
