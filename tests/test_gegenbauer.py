"""Gegenbauer polynomials: recurrence, explicit sum, generating function.

scipy.special.eval_gegenbauer is the independent oracle for values; small
coefficient tables are pinned by hand.  The explicit sum must track relative
accuracy even at degree 30, where its terms reach 2^30 and cancel to O(m).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer

from polyball import gegenbauer as gegenbauer_module
from polyball.gegenbauer import (
    _recurrence,
    gegenbauer,
    gegenbauer_coefficients,
    gegenbauer_explicit,
    generating_function,
    generating_partial_sum,
)

LAMBDAS = (1, Fraction(3, 2), 2, Fraction(5, 2))
TS = np.linspace(-1.0, 1.0, 101)


# --------------------------------------------------------------------------
# values
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam", LAMBDAS)
def test_recurrence_matches_scipy(lam):
    for m in range(0, 31, 3):
        want = eval_gegenbauer(m, float(lam), TS)
        got = np.array([gegenbauer(lam, m, t) for t in TS])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-10


@pytest.mark.parametrize("lam", LAMBDAS)
def test_explicit_sum_matches_recurrence_to_relative_1e_11(lam):
    for m in range(31):
        for t in TS:
            a = gegenbauer(lam, m, t)
            b = gegenbauer_explicit(lam, m, t)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b))


def _fraction_coefficients(lam, m: int) -> list:
    """(-1)^k (lambda)_{m-k} / (k! (m-2k)!) as Fractions, from the formula."""
    lamq = Fraction(lam)
    out = []
    for k in range(m // 2 + 1):
        rising = Fraction(1)
        for j in range(m - k):
            rising *= lamq + j
        out.append((-1) ** k * rising
                   / (math.factorial(k) * math.factorial(m - 2 * k)))
    return out


def _fraction_horner(coefs: list, m: int, t: float) -> complex:
    """The explicit sum at a real t by Horner over Fractions: the reference
    the integer evaluation must equal bit for bit."""
    tq = Fraction(t)
    u = 4 * tq * tq
    acc = Fraction(0)
    for coef in coefs:
        acc = acc * u + coef
    if m % 2:
        acc *= 2 * tq
    return complex(acc)


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


SUITE_LAMBDAS = (1, 1.5, 2, 2.5)  # the gegenbauer suite's grid
SPECIAL_TS = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324)


@pytest.mark.parametrize("lam", SUITE_LAMBDAS)
def test_integer_explicit_sum_equals_fraction_horner_bitwise(lam):
    # every t of the suite up to degree 30, a tenth of them up to 60, and
    # the signed zeros, the ends and the smallest subnormal throughout
    for m in range(61):
        ts = list(TS if m <= 30 else TS[::10]) + list(SPECIAL_TS)
        coefs = _fraction_coefficients(lam, m)
        want = [_fraction_horner(coefs, m, float(t)) for t in ts]
        assert _bits([gegenbauer_explicit(lam, m, float(t)) for t in ts]) \
            == _bits(want), m


@pytest.mark.parametrize("lam", SUITE_LAMBDAS)
def test_explicit_sum_at_rational_t_equals_fraction_horner_bitwise(lam):
    # a denominator other than a power of two multiplies by its powers;
    # ints and dyadic Fractions shift, as floats do
    ts = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 6),
          Fraction(-99, 100), Fraction(10**20 + 1, 3 * 10**20),
          Fraction(3, 8), 0, 1, -1, 2)
    for m in range(31):
        coefs = _fraction_coefficients(lam, m)
        want = [_fraction_horner(coefs, m, t) for t in ts]
        assert _bits([gegenbauer_explicit(lam, m, t) for t in ts]) \
            == _bits(want), m


def test_explicit_sum_at_a_float_lambda_builds_no_fraction_after_one():
    # the coefficient cache is keyed on lambda's exact ratio; keyed on
    # lambda, a Fraction(3, 2) cached first made every lookup of 1.5
    # compare the two keys, which builds a Fraction
    gegenbauer_module._explicit_coefficients.cache_clear()
    want = gegenbauer_explicit(Fraction(3, 2), 9, 0.3)
    built = vars(Fraction)["__new__"]
    count = 0

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return built.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        assert Fraction(1, 3) and count == 1  # the count sees constructions
        count = 0
        got = [gegenbauer_explicit(1.5, 9, 0.3) for _ in range(3)]
    finally:
        Fraction.__new__ = built
    assert count == 0
    assert _bits(got) == _bits([want] * 3)


@pytest.mark.parametrize("lam", SUITE_LAMBDAS)
def test_array_recurrence_equals_scalar_calls_bitwise(lam):
    ts = np.concatenate([TS, SPECIAL_TS])
    for m in list(range(31)) + [45, 60]:
        assert _bits(gegenbauer(lam, m, ts)) \
            == _bits([gegenbauer(lam, m, float(t)) for t in ts]), m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lam=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.5, 4.0]),
       seed=st.integers(0, 2 ** 32 - 1), scalar=st.booleans())
def test_recurrence_takes_two_t_once_without_changing_a_bit(lam, seed,
                                                           scalar):
    # 2 t s C_k has always grouped as ((2 t) s) C_k, so taking 2 t out of
    # the loop is exact, for array t and for scalar t
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(5) * 2.0 + 1j * rng.standard_normal(5)
    t, c0 = (complex(t[0]), 1.0 + 0j) if scalar else (t, np.ones_like(t))
    want = [c0, 2.0 * lam * t]
    for k in range(2, 120):
        want.append((2.0 * t * (k + lam - 1.0) * want[-1]
                     - (k + 2.0 * lam - 2.0) * want[-2]) / k)
    assert _bits(list(islice(_recurrence(lam, t, c0), 120))) == _bits(want)


def test_parity():
    rng = np.random.default_rng(77)
    for lam in LAMBDAS:
        for m in range(0, 21, 2):
            t = rng.uniform(-1, 1)
            even = gegenbauer(lam, m, t)
            assert abs(even - gegenbauer(lam, m, -t)) <= 1e-12 * max(
                1.0, abs(even))
            odd = gegenbauer(lam, m + 1, t)
            assert abs(odd + gegenbauer(lam, m + 1, -t)) <= 1e-12 * max(
                1.0, abs(odd))


def test_negative_degree_is_zero_and_degree_zero_is_one():
    assert gegenbauer(1, -1, 0.3) == 0
    assert gegenbauer(1, -7, 0.3) == 0
    assert gegenbauer(Fraction(3, 2), 0, -0.9) == 1


def test_vectorized_argument_matches_scalar_loop():
    lam = Fraction(3, 2)
    got = gegenbauer(lam, 7, TS)
    want = np.array([gegenbauer(lam, 7, t) for t in TS])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_complex_argument_agrees_with_explicit_sum():
    # the oracle takes real scalars only; at a complex t the explicit sum
    # is taken here, in floating point, from the factorial formula
    lam = 2
    t = 0.4 + 0.25j
    for m in (3, 8, 13):
        a = gegenbauer(lam, m, t)
        b = sum(float(c) * (2.0 * t) ** (m - 2 * k)
                for k, c in enumerate(_fraction_coefficients(lam, m)))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
    for bad in (t, np.complex128(0.4), TS, [0.1, 0.2]):
        with pytest.raises(ValueError):
            gegenbauer_explicit(lam, 3, bad)


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        gegenbauer(0, 3, 0.5)
    with pytest.raises(ValueError):
        gegenbauer(-1, 3, 0.5)


# --------------------------------------------------------------------------
# exact coefficients
# --------------------------------------------------------------------------

def test_coefficient_table_small_cases():
    # C_2^lam(t) = 2 lam (lam+1) t^2 - lam
    for lam in LAMBDAS:
        lamq = Fraction(lam)
        c = gegenbauer_coefficients(lam, 2)
        assert c == (2 * lamq * (lamq + 1), -lamq)
    # C_3^1(t) = 8 t^3 - 4 t
    assert gegenbauer_coefficients(1, 3) == (Fraction(8), Fraction(-4))
    assert gegenbauer_coefficients(1, 0) == (Fraction(1),)
    assert gegenbauer_coefficients(1, -2) == ()


def test_coefficients_reproduce_values():
    lam = Fraction(5, 2)
    for m in (4, 9):
        coeffs = gegenbauer_coefficients(lam, m)
        t = 0.73
        val = sum(float(c) * t ** (m - 2 * k) for k, c in enumerate(coeffs))
        assert val == pytest.approx(float(eval_gegenbauer(m, float(lam), t)),
                                    rel=1e-10)


# --------------------------------------------------------------------------
# generating function
# --------------------------------------------------------------------------

def test_partial_sums_converge_geometrically_to_closed_form():
    for lam in (1, Fraction(3, 2)):
        for t in (-0.6, 0.2, 0.8):
            for w in (0.5, 0.5j, -0.45):
                closed = generating_function(lam, t, w)
                errs = [abs(generating_partial_sum(lam, t, w, M) - closed)
                        for M in (10, 20, 40)]
                assert errs[2] <= 1e-10
                # ratio over 30 extra terms beats |w|^30 up to slack
                assert errs[2] <= max(errs[0], 1e-12) * (abs(w) ** 30) * 50


def test_partial_sum_gap_bounded_by_tail_envelope():
    lam, t, w = 2, 0.3, 0.55
    closed = generating_function(lam, t, w)
    # measure the envelope constant at a small degree, then check decay
    gaps = [abs(generating_partial_sum(lam, t, w, M) - closed)
            for M in range(5, 45, 5)]
    K = gaps[0] * (1 - abs(w)) / abs(w) ** 6
    for i, M in enumerate(range(5, 45, 5)):
        assert gaps[i] <= 10 * K * abs(w) ** (M + 1) / (1 - abs(w))


def test_generating_function_argument_validation():
    with pytest.raises(ValueError):
        generating_partial_sum(1, 1.5, 0.3, 10)
    with pytest.raises(ValueError):
        generating_partial_sum(1, 0.5, 1.0, 10)
    with pytest.raises(ValueError):
        generating_partial_sum(1, 0.5, 0.3, -1)
    with pytest.raises(ValueError):
        generating_function(1, 1.0, 1.0)  # 1 - 2tw + w^2 = 0


def test_generating_function_matches_series_on_the_kernel_case():
    # lam = n/2 with n = 3: the Poisson kernel's radial factor
    lam = Fraction(3, 2)
    t, w = 0.45, 0.6
    closed = generating_function(lam, t, w)
    partial = generating_partial_sum(lam, t, w, 200)
    assert abs(closed - partial) <= 1e-12 * abs(closed)
