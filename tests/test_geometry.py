"""Geometry primitives: rotated points, bilinear square, Lie norm.

Conventions under test: RotatedVector stores e^{i*angle} * coords with the
angle reduced to [0, pi) (sign folded into coords), principal powers take
arg in (-pi, pi], and the Lie norm L satisfies hermitian norm <= L with
equality exactly on rotated real vectors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polyball.geometry import (
    RotatedVector,
    as_complex_vector,
    as_rotated,
    hermitian_dot,
    lie_norm,
    principal_power,
)

RNG = np.random.default_rng(20260814)


def random_complex(n: int, scale: float = 10.0) -> np.ndarray:
    return scale * (RNG.uniform(-1, 1, n) + 1j * RNG.uniform(-1, 1, n))


# --------------------------------------------------------------------------
# principal branch scalars
# --------------------------------------------------------------------------

def test_principal_sqrt_squares_back():
    for _ in range(200):
        w = complex(RNG.uniform(-10, 10), RNG.uniform(-10, 10))
        s = principal_power(w, 0.5)
        assert abs(s * s - w) <= 1e-12 * max(1.0, abs(w))
        assert s.real >= 0.0


def test_principal_sqrt_on_the_cut_picks_upper_branch():
    assert principal_power(complex(-4.0, 0.0), 0.5) == pytest.approx(2j)
    # a negative-zero imaginary part is normalized before branching
    assert principal_power(complex(-4.0, -0.0), 0.5) == pytest.approx(2j)


def test_principal_power_matches_exp_log():
    for _ in range(100):
        w = complex(RNG.uniform(-5, 5), RNG.uniform(-5, 5))
        if abs(w) < 1e-6:
            continue
        a = RNG.uniform(-3, 3)
        want = np.exp(a * np.log(complex(w.real, w.imag + 0.0)
                                 if w.imag != 0 else complex(w.real, 0.0)))
        assert abs(principal_power(w, a) - want) <= 1e-10 * abs(want)


def test_principal_power_integer_exponent_is_plain_power():
    w = complex(-2.5, 0.0)
    assert principal_power(w, 2.0) == pytest.approx(w ** 2)


HALF_INTEGERS = (0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -3.5)


def half_integer_bases() -> np.ndarray:
    """Moduli 0.03-4 at every argument, plus the negative real axis with
    +0, -0 and +-1e-300 imaginary parts."""
    modulus = np.exp(RNG.uniform(math.log(0.03), math.log(4.0), 400))
    spread = modulus * np.exp(1j * RNG.uniform(-math.pi, math.pi, 400))
    neg = -np.exp(RNG.uniform(math.log(0.03), math.log(4.0), 20))
    axis = [complex(x, im) for x in neg for im in (0.0, -0.0, 1e-300, -1e-300)]
    return np.concatenate([spread, np.array(axis)])


@pytest.mark.parametrize("a", HALF_INTEGERS)
def test_half_integer_powers_match_mpmath(a):
    import mpmath  # installed with sympy

    bases = half_integer_bases()
    with mpmath.workprec(120):
        want = [complex(mpmath.power(mpmath.mpc(w.real, w.imag),
                                     mpmath.mpf(a))) for w in bases]
    want = np.array(want)
    got = principal_power(bases, a)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    for w, v in zip(bases, want):
        assert abs(principal_power(complex(w), a) - v) <= 1e-15 * abs(v)


@pytest.mark.parametrize("a", HALF_INTEGERS)
def test_half_integer_powers_keep_the_upper_branch_on_the_cut(a):
    for w in (complex(-4.0, 0.0), complex(-4.0, -0.0)):
        want = 4.0 ** a * complex(math.cos(a * math.pi), math.sin(a * math.pi))
        assert principal_power(w, a) == pytest.approx(want, rel=1e-15)
        got = principal_power(np.array([w]), a)
        assert got[0] == pytest.approx(want, rel=1e-15)


def test_principal_power_zero_base():
    for a in (0.5, 1.5, 0.3):
        assert principal_power(0j, a) == 0
        got = principal_power(np.array([0j, -0.0 + 0j, 4.0]), a)
        assert got[0] == got[1] == 0 and got[2] == pytest.approx(4.0 ** a)
    for a in (-0.5, -1.5, -0.3, -2.5):
        with pytest.raises(ValueError, match="non-positive"):
            principal_power(0j, a)
        with pytest.raises(ValueError, match="non-positive"):
            principal_power(np.array([1.0, 0.0]), a)


# --------------------------------------------------------------------------
# bilinear square and hermitian dot
# --------------------------------------------------------------------------

def test_hermitian_dot_self_is_norm_squared():
    for _ in range(50):
        z = random_complex(3)
        d = hermitian_dot(z, z)
        assert abs(d.imag) <= 1e-12 * abs(d)
        assert d.real == pytest.approx(np.linalg.norm(z) ** 2, rel=1e-12)


# --------------------------------------------------------------------------
# Lie norm
# --------------------------------------------------------------------------

def test_lie_norm_real_vector_is_euclidean_norm():
    for _ in range(50):
        x = RNG.uniform(-10, 10, 3)
        assert lie_norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_lie_norm_phase_invariant_on_real_vectors():
    for _ in range(50):
        x = RNG.uniform(-10, 10, 2)
        phi = RNG.uniform(0, 2 * math.pi)
        assert lie_norm(np.exp(1j * phi) * x) == pytest.approx(
            np.linalg.norm(x), rel=1e-12)


def test_lie_norm_dominates_hermitian_norm():
    for n in (2, 3, 4):
        for _ in range(100):
            z = random_complex(n)
            assert np.linalg.norm(z) <= lie_norm(z) * (1 + 1e-12)


def test_lie_norm_scales_linearly():
    z = random_complex(3)
    for s in (0.25, 2.0, 7.5):
        assert lie_norm(s * z) == pytest.approx(s * lie_norm(z), rel=1e-12)


def test_rotated_sphere_points_have_unit_lie_norm():
    for p in (1, 2, 3, 5):
        for j in range(p):
            for _ in range(20):
                y = RNG.standard_normal(3)
                y /= np.linalg.norm(y)
                zeta = RotatedVector.sector(j, p, y)
                assert abs(lie_norm(zeta.to_complex()) - 1.0) <= 1e-12


def test_rotated_ball_points_are_inside_lie_ball():
    for p in (1, 2, 4):
        for j in range(p):
            for _ in range(20):
                y = RNG.standard_normal(2)
                y *= RNG.uniform(0.01, 0.999) / np.linalg.norm(y)
                x = RotatedVector.sector(j, p, y)
                assert lie_norm(x.to_complex()) < 1.0


# --------------------------------------------------------------------------
# RotatedVector representation
# --------------------------------------------------------------------------

def test_rotated_vector_reduces_angle_mod_pi():
    v = RotatedVector(math.pi + 0.3, np.array([1.0, 2.0]))
    assert 0.0 <= v.angle < math.pi
    assert v.angle == pytest.approx(0.3)
    assert_allclose(v.coords, [-1.0, -2.0])


def test_rotated_vector_embedding_survives_reduction():
    for _ in range(100):
        phi = RNG.uniform(-10, 10)
        y = RNG.uniform(-2, 2, 3)
        v = RotatedVector(phi, y)
        assert_allclose(v.to_complex(), np.exp(1j * phi) * y, atol=1e-12)


def test_sector_constructor_and_index_round_trip():
    for p in (1, 2, 3, 7):
        for j in range(p):
            v = RotatedVector.sector(j, p, np.array([0.4, -0.1, 0.2]))
            assert v.sector_index(p) == j


def test_sector_index_rejects_off_sector_angles():
    v = RotatedVector(0.123456, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        v.sector_index(2)


def test_rotated_vector_rejects_bad_coords():
    with pytest.raises(ValueError):
        RotatedVector(0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        RotatedVector(0.0, np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        RotatedVector(np.inf, np.array([1.0, 2.0]))


def test_as_rotated_accepts_real_arrays_and_passes_through():
    v = as_rotated([0.3, 0.4])
    assert isinstance(v, RotatedVector)
    assert v.angle == 0.0
    w = RotatedVector(0.5, np.array([1.0, 1.0]))
    assert as_rotated(w) is w


def test_as_complex_vector_embeds_rotated_points():
    v = RotatedVector(0.7, np.array([0.2, -0.5]))
    assert_allclose(as_complex_vector(v), np.exp(0.7j) * np.array([0.2, -0.5]))


def _lie_norm_per_point(z) -> float:
    """L(z) of one point from the outer product of its parts,
    antisymmetrized and summed flat, finished in Python floats."""
    a, b = z.real, z.imag
    minors = np.outer(a, b)
    minors -= minors.T
    inner = 2.0 * float(np.sum(minors * minors))
    return math.sqrt(float(a @ a + b @ b) + math.sqrt(inner))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 90]),
       k=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       wobble=st.sampled_from([0.0, 1e-16, 1e-14, 1e-9]))
def test_stacked_lie_norm_equals_per_row_lie_norm_bitwise(n, k, seed,
                                                          wobble):
    # about half the rows are rotated real points e^{i phi} x, give or take
    # a relative wobble of their imaginary part: their inner radicand is 0
    # or nearly 0.  At n = 90 a stack of k > 8 rows spans two blocks.
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    real = rng.random(k) < 0.5
    z[real] = np.exp(1j * rng.uniform(0, math.pi, (real.sum(), 1))) * (
        rng.standard_normal((real.sum(), n))
        * (1 + 1j * wobble * rng.standard_normal((real.sum(), n))))
    z *= 10.0 ** rng.uniform(-3, 3, (k, 1))
    stacked = lie_norm(z)
    per_row = [lie_norm(row) for row in z]
    assert all(type(value) is float for value in per_row)
    assert stacked.tobytes() == np.array(per_row).tobytes()
    assert stacked.tobytes() == np.array(
        [_lie_norm_per_point(row) for row in z]).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    phi=st.floats(-8.0, 8.0, allow_nan=False),
    coords=st.lists(st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-3),
                    min_size=2, max_size=4),
)
def test_rotated_vector_round_trip_property(phi, coords):
    v = RotatedVector(phi, np.array(coords))
    z = v.to_complex()
    again = RotatedVector(v.angle, v.coords)
    assert np.max(np.abs(again.to_complex() - z)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(z))))
    # lie norm of any rotated real vector is the plain euclidean norm
    assert lie_norm(z) == pytest.approx(float(np.linalg.norm(coords)),
                                        rel=1e-10)
