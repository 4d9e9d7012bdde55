"""Zonal, Poisson, and Cauchy-Hua kernels.

Independent oracle for zonal values: the classical closed forms on real
unit vectors, Z_m = 2 cos(m theta) for n = 2 and Z_m = (2m+1) P_m(cos theta)
for n = 3 (Legendre via scipy).  Everything else is cross-checked between
closed forms, series, and the exact dimension formulas.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from polyball import kernels
from polyball.gegenbauer import _recurrence
from polyball.geometry import (RotatedVector, as_complex_vector, lie_norm,
                               sector_points)
from polyball.kernels import (
    ROUTES,
    SeriesToleranceError,
    SingularKernelError,
    _tail_bound,
    boundary_form_values,
    cauchy_hua_from_products,
    hua_convergence_gap,
    pair_invariants,
    poisson_from_products,
    poisson_kernel,
    poisson_series,
    truncation_degree,
    zonal_from_products,
)
from polyball.polyalg import dim_Hp

RNG = np.random.default_rng(90210)


def unit_vector(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def sector_sphere_point(n: int, p: int, rng) -> RotatedVector:
    return RotatedVector.sector(int(rng.integers(p)), p, unit_vector(n, rng))


def sector_interior_point(n: int, p: int, rng,
                          rmax: float = 0.9) -> RotatedVector:
    return RotatedVector.sector(
        int(rng.integers(p)), p,
        rng.uniform(0.05, rmax) * unit_vector(n, rng))


def stack(points) -> np.ndarray:
    """Points, each a RotatedVector or an array, as one stack (k, n)."""
    return np.array([as_complex_vector(v) for v in points])


def stacked_invariants(xs, zetas) -> tuple:
    """(B, x2, zb2, P = x2 * zb2) over the stacked pairs (xs[i], zetas[i])."""
    B, x2, zb2 = pair_invariants(stack(xs), stack(zetas))
    return B, x2, zb2, x2 * zb2


def stacked_series(n: int, p: int, xs, zetas, tol: float) -> tuple:
    """``poisson_series`` over the stacked pairs, at their Lie radii."""
    xs, zetas = stack(xs), stack(zetas)
    B, x2, zb2 = pair_invariants(xs, zetas)
    return poisson_series(n, p, B, x2 * zb2,
                          (lie_norm(xs) * lie_norm(zetas)).tolist(), tol)


# --------------------------------------------------------------------------
# zonal harmonics against classical closed forms
# --------------------------------------------------------------------------

def test_zonal_harmonic_n2_is_twice_cosine():
    rng = np.random.default_rng(1)
    for m in range(1, 9):
        a, b = np.array([rng.uniform(0, 2 * math.pi, 2)
                         for _ in range(20)]).T
        B, _, _, P = stacked_invariants(np.array([np.cos(a), np.sin(a)]).T,
                                        np.array([np.cos(b), np.sin(b)]).T)
        got = zonal_from_products(2, m, 1, B, P)
        want = 2.0 * np.cos(m * (a - b))
        assert np.all(np.abs(got - want) <= 1e-11)
    B, _, _, P = stacked_invariants([[1.0, 0]], [[0.0, 1]])
    assert zonal_from_products(2, 0, 1, B, P)[0] == pytest.approx(1.0)


def test_zonal_harmonic_n3_is_legendre():
    rng = np.random.default_rng(2)
    for m in range(9):
        x, zeta = np.array([[unit_vector(3, rng), unit_vector(3, rng)]
                            for _ in range(20)]).transpose(1, 0, 2)
        B, _, _, P = stacked_invariants(x, zeta)
        got = zonal_from_products(3, m, 1, B, P)
        want = (2 * m + 1) * eval_legendre(m, np.sum(x * zeta, axis=1))
        assert np.all(np.abs(got - want) <= 1e-11 * np.fmax(1.0, abs(want)))


def test_zonal_harmonic_is_homogeneous_of_degree_m_in_each_slot():
    rng = np.random.default_rng(3)
    x, zeta = unit_vector(3, rng), unit_vector(3, rng)
    B, _, _, P = stacked_invariants([x, 0.7 * x], [zeta, zeta])
    for m in (2, 5):
        base, scaled = zonal_from_products(3, m, 1, B, P)
        assert scaled == pytest.approx(0.7 ** m * base, rel=1e-12)


def test_zonal_negative_degree_is_zero():
    B, _, _, P = stacked_invariants([[1.0, 0]], [[1.0, 0]])
    assert zonal_from_products(2, -1, 1, B, P).tolist() == [0]


# --------------------------------------------------------------------------
# polyharmonic zonal kernels
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_route_agreement_on_random_pairs(n, p):
    rng = np.random.default_rng(100 + 10 * n + p)
    for _ in range(25):
        x = sector_interior_point(n, p, rng)
        zeta = sector_sphere_point(n, p, rng)
        B, x2, zb2 = pair_invariants(x, zeta)
        for m in range(9):
            vals = [complex(zonal_from_products(n, m, p, B, x2 * zb2, r))
                    for r in ROUTES]
            scale = max(1.0, max(abs(v) for v in vals))
            assert max(abs(vals[0] - vals[1]),
                       abs(vals[1] - vals[2])) <= 1e-10 * scale


def test_zonal_routes_reject_unknown_route():
    with pytest.raises(ValueError):
        zonal_from_products(2, 3, 1, 0.2, 0.1, "fancy")


def test_zonal_polyharmonic_diagonal_equals_dimension():
    for n in (2, 3):
        for p in (1, 2, 3):
            for m in range(9):
                etas = [RotatedVector.sector(j, p, unit_vector(n, RNG))
                        for j in range(p)]
                B, _, _, P = stacked_invariants(etas, etas)
                got = zonal_from_products(n, m, p, B, P)
                want = dim_Hp(n, m, p)
                assert np.all(np.abs(got - want) <= 1e-9 * max(1.0, want))


def test_zonal_polyharmonic_bound_by_dimension():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        for p in (1, 2):
            for m in (1, 3, 6):
                cap = dim_Hp(n, m, p) * (1 + 1e-9)
                zeta, eta = zip(*[(sector_sphere_point(n, p, rng),
                                   sector_sphere_point(n, p, rng))
                                  for _ in range(30)])
                B, _, _, P = stacked_invariants(zeta, eta)
                assert np.all(np.abs(zonal_from_products(n, m, p, B, P))
                              <= cap)


def test_zonal_hermitian_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = int(rng.integers(1, 4))
        zeta = sector_sphere_point(3, p, rng)
        eta = sector_sphere_point(3, p, rng)
        B, _, _, P = stacked_invariants([zeta, eta], [eta, zeta])
        for m in (1, 4):
            a, b = zonal_from_products(3, m, p, B, P)
            assert abs(np.conj(a) - b) <= 1e-11 * max(1.0, abs(a))


def test_zonal_scaling_rule_moves_conjugate_scalar():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = 2
        zeta = sector_sphere_point(2, p, rng).to_complex()
        eta = sector_sphere_point(2, p, rng).to_complex()
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        B, _, _, P = stacked_invariants([a * zeta, zeta],
                                        [eta, np.conj(a) * eta])
        for m in (2, 3):
            lhs, rhs = zonal_from_products(2, m, p, B, P)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_zonal_from_products_vectorizes():
    rng = np.random.default_rng(11)
    B = rng.uniform(-0.5, 0.5, 7) + 1j * rng.uniform(-0.5, 0.5, 7)
    P = rng.uniform(0.0, 0.4, 7) + 1j * rng.uniform(-0.2, 0.2, 7)
    arr = zonal_from_products(2, 4, 2, B, P)
    loop = np.array([zonal_from_products(2, 4, 2, b, q)
                     for b, q in zip(B, P)])
    np.testing.assert_allclose(arr, loop, rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# Poisson kernel
# --------------------------------------------------------------------------

def test_poisson_kernel_closed_form_spot_value():
    x = RotatedVector(0.0, np.array([0.5, 0.0]))
    zeta = RotatedVector(0.0, np.array([1.0, 0.0]))
    # (1 - 0.25) / (0.25 - 1 + 1)^{1} = 3
    assert poisson_kernel(x, zeta, 1) == pytest.approx(3.0, rel=1e-14)


def test_poisson_series_matches_closed_form_within_tail_bound():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        for p in (1, 2, 3):
            xs, zetas = zip(*[(sector_interior_point(n, p, rng, rmax=0.8),
                               sector_sphere_point(n, p, rng))
                              for _ in range(25)])
            B, x2, zb2, _ = stacked_invariants(xs, zetas)
            closed = poisson_from_products(n, p, x2, B, zb2)
            values, terms, tails, refusals = stacked_series(n, p, xs, zetas,
                                                            1e-10)
            assert refusals == [None] * len(xs)
            for value, series, used, tail in zip(closed, values, terms,
                                                 tails):
                assert used <= 201
                assert abs(value - series) \
                    <= tail + 1e-10 * max(1.0, abs(value))


def test_poisson_series_tail_bound_certifies_truncation():
    x, zeta = [[0.7, 0.1]], [[0.6, 0.8]]
    [loose], [loose_terms], [loose_tail], _ = stacked_series(2, 1, x, zeta,
                                                             1e-4)
    [tight], [tight_terms], _, _ = stacked_series(2, 1, x, zeta, 1e-12)
    assert loose_terms < tight_terms
    assert abs(loose - tight) <= loose_tail + 1e-11


def test_poisson_same_sector_is_real_positive():
    rng = np.random.default_rng(13)
    for p in (1, 2, 3):
        for j in range(p):
            x = RotatedVector.sector(j, p, 0.6 * unit_vector(2, rng))
            zeta = RotatedVector.sector(j, p, unit_vector(2, rng))
            v = poisson_kernel(x, zeta, p)
            assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))
            assert v.real > 0


def test_poisson_rejects_exterior_x_and_off_sphere_zeta():
    zeta = RotatedVector(0.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        poisson_kernel(RotatedVector(0.0, np.array([1.5, 0.0])), zeta, 1)
    with pytest.raises(ValueError):
        poisson_kernel(RotatedVector(0.0, np.array([0.5, 0.0])),
                       RotatedVector(0.0, np.array([0.5, 0.0])), 1)


def test_poisson_singular_near_boundary_touch():
    x = RotatedVector(0.0, np.array([1.0 - 1e-8, 0.0]))
    zeta = RotatedVector(0.0, np.array([1.0, 0.0]))
    with pytest.raises(SingularKernelError):
        poisson_kernel(x, zeta, 1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_poisson_kernel_of_an_angle_just_below_pi_is_its_own_point(p):
    # RotatedVector(-1e-10, a) stores angle pi - 1e-10 with coords -a, and
    # is the point a to 1e-10; the kernel tells it from its antipode -a
    a, zeta = np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.0, 0.0])
    near, on, antipode = (poisson_kernel(RotatedVector(angle, a), zeta, p)
                          for angle in (-1e-10, 0.0, math.pi))
    B, x2, zb2, _ = stacked_invariants([a], [zeta])
    assert on == poisson_from_products(3, p, x2, B, zb2)[0]
    assert abs(near - on) < 1e-9 * abs(on)
    assert abs(antipode - on) > 0.5 * abs(on)


@pytest.mark.parametrize("n", [400, 401])
def test_closed_forms_past_the_double_range_raise_without_warnings(n):
    # |x - zeta|^2 = 0.01, so the denominator power is 10^{n/2 * 2} > 2^1024;
    # at odd n the half-integer power underflows and divides by zero instead
    x = RotatedVector(0.0, np.array([0.9] + [0.0] * (n - 1)))
    zeta = np.array([1.0] + [0.0] * (n - 1))
    B, x2, zb2, _ = stacked_invariants([x], [zeta])
    calls = (lambda: poisson_kernel(x, zeta, 1),
             lambda: boundary_form_values(n, 1, 0.81, 0.01),
             lambda: cauchy_hua_from_products(n, x2, B, zb2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="overflows a double"):
                call()


def test_boundary_form_matches_direct_formula():
    rng = np.random.default_rng(14)
    p = 3
    for k in range(p):
        coords = 0.55 * unit_vector(2, rng)
        x = RotatedVector.sector(1, p, coords)
        zeta = unit_vector(2, rng)
        v = np.exp(-1j * k * math.pi / p) * x.to_complex() - zeta
        v2 = complex(np.sum(v * v))
        r2 = float(coords @ coords)
        want = (1.0 - r2 ** p) * v2 ** (-1.0)  # n = 2: power is -n/2 = -1
        xc = x.to_complex()
        got = boundary_form_values(2, p, complex(np.sum(xc * xc)), v2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# --------------------------------------------------------------------------
# truncation degrees
# --------------------------------------------------------------------------

def test_truncation_degree_monotone_in_radius_and_tolerance():
    m1 = truncation_degree(2, 1, 0.5, 1e-8)
    m2 = truncation_degree(2, 1, 0.8, 1e-8)
    m3 = truncation_degree(2, 1, 0.5, 1e-12)
    assert m1 <= m2
    assert m1 <= m3


def test_truncation_degree_rejects_radius_at_one():
    with pytest.raises(ValueError):
        truncation_degree(2, 1, 1.0, 1e-8)


@pytest.mark.parametrize("n,r", [(300, 0.9), (200, 0.85), (150, 0.95)])
def test_truncation_past_the_double_range_is_a_tolerance_error(n, r):
    # the closed form leaves the double range; at (300, 0.9) its inf - inf
    # must not read as a tail below tol
    with pytest.raises(SeriesToleranceError, match="overflows"):
        truncation_degree(n, 1, r, 1e-11)


def _direct_tail(n: int, p: int, r: float, M: int) -> float:
    """sum_{m>M} dim H_m^p r^m term by term, until the terms stop counting."""
    terms, m = [], M + 1
    while True:
        terms.append(dim_Hp(n, m, p) * r ** m)
        if m > M + 50 and terms[-1] <= 1e-18 * terms[0]:
            return math.fsum(terms)
        m += 1


@pytest.mark.parametrize("n", range(2, 8))
def test_tail_bound_matches_the_direct_sum(n):
    for p in range(1, 6):
        for r in (0.05, 0.3, 0.6, 0.8, 0.95):
            for M in sorted({0, 1, 2 * p - 1, 2 * p, 17, 60, 150}):
                want = _direct_tail(n, p, r, M)
                got = _tail_bound(n, p, r, M)
                assert abs(got - want) <= 1e-12 * want, (p, r, M)


def _nb_tail_by_terms(k: int, r: float, N: int) -> float:
    """The tail sum as it was written before its powers were shared: every
    term's binomial and both powers taken afresh."""
    return sum(math.comb(N + k, j) * (1.0 - r) ** (j - k - 1)
               * r ** (N + k - j) for j in range(k + 1))


def _truncation_by_terms(n: int, p: int, r: float, tol: float,
                         max_terms: int):
    """``kernels._truncation`` with each tail bound from two fresh
    ``_nb_tail_by_terms`` sums: the oracle of its bits and its errors."""
    def tail_bound(M):
        try:
            tail = _nb_tail_by_terms(n - 1, r, M + 1) - r ** (2 * p) \
                * _nb_tail_by_terms(n - 1, r, max(M + 1 - 2 * p, 0))
        except OverflowError:
            tail = math.inf
        if not tail < math.inf:
            raise SeriesToleranceError(
                f"the tail bound at degree {M} overflows")
        return tail

    M, tail = 0, tail_bound(0)
    while tail >= tol:
        M += max(1, math.floor((math.log(tail) - math.log(tol))
                               / -math.log(r)))
        if M > max_terms:
            raise SeriesToleranceError(
                f"tolerance {tol:g} unreachable within {max_terms} terms")
        tail = tail_bound(M)
    return M, tail


def _outcome(fn, *args):
    """(M, the tail's bits), or the error's type and message."""
    try:
        M, tail = fn(*args)
    except SeriesToleranceError as err:
        return type(err), str(err)
    return M, tail.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), p=st.integers(1, 4),
       r=st.one_of(st.just(0.0), st.floats(0.0, 1.0 - 1e-6, exclude_max=True),
                   st.floats(1.0 - 1e-4, 1.0 - 1e-6, exclude_max=True)),
       tol=st.floats(-14.0, -3.0).map(lambda e: 10.0 ** e),
       max_terms=st.sampled_from([10000, 40]), N=st.integers(0, 300))
@example(n=60, p=1, r=1.0 - 2e-6, tol=1e-11, max_terms=10000, N=0)
@example(n=300, p=1, r=0.9, tol=1e-11, max_terms=10000, N=5)
@example(n=2, p=1, r=0.999, tol=1e-14, max_terms=10000, N=0)
def test_truncation_keeps_every_bit_of_the_term_by_term_tails(
        n, p, r, tol, max_terms, N):
    # the powers of 1 - r and r^{2p} are taken once per radius; M, the
    # tail's bits, and each SeriesToleranceError (an unreachable tol, a
    # bound past the double range) stay those of fresh terms
    assert _outcome(kernels._truncation, n, p, r, tol, max_terms) == \
        _outcome(_truncation_by_terms, n, p, r, tol, max_terms)
    try:
        want = _nb_tail_by_terms(n - 1, r, N).hex()
    except OverflowError:
        want = OverflowError
    try:
        got = kernels._nb_tail(n - 1, r, N).hex()
    except OverflowError:
        got = OverflowError
    assert got == want


def _zonal_terms(n: int, p: int, x, zeta, top: int) -> list:
    """Z_m^p(x, zeta) for m <= top by the value recurrence of the series."""
    B, x2, zb2 = pair_invariants(x, zeta)
    w = complex(np.sqrt(complex(x2 * zb2)))
    c = list(islice(_recurrence(n / 2.0, B / w, 1.0 + 0j), top + 1))
    return [(c[m] - (c[m - 2 * p] if m >= 2 * p else 0.0)) * w ** m
            for m in range(top + 1)]


def _lie_pair(n: int, rng, lz: float, lw: float) -> tuple:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z * (lz / lie_norm(z)), w * (lw / lie_norm(w))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zonal_values_obey_the_dimension_bound(n):
    """|Z_m^p(x, zeta)| <= dim H_m^p (L(x) L(zeta))^m, the bound behind
    every truncation degree, on rotated pairs and on Lie-domain pairs."""
    rng = np.random.default_rng(40 + n)
    for p in (1, 2, 3):
        pairs = [(sector_interior_point(n, p, rng, rmax=0.95),
                  sector_sphere_point(n, p, rng)) for _ in range(20)]
        pairs += [_lie_pair(n, rng, rng.uniform(0.2, 1.0),
                            rng.uniform(0.2, 1.0)) for _ in range(20)]
        for x, zeta in pairs:
            r = lie_norm(as_complex_vector(x)) * lie_norm(
                as_complex_vector(zeta))
            for m, value in enumerate(_zonal_terms(n, p, x, zeta, 60)):
                assert abs(value) <= dim_Hp(n, m, p) * r ** m * (1 + 1e-12)


def _series_terms_row_by_row(n: int, p: int, B, P, top: int) -> np.ndarray:
    """The series term table one row at a time: the values of
    ``gegenbauer._recurrence`` minus C_{m-2p}, times the running products
    wm * w, and a_m B^m on isotropic pairs."""
    isotropic = P == 0.0
    w = np.sqrt(np.where(isotropic, 1.0, P))
    cvals = list(islice(_recurrence(n / 2.0, B / w, np.ones_like(w)),
                        top + 1))
    terms = np.empty((top + 1, B.size), dtype=complex)
    terms[0] = 1.0
    wm = np.ones_like(w)
    for m in range(1, top + 1):
        wm = wm * w
        low = cvals[m - 2 * p] if m - 2 * p >= 0 else 0.0
        terms[m] = (cvals[m] - low) * wm
    a0, Bm = 1.0, np.ones_like(B[isotropic])
    for m in range(1, top + 1):
        a0 *= 2.0 * (n / 2.0 + m - 1.0) / m
        Bm = Bm * B[isotropic]
        terms[m, isotropic] = a0 * Bm
    return terms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), p=st.integers(1, 4), top=st.integers(0, 300),
       pairs=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, p=4, top=7, pairs=3, seed=1)  # top < 2p: no C_{m-2p} row
@example(n=2, p=1, top=0, pairs=1, seed=2)
def test_stacked_series_terms_equal_the_row_by_row_table_bitwise(
        n, p, top, pairs, seed):
    # random pairs of Lie norm up to 1, some of them isotropic (P = 0)
    rng = np.random.default_rng(seed)
    x, zeta = rng.standard_normal((2, pairs, n)) \
        + 1j * rng.standard_normal((2, pairs, n))
    isotropic = rng.random(pairs) < 0.3
    x[isotropic] = [1.0, 1j] + [0.0] * (n - 2)  # x.x = 0
    x /= lie_norm(x)[:, None] / rng.uniform(0.05, 1.0, (pairs, 1))
    zeta /= lie_norm(zeta)[:, None]
    B, x2, zb2 = pair_invariants(x, zeta)
    P = x2 * zb2
    assert kernels._series_terms(n, p, B, P, top).tobytes() \
        == _series_terms_row_by_row(n, p, B, P, top).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       edge=st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12]))
def test_sector_masks_equal_the_per_row_linalg_norm_tests(n, seed, edge):
    # radii edge + k ulp for |k| <= 6 (rounded once more by the scaling),
    # each row judged by np.linalg.norm alone, the radius RotatedVector
    # reports: x inside when it is < 1, zeta on the sphere when it is
    # within 1e-12 of 1
    rng = np.random.default_rng(seed)
    radii = [edge + k * math.ulp(edge) for k in range(-6, 7)]
    coords = rng.standard_normal((len(radii), n))
    coords *= (np.array(radii) / np.linalg.norm(coords, axis=1))[:, None]
    inside, on_sphere = kernels.sector_masks(coords, coords)
    for row, ok_x, ok_zeta in zip(coords, inside, on_sphere):
        radius = float(np.linalg.norm(row))
        assert radius == RotatedVector.sector(1, 2, row).radius
        assert ok_x == (radius < 1.0)
        assert ok_zeta == (abs(radius - 1.0) <= 1e-12)


def test_truncation_degree_is_the_smallest_passing_degree():
    for n in (2, 3, 5, 7):
        for p in (1, 2, 4):
            for r in (0.0, 0.01, 0.3, 0.8, 0.95):
                for tol in (1e-3, 1e-8, 1e-13):
                    M = truncation_degree(n, p, r, tol)
                    scan = 0
                    while _tail_bound(n, p, r, scan) >= tol:
                        scan += 1
                    assert M == scan, (n, p, r, tol)


def test_truncation_degree_pins_from_the_circle_formula():
    # at n = 2, dim H_m^p = 2p for m >= 2p - 1, so for M >= 2p - 1 the
    # tail is 2p r^{M+1} / (1 - r): 4 * 0.5^{M+1} = 2^{1-M} < 1e-8 first at
    # M = 28, 10 * 0.8^{M+1} < 1e-10 first at M = 113, and (p = 3)
    # 12 * 0.5^{M+1} < 1e-8 first at M = 30
    assert truncation_degree(2, 1, 0.5, 1e-8) == 28
    assert truncation_degree(2, 1, 0.8, 1e-10) == 113
    assert truncation_degree(2, 3, 0.5, 1e-8) == 30
    for p, r, M in ((1, 0.5, 28), (1, 0.8, 113), (3, 0.5, 30), (2, 0.9, 3)):
        want = 2 * p * r ** (M + 1) / (1 - r)
        assert _tail_bound(2, p, r, M) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n", [2, 5])
def test_poisson_series_error_within_the_proven_tail(n):
    """Up to r = 0.95, aligned pairs x = r zeta included: there
    Z_m^p(x, zeta) = dim H_m^p r^m, so the series misses exactly the bound.

    The slack is the rounding of the series: each recurrence term carries
    about m ulps of sum_m dim H_m^p r^m = (1 - r^{2p}) / (1 - r)^n, the
    largest any partial sum of term moduli can be.  At n = 5, r = 0.95 on
    an aligned pair (836 terms) that rounding is 2.4e-13 of the value.
    """
    rng = np.random.default_rng(70 + n)
    for p in (1, 2, 3):
        for r in (0.3, 0.8, 0.95):
            terms = (1.0 - r ** (2 * p)) / (1.0 - r) ** n
            xs, zetas = [], []
            for k in range(6):
                zeta = sector_sphere_point(n, p, rng)
                eta = zeta.coords if k == 0 else unit_vector(n, rng)
                xs.append(RotatedVector(zeta.angle, r * eta))
                zetas.append(zeta)
            B, x2, zb2, _ = stacked_invariants(xs, zetas)
            values, used, tails, _ = stacked_series(n, p, xs, zetas, 1e-9)
            for k, (closed, series, count, tail) in enumerate(zip(
                    poisson_from_products(n, p, x2, B, zb2), values, used,
                    tails)):
                slack = 1e-15 * count * max(1.0, terms)
                assert abs(closed - series) <= tail + slack
                if n == 2 and k == 0:  # rounding is far below the bound
                    assert abs(closed - series) >= tail - slack


# --------------------------------------------------------------------------
# Cauchy-Hua kernel
# --------------------------------------------------------------------------

def test_cauchy_hua_matches_poisson_on_rotated_pairs():
    rng = np.random.default_rng(15)
    for p in (1, 2, 4):
        xs, zetas = zip(*[(sector_interior_point(2, p, rng),
                           sector_sphere_point(2, p, rng))
                          for _ in range(20)])
        B, x2, zb2, P = stacked_invariants(xs, zetas)
        closed = poisson_from_products(2, p, x2, B, zb2)
        # the Poisson kernel continued to the Lie domain: (1 - P^p) H
        via_hua = (1.0 - P ** p) * cauchy_hua_from_products(2, x2, B, zb2)
        assert np.all(np.abs(closed - via_hua)
                      <= 1e-11 * np.fmax(1.0, np.abs(closed)))


def test_cauchy_hua_at_origin_is_one():
    B, x2, zb2, _ = stacked_invariants([np.zeros(2)], [[0.3 + 0.1j, -0.2]])
    assert cauchy_hua_from_products(2, x2, B, zb2)[0] == pytest.approx(1.0)


def test_cauchy_hua_rejects_pairs_outside_lie_domain():
    w = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="outside the Lie domain"):
        hua_convergence_gap([(2.0 * w, w)], 1)


def test_cauchy_hua_singular_denominator():
    B, x2, zb2, _ = stacked_invariants([[1.0 - 1e-9, 0.0]], [[1.0, 0.0]])
    with pytest.raises(SingularKernelError):
        cauchy_hua_from_products(2, x2, B, zb2)


def test_hua_convergence_gap_shrinks_with_order():
    rng = np.random.default_rng(16)
    pairs = []
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= 0.6 / lie_norm(z)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w *= 0.7 / lie_norm(w)
        pairs.append((z, w))
    gaps = []
    for p in (1, 2, 4, 8):
        gap, bound = hua_convergence_gap(pairs, p)
        assert gap <= bound * (1 + 1e-9)
        gaps.append(gap)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 6)
                                 for p in range(1, 4)])
def test_per_point_kernels_equal_their_stacked_rows(n, p):
    # every batched kernel acts on each pair alone: row i of a shuffled
    # stack of pairs, built by sector_points as the kernel command builds
    # them, equals the one-row (1, n) call on its pair, bit for bit.  The
    # last pair, at L(x) L(zeta) = 1 - 1e-7 >= 1 - 1e-6, is one the series
    # refuses: it reads 0 in every series array and carries its ValueError
    rng = np.random.default_rng(40 + 10 * n + p)
    count = 16
    j, k = rng.integers(p, size=(2, count))
    x_coords = np.array([rng.uniform(0.05, 0.9) * unit_vector(n, rng)
                         for _ in range(count - 1)]
                        + [(1.0 - 1e-7) * unit_vector(n, rng)])
    zeta_coords = np.array([unit_vector(n, rng) for _ in range(count)])
    xs, zetas = sector_points(x_coords, j, p), sector_points(zeta_coords, k, p)
    order = rng.permutation(count)

    def kernels_of(rows):  # every batched kernel on the pairs ``rows``
        B, x2, zb2 = pair_invariants(xs[rows], zetas[rows])
        P = x2 * zb2
        values = [zonal_from_products(n, m, p, B, P, route)
                  for m in range(9) for route in ROUTES]
        values += [poisson_from_products(n, p, x2, B, zb2),
                   cauchy_hua_from_products(n, x2, B, zb2),
                   lie_norm(xs[rows]) * lie_norm(zetas[rows])]
        return values, poisson_series(n, p, B, P, values[-1].tolist(), 1e-10)

    stacked, (*series, refusals) = kernels_of(order)
    for i, pair in enumerate(order):
        alone, (*alone_series, [refusal]) = kernels_of([pair])
        for row, value in zip(stacked + series, alone + alone_series):
            assert row[i] == value[0], (i, pair)
        assert type(refusals[i]) is type(refusal), (i, pair)
        if pair == count - 1:
            assert isinstance(refusal, ValueError)
            assert str(refusals[i]) == str(refusal)
            assert [column[i] for column in series] == [0, 0, 0.0]
        else:
            assert refusal is None
