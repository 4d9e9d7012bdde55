"""Zonal kernels on rotated spheres: reproducers, Poisson, Cauchy-Hua.

Every kernel here is a function of the three pairing invariants

    B = sum x_j conj(zeta_j),   x2 = sum x_j^2,   zb2 = conj(sum zeta_j^2),

so all formulas are evaluated branch-free (only integer powers of the
invariants appear).  With lambda = n/2 and exact Gegenbauer coefficient
arrays a^m_k (C_m^lambda(t) = sum_k a^m_k t^{m-2k}):

* degree-m zonal harmonic:      Z_m   = sum_k (a^m_k - a^{m-2}_{k-1}) B^{m-2k} (x2*zb2)^k
* order-p zonal polyharmonic:   Z_m^p = sum_k (a^m_k - a^{m-2p}_{k-p}) B^{m-2k} (x2*zb2)^k
* Poisson kernel (boundary sector points):  (1 - x2^p) / (x2*zb2 - 2B + 1)^{n/2}
* Cauchy-Hua kernel:            (x2*zb2 - 2B + 1)^{-n/2} on L(x)L(zeta) < 1.

Three independent evaluation routes are kept for the zonal polyharmonic
(telescoped sum of zonal harmonics, Gegenbauer coefficient difference, and
a fully explicit factorial sum); they must agree and are cross-checked in
the test suite.  The closed routes are alternating sums whose terms grow
roughly like 4^m r^m against a value of order r^m, so they are intended for
moderate degree (the agreement domain is m <= 8, they stay usable well past
that); high-degree evaluation goes through ``poisson_kernel_series`` which
uses the stable value recurrence (C_m(t) - C_{m-2p}(t)) w^m.

Series truncation bounds use the Lie norm product r = L(x) L(zeta), the
actual growth gauge of zonal values for complex arguments (the hermitian
norm underestimates off the rotated-real slices; the two coincide on it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gegenbauer import gegenbauer_coefficients
from .geometry import (RotatedVector, as_complex_vector, as_rotated,
                       bilinear_square, hermitian_dot, lie_norm,
                       principal_power)
from .quadrature import compensated_sum

__all__ = [
    "KernelParams",
    "KernelValue",
    "ROUTES",
    "ROUTE_SUM_OF_ZONALS",
    "ROUTE_GEGENBAUER_DIFF",
    "ROUTE_EXPLICIT_SUM",
    "SingularKernelError",
    "SeriesToleranceError",
    "zonal_harmonic",
    "zonal_polyharmonic",
    "zonal_from_products",
    "poisson_kernel",
    "poisson_from_products",
    "poisson_kernel_series",
    "truncation_degree",
    "poisson_boundary_form",
    "cauchy_hua",
    "cauchy_hua_from_products",
    "poisson_from_hua",
    "hua_convergence_gap",
]

ROUTE_SUM_OF_ZONALS = "sum-of-zonals"
ROUTE_GEGENBAUER_DIFF = "gegenbauer-diff"
ROUTE_EXPLICIT_SUM = "explicit-sum"
ROUTES = (ROUTE_SUM_OF_ZONALS, ROUTE_GEGENBAUER_DIFF, ROUTE_EXPLICIT_SUM)


class SingularKernelError(ArithmeticError):
    """Kernel denominator vanished (evaluation at or too near a singular pair)."""


class SeriesToleranceError(ValueError):
    """Requested series tolerance unreachable within the term cap."""


@dataclass(frozen=True)
class KernelParams:
    """Dimension n >= 2, polyharmonic order p >= 1, degree m."""

    n: int
    p: int
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.p < 1:
            raise ValueError("p must be >= 1")


@dataclass(frozen=True)
class KernelValue:
    """Series evaluation record: value, number of terms, tail bound."""

    value: complex
    terms_used: int
    tail_bound: float


# --------------------------------------------------------------------------
# exact coefficient tables
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _zonal_p_coeffs(n: int, m: int, p: int) -> tuple:
    """Exact e_k with Z_m^p = sum_k e_k B^{m-2k} (x2*zb2)^k."""
    lam = Fraction(n, 2)
    a_m = gegenbauer_coefficients(lam, m)
    a_low = gegenbauer_coefficients(lam, m - 2 * p)
    out = []
    for k in range(m // 2 + 1):
        low = a_low[k - p] if 0 <= k - p < len(a_low) else Fraction(0)
        out.append(a_m[k] - low)
    return tuple(out)


@lru_cache(maxsize=None)
def _explicit_p_coeffs(n: int, m: int, p: int) -> tuple:
    """Same e_k from the explicit factorial formula (independent route).

    e_k = (-1)^k / (2^k k! (m-2k)!) * [ prod_{j=0}^{m-k-1} (n+2j)
          - (-1)^p 2^p (k-p+1)...k * prod_{j=0}^{m-p-k-1} (n+2j) ],
    the second bracket term present only for k >= p.
    """
    out = []
    for k in range(m // 2 + 1):
        first = 1
        for j in range(m - k):
            first *= n + 2 * j
        bracket = Fraction(first)
        if k >= p:
            falling = 1
            for j in range(k - p + 1, k + 1):
                falling *= j
            second = 1
            for j in range(m - p - k):
                second *= n + 2 * j
            bracket -= (-1) ** p * (2 ** p) * falling * second
        denom = (2 ** k) * math.factorial(k) * math.factorial(m - 2 * k)
        out.append((-1) ** k * bracket / denom)
    return tuple(out)


@lru_cache(maxsize=None)
def _float_coeffs(n: int, m: int, p: int, explicit: bool) -> tuple:
    table = _explicit_p_coeffs(n, m, p) if explicit else _zonal_p_coeffs(n, m, p)
    return tuple(float(c) for c in table)


# --------------------------------------------------------------------------
# pairing invariants
# --------------------------------------------------------------------------

def pair_invariants(x, zeta) -> tuple:
    """(B, x2, zb2) for a point pair; arguments may be RotatedVector."""
    xs = as_complex_vector(x)
    zs = as_complex_vector(zeta)
    if xs.size != zs.size:
        raise ValueError("dimension mismatch")
    return (hermitian_dot(xs, zs), bilinear_square(xs),
            complex(np.conj(bilinear_square(zs))))


def _poly_sum(coeffs, m: int, B, P):
    """sum_k coeffs[k] B^{m-2k} P^k, vectorized over B and/or P."""
    Ba = np.asarray(B, dtype=complex)
    Pa = np.asarray(P, dtype=complex)
    total = np.zeros(np.broadcast(Ba, Pa).shape, dtype=complex)
    for k, c in enumerate(coeffs):
        total = total + c * Ba ** (m - 2 * k) * Pa ** k
    return total


# --------------------------------------------------------------------------
# zonal kernels
# --------------------------------------------------------------------------

def zonal_harmonic(n: int, m: int, x, zeta) -> complex:
    """Reproducing kernel of degree-m spherical harmonics, extended to C^n.

    Z_0 = 1; degrees m < 0 give 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        return 0j
    B, x2, zb2 = pair_invariants(x, zeta)
    coeffs = _float_coeffs(n, m, 1, False)
    return complex(_poly_sum(coeffs, m, B, x2 * zb2))


def zonal_from_products(n: int, m: int, p: int, B, P,
                        route: str = ROUTE_GEGENBAUER_DIFF):
    """Z_m^p from precomputed invariants B and P = x2 * zb2 (vectorized)."""
    if m < 0:
        return np.zeros(np.broadcast(np.asarray(B), np.asarray(P)).shape,
                        dtype=complex) if np.ndim(B) or np.ndim(P) else 0j
    if route == ROUTE_SUM_OF_ZONALS:
        total = 0
        for j in range(p):
            deg = m - 2 * j
            if deg < 0:
                break
            coeffs = _float_coeffs(n, deg, 1, False)
            total = total + np.asarray(P, dtype=complex) ** j \
                * _poly_sum(coeffs, deg, B, P)
        return total
    if route == ROUTE_GEGENBAUER_DIFF:
        return _poly_sum(_float_coeffs(n, m, p, False), m, B, P)
    if route == ROUTE_EXPLICIT_SUM:
        return _poly_sum(_float_coeffs(n, m, p, True), m, B, P)
    raise ValueError(f"unknown route {route!r}")


def zonal_polyharmonic(params: KernelParams, x, zeta,
                       route: str = ROUTE_GEGENBAUER_DIFF) -> complex:
    """Reproducing kernel of degree-m order-p polyharmonics on the
    union of rotated spheres, extended to C^n x C^n."""
    if params.m < 0:
        return 0j
    B, x2, zb2 = pair_invariants(x, zeta)
    value = zonal_from_products(params.n, params.m, params.p, B, x2 * zb2,
                                route)
    return complex(value)


# --------------------------------------------------------------------------
# Poisson kernel on the union of rotated balls
# --------------------------------------------------------------------------

def _require_sector_sphere(zeta, p: int) -> RotatedVector:
    zeta = as_rotated(zeta)
    zeta.sector_index(p)
    if abs(zeta.radius - 1.0) > 1e-12:
        raise ValueError("zeta must lie on a unit sphere sector")
    return zeta


def _require_sector_interior(x, p: int, margin: float = 0.0) -> RotatedVector:
    x = as_rotated(x)
    x.sector_index(p)
    if not x.radius < 1.0 - margin:
        raise ValueError("x must lie strictly inside the rotated unit balls")
    return x


def _denominator_power(base, n: int, kernel: str):
    """Principal base^{-n/2}, the denominator of every closed-form kernel;
    a base below 1e-14 in modulus raises ``SingularKernelError``."""
    base = np.asarray(base, dtype=complex)
    if np.any(np.abs(base) < 1e-14):
        raise SingularKernelError(f"{kernel} denominator vanished")
    return principal_power(base, -n / 2.0)


def poisson_from_products(n: int, p: int, x2, B, zb2):
    """(1 - x2^p) / (x2*zb2 - 2B + 1)^{n/2}, vectorized, with singular guard."""
    x2a = np.asarray(x2, dtype=complex)
    base = (x2a * np.asarray(zb2, dtype=complex)
            - 2.0 * np.asarray(B, dtype=complex) + 1.0)
    return (1.0 - x2a ** p) * _denominator_power(base, n, "Poisson kernel")


def poisson_kernel(x, zeta, p: int) -> complex:
    """Closed-form Poisson kernel for order-p polyharmonics.

    ``x`` must lie strictly inside the union of rotated balls (sector angle
    j*pi/p, |coords| < 1) and ``zeta`` on the union of rotated unit spheres.
    Positive real when both points sit in the same sector.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x = _require_sector_interior(x, p)
    zeta = _require_sector_sphere(zeta, p)
    if x.n != zeta.n:
        raise ValueError("dimension mismatch")
    B, x2, zb2 = pair_invariants(x, zeta)
    return complex(poisson_from_products(x.n, p, x2, B, zb2))


def boundary_form_values(n: int, p: int, x2, v2):
    """(1 - x2^p) / (v2)^{n/2} for precomputed difference squares v2."""
    return (1.0 - np.asarray(x2, dtype=complex) ** p) \
        * _denominator_power(v2, n, "boundary form")


def poisson_boundary_form(x, zeta, k: int, p: int) -> complex:
    """Boundary-sector form (1 - |x|^{2p}) / |e^{-ik pi/p} x - zeta|_C^n.

    ``zeta`` is the real unit vector representing the k-th sector point
    e^{ik pi/p} zeta; |.|_C is the principal bilinear norm (its n-th power
    is the n/2 principal power of the bilinear square).  Equals the
    conjugated Poisson kernel conj(P(e^{ik pi/p} zeta, x)).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x = _require_sector_interior(x, p)
    zs = np.asarray(zeta, dtype=float)
    if zs.shape != (x.n,):
        raise ValueError("zeta must be a real unit vector matching x")
    if abs(np.linalg.norm(zs) - 1.0) > 1e-12:
        raise ValueError("zeta must lie on the unit sphere")
    v = np.exp(-1j * k * math.pi / p) * x.to_complex() - zs
    v2 = bilinear_square(v)
    x2 = bilinear_square(x.to_complex())
    return complex(boundary_form_values(x.n, p, x2, v2))


# --------------------------------------------------------------------------
# series evaluation with certified truncation
# --------------------------------------------------------------------------

def _tail_sum_bound(n: int, r: float, M: int) -> float:
    """Upper bound for sum_{m > M} m^{n-2} r^m (exact for n = 2)."""
    q = r * math.exp((n - 2) / (M + 1))
    if q >= 1.0:
        return math.inf
    return (M + 1) ** (n - 2) * r ** (M + 1) / (1.0 - q)


@lru_cache(maxsize=None)
def _tail_constant(n: int, p: int) -> float:
    """Calibrated C with |Z_m^p| <= C p m^{n-2} r^m on a seeded probe set.

    Probes 200 rotated pairs, m <= 20, takes the worst ratio and doubles it.
    """
    rng = np.random.default_rng(97 * n + p)
    worst = 1.0
    for _ in range(200):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        s = rng.standard_normal(n)
        s /= np.linalg.norm(s)
        radius = 0.2 + 0.7 * rng.random()
        x = RotatedVector(int(rng.integers(p)) * math.pi / p, radius * a)
        zeta = RotatedVector(int(rng.integers(p)) * math.pi / p, s)
        B, x2, zb2 = pair_invariants(x, zeta)
        w = complex(np.sqrt(complex(x2 * zb2)))
        t = B / w
        prev, cur = 1.0 + 0j, n * t  # C_0, C_1 at lambda = n/2
        cvals = [prev, cur]
        wm = w
        for m in range(1, 21):
            if m >= 2:
                lam = n / 2.0
                prev, cur = cur, (2.0 * t * (m + lam - 1.0) * cur
                                  - (m + 2.0 * lam - 2.0) * prev) / m
                cvals.append(cur)
            low = cvals[m - 2 * p] if m - 2 * p >= 0 else 0.0
            value = (cvals[m] - low) * wm
            ratio = abs(value) / (p * m ** (n - 2) * radius ** m)
            worst = max(worst, ratio)
            wm *= w
    return 2.0 * worst


def truncation_degree(n: int, p: int, r: float, tol: float,
                      max_terms: int = 10000) -> int:
    """Smallest M whose calibrated tail bound C p sum_{m>M} m^{n-2} r^m
    falls below tol at Lie-radius product r."""
    if not 0.0 <= r < 1.0 - 1e-6:
        raise ValueError("truncation needs r < 1 - 1e-6")
    if tol <= 0:
        raise ValueError("tol must be positive")
    c_tail = _tail_constant(n, p)
    M = 0
    while c_tail * p * _tail_sum_bound(n, r, M) >= tol:
        M += 1
        if M > max_terms:
            raise SeriesToleranceError(
                f"tolerance {tol:g} unreachable within {max_terms} terms")
    return M


def poisson_kernel_series(x, zeta, p: int, tol: float = 1e-10,
                          max_terms: int = 10000) -> KernelValue:
    """Poisson kernel as sum_m Z_m^p(x, zeta), truncated with a certified tail.

    Terms use the stable value form (C_m(t) - C_{m-2p}(t)) w^m with
    w^2 = x2 * zb2 and t = B / w (branch-independent).  The truncation M is
    the smallest degree whose calibrated tail bound C p sum_{m>M} m^{n-2} r^m
    with r = L(x) L(zeta) falls below ``tol``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = as_complex_vector(x)
    zs = as_complex_vector(zeta)
    if xs.size != zs.size:
        raise ValueError("dimension mismatch")
    n = xs.size
    r = lie_norm(xs) * lie_norm(zs)
    if not r < 1.0 - 1e-6:
        raise ValueError("series needs L(x) L(zeta) < 1 - 1e-6")
    M = truncation_degree(n, p, r, tol, max_terms)
    c_tail = _tail_constant(n, p)
    B, x2, zb2 = pair_invariants(xs, zs)
    P = x2 * zb2
    terms = [1.0 + 0j]
    if abs(P) == 0.0:
        # isotropic pair: only the leading Gegenbauer coefficient survives
        a0 = 1.0
        Bm = 1.0 + 0j
        for m in range(1, M + 1):
            a0 *= 2.0 * (n / 2.0 + m - 1.0) / m
            Bm *= B
            terms.append(a0 * Bm)
    else:
        w = complex(np.sqrt(complex(P)))
        t = B / w
        lam = n / 2.0
        cvals = [1.0 + 0j, 2.0 * lam * t]
        wm = 1.0 + 0j
        for m in range(1, M + 1):
            wm *= w
            if m >= 2:
                prev, cur = cvals[m - 2], cvals[m - 1]
                cvals.append((2.0 * t * (m + lam - 1.0) * cur
                              - (m + 2.0 * lam - 2.0) * prev) / m)
            low = cvals[m - 2 * p] if m - 2 * p >= 0 else 0.0
            terms.append((cvals[m] - low) * wm)
    value = compensated_sum(terms)
    bound = c_tail * p * _tail_sum_bound(n, r, M)
    return KernelValue(value, M + 1, bound)


# --------------------------------------------------------------------------
# Cauchy-Hua kernel on the Lie ball
# --------------------------------------------------------------------------

def cauchy_hua_from_products(n: int, x2, B, zb2):
    """(x2*zb2 - 2B + 1)^{-n/2}, vectorized, with singular guard."""
    base = (np.asarray(x2, dtype=complex) * np.asarray(zb2, dtype=complex)
            - 2.0 * np.asarray(B, dtype=complex) + 1.0)
    return _denominator_power(base, n, "Cauchy-Hua")


def cauchy_hua(z, w) -> complex:
    """H(z, w) = (z2 * conj(w)2 - 2<z,w> + 1)^{-n/2} on L(z) L(w) < 1."""
    zs = as_complex_vector(z)
    ws = as_complex_vector(w)
    if zs.size != ws.size:
        raise ValueError("dimension mismatch")
    if not lie_norm(zs) * lie_norm(ws) < 1.0:
        raise ValueError("pair outside the Lie domain L(z) L(w) < 1")
    B, z2, wb2 = pair_invariants(zs, ws)
    return complex(cauchy_hua_from_products(zs.size, z2, B, wb2))


def poisson_from_hua(z, w, p: int) -> complex:
    """(1 - (z2 * conj(w)2)^p) H(z, w): the Poisson kernel continued to
    the Lie domain (coincides with the closed form when w is a rotated
    sphere point, where (conj(w)2)^p = 1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    zs = as_complex_vector(z)
    ws = as_complex_vector(w)
    B, z2, wb2 = pair_invariants(zs, ws)
    return complex((1.0 - (z2 * wb2) ** p) * cauchy_hua(zs, ws))


def hua_convergence_gap(pairs, p: int) -> tuple:
    """Max |P_p - H| over pairs and its bound alpha^{2p} max|H|.

    ``alpha`` is the largest Lie-norm product over the pairs.  The bound is
    asserted (a violation raises, since it cannot happen analytically);
    returns (gap, bound).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    gap = 0.0
    alpha = 0.0
    hmax = 0.0
    for z, w in pairs:
        h = cauchy_hua(z, w)
        pk = poisson_from_hua(z, w, p)
        gap = max(gap, abs(pk - h))
        alpha = max(alpha, lie_norm(as_complex_vector(z))
                    * lie_norm(as_complex_vector(w)))
        hmax = max(hmax, abs(h))
    bound = alpha ** (2 * p) * hmax
    if gap > bound * (1.0 + 1e-9):
        raise RuntimeError("convergence gap exceeded its analytic bound")
    return gap, bound
