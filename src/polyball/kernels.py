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
that); high-degree evaluation goes through the Poisson series
(``_series_values``), which uses the stable value recurrence
(C_m(t) - C_{m-2p}(t)) w^m.  Its term table is stacked: the recurrence
fills one row per degree over all pairs, then C_{m-2p} and w^m enter as
whole-array operations in place.  Calls of the closed routes given one
``_Powers`` table share its powers B^j and P^k.  Every function here acts
on each pair alone, so a pair's value is the same in any stack.

Series truncation uses the proven bound |Z_m^p(x, zeta)| <= dim H_m^p r^m,
r = L(x) L(zeta): the Lie norm is the growth gauge of zonal values (the
hermitian norm underestimates them off the rotated-real slices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .gegenbauer import _recurrence, gegenbauer_coefficients
from .geometry import (as_complex_vector, as_rotated, bilinear_square,
                       hermitian_dot, lie_norm, principal_power, sector_points)
from .quadrature import _MAX_NODES, compensated_sum

__all__ = [
    "KernelValue",
    "ROUTES",
    "ROUTE_SUM_OF_ZONALS",
    "ROUTE_GEGENBAUER_DIFF",
    "ROUTE_EXPLICIT_SUM",
    "SingularKernelError",
    "SeriesToleranceError",
    "zonal_from_products",
    "poisson_kernel",
    "poisson_from_products",
    "truncation_degree",
    "cauchy_hua_from_products",
    "hua_convergence_gap",
]

ROUTE_SUM_OF_ZONALS = "sum-of-zonals"
ROUTE_GEGENBAUER_DIFF = "gegenbauer-diff"
ROUTE_EXPLICIT_SUM = "explicit-sum"
ROUTES = (ROUTE_SUM_OF_ZONALS, ROUTE_GEGENBAUER_DIFF, ROUTE_EXPLICIT_SUM)


class SingularKernelError(ArithmeticError):
    """Kernel denominator vanished (evaluation at or too near a singular pair)."""


class SeriesToleranceError(ValueError):
    """Requested series tolerance unreachable (term cap or double range)."""


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
    """(B, x2, zb2) for a point pair, whose points may be RotatedVector;
    for stacks (P, n) of pairs, three arrays over the pairs."""
    return (hermitian_dot(x, zeta), bilinear_square(x),
            bilinear_square(zeta).conjugate())


class _Powers(dict):
    """j -> base ** j, each built once, when first asked, by numpy's own
    ``**`` (a chain of products rounds differently); ``moduli`` is the
    table of |base|.  Calls given one table share its powers."""

    def __init__(self, base):
        self.base = base

    def __missing__(self, j: int):
        self[j] = power = self.base ** j
        return power

    @cached_property
    def moduli(self) -> "_Powers":
        return _Powers(np.abs(self.base))


def _poly_sum(coeffs, m: int, B: _Powers, P: _Powers):
    """sum_k coeffs[k] B^{m-2k} P^k, vectorized over B and/or P."""
    total = np.zeros(np.broadcast(B.base, P.base).shape, dtype=complex)
    for k, c in enumerate(coeffs):
        total = total + c * B[m - 2 * k] * P[k]
    return total


# --------------------------------------------------------------------------
# zonal kernels
# --------------------------------------------------------------------------

def zonal_from_products(n: int, m: int, p: int, B, P,
                        route: str = ROUTE_GEGENBAUER_DIFF):
    """Z_m^p from precomputed invariants B and P = x2 * zb2 (vectorized),
    or from ``_Powers`` tables of them that calls share."""
    B, P = (v if isinstance(v, _Powers) else _Powers(np.asarray(v, complex))
            for v in (B, P))
    if m < 0:
        return np.zeros(np.broadcast(B.base, P.base).shape, dtype=complex)
    if route == ROUTE_SUM_OF_ZONALS:
        total = 0
        for j in range(p):
            deg = m - 2 * j
            if deg < 0:
                break
            coeffs = _float_coeffs(n, deg, 1, False)
            total = total + P[j] * _poly_sum(coeffs, deg, B, P)
        return total
    if route == ROUTE_GEGENBAUER_DIFF:
        return _poly_sum(_float_coeffs(n, m, p, False), m, B, P)
    if route == ROUTE_EXPLICIT_SUM:
        return _poly_sum(_float_coeffs(n, m, p, True), m, B, P)
    raise ValueError(f"unknown route {route!r}")


def _zonal_term_scale(n: int, m: int, p: int, B, P) -> np.ndarray:
    """Magnitude budget of the monomial expansion sum_k c_k B^{m-2k} P^k,
    an array over the ``_Powers`` tables B and P; route gaps are measured
    against it so that cancellation-heavy points do not inflate relative
    errors beyond what double precision can express."""
    aB, aP = B.moduli, P.moduli
    return sum(abs(c) * aB[m - 2 * k] * aP[k]
               for k, c in enumerate(_float_coeffs(n, m, p, False)))


# --------------------------------------------------------------------------
# Poisson kernel on the union of rotated balls
# --------------------------------------------------------------------------

def _radii(coords) -> np.ndarray:
    """The radii of real rows (k, n), each the square root of the BLAS dot
    that np.linalg.norm takes: bit for bit ``RotatedVector.radius``."""
    return np.sqrt(np.vecdot(coords, coords))


def _sector_masks(x_coords, zeta_coords) -> tuple:
    """(inside, on_sphere) over real rows (k, n): x strictly inside the
    unit ball, zeta on the unit sphere to 1e-12 (``_radii``)."""
    return _radii(x_coords) < 1.0, np.abs(_radii(zeta_coords) - 1.0) <= 1e-12


@np.errstate(all="ignore")  # a failed value is reported, not warned of
def _denominator_power(base, n: int, numerator=None) -> tuple:
    """(value, singular, finite): numerator * principal base^{-n/2} (the
    power alone for None) and the masks that judge each value, the one
    guard of every closed-form kernel.  A base below 1e-14 in modulus is
    singular (its value is not computed, and its mask wins); a value that
    is not finite passed the double range.  ``_checked`` raises on any
    failure; a batch of pairs reads the masks row by row."""
    base = np.asarray(base, dtype=complex)
    singular = np.abs(base) < 1e-14
    if singular.any():
        base = np.where(singular, 1.0, base)
    value = principal_power(base, -n / 2.0)
    value = value if numerator is None else numerator * value
    return value, singular, np.isfinite(value)


def _checked(kernel: str, value, singular, finite):
    """``value`` when no value failed its guard; else
    ``SingularKernelError`` (a denominator vanished) or ``ValueError`` (a
    value past the double range)."""
    if singular.any():
        raise SingularKernelError(f"{kernel} denominator vanished")
    if not finite.all():
        raise ValueError(f"{kernel} value overflows a double")
    return value


def _hua_base(x2, B, zb2) -> np.ndarray:
    """x2*zb2 - 2B + 1, the denominator base of both closed forms."""
    return (np.asarray(x2, dtype=complex) * np.asarray(zb2, dtype=complex)
            - 2.0 * np.asarray(B, dtype=complex) + 1.0)


def _poisson_guarded(n: int, p: int, x2, B, zb2) -> tuple:
    """``_denominator_power`` of the closed-form Poisson kernel."""
    return _denominator_power(_hua_base(x2, B, zb2), n,
                              1.0 - np.asarray(x2, dtype=complex) ** p)


def poisson_from_products(n: int, p: int, x2, B, zb2):
    """(1 - x2^p) / (x2*zb2 - 2B + 1)^{n/2}, vectorized, with singular guard."""
    return _checked("Poisson kernel", *_poisson_guarded(n, p, x2, B, zb2))


def poisson_kernel(x, zeta, p: int) -> complex:
    """Closed-form Poisson kernel for order-p polyharmonics.

    ``x`` must lie strictly inside the union of rotated balls (sector angle
    j*pi/p, |coords| < 1) and ``zeta`` on the union of rotated unit spheres.
    Positive real when both points sit in the same sector.  The one-row
    case of ``poisson_from_products``, each point the row that
    ``sector_points`` builds from its coords and sector index.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    x, zeta = as_rotated(x), as_rotated(zeta)
    # off a sector this raises; an angle just below pi is sector 0 at -coords
    rows = [sector_points((-1.0 if round(v.angle * p / math.pi) == p else 1.0)
                          * v.coords[None], [v.sector_index(p)], p)
            for v in (x, zeta)]
    B, x2, zb2 = pair_invariants(*rows)  # checks the dimensions
    if not all(_sector_masks(x.coords[None], zeta.coords[None])):
        raise ValueError("x must lie strictly inside the rotated unit balls "
                         "and zeta on their unit spheres")
    return complex(poisson_from_products(x.n, p, x2, B, zb2)[0])


def boundary_form_values(n: int, p: int, x2, v2):
    """(1 - x2^p) / (v2)^{n/2} for precomputed difference squares v2; at
    v2 = (e^{-ik pi/p} x - zeta)^2 it equals conj(P(e^{ik pi/p} zeta, x))."""
    return _checked("boundary form", *_denominator_power(
        v2, n, 1.0 - np.asarray(x2, dtype=complex) ** p))


# --------------------------------------------------------------------------
# series evaluation with a proven truncation bound
# --------------------------------------------------------------------------

def _nb_tail(k: int, r: float, N: int, inverse=None) -> float:
    """sum_{m>=N} C(m+k, k) r^m (sum_{m>=N} dim P_m r^m at k = n - 1) in
    closed form: sum_{j<=k} C(N+k, j) (1-r)^{j-k-1} r^{N+k-j}, whose powers
    (1-r)^{j-k-1} a caller of many N passes once as ``inverse``."""
    inverse = inverse or [(1.0 - r) ** (j - k - 1) for j in range(k + 1)]
    return sum([math.comb(N + k, j) * a * r ** (N + k - j)
                for j, a in enumerate(inverse)])


def _tail_bound(n: int, p: int, r: float, M: int, shared=None) -> float:
    """sum_{m>M} dim H_m^p r^m in closed form.  It bounds the tail of
    sum_m Z_m^p(x, zeta) at r = L(x) L(zeta), as |Z_m^p| <= dim H_m^p r^m:

    * rotated pairs: Z_m^p(eta, eta) = dim H_m^p on the rotated unit
      spheres; write x = r eta and apply Cauchy-Schwarz;
    * complex pairs: Z_m^p = sum_{i<p} (z.z)^i (conj(w.w))^i Z_{m-2i} with
      |z.z| <= L(z)^2, and sum_l |e_l(z)|^2 <= dim H_j L(z)^{2j} for an
      orthonormal basis e_l of H_j, since |e_l(e^{it} x)| = |e_l(x)| and the
      Lie sphere is the Shilov boundary of the Lie ball (Hua, AMS 1963).

    With k = n - 1 and the negative-binomial tail T = ``_nb_tail``, the sum
    is T(M+1) - r^{2p} T(max(M+1-2p, 0)); ``shared``: (T's inverse, r^{2p}).
    """
    inverse, r2p = shared or (None, r ** (2 * p))
    try:
        tail = _nb_tail(n - 1, r, M + 1, inverse) \
            - r2p * _nb_tail(n - 1, r, max(M + 1 - 2 * p, 0), inverse)
    except OverflowError:  # a binomial or (1 - r)^{-n} past the double range
        tail = math.inf
    if not tail < math.inf:  # inf, or nan from inf - inf
        raise SeriesToleranceError(f"the tail bound at degree {M} overflows")
    return tail


def truncation_degree(n: int, p: int, r: float, tol: float,
                      max_terms: int = 10000) -> int:
    """Smallest M whose proven tail bound sum_{m>M} dim H_m^p r^m falls
    below tol at Lie-radius product r.  A bound that overflows a double
    (large n near r = 1) raises ``SeriesToleranceError`` too."""
    return _truncation(n, p, r, tol, max_terms)[0]


def _truncation(n: int, p: int, r: float, tol: float, max_terms: int):
    """(M, tail bound at M) of ``truncation_degree``."""
    if not 0.0 <= r < 1.0 - 1e-6:
        raise ValueError("truncation needs r < 1 - 1e-6")
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:  # every tail bound's powers of 1 - r and r, taken once
        shared = [(1.0 - r) ** (j - n) for j in range(n)], r ** (2 * p)
    except OverflowError:  # each tail bound raises it again
        shared = None
    M = 0
    tail = _tail_bound(n, p, r, M, shared)
    while tail >= tol:
        # dim H_m^p never decreases in m, so tail(M + j) >= r^j tail(M):
        # no degree up to M + floor(log(tail / tol) / log(1 / r)) passes
        M += max(1, math.floor((math.log(tail) - math.log(tol))
                               / -math.log(r)))
        if M > max_terms:
            raise SeriesToleranceError(
                f"tolerance {tol:g} unreachable within {max_terms} terms")
        tail = _tail_bound(n, p, r, M, shared)
    return M, tail


def _series_terms(n: int, p: int, B, P, top: int) -> np.ndarray:
    """Z_m^p for m <= top (rows) over pairs (columns) with invariants B and
    P = x2 * zb2, in the stable value form (C_m(t) - C_{m-2p}(t)) w^m with
    w^2 = P and t = B / w (branch-independent), by one recurrence over all
    pairs, whose rows C_m take C_{m-2p} and w^m = w^{m-1} w in place (two
    such tables at most).  An isotropic pair (P = 0) keeps only the leading
    Gegenbauer coefficient: a_m B^m."""
    B = np.asarray(B, dtype=complex)
    P = np.asarray(P, dtype=complex)
    isotropic = P == 0.0
    w = np.sqrt(np.where(isotropic, 1.0, P))
    t = B / w
    terms = np.empty((top + 1, t.size), dtype=complex)
    for _ in _recurrence(n / 2.0, t, 1.0, terms):  # fills the table
        pass
    terms[2 * p:] -= terms[:-2 * p]
    wm = np.empty_like(terms)
    wm[0] = 1.0
    for low, row in zip(wm, wm[1:]):
        np.multiply(low, w, out=row)
    terms *= wm
    if isotropic.any():
        a0, Bi = 1.0, B[isotropic]
        Bm = np.ones_like(Bi)
        for m in range(1, top + 1):
            a0 *= 2.0 * (n / 2.0 + m - 1.0) / m
            Bm = Bm * Bi
            terms[m, isotropic] = a0 * Bm
    return terms


def _series_values(n: int, p: int, B, P, radii, tol: float,
                   max_terms: int = 10000) -> list:
    """Per pair, the ``KernelValue`` of sum_m Z_m^p truncated at the pair's
    own proven degree M (``truncation_degree`` at r = L(x) L(zeta) from
    ``radii``), or the ``ValueError`` that refused the pair (r too close to
    1, or ``SeriesToleranceError``).  One recurrence runs to the largest M;
    each pair sums its own M + 1 terms, so its value does not depend on the
    other pairs.  A table of (largest M + 1) x pairs terms above the node
    cap raises ``ValueError`` before it is built."""
    out, degrees = [], []  # each pair's error, or its tail bound
    for r in radii:
        try:
            M, tail = _truncation(n, p, r, tol, max_terms)
            out.append(tail)
        except ValueError as err:
            M = -1
            out.append(err)
        degrees.append(M)
    top = max(degrees, default=-1)
    if top < 0:
        return out
    if (top + 1) * len(degrees) > _MAX_NODES:
        raise ValueError(f"{len(degrees)} pairs of {top + 1} series terms "
                         "exceed the node cap")
    terms = _series_terms(n, p, B, P, top).T
    # zeros after a pair's M + 1 terms change no bit of its compensated sum
    terms[np.arange(top + 1) > np.array(degrees)[:, None]] = 0.0
    for i, value in enumerate(compensated_sum(terms, axis=-1)):
        if degrees[i] >= 0:
            out[i] = KernelValue(complex(value), degrees[i] + 1, out[i])
    return out


# --------------------------------------------------------------------------
# Cauchy-Hua kernel on the Lie ball
# --------------------------------------------------------------------------

def _hua_guarded(n: int, x2, B, zb2) -> tuple:
    """``_denominator_power`` of the Cauchy-Hua kernel."""
    return _denominator_power(_hua_base(x2, B, zb2), n)


def cauchy_hua_from_products(n: int, x2, B, zb2):
    """(x2*zb2 - 2B + 1)^{-n/2}, vectorized, with singular guard."""
    return _checked("Cauchy-Hua", *_hua_guarded(n, x2, B, zb2))


def hua_convergence_gap(pairs, p: int) -> tuple:
    """(gap, bound): max |P_p - H| over the pairs and alpha^{2p} max|H|,
    with alpha the largest Lie-norm product over the pairs, which must lie
    in the Lie domain L(z) L(w) < 1.  Over the stacked pairs, H is
    ``cauchy_hua_from_products`` and P_p = (1 - (z2 * conj(w)2)^p) H is the
    Poisson kernel continued to the Lie domain (the closed form when w is
    a rotated sphere point, where (conj(w)2)^p = 1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    zs, ws = (np.array([as_complex_vector(v) for v in side])
              for side in zip(*pairs))
    B, z2, wb2 = pair_invariants(zs, ws)  # checks the dimensions
    lie = lie_norm(zs) * lie_norm(ws)
    if not np.all(lie < 1.0):
        raise ValueError("pair outside the Lie domain L(z) L(w) < 1")
    hua = cauchy_hua_from_products(zs.shape[1], z2, B, wb2)
    gap = float(np.max(np.abs((1.0 - (z2 * wb2) ** p) * hua - hua)))
    return gap, float(np.max(lie)) ** (2 * p) * float(np.max(np.abs(hua)))
