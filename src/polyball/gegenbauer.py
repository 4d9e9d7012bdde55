"""Gegenbauer (ultraspherical) polynomials C_m^lambda.

Two evaluation routes are provided on purpose: the three-term recurrence

    m C_m = 2 t (m + lambda - 1) C_{m-1} - (m + 2 lambda - 2) C_{m-2},
    C_0 = 1,  C_1 = 2 lambda t,

which is the stable route for |t| <= 1 and whose one implementation, the
generator ``_recurrence``, also drives the generating-function partial sums
and the truncated kernel series in ``kernels``; and the explicit
alternating sum

    C_m(t) = sum_k (-1)^k  (lambda)_{m-k} / (k! (m-2k)!)  (2t)^{m-2k},

where (lambda)_j is the rising product lambda (lambda+1) ... (lambda+j-1).
The explicit sum is the oracle.  Its coefficients come from this factorial
formula, never from the recurrence, built once per (lambda, m) as integer
numerators over one denominator: with lambda = a/b, (lambda)_j = R_j / b^j
for the integers R_j = prod_{i<j} (a + i b).  At a real t = a'/b' (a float
is one exactly, its b' a power of two whose powers are shifts) the sum is
Horner in integers, rounded once.  The same table, its k-th entry scaled
by 2^{m-2k}, gives the exact Fraction coefficients of C_m in t
(``gegenbauer_coefficients``) that back the kernel algebra elsewhere.

Degrees m < 0 evaluate to 0 everywhere; this convention makes difference
expressions like C_m - C_{m-2p} valid for every m >= 0.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice

import numpy as np

from .geometry import principal_power

__all__ = [
    "gegenbauer",
    "gegenbauer_explicit",
    "gegenbauer_coefficients",
    "generating_function",
    "generating_partial_sum",
]


def _check_lambda(lam) -> float:
    lamf = float(lam)
    if not (lamf > 0):
        raise ValueError("lambda must be positive")
    return lamf


def _recurrence(lamf: float, t, c0, out=None):
    """Yield C_0, C_1, C_2, ... at t by the three-term recurrence.

    The single copy of the recurrence in the package.  ``c0`` is C_0 and
    fixes the value type (an array of ones for array ``t``, ``1.0 + 0j`` for
    a scalar); the sequence is unbounded, so callers slice it.  A complex
    table ``out`` over array ``t`` takes C_k in row k from prebuilt factors:
    Python floats' bits, at a fraction of the cost.
    """
    yield c0
    prev, cur, two_t = c0, 2.0 * lamf * t, 2.0 * t  # 2 t s C = ((2 t) s) C
    if out is None:
        for k in count(2):
            yield cur
            prev, cur = cur, (two_t * (k + lamf - 1.0) * cur
                              - (k + 2.0 * lamf - 2.0) * prev) / k
    out[0], out[1:2] = c0, cur
    ks = np.arange(2.0, len(out))
    for row, two_ts, q, k in zip(out[2:], two_t * (ks + lamf - 1.0)[:, None],
                                 *np.array([ks + 2.0 * lamf - 2.0, ks],
                                           dtype=complex)):
        prev, cur = cur, np.divide(two_ts * cur - q * prev, k, out=row)
    yield from out[1:]


def gegenbauer(lam, m: int, t):
    """C_m^lambda(t) by the three-term recurrence; m < 0 gives 0.

    ``t`` may be a scalar (real or complex) or an ndarray; the result has
    the matching shape.
    """
    lamf = _check_lambda(lam)
    m = int(m)
    scalar = np.ndim(t) == 0
    tv = np.asarray(t, dtype=complex)
    if m < 0:
        out = np.zeros_like(tv)
    else:
        out = next(islice(_recurrence(lamf, tv, np.ones_like(tv)), m, None))
    return complex(out) if scalar else out


def _exact_ratio(x) -> tuple:  # x = a / b, b > 0: any int, float, Fraction
    ratio = getattr(x, "as_integer_ratio", None)
    return ratio() if ratio is not None else (operator.index(x), 1)


@lru_cache(maxsize=None)
def _explicit_coefficients(ratio: tuple, m: int) -> tuple:
    """(numerators, denominator): the coefficients (-1)^k (lambda)_{m-k} /
    (k! (m-2k)!) for k = 0..floor(m/2), all over their least common
    denominator; ((), 1) for m < 0.

    Keyed on lambda's ratio (a, b), built from the factorial formula, never
    from the recurrence, so the explicit sum stays an independent route:
    over b^m m! the k-th numerator is (-1)^k R_{m-k} b^k m! / (k! (m-2k)!).
    """
    if m < 0:
        return (), 1
    a, b = ratio
    rising = list(accumulate((a + i * b for i in range(m)), operator.mul,
                             initial=1))
    denom = b ** m * math.factorial(m)
    nums = [(-1) ** k * rising[m - k] * b ** k * math.comb(m, k)
            * math.perm(m - k, k) for k in range(m // 2 + 1)]
    g = math.gcd(denom, *nums)
    return tuple(num // g for num in nums), denom // g


def gegenbauer_explicit(lam, m: int, t) -> complex:
    """C_m^lambda(t) at a real scalar t by the explicit alternating sum (the
    oracle route), taken exactly; any other t raises ValueError.

    A float is an exact rational, so the only rounding is the final one; in
    floating point the sum cancels catastrophically for large m, which would
    make the oracle useless at the tolerances it certifies.  With t = a/b
    and the coefficients N_k / L over one denominator, cached per
    (lambda, m), Horner runs in integers on sum_k N_k (2a)^{m-2k} b^{2k}, a
    shift for b = 2^e, and one correctly rounded division by L b^m ends it.
    """
    if not isinstance(t, float) and (np.ndim(t) or isinstance(t, complex)):
        raise ValueError("the explicit sum takes a real scalar t")
    m = int(m)
    _check_lambda(lam)
    nums, denom = _explicit_coefficients(_exact_ratio(lam), m)
    if m < 0:
        return 0j
    a, b = _exact_ratio(t)
    u, w, e = 4 * a * a, b * b, b.bit_length() - 1  # (2t)^2 = u / w
    acc, wk, shift = 0, 1, 0
    if b == 1 << e:  # w^k = 2^{2ek} is a shift, as for every float t
        for num in nums:
            acc = acc * u + (num << shift)
            shift += 2 * e
        denom <<= shift - 2 * e
    else:
        for num in nums:
            acc = acc * u + num * wk
            wk *= w
        denom *= wk // w
    if m % 2:
        acc, denom = 2 * a * acc, b * denom
    return complex(acc / denom)


def gegenbauer_coefficients(lam, m: int) -> tuple:
    """Exact coefficients (c_0, ..., c_{floor(m/2)}) of C_m^lambda in t.

    C_m^lambda(t) = sum_k c_k t^{m-2k}, each c_k a Fraction: the explicit
    sum's k-th coefficient times 2^{m-2k}.  ``lam`` must be a positive
    rational (int, Fraction, or numerator/denominator string).  Empty tuple
    for m < 0.
    """
    lamq = Fraction(lam)
    if lamq <= 0:
        raise ValueError("lambda must be positive")
    m = int(m)
    nums, denom = _explicit_coefficients(lamq.as_integer_ratio(), m)
    return tuple(Fraction(num << (m - 2 * k), denom)
                 for k, num in enumerate(nums))


def generating_function(lam, t, w) -> complex:
    """Closed form (1 - 2 t w + w^2)^{-lambda} on the principal branch."""
    lamf = _check_lambda(lam)
    base = 1.0 - 2.0 * complex(t) * complex(w) + complex(w) ** 2
    if abs(base) < 1e-14:
        raise ValueError("generating function is singular at these arguments")
    return principal_power(base, -lamf)


def generating_partial_sum(lam, t, w, max_degree: int) -> complex:
    """sum_{m=0}^{max_degree} C_m^lambda(t) w^m, for |t| <= 1 and |w| < 1."""
    lamf = _check_lambda(lam)
    t = complex(t)
    w = complex(w)
    if abs(t) > 1.0 + 1e-12:
        raise ValueError("partial sums require |t| <= 1")
    if abs(w) >= 1.0:
        raise ValueError("partial sums require |w| < 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    total = 0j
    wm = 1.0 + 0j
    for val in islice(_recurrence(lamf, t, 1.0 + 0j), max_degree + 1):
        total += val * wm
        wm *= w
    return total
