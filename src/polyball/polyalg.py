"""Polynomial algebra on C^n: Laplacians, Almansi decompositions, dimensions.

Polynomials are sparse dicts mapping exponent tuples to Gaussian-integer
numerators ``(re, im)`` over one positive common denominator ``denom``, all
Python integers, so every result is exact and there is no precision failure
mode.  Each operation reduces its result by one gcd, to
``gcd(denom, every re, every im) = 1`` with zero terms dropped, so equal
polynomials have equal ``terms``, ``denom`` and hash.  A float coefficient
is refused rather than rounded.  Evaluation converts each coefficient to
``complex(re / denom, im / denom)``, the correctly rounded double.

The Almansi ladder writes a homogeneous q of degree m uniquely as

    q = u_m + |x|^2 u_{m-2} + |x|^4 u_{m-4} + ...        (u_k harmonic)

in closed form: u_{m-2k} is the harmonic projection of Delta^k q divided by
prod_{i=1..k} 2i (n + 2(m-2k) + 2i - 2), and the projection of f of degree d
is sum_j (-1)^j |x|^{2j} Delta^j f / (2^j j! prod_{i=1..j} (n + 2d - 2 - 2i))
(Axler, Bourdon, Ramey, Harmonic Function Theory, 2nd ed., GTM 137, ch. 5).
No linear system is solved.  With L_s = Delta^s q that is u_{m-2k} =
sum_j |x|^{2j} L_{k+j} / W^{(k)}_j, so the order-p component joining
u_{m-2bp} .. u_{m-2bp-2p+2}, with Delta^p Q_b = 0, is one Horner sum

    Q_b = sum_s r_s |x|^{2s} L_{bp+s},  r_s = sum_{i<p} 1 / W^{(bp+i)}_{s-i},

its r_s integer numerators over one denominator; p = 1 gives the u.  The
ladder of a polynomial, and its blocks at an order, are built once; the
Poisson sums of all its orders group its p = 1 blocks.

The bases of H_m^p = ker Delta^p come in closed form too.

Text format: terms joined by " + ", each term "c * x1^a1 x2^a2 ...", with
rational coefficients "p/q" and complex ones "(re,im)"; every number,
decimals such as "0.25" and "1e-3" too, is read as an exact integer ratio
and printed as "p/q" in lowest terms, with no Fraction built either way.
Printing then parsing reproduces the polynomial exactly.
"""

from __future__ import annotations

import math
import re as _re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add

import numpy as np

from .geometry import RotatedVector, _require_nodes

__all__ = [
    "MultiPoly",
    "dim_P",
    "dim_H",
    "dim_Hp",
    "polyharmonic_almansi",
    "polyharmonic_split",
    "almansi_reassemble",
    "laplacian_power",
    "is_polyharmonic",
    "poisson_polynomial",
    "polyharmonic_basis",
]


def _scalar(value) -> tuple:
    """(re, im, denom) integers of an exact coefficient: an int, a Fraction
    or an (re, im) pair of them.  Floats are refused, not rounded."""
    pair = isinstance(value, tuple) and len(value) == 2
    re, im = value if pair else (value, 0)
    for part in (re, im):
        if not isinstance(part, (int, Fraction)):
            raise TypeError("coefficients must be int, Fraction or an (re, im)"
                            f" pair of them, got {type(part).__name__}")
    d = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator), d)


def _ratio_text(a: int, d: int) -> str:  # str(Fraction(a, d)), d > 0
    g = math.gcd(a, d)
    return str(a // g) if d == g else f"{a // g}/{d // g}"


# --------------------------------------------------------------------------
# sparse multivariate polynomials
# --------------------------------------------------------------------------

def _term_order(item):
    exps, _ = item
    return (-sum(exps), exps)


class MultiPoly:
    """Sparse polynomial in n variables: ``terms`` maps exponent tuples to
    Gaussian-integer numerators (re, im) over the common ``denom``.

    The constructor takes coefficients as ints, Fractions or (re, im) pairs
    of them."""

    __slots__ = ("n", "terms", "denom")

    def __init__(self, n: int, terms=None):
        if n < 2:
            raise ValueError("n must be >= 2")
        parsed, scale = [], 1
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for n={n}")
            a, b, d = _scalar(c)
            parsed.append((exps, a, b, d))
            scale = math.lcm(scale, d)
        clean = {}
        for exps, a, b, d in parsed:
            re0, im0 = clean.get(exps, (0, 0))
            clean[exps] = (re0 + a * (scale // d), im0 + b * (scale // d))
        self._set(n, clean, scale)

    def _set(self, n: int, terms: dict, denom: int, lowest: bool = False):
        """Store terms / denom, zeros dropped, reduced unless ``lowest``."""
        terms = {e: c for e, c in terms.items() if c[0] or c[1]}
        g = 1 if lowest else math.gcd(denom,
                                      *chain.from_iterable(terms.values()))
        if g > 1:
            terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "denom", denom // g)

    @classmethod
    def _exact(cls, n: int, terms: dict, denom: int,
               lowest: bool = False) -> "MultiPoly":
        """The reduced polynomial of integer numerators over ``denom``,
        without the public constructor's checks."""
        out = object.__new__(cls)
        out._set(n, terms, denom, lowest)
        return out

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "MultiPoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n: int, exps, c=1) -> "MultiPoly":
        return cls(n, {tuple(exps): c})

    @classmethod
    def radial_square(cls, n: int) -> "MultiPoly":
        """|x|^2 = x1^2 + ... + xn^2 (as a bilinear square of real x)."""
        terms = {}
        for i in range(n):
            exps = [0] * n
            exps[i] = 2
            terms[tuple(exps)] = 1
        return cls(n, terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        denom = math.lcm(self.denom, other.denom)
        k1, k2 = denom // self.denom, denom // other.denom
        terms = {e: (a * k1, b * k1) for e, (a, b) in self.terms.items()}
        for e, (a, b) in other.terms.items():
            a0, b0 = terms.get(e, (0, 0))
            terms[e] = (a0 + a * k2, b0 + b * k2)
        return MultiPoly._exact(self.n, terms, denom)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if self.n != other.n:
                raise ValueError("dimension mismatch")
            terms = {}
            for e1, (a1, b1) in self.terms.items():
                for e2, (a2, b2) in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    a0, b0 = terms.get(e, (0, 0))
                    terms[e] = (a0 + a1 * a2 - b1 * b2, b0 + a1 * b2 + b1 * a2)
            return MultiPoly._exact(self.n, terms, self.denom * other.denom)
        a2, b2, d = _scalar(other)
        return MultiPoly._exact(
            self.n, {e: (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                     for e, (a1, b1) in self.terms.items()}, self.denom * d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        out = MultiPoly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.n == other.n and self.denom == other.denom
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.denom, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def laplacian(self) -> "MultiPoly":
        """Sum of second partials; degree drops by 2."""
        terms = {}
        for exps, (a, b) in self.terms.items():
            for i, e in enumerate(exps):
                if e >= 2:
                    key = exps[:i] + (e - 2,) + exps[i + 1:]
                    a0, b0 = terms.get(key, (0, 0))
                    terms[key] = (a0 + a * e * (e - 1), b0 + b * e * (e - 1))
        return MultiPoly._exact(self.n, terms, self.denom)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict:
        """Map degree -> homogeneous part (only nonzero parts appear)."""
        parts = {}
        for exps, c in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = c
        return {d: MultiPoly._exact(self.n, t, self.denom)
                for d, t in sorted(parts.items())}

    def coefficient_scale(self) -> float:
        """Largest coefficient modulus (0.0 for the zero polynomial);
        ValueError for a coefficient past the double range."""
        d = self.denom
        try:
            return max((abs(complex(a / d, b / d))
                        for a, b in self.terms.values()), default=0.0)
        except OverflowError:
            raise ValueError("coefficient past the double range") from None

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point) -> complex:
        """Value at a point (complex sequence or RotatedVector)."""
        if isinstance(point, RotatedVector):
            if point.n != self.n:
                raise ValueError("dimension mismatch")
            return complex(self.eval_at(point.coords[None, :],
                                        phase=np.exp(1j * point.angle))[0])
        z = np.asarray(point, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError("dimension mismatch")
        return complex(self.eval_at(z[None, :])[0])

    def eval_at(self, points, phase=1.0) -> np.ndarray:
        """Values q(phase * points) for an (R, n) array of points.

        ``phase`` is a complex scalar multiplying every point; it enters each
        term as phase**degree, which keeps rotated-point evaluation free of
        unnecessary complex coordinate arithmetic when points are real.  A
        1-d array of phases gives a (len(phase), R) array, row k equal bit
        for bit to the call with phase[k].  The one-polynomial case of
        ``_evaluate``.
        """
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError("points must have shape (R, n)")
        # isinstance first: np.ndim alone costs a microsecond per call
        scalar = isinstance(phase, (float, complex)) or np.ndim(phase) == 0
        if not scalar and np.ndim(phase) != 1:
            raise ValueError("phase must be a scalar or a 1-d array")
        phases = [phase] if scalar else phase
        out = np.empty((1, len(phases), pts.shape[0]), dtype=complex)
        _evaluate([self], _power_table(pts, [self]), phases, out)
        return out[0, 0] if scalar else out[0]

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, (a, b) in sorted(self.terms.items(), key=_term_order):
            factors = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            try:
                cs = _ratio_text(a, self.denom)
                if b:
                    cs = f"({cs},{_ratio_text(b, self.denom)})"
            except ValueError:  # past the int-to-text digit limit
                e = math.log10(max(abs(a), abs(b))) - math.log10(self.denom)
                raise ValueError(
                    f"the coefficient of {factors or 'the constant term'}, "
                    f"about {10 ** (e % 1):.3g}e{math.floor(e)}, has more "
                    f"than {sys.get_int_max_str_digits()} digits") from None
            parts.append(f"{cs} * {factors}" if factors else cs)
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "MultiPoly":
        return _parse_poly(text, n)

    def __repr__(self):
        return f"MultiPoly(n={self.n}, {self.to_text()!r})"


def _power_table(points: np.ndarray, polys: list) -> list:
    """Row i holds x_i^e of the (R, n) ``points`` for e = 1 .. the largest
    exponent of x_i in ``polys`` (row[0] is unused): x_i^1 is the column
    itself and each higher power the one below it times x_i, so x_i^2 is
    numpy's ``x_i ** 2`` and no power calls libm ``pow``."""
    table = []
    for i in range(points.shape[1]):
        row = [1.0, points[:, i].copy()]  # contiguous, for the products
        top = max((e[i] for q in polys for e in q.terms), default=0)
        for _ in range(top - 1):
            row.append(row[-1] * row[1])
        table.append(row)
    return table


def _evaluate(polys: list, table: list, phases, out: np.ndarray):
    """out[d, k] = polys[d](phases[k] * points) for the points of the power
    table ``table`` (``_power_table``), out of shape (D, K, R).

    Terms go in ``_term_order``; each monomial column is the product, in
    coordinate order from 1.0, of its table entries (a product from 1.0,
    not a ones column: the two differ only in the sign of a zero, which
    adding into out erases), and enters every phase with one array
    operation, ``out[d] += w[:, None] * mono``, w[k] = c * phases[k]**degree
    in Python complex arithmetic.  So row k equals the one-phase call bit
    for bit, and every datum of a call shares one table."""
    phases = [complex(ph) for ph in phases]
    for q, acc in zip(polys, out):
        acc.fill(0.0)
        d = q.denom
        for exps, (a, b) in sorted(q.terms.items(), key=_term_order):
            mono = 1.0
            for i, e in enumerate(exps):
                if e:
                    mono = mono * table[i][e]
            # a / d is correctly rounded, as float(Fraction(a, d)) is
            c, degree = complex(a / d, b / d), sum(exps)
            w = np.array([c * ph ** degree for ph in phases])
            acc += w[:, None] * mono


# --------------------------------------------------------------------------
# text format helpers
# --------------------------------------------------------------------------

# variables, numbers, operators, and any other non-space character (bad)
_TOKEN = _re.compile(r"x\d+|\d+/\d+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
                     r"|[()^*+,-]|\S")


# Largest decimal exponent read: past twice the 4,300-digit limit on each
# side of the point, a number is beyond the double range or rounds to 0, and
# its ratio in lowest terms passes the limit, so it is refused before 10 ** e
_MAX_EXPONENT = 8600


def _ratio(tok) -> tuple | None:
    """(numerator, denominator > 0) in lowest terms of a number token, None
    for any other: the value of ``Fraction(tok)`` by its int conversions in
    their order, so a part past the int-to-text digit limit raises alike."""
    if not tok or not (tok[0].isdecimal() or tok[0] == "." and len(tok) > 1):
        return None
    num, slash, den = tok.partition("/")
    if slash:
        num, den = int(num), int(den)
        if not den:
            raise ValueError(f"polynomial text: zero denominator in {tok!r}")
    else:
        mantissa, _, exp = tok.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        den = 10 ** len(frac)
        num = int(whole or "0") * den + int(frac or "0")
        shift = int(exp or "0")
        if abs(shift) > _MAX_EXPONENT:
            raise ValueError(f"polynomial text: the exponent of {tok[:30]!r} "
                             f"is outside [-{_MAX_EXPONENT}, {_MAX_EXPONENT}]")
        num, den = (num * 10 ** shift, den) if shift >= 0 else (
            num, den * 10 ** -shift)
    g = math.gcd(num, den)
    return num // g, den // g


def _signs(toks: list, i: int) -> tuple:
    """The sign of the run of + and - at toks[i], and the index after it."""
    sign = 1
    while toks[i] == "+" or toks[i] == "-":
        sign, i = -sign if toks[i] == "-" else sign, i + 1
    return sign, i


def _parse_poly(text: str, n: int | None) -> MultiPoly:
    """The flat grammar: a signed sum of terms, each an optional coefficient
    (a number, or an "(re,im)" literal whose parts may carry signs), an
    optional "*" after it, then factors "xi" or "xi^k".  A character that
    starts no token is named, at its position, before any other error."""
    toks = _TOKEN.findall(text) + [None]  # the end: each step onto it raises
    raw, i = [], 0  # (sign, re, im, factor dict) of each term
    try:
        if len(toks) == 1:
            raise ValueError("polynomial text: empty input")
        while True:
            sign, i = _signs(toks, i)
            coeff = None
            if toks[i] == "(":
                coeff = []
                for close in (",", ")"):
                    part, i = _signs(toks, i + 1)
                    if (ratio := _ratio(toks[i])) is None:
                        raise ValueError("polynomial text: expected a "
                                         f"number, got {toks[i]!r}")
                    coeff.append((part * ratio[0], ratio[1]))
                    i += 1
                    if toks[i] != close:
                        raise ValueError(f"polynomial text: expected "
                                         f"{close!r}, got {toks[i]!r}")
                i += 1
            elif (ratio := _ratio(toks[i])) is not None:
                coeff, i = [ratio, (0, 1)], i + 1
            if coeff is not None and toks[i] == "*":
                i += 1
            factors = {}
            while (tok := toks[i]) and tok[0] == "x" and len(tok) > 1:
                idx = int(tok[1:])
                if idx < 1:
                    raise ValueError(f"polynomial text: bad variable {tok!r}")
                power = 1
                if toks[i + 1] == "^":
                    i += 2
                    if toks[i] is None or not toks[i].isdigit():
                        raise ValueError(
                            f"polynomial text: bad exponent {toks[i]!r}")
                    power = int(toks[i])
                factors[idx - 1] = factors.get(idx - 1, 0) + power
                i += 1
            if coeff is None:
                if not factors:
                    raise ValueError("polynomial text: empty term")
                coeff = [(1, 1), (0, 1)]
            raw.append((sign, *coeff, factors))
            if toks[i] is None:
                break
            if toks[i] != "+" and toks[i] != "-":
                raise ValueError(
                    f"polynomial text: expected + or -, got {toks[i]!r}")
    except ValueError:
        for m in _TOKEN.finditer(text):  # the first bad character, if any
            tok, at = m[0], m.start()
            if len(tok) == 1 and tok not in "()^*+,-" and not tok.isdecimal():
                raise ValueError("polynomial text: bad character at position "
                                 f"{at}: {text[at:at + 10]!r}") from None
        raise
    max_idx = max(max(f, default=-1) for *_, f in raw)
    dim = n if n is not None else max(max_idx + 1, 2)
    if max_idx + 1 > dim:
        raise ValueError(f"polynomial text: variable x{max_idx + 1} exceeds n={dim}")
    if dim < 2:
        raise ValueError("n must be >= 2")
    _require_nodes(f"n={dim}", dim * len(raw),  # before any exponent tuple
                   f"exponents of {len(raw)} terms")
    denom = math.lcm(*(den for _, re, im, _ in raw for _, den in (re, im)))
    terms = {}
    for sign, (a, da), (b, db), factors in raw:
        key = tuple(factors.get(k, 0) for k in range(dim))
        re0, im0 = terms.get(key, (0, 0))
        terms[key] = (re0 + sign * a * (denom // da),
                      im0 + sign * b * (denom // db))
    # Ratios in lowest terms, unless two terms merged, have gcd 1 over denom:
    # a prime's top power in denom divides a denominator but not its ratio.
    return MultiPoly._exact(dim, terms, denom, len(terms) == len(raw))


# --------------------------------------------------------------------------
# dimension formulas
# --------------------------------------------------------------------------

def dim_P(n: int, m: int) -> int:
    """Dimension of homogeneous degree-m polynomials in n variables."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        return 0
    return math.comb(n + m - 1, n - 1)


def dim_H(n: int, m: int) -> int:
    """Dimension of degree-m harmonic homogeneous polynomials."""
    if m < 0:
        return 0
    return dim_P(n, m) - dim_P(n, m - 2)


def dim_Hp(n: int, m: int, p: int) -> int:
    """Dimension of degree-m polyharmonic-of-order-p homogeneous polynomials."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if m < 0:
        return 0
    return dim_P(n, m) - dim_P(n, m - 2 * p)


# --------------------------------------------------------------------------
# monomial bases
# --------------------------------------------------------------------------

# Most monomials of one degree that a suite or an almansi request
# enumerates: n = 8 at degree 8.
_MAX_MONOMIALS = 1 << 13


def _require_monomials(n: int, degree: int):
    count = dim_P(n, degree)
    if count > _MAX_MONOMIALS:
        raise ValueError(f"n={n}: {count} monomials of degree {degree} "
                         f"exceed the cap of {_MAX_MONOMIALS}")


def _monomials(n: int, m: int) -> list:
    """All exponent tuples of total degree m, graded-lex order."""
    if m < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), m, n)
    return out


# --------------------------------------------------------------------------
# Almansi decompositions
# --------------------------------------------------------------------------

def _require_homogeneous(q: MultiPoly, what: str):
    if not q.is_homogeneous():
        raise ValueError(f"{what} requires a homogeneous polynomial")


def _radial_horner(n: int, polys: list, nums: list, denom: int) -> MultiPoly:
    """sum_j |x|^{2j} polys[j] nums[j] / denom over the pairs that
    ``zip(polys, nums)`` gives, for integers nums[j] and denom > 0; exact.

    The sum is built as integer numerators over denom times the lcm of the
    polys' denominators, by Horner in |x|^2: multiplying by |x|^2 adds each
    numerator at e + 2 e_i for every i.  One gcd reduces the result."""
    parts = list(zip(polys, nums))
    scale = math.lcm(*(u.denom for u, _ in parts))
    acc = {}
    for u, num in reversed(parts):
        shifted = {}
        for e, (a, b) in acc.items():
            for i in range(n):
                key = e[:i] + (e[i] + 2,) + e[i + 1:]
                a0, b0 = shifted.get(key, (0, 0))
                shifted[key] = (a0 + a, b0 + b)
        f = num * (scale // u.denom)
        for e, (a, b) in u.terms.items():
            a0, b0 = shifted.get(e, (0, 0))
            shifted[e] = (a0 + a * f, b0 + b * f)
        acc = shifted
    return MultiPoly._exact(n, acc, denom * scale)


def _blocks(q: MultiPoly, p: int) -> list:
    """The order-p components [Q_0, Q_1, ...] of a homogeneous q of degree
    m, each one Horner sum over its ladder (module docstring); with
    d = m - 2k, W^{(k)}_0 = prod_{i=1..k} 2i (n + 2d + 2i - 2) and
    W^{(k)}_j = -W^{(k)}_{j-1} 2j (n + 2d - 2 - 2j), j <= floor(d/2)."""
    n, m, ladder = q.n, q.degree(), [q]
    for _ in range(m // 2):
        ladder.append(ladder[-1].laplacian())
    blocks = []
    for start in range(0, len(ladder), p):
        weights = [[] for _ in ladder[start:]]  # the W of each r_s
        for k in range(start, min(start + p, len(ladder))):
            d = m - 2 * k
            w = math.prod(2 * i * (n + 2 * d + 2 * i - 2)
                          for i in range(1, k + 1))
            for j in range(d // 2 + 1):
                w = -w * 2 * j * (n + 2 * d - 2 - 2 * j) if j else w
                weights[k - start + j].append(w)
        denom = math.lcm(*chain.from_iterable(weights))
        nums = [sum(denom // w for w in ws) for ws in weights]
        blocks.append(_radial_horner(n, ladder[start:], nums, denom))
    return blocks


@lru_cache(maxsize=8)
def _radial_power(n: int, p: int) -> MultiPoly:
    """|x|^{2p}, built once per (n, p)."""
    return MultiPoly.radial_square(n) ** p


def almansi_reassemble(components: list, n: int, p: int = 1) -> MultiPoly:
    """sum_k |x|^{2kp} * components[k], by generic products: the check on
    the Almansi ladders.  |x|^{2p} is built only for a second component."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if len(components) < 2:
        return components[0] if components else MultiPoly.zero(n)
    out = MultiPoly.zero(n)
    r2p = _radial_power(n, p)
    for comp in reversed(components):  # Horner in |x|^{2p}
        out = r2p * out + comp
    return out


def polyharmonic_almansi(q: MultiPoly, p: int) -> list:
    """Order-p components [q_0, q_1, ...] with q = sum_k |x|^{2kp} q_k.

    Each component satisfies Delta^p q_k = 0: a block of p harmonic
    components, one Horner sum over the Laplacian ladder (``_blocks``).
    Past ``_MAX_MONOMIALS`` monomials of q's degree, refused first.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    _require_monomials(q.n, q.degree())
    _require_homogeneous(q, "polyharmonic_almansi")
    return [comp for part in _almansi(q, p) for comp in part]  # q's one part


# Most shift-adds the harmonic ladders of one polynomial may take, each
# weighing 1 + b // _STEP_BITS for b-bit data numerators: the largest
# accepted, dense data of degree 144 at n = 2 with one-digit coefficients,
# take 0.25-0.4 s on a 2-core Xeon with Python 3.11, b-bit data about
# 1 + b / 1024 times as long per shift-add (b to 14,000, degree 60 to 144)
_MAX_LADDER_STEPS = 1 << 19
_STEP_BITS = 1024


def _require_ladder(q: MultiPoly):
    """Refuse, before any Laplacian, harmonic ladders of q's homogeneous
    parts past ``_MAX_LADDER_STEPS`` weighted shift-adds.  A part of degree
    m gives its harmonic component of degree d = m - 2k by a Horner sum of
    floor(d/2) + 1 terms, each of up to dim_P(n, d) monomials shifted n
    ways.  An order-p block starting at component k costs what component k
    does, so the count is an upper bound on the block sums of every p.
    The count stops at the cap, so a huge degree costs a few terms."""
    bits = max(x.bit_length() for x in chain([q.denom], *q.terms.values()))
    weight = 1 + bits // _STEP_BITS
    steps = 0
    for m in sorted({sum(e) for e in q.terms}, reverse=True):
        for d in range(m, -1, -2):
            steps += weight * q.n * (d // 2 + 1) * dim_P(q.n, d)
            if steps > _MAX_LADDER_STEPS:
                size = f" on {bits}-bit numerators" if weight > 1 else ""
                raise ValueError(
                    f"n={q.n}: the Almansi ladders of degree {q.degree()}"
                    f"{size} take more than the cap of {_MAX_LADDER_STEPS} "
                    "steps")


@lru_cache(maxsize=1)
def _almansi(q: MultiPoly, p: int) -> tuple:
    """``_blocks`` of each homogeneous part of q, after ``_require_ladder``;
    kept for the next call, so that ``polyharmonic_split`` or
    ``poisson_polynomial`` after ``polyharmonic_almansi`` builds no ladder."""
    _require_ladder(q)
    return tuple(tuple(_blocks(part, p))
                 for part in q.homogeneous_components().values())


def polyharmonic_split(q: MultiPoly, p: int) -> tuple:
    """One Almansi step at order p: q = h + |x|^{2p} r with Delta^p h = 0."""
    groups = polyharmonic_almansi(q, p) or [MultiPoly.zero(q.n)]
    return groups[0], almansi_reassemble(groups[1:], q.n, p)


def laplacian_power(q: MultiPoly, p: int) -> MultiPoly:
    """Delta^p q, exact.  The loop stops at the first zero Laplacian, so it
    applies at most floor(deg q / 2) + 1 of them."""
    if p < 1:
        raise ValueError("p must be >= 1")
    out = q
    for _ in range(p):
        if out.is_zero():
            break
        out = out.laplacian()
    return out


def is_polyharmonic(q: MultiPoly, p: int) -> bool:
    """Whether Delta^p q = 0 (``laplacian_power``), tested exactly."""
    return laplacian_power(q, p).is_zero()


def poisson_polynomial(q: MultiPoly, p: int) -> MultiPoly:
    """The Poisson integral of q over the p rotated spheres, exact: the sum
    of the order-p Almansi components of q's homogeneous parts, as
    |x|^{2p} = 1 on every sector and the kernel reproduces p-polyharmonic
    functions; q itself, without a ladder, when Delta^p q = 0.  Each
    component joins p harmonic ones, so every order of one q groups the
    same cached p = 1 blocks."""
    if is_polyharmonic(q, p):
        return q
    return sum((_radial_horner(q.n, us[s:s + p], [1] * p, 1)
                for us in _almansi(q, 1) for s in range(0, len(us), p)),
               MultiPoly.zero(q.n))


# --------------------------------------------------------------------------
# polyharmonic bases
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _polyharmonic_basis(n: int, m: int, p: int) -> tuple:
    """Exact basis of ker(Delta^p) on P_m, built once: for each alpha with
    alpha_1 < 2p (``_monomials`` order), the p-polyharmonic x^alpha + (terms
    of x1-power >= 2p).  With h = sum_j x1^j / j! g_j(x2..xn), Delta acts on
    (g_j) as a shift by two plus the Laplacian D' in x2..xn, so Delta^p h = 0
    is the Cauchy-Kovalevskaya recurrence g_{j+2p} = -sum_{k<p} C(p, k)
    D'^{p-k} g_{j+2k}, from g_{alpha_1} = alpha_1! x'^alpha', other g_j = 0."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    basis = []
    for alpha in _monomials(n, m):
        if alpha[0] >= 2 * p:
            continue
        g = [MultiPoly.zero(n)] * (m + 1)
        g[alpha[0]] = MultiPoly.monomial(n, (0,) + alpha[1:],
                                         math.factorial(alpha[0]))
        for j in range(m - 2 * p + 1):
            total = MultiPoly.zero(n)
            for k in range(p):  # Horner in D'
                total = (total + g[j + 2 * k] * math.comb(p, k)).laplacian()
            g[j + 2 * p] = -total
        # h = sum_j x1^j g_j / j!, over the common denominator of the g_j / j!
        scales = [gj.denom * math.factorial(j) for j, gj in enumerate(g)]
        denom = math.lcm(*scales)
        basis.append(MultiPoly._exact(n, {
            (j,) + e[1:]: (a * (denom // scale), b * (denom // scale))
            for j, (gj, scale) in enumerate(zip(g, scales))
            for e, (a, b) in gj.terms.items()}, denom))
    return tuple(basis)


def polyharmonic_basis(n: int, m: int, p: int) -> list:
    """Exact basis of H_m^p: homogeneous degree-m polynomials with
    Delta^p = 0, a fresh list in a fixed order.  dim = dim_Hp(n, m, p)."""
    return list(_polyharmonic_basis(n, m, p))
