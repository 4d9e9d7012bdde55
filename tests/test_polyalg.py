"""Exact polynomial algebra: Laplacian, dimensions, Almansi splits.

Oracles: sympy recomputes Laplacians, nullspace dimensions and nullspace
bases from scratch; hand-derived closed forms pin small decompositions.
Polynomials carry Gaussian-rational coefficients (integer numerators over
one denominator), so reassembly and annihilation checks demand residual
zero, not merely small.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyball import polyalg
from polyball.polyalg import (
    MultiPoly,
    almansi_reassemble,
    dim_H,
    dim_Hp,
    dim_P,
    is_polyharmonic,
    polyharmonic_almansi,
    polyharmonic_basis,
    polyharmonic_split,
)

RNG = np.random.default_rng(112)


def random_homogeneous(n: int, m: int, rng) -> MultiPoly:
    """Random homogeneous polynomial with small rational coefficients."""
    total = MultiPoly.zero(n)
    got_term = False
    for exps in _exponents(n, m):
        if rng.random() < 0.6:
            c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            if c:
                total = total + MultiPoly.monomial(n, exps, c)
                got_term = True
    if not got_term:
        total = MultiPoly.monomial(n, next(iter(_exponents(n, m))), 1)
    return total


def _exponents(n: int, m: int):
    if n == 1:
        yield (m,)
        return
    for head in range(m, -1, -1):
        for rest in _exponents(n - 1, m - head):
            yield (head,) + rest


def _coefficients(q: MultiPoly) -> dict:
    """{exps: (re, im)} with Fraction parts, read off the numerators and the
    common denominator."""
    return {exps: (Fraction(a, q.denom), Fraction(b, q.denom))
            for exps, (a, b) in q.terms.items()}


def _coef(q: MultiPoly, exps) -> tuple:
    return _coefficients(q).get(exps, (0, 0))


def _sympy_poly(q: MultiPoly, symbols):
    expr = sympy.Integer(0)
    for exps, (re, im) in _coefficients(q).items():
        term = (sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator))
        for s, e in zip(symbols, exps):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


# --------------------------------------------------------------------------
# arithmetic and text round-trip
# --------------------------------------------------------------------------

def test_multipoly_product_matches_hand_expansion():
    x1 = MultiPoly.monomial(2, (1, 0))
    x2 = MultiPoly.monomial(2, (0, 1))
    q = (x1 + x2) * (x1 + x2)
    want = x1 * x1 + MultiPoly.monomial(2, (1, 1), 2) + x2 * x2
    assert (q - want).coefficient_scale() == 0.0


def test_from_text_examples():
    q = MultiPoly.from_text("x1^2 - 2*x1 x2 + 3/4", n=2)
    assert _coef(q, (2, 0)) == (1, 0)
    assert _coef(q, (1, 1)) == (-2, 0)
    assert _coef(q, (0, 0)) == (Fraction(3, 4), 0)


def test_coefficients_are_exact_only():
    with pytest.raises(TypeError):
        MultiPoly.monomial(2, (1, 0), 0.5)
    q = MultiPoly.monomial(2, (1, 0))
    with pytest.raises(TypeError):
        q * 0.5
    tenth = MultiPoly.from_text("0.1 * x1", n=2)
    assert _coefficients(tenth) == {(1, 0): (Fraction(1, 10), 0)}
    assert (tenth.terms, tenth.denom) == ({(1, 0): (1, 0)}, 10)


def test_from_text_rejects_unknown_symbols_with_position():
    with pytest.raises(ValueError) as err:
        MultiPoly.from_text("x1 + y2", n=2)
    assert "y2" in str(err.value) or "position" in str(err.value)


def test_text_round_trip_is_exact():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for m in range(5):
            q = random_homogeneous(n, m, rng)
            again = MultiPoly.from_text(q.to_text(), n=n)
            assert (q - again).coefficient_scale() == 0.0


# the recursive-descent reader and the match-loop tokenizer that the flat
# reader replaced, kept as the reference for its results and its messages

_REFERENCE_TOKEN = re.compile(r"""
      (?P<var>x\d+)
    | (?P<num>\d+/\d+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<op>[()^*+,-])
    | (?P<ws>\s+)
""", re.VERBOSE)


def _reference_tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"polynomial text: bad character at position {pos}: "
                             f"{text[pos:pos + 10]!r}")
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group()))
        pos = m.end()
    return out


class _ReferenceParser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val = self.next()
        if val != value:
            raise ValueError(f"polynomial text: expected {value!r}, got {val!r}")

    def number(self, allow_sign=True):
        sign = 1
        while allow_sign and self.peek()[1] in ("+", "-"):
            if self.next()[1] == "-":
                sign = -sign
        kind, val = self.next()
        if kind != "num":
            raise ValueError(f"polynomial text: expected a number, got {val!r}")
        mantissa, e, exp = val.lower().partition("e")
        if e:  # after the digit limits, before 10 ** exponent is built
            Fraction(mantissa)
            if abs(int(exp)) > 8600:
                raise ValueError(f"polynomial text: the exponent of "
                                 f"{val[:30]!r} is outside [-8600, 8600]")
        try:
            return sign * Fraction(val)
        except ZeroDivisionError:
            raise ValueError(
                f"polynomial text: zero denominator in {val!r}") from None

    def coefficient(self):
        if self.peek()[1] == "(":
            self.next()
            re_part = self.number()
            self.expect(",")
            im_part = self.number()
            self.expect(")")
            return re_part, im_part
        return self.number(allow_sign=False), Fraction(0)

    def term(self):
        coeff = None
        if self.peek()[0] == "num" or self.peek()[1] == "(":
            coeff = self.coefficient()
            if self.peek()[1] == "*":
                self.next()
        factors = {}
        while self.peek()[0] == "var":
            _, name = self.next()
            idx = int(name[1:])
            if idx < 1:
                raise ValueError(f"polynomial text: bad variable {name!r}")
            power = 1
            if self.peek()[1] == "^":
                self.next()
                kind, val = self.next()
                if kind != "num" or not val.isdigit():
                    raise ValueError(f"polynomial text: bad exponent {val!r}")
                power = int(val)
            factors[idx - 1] = factors.get(idx - 1, 0) + power
        if coeff is None:
            if not factors:
                raise ValueError("polynomial text: empty term")
            coeff = Fraction(1), Fraction(0)
        return coeff, factors


def _reference_parse(text: str, n):
    toks = _reference_tokenize(text)
    if not toks:
        raise ValueError("polynomial text: empty input")
    parser = _ReferenceParser(toks)
    raw = []
    sign = 1
    while parser.peek()[1] in ("+", "-"):
        if parser.next()[1] == "-":
            sign = -sign
    while True:
        (re_part, im_part), factors = parser.term()
        raw.append((sign * re_part, sign * im_part, factors))
        kind, val = parser.peek()
        if kind is None:
            break
        if val not in ("+", "-"):
            raise ValueError(f"polynomial text: expected + or -, got {val!r}")
        sign = 1
        while parser.peek()[1] in ("+", "-"):
            if parser.next()[1] == "-":
                sign = -sign
    max_idx = max((max(f, default=-1) for *_, f in raw), default=-1)
    dim = n if n is not None else max(max_idx + 1, 2)
    if max_idx + 1 > dim:
        raise ValueError(
            f"polynomial text: variable x{max_idx + 1} exceeds n={dim}")
    terms = {}
    for re_part, im_part, factors in raw:
        exps = [0] * dim
        for i, e in factors.items():
            exps[i] = e
        key = tuple(exps)
        re0, im0 = terms.get(key, (0, 0))
        terms[key] = (re0 + re_part, im0 + im_part)
    return MultiPoly(dim, terms)


# every token kind, valid and not: numbers of each form, a zero
# denominator, x0 and a variable past n, every operator, bad characters
_BIG = "7" * 4301  # one digit past the int-to-text limit
_VARS = ("x1", "x2", "x3")
_NUMBERS = ("2", "0", "17", "3/4", "3/0", "0.25", ".5", "2.", "1e3",
            "2.5e-4")
# rarer: more decimal and exponent forms, unreduced ratios, a 4401-digit
# value, a non-ASCII digit, and numbers whose numerator, denominator,
# decimals or exponent pass the digit limit
_EDGE_NUMBERS = ("0/0", "5/10", "12.50e+2", "7E-3", "00.010", "1e4400",
                 "\u0663", _BIG, "1/" + _BIG, "0." + _BIG, _BIG + "/0",
                 "1e" + _BIG, "1e-" + _BIG)
_EXPONENTS = ("2", "0", "17", "\u0663", "3/4", _BIG)
_OTHERS = ("x0", "x12", "x" + _BIG, "(", ")", ",", "^", "*", "+", "-", "y",
           "\u00b2", "x", ".", "\t", "\n")
_TOKENS = _VARS + _NUMBERS + _EDGE_NUMBERS + _EXPONENTS + _OTHERS


def _pick(rng, pool):
    return pool[rng.integers(len(pool))]


def _number(rng) -> str:
    return _pick(rng, _EDGE_NUMBERS if rng.uniform() < 0.1 else _NUMBERS)


def random_polynomial_text(rng) -> str:
    """Token soup half the time; otherwise a well-formed sum of terms,
    most of which parse, with a token now and then swapped or dropped."""
    if rng.uniform() < 0.5:
        picks = rng.integers(len(_TOKENS), size=rng.integers(0, 12))
        return "".join(_TOKENS[k] + " " * int(rng.integers(0, 2))
                       for k in picks)
    parts = []
    for t in range(int(rng.integers(1, 5))):
        if t or rng.uniform() < 0.3:
            parts += ["-" if rng.uniform() < 0.5 else "+"] \
                * int(rng.integers(1, 3))
        coeff = int(rng.integers(3))  # none, a number or a literal
        if coeff == 1:
            parts.append(_number(rng))
        elif coeff == 2:
            parts += ["(", "-" * int(rng.integers(0, 2)), _number(rng), ",",
                      _number(rng), ")"]
        if coeff and rng.uniform() < 0.5:
            parts.append("*")
        for _ in range(int(rng.integers(0 if coeff else 1, 4))):
            parts.append(_pick(rng, _VARS))
            if rng.uniform() < 0.5:
                parts += ["^", _pick(rng, _EXPONENTS[:3])
                          if rng.uniform() < 0.9 else _pick(rng, _EXPONENTS)]
    if rng.uniform() < 0.3:
        k = int(rng.integers(len(parts)))
        parts[k] = _pick(rng, _TOKENS) if rng.uniform() < 0.5 else ""
    return " ".join(parts)


def parse_outcome(parse, text, n):
    """A parse's polynomial, with its terms in order, or its error."""
    try:
        q = parse(text, n)
    except ValueError as err:
        return "error", str(err)
    return q.n, q.denom, list(q.terms.items())


def test_flat_reader_equals_the_recursive_descent_reference():
    rng = np.random.default_rng(20)
    accepted = 0
    for _ in range(4000):
        text = random_polynomial_text(rng)
        n = (None, 2, 3)[rng.integers(3)]
        got = parse_outcome(polyalg._parse_poly, text, n)
        assert got == parse_outcome(_reference_parse, text, n), text
        accepted += got[0] != "error"
    assert accepted > 800


def test_flat_reader_equals_the_reference_on_every_number_form():
    # each edge number as a coefficient, inside a literal and as an
    # exponent, and bad characters after it: the same polynomial or the
    # same message, the digit limit's and the bad position's included
    outcomes = []
    for tok in _NUMBERS + _EDGE_NUMBERS:
        for text in (f"{tok} * x1", f"-(1, -{tok}) x2^2", f"x1^{tok}",
                     f"{tok} x1 + \u00b2", f"({tok},{tok}"):
            outcomes.append(parse_outcome(polyalg._parse_poly, text, None))
            assert outcomes[-1] == parse_outcome(_reference_parse, text,
                                                 None), text
    messages = " ".join(str(got[1]) for got in outcomes if got[0] == "error")
    for kind in ("zero denominator", "Exceeds the limit", "bad character",
                 "bad exponent", "expected ')'"):
        assert kind in messages
    assert sum(got[0] != "error" for got in outcomes) > 20


def test_laplacian_matches_sympy():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        symbols = sympy.symbols(f"x1:{n + 1}")
        for m in (2, 3, 5):
            q = random_homogeneous(n, m, rng)
            got = _sympy_poly(q.laplacian(), symbols)
            want = sympy.expand(sum(sympy.diff(_sympy_poly(q, symbols),
                                               s, 2) for s in symbols))
            assert sympy.simplify(got - want) == 0


def test_evaluate_homogeneity_under_complex_phase():
    rng = np.random.default_rng(29)
    for n in (2, 3):
        for m in (1, 3, 4):
            q = random_homogeneous(n, m, rng)
            a = rng.uniform(-1, 1, n)
            phi = rng.uniform(0, 2 * np.pi)
            lhs = q.evaluate(np.exp(1j * phi) * a)
            rhs = np.exp(1j * m * phi) * q.evaluate(a)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _eval_term_by_term(q: MultiPoly, pts: np.ndarray, phase) -> np.ndarray:
    """One phase, every power and monomial column rebuilt per term, each
    power x^e as x^(e-1) * x: the reference order of operations for
    ``eval_at``."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for exps, (re, im) in sorted(_coefficients(q).items(),
                                 key=lambda t: (-sum(t[0]), t[0])):
        mono = np.ones(pts.shape[0], dtype=pts.dtype)
        for i, e in enumerate(exps):
            if e:
                power = pts[:, i]
                for _ in range(e - 1):
                    power = power * pts[:, i]
                mono = mono * power
        c = complex(float(re), float(im))
        out += (c * complex(phase) ** sum(exps)) * mono
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eval_at_phase_array_matches_per_phase_calls_bitwise(n):
    rng = np.random.default_rng(300 + n)
    polys = [MultiPoly.zero(n), MultiPoly.constant(n, (Fraction(2, 3), -1))]
    for _ in range(3):
        q = MultiPoly.zero(n)
        for m in range(5):
            c = (int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            q = q + random_homogeneous(n, m, rng) * c
        polys.append(q)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
    real = rng.uniform(-1, 1, (30, n))
    real[::7, 0], real[3::7, 1] = 0.0, -0.0  # signed zeros keep their bits
    for q in polys:
        for pts in (real, np.exp(0.3j) * real):
            together = q.eval_at(pts, phase=phases)
            assert together.shape == (len(phases), len(pts))
            stacked = np.array([q.eval_at(pts, phase=ph) for ph in phases])
            reference = np.array([_eval_term_by_term(q, pts, ph)
                                  for ph in phases])
            assert together.tobytes() == stacked.tobytes()
            assert together.tobytes() == reference.tobytes()
            assert q.eval_at(pts).shape == (len(pts),)
    with pytest.raises(ValueError, match="1-d"):
        polys[-1].eval_at(real, phase=phases.reshape(2, 2))


_UNIT = 2.0 ** -53


def _gauss_mul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@st.composite
def _evaluation_cases(draw):
    """A Gaussian-rational polynomial (n 2-5, degree <= 10), double nodes
    with zeros of both signs among them, and 1-3 phases."""
    n = draw(st.integers(2, 5))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        exps = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=10)):
            exps[i] += 1
        den = draw(st.integers(1, 1000))
        terms[tuple(exps)] = (Fraction(draw(st.integers(-999, 999)), den),
                              Fraction(draw(st.integers(-999, 999)), den))
    # zeros, else moduli in [2^-40, 2]: every product stays in the normal
    # range, where the rounding model of the bound below holds
    coord = st.one_of(st.sampled_from([0.0, -0.0]), st.builds(
        math.copysign, st.floats(2.0 ** -40, 2.0), st.sampled_from([1, -1])))
    points = np.array(draw(st.lists(
        st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6)))
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=1,
                           max_size=3))
    return MultiPoly(n, terms), points, np.exp(1j * np.array(angles))


@settings(max_examples=150, deadline=None)
@given(_evaluation_cases())
def test_eval_at_meets_its_rounding_bound_against_exact_values(case):
    # Each term c_a ph^k x^a (k = |a| <= d) rounds its coefficient once
    # (u), forms ph^k by at most k - 1 complex products and w = c ph^k by
    # one more, each within sqrt(2) gamma_2 <= gamma_3 (Higham, Lemma 3.5),
    # forms x^a by k - 1 real products and w x^a by one rounding per part:
    # gamma_{4k+1} in all.  The T terms are summed per part, within
    # gamma_{T-1} of each part's sum of moduli, so sqrt(2) gamma_{T-1} <=
    # gamma_{2T-2} in modulus (Higham, section 3.1).  With c = 4,
    # |computed - exact| <= gamma_{4(d+T)} sum_a |c_a| |ph|^k |x^a|,
    # the exact value taken at the double nodes and phases.
    q, points, phases = case
    got = q.eval_at(points, phase=phases)
    coefficients = _coefficients(q)
    slack = 4 * (q.degree() + len(coefficients)) * _UNIT
    gamma = slack / (1 - slack)
    for k, ph in enumerate(phases):
        w = (Fraction(ph.real), Fraction(ph.imag))
        for r, x in enumerate(points):
            exact, scale = (Fraction(0), Fraction(0)), 0.0
            for exps, c in coefficients.items():
                term = c
                for _ in range(sum(exps)):
                    term = _gauss_mul(term, w)
                mono = math.prod(Fraction(float(x[i])) ** e
                                 for i, e in enumerate(exps))
                exact = (exact[0] + term[0] * mono, exact[1] + term[1] * mono)
                scale += abs(complex(*map(float, c))) * abs(ph) ** sum(exps) \
                    * abs(float(mono))
            error = abs(complex(Fraction(got[k, r].real) - exact[0],
                                Fraction(got[k, r].imag) - exact[1]))
            assert error <= gamma * scale, (k, r, error, scale)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
       st.integers(0, 3))
def test_sum_then_evaluate_is_linear(coeffs, m):
    n = 2
    basis = [MultiPoly.monomial(n, (m - k, k), c)
             for k, c in enumerate(coeffs[:m + 1])]
    total = MultiPoly.zero(n)
    for b in basis:
        total = total + b
    point = np.array([0.3, -0.7])
    direct = sum(b.evaluate(point) for b in basis)
    assert total.evaluate(point) == pytest.approx(direct, abs=1e-12)


# --------------------------------------------------------------------------
# integer-numerator arithmetic against a Fraction-pair reference
# --------------------------------------------------------------------------

def _ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != (0, 0)}


def _ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, (re, im) in q.items():
        re0, im0 = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (re0 + re, im0 + im)
    return _ref_clean(out)


def _ref_scale(p: dict, re2, im2) -> dict:
    return _ref_clean({e: (re * re2 - im * im2, re * im2 + im * re2)
                       for e, (re, im) in p.items()})


def _ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, (re2, im2) in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out = _ref_add(out, _ref_scale({e: c1}, re2, im2))
    return out


def _ref_laplacian(p: dict) -> dict:
    out = {}
    for exps, (re, im) in p.items():
        for i, e in enumerate(exps):
            if e >= 2:
                key = exps[:i] + (e - 2,) + exps[i + 1:]
                out = _ref_add(out, {key: (re * e * (e - 1),
                                           im * e * (e - 1))})
    return out


_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def _poly_pairs(draw, n):
    """A MultiPoly and its reference dict, built term by term."""
    ref = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n)))
        re = draw(_fractions)
        im = draw(st.sampled_from([Fraction(0)]) | _fractions)
        ref = _ref_add(ref, {exps: (re, im)})
    return MultiPoly(n, ref), ref


def _assert_canonical(q: MultiPoly):
    nums = [v for c in q.terms.values() for v in c]
    assert q.denom >= 1 and math.gcd(q.denom, *nums) == 1
    assert all(c != (0, 0) for c in q.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 3))
def test_integer_arithmetic_matches_fraction_pairs(data, n):
    (a, ra), (b, rb), (c, rc) = (data.draw(_poly_pairs(n)) for _ in range(3))
    r = data.draw(_fractions)
    k = data.draw(st.integers(0, 3))
    neg_b = _ref_scale(rb, Fraction(-1), Fraction(0))
    power = {(0,) * n: (Fraction(1), Fraction(0))}
    for _ in range(k):
        power = _ref_mul(power, ra)
    cases = [(a + b, _ref_add(ra, rb)), (a - b, _ref_add(ra, neg_b)),
             (a * b, _ref_mul(ra, rb)), (a * r, _ref_scale(ra, r, 0)),
             (r * a, _ref_scale(ra, r, 0)), (a ** k, power),
             (a.laplacian(), _ref_laplacian(ra))]
    for got, want in cases:
        assert _coefficients(got) == want
        _assert_canonical(got)
    # the same value by different routes: equal, with equal hashes
    routes = [((a * b) * c, a * (b * c)),
              (a * Fraction(2, 4), (a * 2) * Fraction(1, 4)),
              (a * (Fraction(1, 2), 0), a * Fraction(1, 2)),
              (a - a, MultiPoly.zero(n)), (a + b - b, a),
              (MultiPoly(n, _coefficients(a)), a),
              (MultiPoly.from_text(a.to_text(), n=n), a)]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


# --------------------------------------------------------------------------
# dimension formulas against sympy nullspaces
# --------------------------------------------------------------------------

def _laplacian_power_matrix(n: int, m: int, p: int):
    """Sympy matrix of Delta^p from the degree-m monomials (columns, in
    ``_exponents`` order) to the degree m - 2p monomials (rows)."""
    symbols = sympy.symbols(f"x1:{n + 1}")
    monos = list(_exponents(n, m))
    targets = list(_exponents(n, m - 2 * p)) if m - 2 * p >= 0 else []
    if not targets:
        return sympy.zeros(0, len(monos))
    rows = []
    for exps in monos:
        expr = sympy.Integer(1)
        for s, e in zip(symbols, exps):
            expr *= s ** e
        for _ in range(p):
            expr = sum(sympy.diff(expr, s, 2) for s in symbols)
        poly = sympy.Poly(expr, *symbols)
        rows.append([poly.coeff_monomial(
            sympy.prod([s ** e for s, e in zip(symbols, t)]))
            for t in targets])
    return sympy.Matrix(rows).T


def _nullity_of_laplacian_power(n: int, m: int, p: int) -> int:
    mat = _laplacian_power_matrix(n, m, p)
    return mat.cols - mat.rank()


@pytest.mark.parametrize("n", [2, 3])
def test_dim_formulas_match_exact_nullspace(n):
    for m in range(9):
        assert dim_P(n, m) == len(list(_exponents(n, m)))
        assert dim_H(n, m) == _nullity_of_laplacian_power(n, m, 1)
        for p in (1, 2, 3):
            assert dim_Hp(n, m, p) == _nullity_of_laplacian_power(n, m, p)


def test_dim_Hp_truncates_to_dim_P_for_large_p():
    # once 2p exceeds m, every degree-m polynomial is p-harmonic
    assert dim_Hp(3, 4, 3) == dim_P(3, 4)
    assert dim_Hp(2, 5, 3) == dim_P(2, 5)


# --------------------------------------------------------------------------
# harmonic and polyharmonic bases
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(2, 0), (2, 3), (2, 6), (3, 2), (3, 4)])
def test_harmonic_basis_is_exactly_harmonic(n, m):
    basis = polyharmonic_basis(n, m, 1)
    assert len(basis) == dim_H(n, m)
    for b in basis:
        assert b.laplacian().coefficient_scale() == 0.0


@pytest.mark.parametrize("n,m,p", [(2, 4, 2), (3, 5, 2), (2, 6, 3)])
def test_polyharmonic_basis_is_exactly_annihilated(n, m, p):
    basis = polyharmonic_basis(n, m, p)
    assert len(basis) == dim_Hp(n, m, p)
    for b in basis:
        out = b
        for _ in range(p):
            out = out.laplacian()
        assert out.coefficient_scale() == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polyharmonic_basis_is_the_reduced_kernel_basis(n):
    # one element per free monomial x^alpha (alpha_1 < 2p), annihilated
    # exactly, with coefficient 1 there and 0 at every other free monomial
    for p in (1, 2, 3):
        for m in range(9 if n <= 3 else 7):
            free = [a for a in _exponents(n, m) if a[0] < 2 * p]
            basis = polyharmonic_basis(n, m, p)
            assert len(basis) == len(free) == dim_Hp(n, m, p)
            for own, b in zip(free, basis):
                assert is_polyharmonic(b, p), (m, p, own)
                assert [_coef(b, a) for a in free] \
                    == [(int(a == own), 0) for a in free], (m, p, own)


@pytest.mark.parametrize("n,max_m", [(2, 6), (3, 6), (4, 4)])
def test_polyharmonic_basis_equals_the_sympy_nullspace(n, max_m):
    # sympy's nullspace sets one free column to 1 and solves its reduced
    # echelon form for the pivots: the same basis, bit for bit
    monos = {m: list(_exponents(n, m)) for m in range(max_m + 1)}
    for p in (1, 2, 3):
        for m in range(max_m + 1):
            want = [MultiPoly(n, {
                monos[m][i]: Fraction(int(v.p), int(v.q))
                for i, v in enumerate(vec) if v})
                for vec in _laplacian_power_matrix(n, m, p).nullspace()]
            assert polyharmonic_basis(n, m, p) == want, (m, p)


def test_returned_bases_are_fresh_lists():
    for build in (lambda: polyharmonic_basis(3, 4, 2),
                  lambda: polyharmonic_basis(3, 4, 1)):
        first = build()
        want = list(first)
        first.reverse()
        first[0] = MultiPoly.zero(3)
        assert build() == want


# --------------------------------------------------------------------------
# Almansi decompositions
# --------------------------------------------------------------------------

def test_harmonic_almansi_of_x1_squared():
    q = MultiPoly.from_text("x1^2", n=2)
    comps = polyharmonic_almansi(q, 1)
    want0 = MultiPoly.from_text("1/2 x1^2 - 1/2 x2^2", n=2)
    want1 = MultiPoly.from_text("1/2", n=2)
    assert (comps[0] - want0).coefficient_scale() == 0.0
    assert (comps[1] - want1).coefficient_scale() == 0.0


def test_polyharmonic_almansi_of_x1_fourth_order_two():
    q = MultiPoly.from_text("x1^4", n=2)
    comps = polyharmonic_almansi(q, 2)
    radial_sq = MultiPoly.from_text("x1^2 + x2^2", n=2)
    want0 = q - radial_sq * radial_sq * MultiPoly.constant(2, Fraction(3, 8))
    assert (comps[0] - want0).coefficient_scale() == 0.0
    assert (comps[1] - MultiPoly.constant(2, Fraction(3, 8))
            ).coefficient_scale() == 0.0


def test_harmonic_almansi_reassembles_exactly():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5):
        for m in (3, 5, 8):
            q = random_homogeneous(n, m, rng)
            comps = polyharmonic_almansi(q, 1)
            assert len(comps) == m // 2 + 1
            for k, c in enumerate(comps):
                assert c.laplacian().coefficient_scale() == 0.0
                assert c.is_zero() or (c.is_homogeneous()
                                       and c.degree() == m - 2 * k)
            back = almansi_reassemble(comps, n, 1)
            assert (back - q).coefficient_scale() == 0.0


def _generic_harmonic_almansi(q: MultiPoly) -> list:
    """The ladder by generic MultiPoly products: each Horner step in |x|^2
    is one product with |x|^2, one scaling and one sum, each reduced."""
    n, m = q.n, q.degree()
    ladder = [q]
    for _ in range(m // 2):
        ladder.append(ladder[-1].laplacian())
    r2 = MultiPoly.radial_square(n)
    components = []
    for k in range(m // 2 + 1):
        d = m - 2 * k
        weights = [Fraction(1, math.prod(2 * i * (n + 2 * d + 2 * i - 2)
                                         for i in range(1, k + 1)))]
        for j in range(1, d // 2 + 1):
            weights.append(-weights[-1] / (2 * j * (n + 2 * d - 2 - 2 * j)))
        u = MultiPoly.zero(n)
        for j in reversed(range(len(weights))):
            u = r2 * u + ladder[k + j] * weights[j]
        components.append(u)
    return components


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_almansi_ladders_equal_the_generic_product_horner(n):
    # the numerator Horner of polyharmonic_almansi, at p = 1 and above,
    # against generic products, on Gaussian-rational data of degree 0-8
    rng = np.random.default_rng(180 + n)
    r2 = MultiPoly.radial_square(n)
    for m in range(9):
        for _ in range(2):
            scale = (Fraction(int(rng.integers(1, 9)),
                              int(rng.integers(1, 9))),
                     Fraction(int(rng.integers(-4, 5)), 7))
            q = random_homogeneous(n, m, rng) * scale
            want = _generic_harmonic_almansi(q)
            assert polyharmonic_almansi(q, 1) == want, (n, m)
            for p in (1, 2, 3):
                groups = []
                for start in range(0, len(want), p):
                    block = MultiPoly.zero(n)
                    for u in reversed(want[start:start + p]):
                        block = r2 * block + u
                    groups.append(block)
                assert polyharmonic_almansi(q, p) == groups, (n, m, p)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wide_order_blocks_equal_the_generic_product_grouping(n):
    # at orders 4 and 5 one block sum joins up to five harmonic components
    # of degree <= 8, against generic products of the generic ladder
    rng = np.random.default_rng(190 + n)
    r2 = MultiPoly.radial_square(n)
    for m in range(9):
        scale = (Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))),
                 Fraction(int(rng.integers(-4, 5)), 7))
        q = random_homogeneous(n, m, rng) * scale
        want = _generic_harmonic_almansi(q)
        for p in (4, 5):
            groups = []
            for start in range(0, len(want), p):
                block = MultiPoly.zero(n)
                for u in reversed(want[start:start + p]):
                    block = r2 * block + u
                groups.append(block)
            assert polyharmonic_almansi(q, p) == groups, (n, m, p)


def test_split_after_the_decomposition_builds_no_ladder(monkeypatch):
    # polyharmonic_split reuses the blocks polyharmonic_almansi just built
    rng = np.random.default_rng(59)
    calls = []
    laplacian = MultiPoly.laplacian

    def counted(self):
        calls.append(self.degree())
        return laplacian(self)

    for n, m, p in ((2, 7, 1), (3, 6, 2), (3, 8, 3)):
        q = random_homogeneous(n, m, rng)
        comps = polyharmonic_almansi(q, p)
        monkeypatch.setattr(MultiPoly, "laplacian", counted)
        head, rest = polyharmonic_split(q, p)
        monkeypatch.undo()
        assert not calls, (n, m, p)
        assert head == comps[0]
        assert rest == almansi_reassemble(comps[1:], n, p)


def test_poisson_polynomials_of_several_orders_share_one_ladder(monkeypatch):
    # hua-limit's orders of one u: after the first, each order applies only
    # the p Laplacians of its is_polyharmonic test
    rng = np.random.default_rng(61)
    q = random_homogeneous(3, 8, rng) + random_homogeneous(3, 5, rng)
    parts = q.homogeneous_components().values()
    want = {p: sum((c for part in parts
                    for c in polyharmonic_almansi(part, p)), MultiPoly.zero(3))
            for p in (1, 2, 3, 4)}
    assert polyalg.poisson_polynomial(q, 1) == want[1]
    calls = []
    laplacian = MultiPoly.laplacian

    def counted(self):
        calls.append(self.degree())
        return laplacian(self)

    monkeypatch.setattr(MultiPoly, "laplacian", counted)
    for p in (2, 3, 4):
        calls.clear()
        assert polyalg.poisson_polynomial(q, p) == want[p], p
        assert len(calls) == p, (p, calls)


def test_harmonic_almansi_keeps_zero_components():
    # a harmonic q: the ladder is [q, 0, 0, 0]
    q = MultiPoly.from_text("x1^6 - 15 x1^4 x2^2 + 15 x1^2 x2^4 - x2^6",
                            n=2)
    assert polyharmonic_almansi(q, 1) == [q] + [MultiPoly.zero(2)] * 3
    # |x|^4 x1 at n = 3: only the degree-1 component survives
    x1 = MultiPoly.monomial(3, (1, 0, 0))
    q = MultiPoly.radial_square(3) ** 2 * x1
    assert polyharmonic_almansi(q, 1) == [MultiPoly.zero(3),
                                          MultiPoly.zero(3), x1]
    assert polyharmonic_almansi(MultiPoly.zero(3), 1) == []


def test_polyharmonic_almansi_annihilates_and_reassembles():
    rng = np.random.default_rng(43)
    for n in (2, 3):
        for p in (2, 3):
            for m in (4, 7):
                q = random_homogeneous(n, m, rng)
                comps = polyharmonic_almansi(q, p)
                for c in comps:
                    out = c
                    for _ in range(p):
                        out = out.laplacian()
                    assert out.coefficient_scale() == 0.0
                back = almansi_reassemble(comps, n, p)
                assert (back - q).coefficient_scale() == 0.0


def test_almansi_uniqueness_by_perturbation():
    rng = np.random.default_rng(47)
    q = random_homogeneous(3, 6, rng)
    comps = polyharmonic_almansi(q, 1)
    bump = (polyharmonic_basis(3, comps[1].degree(), 1)[0]
            if comps[1].degree() >= 0 else MultiPoly.constant(3, 1))
    perturbed = list(comps)
    perturbed[1] = perturbed[1] + bump
    back = almansi_reassemble(perturbed, 3, 1)
    assert (back - q).coefficient_scale() != 0.0


def test_polyharmonic_split_is_exact_direct_sum():
    rng = np.random.default_rng(53)
    for n in (2, 3):
        for p in (1, 2):
            m = 2 * p + 3
            q = random_homogeneous(n, m, rng)
            head, rest = polyharmonic_split(q, p)
            out = head
            for _ in range(p):
                out = out.laplacian()
            assert out.coefficient_scale() == 0.0
            radial = MultiPoly.from_text(
                " + ".join(f"x{i + 1}^2" for i in range(n)), n=n)
            radial_p = MultiPoly.constant(n, 1)
            for _ in range(p):
                radial_p = radial_p * radial
            back = head + radial_p * rest
            assert (back - q).coefficient_scale() == 0.0


def test_is_polyharmonic_classifies_simple_cases():
    x1 = MultiPoly.from_text("x1", n=2)
    r2 = MultiPoly.from_text("x1^2 + x2^2", n=2)
    assert is_polyharmonic(x1, 1)
    assert not is_polyharmonic(r2, 1)
    assert is_polyharmonic(r2, 2)


def test_is_polyharmonic_stops_at_the_first_zero_laplacian(monkeypatch):
    # Delta^k q = 0 for every k > deg q / 2, so a huge p costs at most
    # floor(deg q / 2) + 1 Laplacians
    calls = []
    laplacian = MultiPoly.laplacian

    def counted(self):
        calls.append(self.degree())
        return laplacian(self)

    monkeypatch.setattr(MultiPoly, "laplacian", counted)
    r4 = MultiPoly.from_text("x1^4 + 2 x1^2 x2^2 + x2^4", n=2)
    for q, p, want, count in (
            (MultiPoly.from_text("x1^3", n=2), 100000, True, 2),
            (r4, 100000, True, 3), (r4, 2, False, 2), (r4, 3, True, 3),
            (MultiPoly.zero(2), 5, True, 0)):
        calls.clear()
        assert is_polyharmonic(q, p) is want
        assert len(calls) == count <= max(q.degree(), 0) // 2 + 1


def test_polyharmonic_almansi_requires_homogeneous_input():
    q = MultiPoly.from_text("x1^2 + x1", n=2)
    with pytest.raises(ValueError):
        polyharmonic_almansi(q, 1)
