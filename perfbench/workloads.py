"""Seeded request generator for the benchmark workloads.

Every workload is a fixed template of request shapes (command, n, p, degree,
point count, radius).  The seed only fills in the random parts: directions,
coefficients, sectors and suite seeds.  So the work per run stays the same
from seed to seed while no two requests of a run share a configuration.

The generator does not use polyball.  Boundary polynomials are built here as
sums of |x|^{2j} h_j with h_j harmonic, and each request carries the values
an independent oracle expects (polynomial values at the points, dimension
counts), computed by the small exact polynomial code below.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("solve", "reproduce", "algebra")

# Reference seconds one template takes (see calibrate.py); a run repeats the
# template round(seconds / PASS_SECONDS) times, and until it holds
# MIN_REQUESTS, so that at least ten request times lie beyond the 90th
# percentile.  The single gegenbauer request of algebra (about 6.5 s) is
# not part of its template.
PASS_SECONDS = {"solve": 7.0, "reproduce": 10.0, "algebra": 6.5}
MIN_REQUESTS = 100


@dataclass(frozen=True)
class Request:
    """One CLI request: the command, its config and what an oracle expects.

    ``label`` names the request's shape: requests with the same label do the
    same work up to their random values.

    ``oracle`` holds values computed without polyball: ``values`` (complex
    pairs, one per dirichlet point), ``reference`` (the hua-limit u(z)),
    ``dims`` (dim_P, dim_H, dim_Hp per dims degree) or ``degree`` (of the
    almansi polynomial).
    """

    label: str
    command: str
    config: dict
    oracle: dict = field(default_factory=dict)

    def key(self) -> str:
        return self.command + " " + json.dumps(self.config, sort_keys=True)


# --------------------------------------------------------------------------
# exact polynomials: {exponent tuple: (Fraction re, Fraction im)}
# --------------------------------------------------------------------------

def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, (re, im) in b.items():
        r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (r0 + re, i0 + im)
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, (r1, i1) in a.items():
        for e2, (r2, i2) in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _unit_exps(n: int, i: int, power: int = 1) -> tuple:
    return tuple(power if j == i else 0 for j in range(n))


def _constant(n: int, re, im=0) -> dict:
    return {(0,) * n: (Fraction(re), Fraction(im))}


def _radial_square(n: int) -> dict:
    return {_unit_exps(n, i, 2): (Fraction(1), Fraction(0)) for i in range(n)}


def _holomorphic_power(n: int, a: int, b: int, k: int) -> dict:
    """(x_a + i x_b)^k, harmonic in every dimension."""
    out = {}
    for j in range(k + 1):
        exps = [0] * n
        exps[a] += k - j
        exps[b] += j
        c = math.comb(k, j)
        unit = (1, 0, -1, 0)[j % 4], (0, 1, 0, -1)[j % 4]  # i^j
        out[tuple(exps)] = (Fraction(c * unit[0]), Fraction(c * unit[1]))
    return {e: v for e, v in out.items() if v[0] or v[1]}


def _power(a: dict, n: int, k: int) -> dict:
    out = _constant(n, 1)
    for _ in range(k):
        out = _mul(out, a)
    return out


def degree(poly: dict) -> int:
    return max((sum(e) for e in poly), default=-1)


def evaluate(poly: dict, z) -> complex:
    """Value at a complex point, term by term in double precision."""
    total = 0j
    for exps, (re, im) in poly.items():
        term = complex(float(re), float(im))
        for zi, e in zip(z, exps):
            term *= zi ** e
        total += term
    return total


def _coef_text(re: Fraction, im: Fraction) -> str:
    return str(re) if im == 0 else f"({re},{im})"


def to_text(poly: dict) -> str:
    """Polynomial text in the CLI grammar, highest degree first."""
    parts = []
    for exps in sorted(poly, key=lambda e: (-sum(e), e)):
        factors = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        coef = _coef_text(*poly[exps])
        parts.append(f"{coef} * {factors}" if factors else coef)
    return " + ".join(parts) if parts else "0"


# --------------------------------------------------------------------------
# random pieces
# --------------------------------------------------------------------------

def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([k for k in range(-9, 10) if k]),
                    rng.randint(1, 9))


def _complex_fraction(rng: random.Random) -> tuple:
    return (_fraction(rng), _fraction(rng) if rng.random() < 0.5
            else Fraction(0))


def _unit(rng: random.Random, n: int) -> list:
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def _harmonic(rng: random.Random, n: int, deg: int) -> dict:
    """Random harmonic polynomial of exact degree ``deg``: sums of
    c (x_a + i x_b)^k, times a third coordinate x_c when n >= 3."""
    if deg == 0:
        return _constant(n, *_complex_fraction(rng))
    out: dict = {}
    while degree(out) != deg:
        a, b = rng.sample(range(n), 2)
        others = [c for c in range(n) if c not in (a, b)]
        if others and deg >= 2 and rng.random() < 0.5:
            piece = _mul(_holomorphic_power(n, a, b, deg - 1),
                         {_unit_exps(n, rng.choice(others)):
                          (Fraction(1), Fraction(0))})
        else:
            piece = _holomorphic_power(n, a, b, deg)
        out = _add(out, _mul(piece, {(0,) * n: _complex_fraction(rng)}))
    return out


def polyharmonic(rng: random.Random, n: int, p: int, deg: int) -> dict:
    """Random p-harmonic polynomial of degree ``deg``:
    sum_{j<p} |x|^{2j} h_j with h_j harmonic of degree deg - 2j, plus a
    harmonic term of lower degree so the data are not homogeneous."""
    q = _harmonic(rng, n, deg)
    if deg >= 1:
        q = _add(q, _harmonic(rng, n, rng.randrange(deg)))
    r2 = _radial_square(n)
    for j in range(1, p):
        if deg - 2 * j < 0:
            break
        q = _add(q, _mul(_power(r2, n, j), _harmonic(rng, n, deg - 2 * j)))
    return q


def _homogeneous(rng: random.Random, n: int, deg: int) -> dict:
    """Random real rational homogeneous polynomial, about half the
    monomials of the degree present."""
    out: dict = {}
    while not out:
        for exps in _monomials(n, deg):
            if rng.random() < 0.5:
                out[exps] = (_fraction(rng), Fraction(0))
    return out


def _monomials(n: int, deg: int) -> list:
    if n == 1:
        return [(deg,)]
    return [(e,) + rest for e in range(deg, -1, -1)
            for rest in _monomials(n - 1, deg - e)]


def _lie_norm(z) -> float:
    h2 = sum(abs(c) ** 2 for c in z)
    zz = sum(c * c for c in z)
    return math.sqrt(h2 + math.sqrt(max(h2 * h2 - abs(zz) ** 2, 0.0)))


def _sector_point(coords, j: int, p: int) -> list:
    phase = cmath.exp(1j * j * math.pi / p)
    return [phase * c for c in coords]


def dims_expected(n: int, p: int, m: int) -> tuple:
    def dim_p(mm):
        return math.comb(n + mm - 1, n - 1) if mm >= 0 else 0
    return dim_p(m), dim_p(m) - dim_p(m - 2), dim_p(m) - dim_p(m - 2 * p)


# --------------------------------------------------------------------------
# request builders
# --------------------------------------------------------------------------

def dirichlet(rng, n: int, p: int, deg: int, count: int,
              radius: float = 0.8) -> Request:
    """Points spread over the sectors with radius <= ``radius``; the first
    point sits at ``radius`` so the rule size depends on the shape only."""
    q = polyharmonic(rng, n, p, deg)
    points, sectors, values = [], [], []
    for k in range(count):
        r = radius if k == 0 else radius * math.sqrt(rng.uniform(0.02, 1.0))
        coords = [r * c for c in _unit(rng, n)]
        j = k % p
        points.append(coords)
        sectors.append(j)
        v = evaluate(q, _sector_point(coords, j, p))
        values.append([v.real, v.imag])
    return Request(f"dirichlet n={n} p={p} deg={deg} points={count}",
                   "dirichlet",
                   {"n": n, "p": p, "boundary": to_text(q),
                    "points": points, "sectors": sectors},
                   {"values": values})


def hua_limit(rng, n: int, lie: float, deg: int = 3) -> Request:
    u: dict = {}
    while degree(u) != deg:
        exps = rng.choice(_monomials(n, rng.randint(1, deg)))
        u = _add(u, {exps: _complex_fraction(rng)})
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    scale = lie / _lie_norm(z)
    z = [scale * c for c in z]
    ref = evaluate(u, z)
    return Request(f"hua-limit n={n} lie={lie:g}", "hua-limit",
                   {"n": n, "u": to_text(u),
                    "z": [[c.real, c.imag] for c in z]},
                   {"reference": [ref.real, ref.imag]})


def kernel(rng, n: int, p: int, pairs: int = 16) -> Request:
    """Pairs with x at radii spread evenly over [0.05, 0.8]."""
    entries = []
    for k in range(pairs):
        r = 0.05 + 0.75 * k / max(pairs - 1, 1)
        entries.append({"x": [r * c for c in _unit(rng, n)],
                        "zeta": _unit(rng, n),
                        "x_sector": rng.randrange(p),
                        "zeta_sector": rng.randrange(p)})
    return Request(f"kernel n={n} p={p}", "kernel",
                   {"n": n, "p": p, "pairs": entries,
                    "degrees": list(range(9)),
                    "kernels": ["zonal", "poisson", "hua"]})


def verify(rng, n: int, p: int, suite: str) -> Request:
    return Request(f"verify {suite} n={n} p={p}", "verify",
                   {"n": n, "p": p, "seed": rng.randrange(2 ** 62),
                    "suites": [suite]})


def almansi(rng, n: int, p: int, deg: int) -> Request:
    return Request(f"almansi n={n} deg={deg}", "almansi",
                   {"n": n, "p": p,
                    "polynomial": to_text(_homogeneous(rng, n, deg))},
                   {"degree": deg})


def dims(rng) -> Request:
    n = rng.randint(2, 8)
    p = rng.randint(1, 4)
    degrees = sorted(rng.sample(range(40), 8))
    return Request("dims", "dims", {"n": n, "p": p, "degrees": degrees},
                   {"dims": [list(dims_expected(n, p, m)) for m in degrees]})


# --------------------------------------------------------------------------
# templates
# --------------------------------------------------------------------------

def _solve_pass(rng) -> list:
    out = []
    for n, shapes in ((2, ((1, 4, 16, 9), (2, 5, 24, 9), (3, 6, 32, 9))),
                      (3, ((1, 3, 16, 6), (2, 4, 16, 8), (3, 5, 16, 6)))):
        for p, deg, points, count in shapes:
            out += [dirichlet(rng, n, p, deg, points) for _ in range(count)]
    for n, lie, count in ((2, 0.3, 5), (2, 0.6, 5), (3, 0.3, 5), (3, 0.6, 4)):
        out += [hua_limit(rng, n, lie) for _ in range(count)]
    for n in (2, 3, 4, 5):
        for p in (1, 2, 3):
            out += [kernel(rng, n, p) for _ in range(3)]
    return out


def _reproduce_pass(rng) -> list:
    out = []
    for n, ps in ((2, (1, 2, 3)), (3, (1,))):
        for p in ps:
            for suite in ("far-cap", "sector-integrals", "orthogonality"):
                out += [verify(rng, n, p, suite) for _ in range(4)]
    for p in (1, 2, 3):
        out += [verify(rng, 2, p, "reproduction") for _ in range(12)]
        out += [verify(rng, 2, p, "hua-reproduction") for _ in range(5)]
    out.append(verify(rng, 3, 1, "reproduction"))
    return out


def _algebra_pass(rng) -> list:
    out = []
    for n, deg in ((3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 4), (5, 5)):
        out += [almansi(rng, n, 1 + k % 3, deg) for k in range(6)]
    out += [dims(rng) for _ in range(30)]
    for p in (1, 2, 3):
        out += [verify(rng, 2, p, "diagonal-dim") for _ in range(8)]
    out += [verify(rng, 2, 2, "almansi") for _ in range(4)]
    return out


_PASSES = {"solve": _solve_pass, "reproduce": _reproduce_pass,
           "algebra": _algebra_pass}


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def build(workload: str, seed: int, seconds: float) -> list:
    """The run's request list: the workload template repeated to fill
    ``seconds`` on the reference machine, shuffled, every config distinct.
    The algebra workload adds exactly one seed-free ``verify gegenbauer``."""
    if workload not in _PASSES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = rng_for(workload, seed, "requests")
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    requests = []
    while passes > 0 or len(requests) < MIN_REQUESTS:
        requests += _PASSES[workload](rng)
        passes -= 1
    if workload == "algebra":
        requests.append(verify(rng, 2, 1, "gegenbauer"))
    rng.shuffle(requests)
    require_distinct(requests)
    return requests


def warmups(workload: str, seed: int) -> list:
    """One small request of each command kind the workload uses."""
    rng = rng_for(workload, seed, "warmup")
    if workload == "solve":
        return [dirichlet(rng, 2, 1, 2, 4), hua_limit(rng, 2, 0.4),
                kernel(rng, 2, 1, pairs=2)]
    if workload == "reproduce":
        return [verify(rng, 2, 1, "sector-integrals")]
    if workload == "algebra":
        return [almansi(rng, 3, 1, 4), dims(rng),
                verify(rng, 2, 1, "diagonal-dim")]
    raise ValueError(f"unknown workload {workload!r}")


def require_distinct(requests: list):
    seen = set()
    for req in requests:
        key = req.key()
        if key in seen:
            raise RuntimeError(f"generator repeated a config: {req.label}")
        seen.add(key)
