"""Quadrature on unit spheres, rotated-sphere unions, and the Lie sphere.

Rules are deterministic per (n, resolution, seed):

* n = 2: the N-point uniform angle grid, exact for polynomial degree N - 1.
* n = 3: (Gauss-Legendre in the polar cosine) x (uniform azimuth with 2L
  angles), exact for total degree 2L - 1.
* n >= 4: seeded Monte Carlo on the sphere; ``exactness`` is reported as 0
  and accuracy is statistical only.

All surface measures are normalized (total mass 1).  Integral reductions go
through ``compensated_sum``, a vectorized Sum2 (Ogita, Rump, Oishi, SIAM J.
Sci. Comput. 26(6), 2005): deterministic, and as accurate as a sum carried
in twice the working precision; each product term keeps its own rounding.
Sums over rotated copies reduce along the node axis first, then across
the copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "SphereRule",
    "LieSphereRule",
    "sphere_rule",
    "lie_sphere_rule",
    "resolution_for_exactness",
    "compensated_sum",
    "sphere_integral",
    "weighted_dot",
    "rotated_inner_product",
    "lie_sphere_integral",
    "rule_to_json",
    "rule_from_json",
]


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Nodes (R, n) on the unit sphere with positive weights summing to 1."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    kind: str
    resolution: int
    seed: int | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.n:
            raise ValueError("nodes must have shape (R, n)")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("weights must have shape (R,)")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def count(self) -> int:
        return self.nodes.shape[0]

    def doubled(self) -> "SphereRule":
        """Same family at twice the resolution (convergence checks)."""
        return sphere_rule(self.n, 2 * self.resolution, seed=self.seed)


@dataclass(frozen=True, eq=False)
class LieSphereRule:
    """Product of a sphere rule with A uniform angles a*pi/A on [0, pi).

    Functions on the Lie sphere are sampled at e^{i*angle} * node; the
    angular grid integrates trigonometric degree up to 2A - 1 in the phase
    (only even frequencies survive spatially, so A angles on a half-turn
    behave like 2A on a full turn).
    """

    base: SphereRule
    angular: int

    def __post_init__(self):
        if self.angular < 4:
            raise ValueError("angular resolution must be >= 4")

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.angular) * (math.pi / self.angular)


def sphere_rule(n: int, resolution: int, seed: int | None = None) -> SphereRule:
    """Deterministic rule on S^{n-1}; see module docstring for families."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    if n == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(resolution, 1.0 / resolution)
        return SphereRule(n, nodes, weights, resolution - 1, "trapezoid",
                          resolution)
    if n == 3:
        u, v = leggauss(resolution)
        m_az = 2 * resolution
        phi = 2.0 * math.pi * np.arange(m_az) / m_az
        s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        nodes = np.empty((resolution * m_az, 3))
        weights = np.empty(resolution * m_az)
        for i in range(resolution):
            rows = slice(i * m_az, (i + 1) * m_az)
            nodes[rows, 0] = s[i] * np.cos(phi)
            nodes[rows, 1] = s[i] * np.sin(phi)
            nodes[rows, 2] = u[i]
            weights[rows] = v[i] / (2.0 * m_az)
        return SphereRule(n, nodes, weights, 2 * resolution - 1,
                          "gauss-product", resolution)
    rng = np.random.default_rng(0 if seed is None else seed)
    raw = rng.standard_normal((resolution, n))
    nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.full(resolution, 1.0 / resolution)
    return SphereRule(n, nodes, weights, 0, "monte-carlo", resolution,
                      seed=0 if seed is None else seed)


def resolution_for_exactness(n: int, degree: int) -> int:
    """Smallest resolution whose rule integrates the given degree exactly."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n == 2:
        return max(degree + 1, 4)
    if n == 3:
        return max(math.ceil((degree + 1) / 2), 4)
    raise ValueError("no deterministic rule for n >= 4")


def lie_sphere_rule(base: SphereRule, angular: int) -> LieSphereRule:
    return LieSphereRule(base, int(angular))


# --------------------------------------------------------------------------
# reductions
# --------------------------------------------------------------------------

def compensated_sum(values, axis=None):
    """Sum2 of complex values along ``axis`` (flattened, to a complex, when
    None).  A binary tree adds neighbouring pairs and keeps each exact
    rounding error (TwoSum); a second tree adds the errors, and one final
    rounding joins the two.  With h = ceil(log2 N), each of the real and
    imaginary parts obeys |result - S| <= u|S| + 2 h^2 u^2 sum|terms|
    (u = 2^-53).  The tree depends on N alone, so other axes can be split or
    batched without changing a bit.
    """
    arr = np.asarray(values, dtype=complex)
    if axis is None:
        arr = arr.reshape(-1)
    elif axis not in (-1, arr.ndim - 1):
        arr = np.moveaxis(arr, axis, -1)
    if not arr.shape[-1]:  # an empty sum is one exact zero
        arr = np.zeros(arr.shape[:-1] + (1,), dtype=complex)
    s, c = arr, None
    while s.shape[-1] > 1:
        if s.shape[-1] % 2:  # pad with an exact zero
            zero = np.zeros(s.shape[:-1] + (1,), dtype=complex)
            s = np.concatenate((s, zero), axis=-1)
            c = None if c is None else np.concatenate((c, zero), axis=-1)
        a, b = s[..., 0::2], s[..., 1::2]
        s = a + b
        z = s - a
        e = (a - (s - z)) + (b - z)
        c = e if c is None else c[..., 0::2] + c[..., 1::2] + e
    total = s[..., 0] if c is None else s[..., 0] + c[..., 0]
    return complex(total) if axis is None else np.array(total)  # no view


def _values_on(rule: SphereRule, f) -> np.ndarray:
    values = f(rule.nodes) if callable(f) else np.asarray(f)
    values = np.asarray(values, dtype=complex)
    if values.shape != (rule.count,):
        raise ValueError("values must match the rule's node count")
    return values


def sphere_integral(f, rule: SphereRule) -> complex:
    """Integral over the unit sphere (normalized measure).

    ``f`` is a callable taking the (R, n) node array, or a length-R value
    array.
    """
    values = _values_on(rule, f)
    return compensated_sum(rule.weights * values)


def weighted_dot(rule: SphereRule, u, v) -> complex:
    """<u, v>_S = integral of u * conj(v) for node-value arrays u, v."""
    return compensated_sum(rule.weights * np.asarray(u, dtype=complex)
                           * np.conj(np.asarray(v, dtype=complex)))


def _sector_values(f, j: int, rule: SphereRule) -> np.ndarray:
    if hasattr(f, "sector_values"):
        values = f.sector_values(j, rule)
    else:
        values = f(j, rule.nodes)
    values = np.asarray(values, dtype=complex)
    if values.shape != (rule.count,):
        raise ValueError("sector values must match the rule's node count")
    return values


def rotated_inner_product(f, g, p: int, rule: SphereRule) -> complex:
    """Hermitian inner product over the union of p rotated spheres.

    (1/p) sum_j integral_S f(e^{ij pi/p} zeta) conj(g(e^{ij pi/p} zeta)).
    ``f`` and ``g`` are either callables (j, nodes) -> values or objects
    with a ``sector_values(j, rule)`` method.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    fv = np.array([_sector_values(f, j, rule) for j in range(p)])
    gv = np.array([_sector_values(g, j, rule) for j in range(p)])
    return compensated_sum(compensated_sum(
        rule.weights * fv * np.conj(gv), axis=-1)) / p


def lie_sphere_integral(F, rule: LieSphereRule) -> complex:
    """Average of F over the Lie sphere using the product rule.

    ``F`` is a callable taking an (M, n) complex array of points
    e^{i angle} * node, for every angle and node of the rule at once
    (angle-major), and returning one value per point.
    """
    base = rule.base
    phases = np.exp(1j * rule.angles)
    pts = (phases[:, None, None] * base.nodes).reshape(-1, base.n)
    values = np.asarray(F(pts), dtype=complex)
    if values.shape != (pts.shape[0],):
        raise ValueError("values must match the rule's point count")
    values = values.reshape(rule.angular, base.count)
    return compensated_sum(compensated_sum(
        base.weights * values, axis=-1)) / rule.angular


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def rule_to_json(rule) -> dict:
    """JSON-ready dict; node/weight floats survive round-trip bit-exactly."""
    if isinstance(rule, LieSphereRule):
        return {
            "type": "lie-sphere",
            "angular": rule.angular,
            "base": rule_to_json(rule.base),
        }
    if isinstance(rule, SphereRule):
        return {
            "type": "sphere",
            "n": rule.n,
            "kind": rule.kind,
            "resolution": rule.resolution,
            "exactness": rule.exactness,
            "seed": rule.seed,
            "nodes": [list(row) for row in rule.nodes.tolist()],
            "weights": rule.weights.tolist(),
        }
    raise TypeError(f"not a rule: {type(rule).__name__}")


def rule_from_json(data: dict):
    if data.get("type") == "lie-sphere":
        return LieSphereRule(rule_from_json(data["base"]), data["angular"])
    if data.get("type") == "sphere":
        return SphereRule(
            n=data["n"],
            nodes=np.array(data["nodes"], dtype=float),
            weights=np.array(data["weights"], dtype=float),
            exactness=data["exactness"],
            kind=data["kind"],
            resolution=data["resolution"],
            seed=data.get("seed"),
        )
    raise ValueError("unrecognized rule serialization")
