"""Quadrature rules on unit spheres and the Lie sphere, and their reductions.

Rules are deterministic per (n, resolution):

* n = 2: the N-point uniform angle grid, exact for polynomial degree N - 1.
* n >= 3: the recursive Gauss-Gegenbauer product rule (Stroud, 1971),
  exact for total degree 2L - 1: a node of S^{k-1} is (sqrt(1 - t^2) y, t)
  for y a node of S^{k-2} and t one of L Gauss nodes of the weight
  (1 - t^2)^{(k-3)/2}, down to the uniform circle with 2L angles (at n = 3,
  Gauss-Legendre x azimuth).  Its 2 L^{n-1} nodes are capped up front.
  Each polar Gauss rule is computed once per process and shared, read-only;
  every ``sphere_rule`` call still assembles a fresh ``SphereRule``.

All surface measures are normalized (total mass 1).  Integral reductions go
through ``compensated_sum``, a vectorized Sum2 (Ogita, Rump, Oishi, SIAM J.
Sci. Comput. 26(6), 2005): deterministic, and as accurate as a sum carried
in twice the working precision; each product term keeps its own rounding.
Sums over rotated copies of the sphere (the rotated sectors and Lie-sphere
angles in ``solver``) reduce along the node axis first, then across the
copies.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SphereRule",
    "LieSphereRule",
    "sphere_rule",
    "lie_sphere_rule",
    "resolution_for_exactness",
    "compensated_sum",
    "rule_to_json",
    "rule_from_json",
]

# Most nodes a sphere rule, or points a Lie-sphere rule, may hold.
_MAX_NODES = 1 << 21


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Nodes (R, n) on the unit sphere with positive weights summing to 1."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    kind: str
    resolution: int

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
        if self.angular * self.base.count > _MAX_NODES:
            raise ValueError(f"{self.angular} angles exceed the node cap")

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.angular) * (math.pi / self.angular)


@lru_cache(maxsize=None)
def _polar_rule(k: int, count: int) -> tuple:
    """Gauss nodes (ascending) and normalized weights for the weight
    (1 - t^2)^a, a = (k - 3)/2, of the polar cosine of S^{k-1}.

    Golub-Welsch (Math. Comp. 23, 1969): eigenvalues of the Jacobi matrix
    with off-diagonal sqrt(j (j + 2a) / ((2j + 2a - 1) (2j + 2a + 1))), and
    weights 1 / sum_{j<L} p_j^2 over the orthonormal p_j (the squared first
    eigenvector components, whose LAPACK path leaves BLAS threads spinning).
    One Newton step polishes each node to ~1 ulp, as nodes near the poles need.

    The only LAPACK call in the package.  It is cached, so it runs once per
    (k, count) per process and the BLAS threads it wakes do not spin after
    every request; the node cap bounds the pairs, and the arrays handed to
    every caller are read-only.
    """
    a = 0.5 * (k - 3)
    j = np.arange(1, count)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a) ** 2 - 1))
    t = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    # b_j p_j = t p_{j-1} - b_{j-1} p_{j-2}; the scale of p_count is free
    p_prev, p, d_prev, d, norm = 0.0 * t, 1.0 + 0.0 * t, 0.0 * t, 0.0 * t, 0.0
    for b_prev, b in zip(np.r_[0.0, off], np.r_[off, 1.0]):
        norm = norm + p * p
        p_prev, p, d_prev, d = (p, (t * p - b_prev * p_prev) / b,
                                d, (p + t * d - b_prev * d_prev) / b)
    nodes, weights = t - p / d, 1.0 / norm
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def sphere_rule(n: int, resolution: int) -> SphereRule:
    """Deterministic rule on S^{n-1}; see module docstring for families."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    m = resolution if n == 2 else 2 * resolution  # circle angles
    # resolution >= 4: the exponent 22 already passes the cap at any n
    if m * resolution ** min(n - 2, 22) > _MAX_NODES:
        raise ValueError(f"n={n}, resolution {resolution}: over the node cap")
    theta = 2.0 * math.pi * np.arange(m) / m
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(m, 1.0 / m)
    for k in range(3, n + 1):  # S^{k-2} -> S^{k-1}, polar index outermost
        t, w = _polar_rule(k, resolution)
        s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        nodes = np.column_stack([np.kron(s[:, None], nodes),
                                 np.repeat(t, len(nodes))])
        weights = np.kron(w, weights)
    return SphereRule(n, nodes, weights, m - 1,
                      "trapezoid" if n == 2 else "gauss-product", resolution)


def resolution_for_exactness(n: int, degree: int) -> int:
    """Smallest resolution whose rule integrates the given degree exactly."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n == 2:
        return max(degree + 1, 4)
    return max(math.ceil((degree + 1) / 2), 4)


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


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _digest(rule: SphereRule) -> str:
    """SHA-256 of the little-endian float64 nodes, then weights."""
    digest = hashlib.sha256(rule.nodes.astype("<f8").tobytes())
    digest.update(rule.weights.astype("<f8").tobytes())
    return digest.hexdigest()


def rule_to_json(rule) -> dict:
    """JSON-ready record of a rule: a sphere rule is a pure function of
    (n, resolution), recorded with a digest of its nodes and weights so
    that a platform whose rebuilt rule differs in any bit is detected."""
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
            "count": rule.count,
            "sha256": _digest(rule),
        }
    raise TypeError(f"not a rule: {type(rule).__name__}")


def rule_from_json(data: dict):
    """Rebuild a rule from its ``rule_to_json`` record.  ValueError when a
    key is missing or the rebuilt rule's kind, exactness, count or digest
    differs from the record."""
    try:
        if data.get("type") == "lie-sphere":
            return LieSphereRule(rule_from_json(data["base"]), data["angular"])
        if data.get("type") != "sphere":
            raise ValueError("unrecognized rule serialization")
        record = (data["kind"], data["exactness"], data["count"],
                  data["sha256"])
        rule = sphere_rule(data["n"], data["resolution"])
    except KeyError as err:
        raise ValueError(f"rule record lacks {err}") from err
    if (rule.kind, rule.exactness, rule.count, _digest(rule)) != record:
        raise ValueError("the rebuilt rule differs from its record")
    return rule
