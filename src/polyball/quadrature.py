"""Quadrature rules on unit spheres and the Lie sphere, and their reductions.

Rules are deterministic per (n, resolution):

* n = 2: the N-point uniform angle grid, exact for polynomial degree N - 1.
* n >= 3: the recursive Gauss-Gegenbauer product rule (Stroud, 1971),
  exact for total degree 2L - 1: a node of S^{k-1} is (sqrt(1 - t^2) y, t)
  for y a node of S^{k-2} and t one of L Gauss nodes of the weight
  (1 - t^2)^{(k-3)/2}, down to the uniform circle with 2L angles (at n = 3,
  Gauss-Legendre x azimuth).  Its 2 L^{n-1} nodes are capped up front.
  An ``azimuth`` resolution A <= L gives the S^{n-2} factor y resolution A
  instead (exact for degree 2A - 1, 2 A^{n-2} nodes), while the polar factor
  of the last coordinate keeps its L nodes: the template of a pole-aligned
  rule (``solver.aligned_rule``).
  Each polar Gauss rule is computed once per process and shared, read-only;
  every ``sphere_rule`` call still assembles a fresh ``SphereRule``.

All surface measures are normalized (total mass 1).  ``compensated_sum`` is
a vectorized Sum2 (Ogita, Rump, Oishi, SIAM J. Sci. Comput. 26(6), 2005):
deterministic, and as accurate as a sum carried in twice the working
precision.  The node sums of ``solver`` are exact sliced matrix products
(Ozaki, Ogita, Oishi, Rump, Numer. Algorithms 59, 2012): ``_split`` cuts
each complex row, both parts on one scale from its largest part, into
complex slices whose every product sum is exact; ``_matmul`` multiplies
them in BLAS products small enough to run on the calling thread, so no
bit depends on BLAS blocking or threads; and ``_sliced_sums`` joins the k^2
exact slice-pair sums with ``compensated_sum``.  Each real and imaginary
part is then off by at most u|S| plus about u/22 R M_K M_V for R nodes and
row maxima M_K, M_V (the bound is in ``_sliced_sums``).  A sum over rotated
copies of the sphere (the rotated sectors and Lie-sphere angles) takes
groups of consecutive copies as one row of nodes, then joins the groups.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import _require_nodes

__all__ = [
    "SphereRule",
    "LieSphereRule",
    "sphere_rule",
    "resolution_for_exactness",
    "compensated_sum",
    "rule_to_json",
    "rule_from_json",
]


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Nodes (R, n) on the unit sphere with positive weights summing to 1.
    ``azimuth`` is the resolution of the S^{n-2} factor of a pole-aligned
    template, None for a rule of one resolution."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    kind: str
    resolution: int
    azimuth: int | None = None

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
    """Product of a sphere rule with A uniform angles a*pi/A on [0, pi):
    functions on the Lie sphere are sampled at e^{i*angle} * node.
    ``solver.choose_lie_rule`` sizes both factors from a proven bound."""

    base: SphereRule
    angular: int

    def __post_init__(self):
        if self.angular < 4:
            raise ValueError("angular resolution must be >= 4")
        _require_nodes(f"{self.angular} angles",
                       self.angular * self.base.count, "Lie-sphere nodes")

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


def sphere_rule(n: int, resolution: int,
                azimuth: int | None = None) -> SphereRule:
    """Deterministic rule on S^{n-1}; see module docstring for families.
    ``azimuth`` (n >= 3, 1 <= azimuth <= resolution) is the resolution of
    the S^{n-2} factor.  The node cap applies to the rule of one resolution
    ``resolution`` whatever the azimuth, which bounds the L x L Jacobi
    matrix of the polar factor and the n levels of the product."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    inner = resolution if azimuth is None else azimuth
    if azimuth is not None and not (n >= 3 and 1 <= azimuth <= resolution):
        raise ValueError("azimuth needs n >= 3 and 1 <= azimuth <= resolution")
    _rule_count(n, resolution, azimuth)
    m = resolution if n == 2 else 2 * inner  # circle angles
    theta = 2.0 * math.pi * np.arange(m) / m
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(m, 1.0 / m)
    for k in range(3, n + 1):  # S^{k-2} -> S^{k-1}, polar index outermost
        t, w = _polar_rule(k, resolution if k == n else inner)
        s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        nodes = np.column_stack([np.kron(s[:, None], nodes),
                                 np.repeat(t, len(nodes))])
        weights = np.kron(w, weights)
    return SphereRule(n, nodes, weights, m - 1,
                      "trapezoid" if n == 2 else "gauss-product", resolution,
                      azimuth)


def _rule_count(n: int, resolution: int, azimuth: int | None = None) -> int:
    """The 2 A^{n-2} L nodes of ``sphere_rule(n, L, A)`` (A = L by default,
    L at n = 2), once its rule of one resolution passes the node cap."""
    # resolution >= 4, so the exponent 23 already passes the cap at any n
    _require_nodes(f"n={n}, resolution {resolution}",
                   (1 if n == 2 else 2) * resolution ** min(n - 1, 23),
                   "nodes" if n <= 24 else "or more nodes")
    return (1 if n == 2 else 2) * (azimuth or resolution) ** (n - 2) \
        * resolution


def resolution_for_exactness(n: int, degree: int) -> int:
    """Smallest resolution whose rule integrates the given degree exactly."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n == 2:
        return max(degree + 1, 4)
    return max(math.ceil((degree + 1) / 2), 4)


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
    batched without changing a bit.  Zeros appended up to the next power of
    two change no bit either: the tree pads each odd level with one zero,
    and a pair of zeros adds to an exact zero with a zero error.
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
        e = s - z  # e = (a - (s - z)) + (b - z), in place
        np.subtract(a, e, out=e)
        np.subtract(b, z, out=z)
        e += z
        if c is not None:
            e += c[..., 0::2] + c[..., 1::2]
        c = e
    total = s[..., 0] if c is None else s[..., 0] + c[..., 0]
    return complex(total) if axis is None else np.array(total)  # no view


# Most multiply-adds m*n*k of one complex matrix product.  OpenBLAS runs a
# complex product below 2^16 multiply-adds (a float64 one up to 2^18) on
# the calling thread; a larger one wakes worker threads that spin after it
# returns.
_GEMM_SIZE = (1 << 16) - 1

# Least number of bits the slices of one factor carry: the dropped
# remainder of every part is at most 2^(1 - 60) = u/64 of the row's
# largest part.
_SLICE_BITS = 60


def _slicing(count: int) -> tuple:
    """(width, slices) for sums of ``count`` products.  With
    L = ceil(log2 count), width w = floor((53 - L) / 2) makes every sum of
    at most ``count`` slice products exact (see ``_split``); the number of
    slices is the least k with k w >= 60: 3 up to 2^13 terms, 4 up to the
    2^21 node cap."""
    width = (53 - (count - 1).bit_length()) // 2
    return width, -(-_SLICE_BITS // width)


def _split(values, width: int, slices: int) -> np.ndarray:
    """Error-free complex slices of complex ``values`` (..., R): an array
    (..., slices, R) whose rows along axis -2 are z_1..z_k.

    Both parts of a row are cut on one grid, one bit above the row's
    largest part: with max_r max(|Re z_r|, |Im z_r|) in [2^(e-1), 2^e),
    each part is cut by the rounding of (x + sigma) - sigma with
    sigma = 1.5 * 2^(e + 53 - j w), so slice j is z_j = N_j 2^(e + 1 - j w)
    for a Gaussian integer N_j, and the cut is exact for w <= 50 (Ozaki,
    Ogita, Oishi, Rump, Numer. Algorithms 59, 2012).  The guard bit bounds
    every |N_j| by 2^w: slice 1 rounds z / 2^(e + 1 - w), of modulus below
    sqrt2 2^(w - 1), and slice j > 1 a remainder whose parts are at most
    half a unit of slice j - 1, of modulus at most 2^w / sqrt2; rounding
    both parts moves a point by at most 1/sqrt2, and
    (2^w + 1) / sqrt2 <= 2^w for w >= 2.  What is left, z - sum_{j<=k} z_j,
    has parts at most 2^(e - k w) <= 2^(1 - k w) max part, so modulus at
    most eps M with eps = sqrt2 2^(1 - k w) and M the row's largest
    modulus.

    A product of a row slice and a column slice is N N' 2^c with c fixed by
    the two rows and the two slice indices.  By Cauchy-Schwarz
    |Re N Re N'| + |Im N Im N'| <= |N| |N'| <= 2^(2w), and the same holds
    for the two products of the imaginary part, so every partial sum of
    R <= 2^L such products, of either part, as complex products or as
    their real products, is an integer times 2^c of modulus at most
    2^(L + 2w) <= 2^53: exact, in any order, with or without FMA (barring
    underflow below 2^-1022).  The scale comes from the whole row, so a
    row's slices do not depend on the block it is cut in.
    """
    rest = np.array(values, dtype=complex).view(float)  # parts interleaved
    top = np.maximum(np.max(rest, axis=-1, keepdims=True),
                     -np.min(rest, axis=-1, keepdims=True))
    _, e = np.frexp(top)
    out = np.empty(rest.shape[:-1] + (slices, rest.shape[-1]))
    for j in range(slices):
        sigma = np.ldexp(1.5, e + 53 - (j + 1) * width)
        cut = out[..., j, :]
        np.add(rest, sigma, out=cut)
        cut -= sigma
        if j < slices - 1:
            rest -= cut
    return out.view(complex)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked products a[s] @ b[s] of slice matrices whose every
    partial sum is exact, issued as matrix products of at most
    ``_GEMM_SIZE`` multiply-adds each: tiles of at most 64 x 64 outputs and
    even pieces of the contraction axis, whose exact sums add exactly.  So
    no product wakes BLAS worker threads, and the result does not depend
    on the tiling."""
    m, size = a.shape[-2:]
    n = b.shape[-1]
    rows, cols = -(-m // -(-m // 64)), -(-n // -(-n // 64))
    depth = _GEMM_SIZE // (rows * cols)
    depth = -(-size // -(-size // depth))
    out = np.zeros(a.shape[:-2] + (m, n), dtype=a.dtype)
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            tile = out[..., i:i + rows, j:j + cols]
            for r in range(0, size, depth):
                tile += np.matmul(a[..., i:i + rows, r:r + depth],
                                  b[..., r:r + depth, j:j + cols])
    return out


def _sliced_sums(ks: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """sum_r K[s, i, r] V[s, d, r] for the ``_split`` slices ks (S, P, k, R)
    of K and vs (S, D, k, R) of V: an (S, P, D) complex array.

    One exact complex product per batch item s gives the k^2 slice-pair
    sums G_jl = sum_r K_j V_l, whose parts the join takes as they are: one
    ``compensated_sum`` over the k^2 terms in a fixed order.  For each part,
    with M_K = max_r |K_r| and M_V = max_r |V_r|, the dropped remainders
    (``_split``'s eps) cost at most
    rho = sum_r |K V - K^ V^| <= eps (2 + eps) R M_K M_V.  A slice sum
    sum_j |K_j| is at most |K| + sqrt2 sum_j 2^(e + 1 - j w)
    <= (1 + 2^(3 - w)) M_K, so the terms sum in modulus to at most
    T = (1 + 2^(3 - w))^2 R M_K M_V, and the join adds u |S| + 2 h^2 u^2 T
    with h = ceil(log2 k^2).  So |result - S| <= u |S| + (1 + u) rho +
    2 h^2 u^2 T.  As k w >= 60, rho is at most 2^-57.5 (1 + 2^-59) R M_K M_V,
    about u/22 R M_K M_V.  R is the row length the slices were cut for:
    where the caller sums slices over runs of equal K (``solver``'s turned
    templates), the unfolded row's.
    """
    batch, points, slices, size = ks.shape
    data = vs.shape[1]
    g = _matmul(ks.reshape(batch, -1, size),
                vs.reshape(batch, -1, size).transpose(0, 2, 1))
    g = g.reshape(batch, points, slices, data, slices).transpose(0, 1, 3, 2, 4)
    return compensated_sum(g.reshape(batch, points, data, -1), axis=-1)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _digest(rule: SphereRule) -> str:
    """SHA-256 of the little-endian float64 nodes, then weights."""
    digest = hashlib.sha256(rule.nodes.astype("<f8").tobytes())
    digest.update(rule.weights.astype("<f8").tobytes())
    return digest.hexdigest()


def rule_to_json(rule: SphereRule) -> dict:
    """JSON-ready record of a sphere rule, a pure function of
    (n, resolution), recorded with a digest of its nodes and weights so
    that a platform whose rebuilt rule differs in any bit is detected.  A
    pole-aligned template (``azimuth`` set) is a pure function of
    (n, resolution, azimuth); its record adds the azimuth, the exactness
    2L - 1 of its polar factor, and the map that turns it to each point."""
    record = {
        "type": "sphere",
        "n": rule.n,
        "kind": rule.kind,
        "resolution": rule.resolution,
        "exactness": rule.exactness,
        "count": rule.count,
        "sha256": _digest(rule),
    }
    if rule.azimuth is not None:
        record.update(type="pole-aligned", azimuth=rule.azimuth,
                      polar_exactness=2 * rule.resolution - 1,
                      turn="householder")
    return record


def rule_from_json(data: dict) -> SphereRule:
    """Rebuild a sphere rule or pole-aligned template from its
    ``rule_to_json`` record.  ValueError when a key is missing or the
    rebuilt rule's kind, exactness, count or digest differs from the
    record."""
    try:
        if data.get("type") not in ("sphere", "pole-aligned"):
            raise ValueError("unrecognized rule serialization")
        record = (data["kind"], data["exactness"], data["count"],
                  data["sha256"])
        rule = sphere_rule(data["n"], data["resolution"],
                           data["azimuth"] if data["type"] == "pole-aligned"
                           else None)
    except KeyError as err:
        raise ValueError(f"rule record lacks {err}") from err
    if (rule.kind, rule.exactness, rule.count, _digest(rule)) != record:
        raise ValueError("the rebuilt rule differs from its record")
    return rule
