"""Complex-vector geometry for rotated spheres and the Lie ball.

Conventions used throughout the package:

* Points of C^n are 1-d arrays (or sequences) of complex numbers, n >= 2.
* ``bilinear_square(z)`` is the analytic square z.z = sum z_j**2, without
  conjugation.
* ``principal_power`` takes the principal branch, with branch cut on the
  non-positive real axis and argument in (-pi, pi].  Negative reals map to
  the upper half plane regardless of the sign of an incoming imaginary zero.
* The Lie norm is L(z) = sqrt(|z|_h^2 + sqrt(|z|_h^4 - |z.z|^2)) where
  |.|_h is the hermitian norm.  For real x, L(x) = |x|; L is invariant under
  multiplication by unit scalars e^{i phi}.
* ``RotatedVector`` stores a point e^{i*angle} * a with real coordinate
  vector a and angle reduced into [0, pi) (the sign of a absorbs full-pi
  rotations, so the embedded complex point is preserved).  Sector points of
  the union of rotated spheres/balls have angle = j*pi/p; batched code
  holds them as real rows and sectors (``sector_points``).

Public API (stable): bilinear_square, hermitian_dot, lie_norm,
principal_power, as_complex_vector, as_rotated, RotatedVector,
sector_phases, sector_points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Most entries of an array sized by the input: nodes, points or minors.
_MAX_NODES = 1 << 21

__all__ = [
    "RotatedVector",
    "as_complex_vector",
    "as_rotated",
    "bilinear_square",
    "hermitian_dot",
    "lie_norm",
    "principal_power",
    "sector_phases",
    "sector_points",
]


# --------------------------------------------------------------------------
# principal branch helpers
# --------------------------------------------------------------------------

def _canonical_complex(w):
    """Return ``w`` as ndarray with imaginary -0.0 flushed to +0.0.

    numpy and cmath put arguments of negative reals on the side of the
    imaginary zero's sign; the package fixes arg in (-pi, pi], so a -0.0
    imaginary part must not select the lower branch.
    """
    arr = np.asarray(w, dtype=complex)
    im = arr.imag.copy()
    im[im == 0.0] = 0.0
    return arr.real + 1j * im


def principal_power(w, a):
    """Principal power w**a for real exponent a: branch cut (-inf, 0], arg w
    in (-pi, pi].

    Integer exponents are evaluated by plain powering (no branch involved).
    A half-integer a = +-(k + 1/2), the kernel denominators at odd n, is
    w^k * sqrt(w) or its reciprocal: one correctly rounded square root and
    a few multiplications, cheaper and more accurate than exp(a log w).
    Other exponents go through exp(a log w).  Zero base requires a positive
    exponent.
    """
    a = float(a)
    if a == int(a):
        res = np.asarray(w, dtype=complex) ** int(a)
        return complex(res) if np.ndim(w) == 0 else res
    arr = _canonical_complex(w)
    zero = arr == 0
    has_zero = bool(np.any(zero))
    if has_zero:
        if a <= 0:
            raise ValueError("0 cannot be raised to a non-positive power")
        arr = np.where(zero, 1.0, arr)
    if 2 * a % 2 == 1:
        res = np.sqrt(arr)
        k = int(abs(a))
        if k:  # |a| = 3/2 multiplies directly: arr ** 1 would copy arr
            res = (arr if k == 1 else arr ** k) * res
        if a < 0:
            res = 1.0 / res
    else:
        res = np.exp(a * np.log(arr))
    if has_zero:
        res = np.where(zero, 0.0, res)
    return complex(res) if np.ndim(w) == 0 else res


# --------------------------------------------------------------------------
# rotated points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RotatedVector:
    """A point e^{i*angle} * coords with real coords, angle in [0, pi).

    Construction reduces the angle mod pi and flips the sign of coords for
    each full half-turn, so the embedded complex point is unchanged and the
    representation is unique for coords != 0.
    """

    angle: float
    coords: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("coords must be a 1-d real vector with n >= 2")
        if not np.all(np.isfinite(a)):
            raise ValueError("coords must be finite")
        phi = float(self.angle)
        if not math.isfinite(phi):
            raise ValueError("angle must be finite")
        k = math.floor(phi / math.pi)
        phi = phi - k * math.pi
        if phi >= math.pi:  # guard the floating edge phi == pi
            phi -= math.pi
            k += 1
        if k % 2:
            a = -a
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "angle", phi)
        object.__setattr__(self, "coords", a)

    @classmethod
    def sector(cls, j: int, p: int, coords) -> "RotatedVector":
        """The point e^{i j pi / p} * coords of the j-th sector."""
        if p < 1:
            raise ValueError("p must be >= 1")
        return cls(j * math.pi / p, coords)

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def radius(self) -> float:
        """Hermitian norm; equals the euclidean norm of coords."""
        return float(np.linalg.norm(self.coords))

    def to_complex(self) -> np.ndarray:
        return np.exp(1j * self.angle) * self.coords

    def sector_index(self, p: int) -> int:
        """Index j with angle = j*pi/p (within 1e-9), or raise if none."""
        j = round(self.angle * p / math.pi)
        if abs(self.angle - j * math.pi / p) > 1e-9:
            raise ValueError(
                f"angle {self.angle!r} is not a multiple of pi/{p}")
        return j % p


def sector_phases(sectors, p: int) -> np.ndarray:
    """The phases e^{i j pi / p} of an int array of sectors j, one complex
    exp of the angle j pi / p each: bit for bit the phase of
    ``RotatedVector.sector(j, p, a)`` for 0 <= j < p."""
    return np.exp(1j * (np.asarray(sectors) * math.pi / p))


def sector_points(coords, sectors, p: int) -> np.ndarray:
    """The complex points e^{i j pi / p} a of real rows a = ``coords``
    (k, n) in ``sectors`` j (k,): each row bit for bit
    ``RotatedVector.sector(j, p, a).to_complex()`` for 0 <= j < p."""
    return sector_phases(sectors, p)[:, None] * coords


def as_complex_vector(z) -> np.ndarray:
    """Coerce a RotatedVector / sequence / array to a complex 1-d array."""
    if isinstance(z, RotatedVector):
        return z.to_complex()
    arr = np.asarray(z, dtype=complex)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("expected a 1-d vector with n >= 2")
    return arr


def as_rotated(v) -> RotatedVector:
    """Coerce to RotatedVector; plain sequences must be real (angle 0)."""
    if isinstance(v, RotatedVector):
        return v
    arr = np.asarray(v)
    if np.iscomplexobj(arr):
        raise ValueError("expected a rotated point (angle + real coords); "
                         "wrap complex points explicitly")
    return RotatedVector(0.0, arr)


# --------------------------------------------------------------------------
# norms and domains
# --------------------------------------------------------------------------

def _as_points(z) -> np.ndarray:
    """A point as ``as_complex_vector`` gives it, or a stack (P, n) of
    points as a complex array."""
    if isinstance(z, np.ndarray) and z.ndim == 2 and z.shape[1] >= 2:
        return z.astype(complex, copy=False)
    return as_complex_vector(z)


def bilinear_square(z):
    """The analytic square z.z = sum z_j**2 (no conjugation); for a stack
    (P, n) of points, the array of their squares."""
    arr = _as_points(z)
    out = np.sum(arr * arr, axis=-1)
    return out if arr.ndim == 2 else complex(out)


def hermitian_dot(z, w):
    """<z, w> = sum z_j * conj(w_j); for stacks (P, n) of points, the
    array of the P products."""
    za, wa = _as_points(z), _as_points(w)
    if za.shape != wa.shape:
        raise ValueError("dimension mismatch")
    out = np.sum(za * np.conj(wa), axis=-1)
    return out if za.ndim == 2 else complex(out)


def lie_norm(z):
    """L(z) = sqrt(|z|_h^2 + sqrt(|z|_h^4 - |z.z|^2)); for a stack (P, n)
    of points, the array of their norms, each bit for bit that row's alone.

    With z = a + ib (a, b real) the inner radicand equals the Lagrange
    form 4 sum_{i<j} (a_i b_j - a_j b_i)^2, a sum of squares.  Evaluating
    that form instead of the difference of fourth powers avoids the
    catastrophic cancellation on near-rotated-real vectors, where the
    radicand vanishes; there L(e^{i phi} x) = ||x|| to machine precision.
    n^2 minors per point above the node cap (n >= 1,449) raise at once.
    """
    arr = _as_points(z)
    n = arr.shape[-1]
    if n * n > _MAX_NODES:
        raise ValueError(f"n={n}: {n * n} Lie-norm minors exceed the node cap")
    a, b = np.atleast_2d(arr.real), np.atleast_2d(arr.imag)
    h2 = np.vecdot(a, a) + np.vecdot(b, b)
    inner = np.empty_like(h2)
    step = max(1, 2 ** 16 // n ** 2)  # rows of minors per block
    for i in range(0, len(a), step):
        minors = a[i:i + step, :, None] * b[i:i + step, None, :]
        minors -= minors.transpose(0, 2, 1)
        inner[i:i + step] = 2.0 * (minors * minors).reshape(
            len(minors), -1).sum(axis=1)
    out = np.sqrt(h2 + np.sqrt(inner))
    return out if arr.ndim == 2 else float(out[0])
