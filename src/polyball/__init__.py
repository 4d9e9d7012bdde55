"""Zonal polyharmonics, Poisson and Cauchy-Hua kernels on unions of
rotated balls.

The package works on the union of p rotated copies e^{ik pi/p} B of the
real unit ball inside C^n.  Points on the rotated copies are represented
exactly by (sector angle, real coordinates); general complex points live
in the Lie ball.  All kernels reduce to integer powers of the three pair
invariants B = <x, zeta>, x^2 = sum x_j^2, and conj(zeta^2), so no branch
choices enter except in the final principal power of the Poisson and
Cauchy-Hua denominators.

Modules:
    geometry    rotated points, bilinear square, Lie norm, principal powers
    polyalg     exact multivariate polynomials, Laplacian, Almansi splits
    gegenbauer  Gegenbauer recurrence, explicit sums, generating function
    kernels     zonal, Poisson, boundary-form, and Cauchy-Hua kernels
    quadrature  sphere and Lie-sphere rules with serialization
    solver      Poisson integrals, Dirichlet solves, limit experiments
    suites      named property suites over random samples
    cli         JSON-configured experiments emitting result tables
"""

from __future__ import annotations

__version__ = "0.1.0"

from .geometry import (
    RotatedVector,
    as_complex_vector,
    as_rotated,
    bilinear_square,
    hermitian_dot,
    lie_norm,
    principal_power,
)
from .polyalg import (
    MultiPoly,
    almansi_reassemble,
    dim_H,
    dim_Hp,
    dim_P,
    is_polyharmonic,
    poisson_polynomial,
    polyharmonic_almansi,
    polyharmonic_basis,
    polyharmonic_split,
)
# the bare function `gegenbauer` stays on its submodule: re-exporting it
# would shadow the `polyball.gegenbauer` module attribute
from .gegenbauer import (
    gegenbauer_coefficients,
    gegenbauer_explicit,
    generating_function,
    generating_partial_sum,
)
from .kernels import (
    ROUTES,
    SingularKernelError,
    hua_convergence_gap,
    pair_invariants,
    poisson_kernel,
    truncation_degree,
)
from .quadrature import (
    LieSphereRule,
    SphereRule,
    resolution_for_exactness,
    rule_from_json,
    rule_to_json,
    sphere_rule,
)
from .solver import (
    BoundaryData,
    LimitExperiment,
    aligned_rule,
    choose_lie_rule,
    choose_rule,
    hua_reproduce,
    polyharmonic_limit_experiment,
)
from .suites import SUITES, PropertyResult, run_suite

__all__ = [
    "__version__",
    "RotatedVector", "as_complex_vector", "as_rotated", "bilinear_square",
    "hermitian_dot", "lie_norm", "principal_power",
    "MultiPoly", "almansi_reassemble", "dim_H", "dim_Hp", "dim_P",
    "is_polyharmonic", "polyharmonic_almansi", "polyharmonic_basis",
    "polyharmonic_split", "poisson_polynomial",
    "gegenbauer_coefficients", "gegenbauer_explicit",
    "generating_function", "generating_partial_sum",
    "ROUTES", "SingularKernelError", "hua_convergence_gap",
    "pair_invariants", "poisson_kernel", "truncation_degree",
    "LieSphereRule", "SphereRule",
    "resolution_for_exactness", "rule_from_json", "rule_to_json",
    "sphere_rule",
    "BoundaryData", "LimitExperiment", "aligned_rule",
    "choose_lie_rule", "choose_rule",
    "hua_reproduce", "polyharmonic_limit_experiment",
    "SUITES", "PropertyResult", "run_suite",
]
