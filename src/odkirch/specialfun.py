"""Gamma-family special functions used by the closed-form norm expressions.

Everything is built on the log-gamma function and direct adaptive quadrature.
The incomplete beta function is evaluated by integrating its defining kernel
rather than by series or continued-fraction expansions, because the norm
formulas need it for negative second arguments where the usual regularized
routines do not apply.
"""

import math
import sys

import numpy as np

from .errors import DomainError
from .quadrature import integrate


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2);
    DomainError from n = 439 on, where it is below the smallest normal double."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sphere_area requires an integer dimension >= 1, got {n}")
    area = 2.0 * math.exp(0.5 * n * math.log(math.pi) - log_gamma(0.5 * n))
    if area < sys.float_info.min:
        raise DomainError(f"sphere area in R^{n} is below the smallest normal double")
    return area


def incomplete_beta(z: float, x: float, y: float, rel_tol: float = 1e-12) -> float:
    """Lower incomplete beta B_z(x, y) = integral of t^(x-1) (1-t)^(y-1) over [0, z].

    Requires x > 0 so the integrand is integrable at t = 0, and 0 <= z < 1,
    so the second argument y may be any real number, including y <= 0.

    For x < 1 the leftmost stretch is integrated under the substitution
    t = u**(1/x), which absorbs the t**(x-1) endpoint singularity into the
    measure and leaves a bounded integrand.
    """
    if not (x > 0.0):
        raise DomainError(f"incomplete_beta requires x > 0, got x = {x}")
    if not (0.0 <= z < 1.0):
        raise DomainError(f"incomplete_beta requires 0 <= z < 1, got z = {z}")
    if z == 0.0:
        return 0.0

    def kernel(t):
        return t ** (x - 1.0) * (1.0 - t) ** (y - 1.0)

    def left(u):
        # t = u**(1/x), dt = (1/x) u**(1/x - 1) du, so t**(x-1) dt = du / x.
        return (1.0 - u ** (1.0 / x)) ** (y - 1.0) / x

    # integrate rejects a non-finite value and names the point.
    with np.errstate(all="ignore"):
        if x >= 1.0:
            return integrate(kernel, 0.0, z, rel_tol=rel_tol)[0]
        split = min(z, 0.5)
        val, _ = integrate(left, 0.0, split ** x, rel_tol=rel_tol)
        if z > split:
            val += integrate(kernel, split, z, rel_tol=rel_tol)[0]
    return val
