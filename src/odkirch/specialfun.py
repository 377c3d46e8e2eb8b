"""Gamma-family special functions used by the closed-form norm expressions.

They are built on the log-gamma function and on series summed in floating
point, with no numerical integration, so the closed forms share nothing with
the integrals they are checked against.  The incomplete beta function comes as
its log, from the Euler form of its hypergeometric series (NIST DLMF 8.17(ii)).
"""

import math
import sys

import numpy as np

from .errors import DomainError


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


def log_incomplete_beta(z: float, x: float, y: float) -> float:
    """log B_z(x, y), B_z(x, y) = integral of t^(x-1) (1-t)^(y-1) over [0, z],
    for x > 0, 0 <= z < 1 and any real y (-inf at z = 0).

    B_z(x, y) = z^x (1-z)^y / x * sum_k T_k, T_0 = 1, T_(k+1) = T_k r_k with
    r_k = (x+y+k) z / (x+1+k).  From any k on, |r_j| <= m = max(|r_k|, z), so
    once m < 1 the terms after T_k sum to at most |T_k| m / (1 - m); the sum
    stops when that is below 1e-17 of it.  For y >= 1 past z = (x+1) / (x+y+2),
    where the terms would first grow and then fall only as fast as z^k, the
    same sum gives B_(1-z)(y, x), and B_z(x, y) = B(x, y) - B_(1-z)(y, x).
    """
    if not (x > 0.0 and 0.0 <= z < 1.0):
        raise DomainError(f"incomplete beta needs x > 0, 0 <= z < 1, got {x}, {z}")
    if z == 0.0:
        return -math.inf
    flip = y >= 1.0 and z > (x + 1.0) / (x + y + 2.0)
    a, b, w = (y, x, 1.0 - z) if flip else (x, y, z)
    total = term = 1.0
    k, s, c = 0, a + b, a + 1.0
    while math.isfinite(total):
        ratio = (s + k) * w / (c + k)
        m = ratio if ratio > w else -ratio if ratio < -w else w
        if m < 1.0 and abs(term) * m <= 1e-17 * (1.0 - m) * abs(total):
            break
        term *= ratio
        total += term
        k += 1
    if not 0.0 < total < math.inf:
        raise DomainError(f"incomplete beta series at {(z, x, y)} sums to {total}")
    log_sum = a * math.log(w) + b * math.log1p(-w) - math.log(a) + math.log(total)
    if not flip:
        return log_sum
    log_b = log_gamma(x) + log_gamma(y) - log_gamma(x + y)
    return log_b + math.log1p(-math.exp(log_sum - log_b))
