"""k-Hessian operators: elementary symmetric functions of Hessian eigenvalues.

For a radial function u(x) = phi(|x|) in R^n the Hessian eigenvalues are
phi'(r)/r with multiplicity n - 1 and phi''(r) with multiplicity 1, which
collapses the k-th elementary symmetric function to the closed form

    S_k(D^2 u) = C(n-1, k) (phi'/r)^k + C(n-1, k-1) phi'' (phi'/r)^(k-1).

For general fields the same quantity equals the sum of all k x k principal
minors of the Hessian, which is what k_hessian_field computes from a
finite-difference Hessian.  The two routes are deliberately independent so
each can serve as a check on the other.
"""

import itertools
import math

import numpy as np

from .errors import DomainError


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; zero when k > n, error when k < 0."""
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise DomainError(f"binomial requires integers, got ({n!r}, {k!r})")
    if n < 0 or k < 0:
        raise DomainError(f"binomial requires n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(int(n), int(k))


def elementary_symmetric(values, k: int) -> float:
    """k-th elementary symmetric function e_k of a sequence of numbers.

    Uses the Newton-Girard recurrence over the coefficient table (one pass per
    value, updating in place from the top), which is numerically stable and
    O(n k) rather than the C(n, k)-term expansion.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DomainError("elementary_symmetric expects a flat sequence")
    n = vals.size
    if not (0 <= k <= n):
        raise DomainError(f"elementary_symmetric requires 0 <= k <= {n}, got k = {k}")
    e = np.zeros(k + 1)
    e[0] = 1.0
    for v in vals:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return float(e[k])


def k_hessian_radial(profile, r, n: int, k: int):
    """S_k of the Hessian of the radial field x -> profile.phi(|x|) in R^n.

    Accepts scalar or array r with r > 0 inside the profile's domain.
    """
    if not (1 <= k <= n):
        raise DomainError(f"k_hessian_radial requires 1 <= k <= n, got k = {k}, n = {n}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise DomainError("k_hessian_radial requires r > 0")
    if not profile.contains(r_arr):
        raise DomainError(
            f"radius outside profile domain [{profile.r_min}, {profile.r_max}]"
        )
    slope = profile.dphi(r_arr) / r_arr
    out = (binomial(n - 1, k) * slope ** k
           + binomial(n - 1, k - 1) * profile.d2phi(r_arr) * slope ** (k - 1))
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def hessian_fd(u, x, h: float | None = None) -> np.ndarray:
    """Symmetric finite-difference Hessian of a scalar field u at point x.

    Central second differences on the diagonal and the standard four-point
    cross stencil off it; the result is exactly symmetric by construction.
    u must be vectorized: it maps an (m, n) array of points to m values, and
    the whole stencil of 1 + 2n + 2n(n - 1) points goes through one call.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if h is None:
        h = 1e-4 * max(1.0, float(np.max(np.abs(x))))
    if not (h > 0.0):
        raise DomainError(f"step size must be positive, got {h}")
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))   # pairs i < j
    eye = np.eye(n)
    ei, ej = eye[i], eye[j]
    # Each stencil point moves each coordinate by 0 or +-h.
    signs = np.concatenate([np.zeros((1, n)), eye, -eye,
                            ei + ej, ei - ej, ej - ei, -ei - ej])
    points = x + h * signs
    vals = np.asarray(u(points), dtype=float)
    if vals.shape != (len(points),):
        raise DomainError(f"hessian_fd: u must map {len(points)} points to as "
                          f"many values, got shape {vals.shape}")
    f0, f_plus, f_minus = vals[0], vals[1:n + 1], vals[n + 1:2 * n + 1]
    f_pp, f_pm, f_mp, f_mm = vals[2 * n + 1:].reshape(4, i.size)
    hess = np.diag((f_plus - 2.0 * f0 + f_minus) / h ** 2)
    cross = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h ** 2)
    hess[i, j] = cross
    hess[j, i] = cross
    return hess


def principal_minor_sum(mat: np.ndarray, k: int) -> float:
    """Sum of all k x k principal minors of a square matrix.

    This equals e_k of the eigenvalues for any symmetric matrix, but is
    computed directly from determinants of index-selected submatrices so it
    never goes through an eigendecomposition.  One fancy index stacks all
    C(n, k) submatrices for a single batched det.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if not (0 <= k <= n):
        raise DomainError(f"minor order must satisfy 0 <= k <= {n}, got {k}")
    if k == 0:
        return 1.0
    idx = np.array(list(itertools.combinations(range(n), k)))
    subs = mat[idx[:, :, None], idx[:, None, :]]
    return float(np.sum(np.linalg.det(subs)))


def k_hessian_field(u, x, k: int, h: float | None = None) -> float:
    """S_k(D^2 u) at a point of a general (not necessarily radial) field.

    Finite-difference Hessian followed by the principal-minor expansion.  u
    must be vectorized over points, as `hessian_fd` requires; the fields of
    `RadialProfile.as_field` are.  Accuracy is limited by the O(h^2) stencil
    error, so this is a cross-check tool, not a precision evaluator.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not (1 <= k <= n):
        raise DomainError(f"k_hessian_field requires 1 <= k <= {n}, got k = {k}")
    return principal_minor_sum(hessian_fd(u, x, h=h), k)
