"""Reference answers computed without odkirch.

Nothing here imports odkirch.  The base-field norms come from their own
derivations: on the ball from the closed forms evaluated in mpmath at 40
digits, on the exterior domain from scipy quadrature of the profile after the
substitution r = 1/x, which maps [1, inf) onto (0, 1].  The kernel families
are written a second time as numpy functions (see workloads.py), g(s) is
built from them, and its roots are counted by a dense logarithmic scan with
each sign change refined by brentq.  Fold values, the lambda at which the
root count changes, come from the critical points of g.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate, optimize

mpmath.mp.dps = 40

# Dense scan window of the oracle.  The generator only keeps instances whose
# roots lie well inside odkirch's default scan window [1e-8, >= 1e3].
SCAN_LO = 1e-10
SCAN_HI = 1e6
SCAN_POINTS = 200_001


def _sphere_area(n: int):
    return 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)


def ball_norm_u(n: int, radius: float, p: float) -> float:
    """||U||_p of U = (|x|^2 - R^2)/2 on the ball of radius R in R^n.

    |U|^p = 2^-p (R^2 - r^2)^p; with r = R sqrt(y) the radial integral is
    R^(2p+n) B(n/2, p+1) / 2.
    """
    if math.isinf(p):
        return 0.5 * radius ** 2
    p_ = mpmath.mpf(p)
    r_ = mpmath.mpf(radius)
    val = (_sphere_area(n) * 2 ** (-p_ - 1) * r_ ** (2 * p_ + n)
           * mpmath.beta(mpmath.mpf(n) / 2, p_ + 1))
    return float(val ** (1 / p_))


def ball_norm_grad(n: int, radius: float, q: float) -> float:
    """||grad U||_q on the ball: |grad U| = r, so the integral is R^(q+n)/(q+n)."""
    if math.isinf(q):
        return float(radius)
    q_ = mpmath.mpf(q)
    r_ = mpmath.mpf(radius)
    val = _sphere_area(n) * r_ ** (q_ + n) / (q_ + n)
    return float(val ** (1 / q_))


def _exterior_phi_inv(n: int, x):
    """U(1/x) for U(r) = (r^-n - r^(2-n))/2."""
    return 0.5 * (x ** n - x ** (n - 2.0))


def _exterior_dphi_inv(n: int, x):
    """U'(1/x) for the exterior profile."""
    return 0.5 * (-n * x ** (n + 1.0) + (n - 2.0) * x ** (n - 1.0))


def _radial_sup(fun, n: int) -> float:
    """sup over r >= 1 of |fun(1/r)| by a dense grid and a bounded refinement."""
    xs = np.concatenate([np.geomspace(1e-300, 1e-8, 64), np.linspace(1e-8, 1.0, 20001)])
    vals = np.abs(fun(n, xs))
    i = int(np.argmax(vals))
    best = float(vals[i])
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    if hi > lo:
        res = optimize.minimize_scalar(lambda x: -abs(float(fun(n, x))),
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-14})
        best = max(best, -float(res.fun))
    return best


def _exterior_lp(fun, n: int, p: float, breaks=()) -> float:
    """(|S^(n-1)| * int_1^inf |fun(r)|^p r^(n-1) dr)^(1/p) with r = 1/x."""
    def integrand(x):
        return abs(fun(n, x)) ** p * x ** (-n - 1.0)

    edges = [0.0, *sorted(breaks), 1.0]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13,
                                limit=500)
        total += val
    return float((float(_sphere_area(n)) * total) ** (1.0 / p))


def exterior_norm_u(n: int, p: float) -> float:
    if math.isinf(p):
        return _radial_sup(_exterior_phi_inv, n)
    return _exterior_lp(_exterior_phi_inv, n, p)


def exterior_norm_grad(n: int, q: float) -> float:
    if math.isinf(q):
        return _radial_sup(_exterior_dphi_inv, n)
    # U' changes sign at x = sqrt((n-2)/n); split the integral there.
    breaks = () if n == 2 else (math.sqrt((n - 2.0) / n),)
    return _exterior_lp(_exterior_dphi_inv, n, q, breaks)


def base_norms(geometry: dict, p: float, q: float):
    """(||U||_p, ||grad U||_q) for a geometry document of the config schema."""
    n = geometry["dim"]
    if geometry["kind"] == "ball":
        radius = geometry["radius"]
        return ball_norm_u(n, radius, p), ball_norm_grad(n, radius, q)
    return exterior_norm_u(n, p), exterior_norm_grad(n, q)


@dataclass(frozen=True)
class Reduced:
    """g(s) = C(n, k) s^k M(s, rho s) built from a numpy kernel twin."""

    coeff: int
    k: int
    rho: float
    norm_u: float
    m: object            # numpy function M(s, t)

    def g(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            return self.coeff * s ** self.k * self.m(s, self.rho * s)


def reduced(geometry: dict, k: int, p: float, q: float, m) -> Reduced:
    norm_u, norm_grad = base_norms(geometry, p, q)
    return Reduced(coeff=math.comb(geometry["dim"], k), k=k,
                   rho=norm_grad / norm_u, norm_u=norm_u, m=m)


_GRID = np.geomspace(SCAN_LO, SCAN_HI, SCAN_POINTS)


def roots(red: Reduced, lam: float) -> list:
    """Every sign change of g(s) - lam ||U||_p^k on the dense grid, refined."""
    target = lam * red.norm_u ** red.k
    h = red.g(_GRID) - target
    cells = np.nonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)[0]
    out = []
    for i in cells:
        a, b = float(_GRID[i]), float(_GRID[i + 1])
        out.append(optimize.brentq(lambda s: float(red.g(s)) - target, a, b,
                                   xtol=1e-300, rtol=4 * np.finfo(float).eps,
                                   maxiter=500))
    return out


def fold_lambdas(red: Reduced) -> list:
    """lambda values g(s_c) / ||U||_p^k at the interior critical points of g."""
    gv = red.g(_GRID)
    d = np.diff(gv)
    # Turns where g has decayed into the subnormal range are round-off noise.
    turns = [i for i in np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
             if abs(gv[i + 1]) > 1e-200]
    out = []
    for i in turns:
        lo, hi = float(_GRID[i]), float(_GRID[i + 2])
        sign = 1.0 if d[i] > 0 else -1.0          # +1: local max
        res = optimize.minimize_scalar(lambda s: -sign * float(red.g(s)),
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-12 * hi})
        out.append(float(red.g(res.x)) / red.norm_u ** red.k)
    return sorted(out)


def boundary_gradient(geometry: dict, norm_u: float, s: float) -> float:
    """c of the solution with ||u||_p = s: s R / ||U||_p on the ball."""
    if geometry["kind"] == "ball":
        return s * geometry["radius"] / norm_u
    return s / norm_u
