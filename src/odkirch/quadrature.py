"""Tanh-sinh quadrature and bounded maximization.

The integrator is the double-exponential rule of Takahasi and Mori (Publ.
RIMS 9, 1974), nested as by Bailey, Jeyabalan and Li (Exp. Math. 14, 2005):
x = mid + half tanh((pi/2) sinh t) makes the integrand decay doubly
exponentially in t, endpoint power singularities included, so that the
trapezoidal rule on t in [-6, 6] converges about as exp(-c/h) in its step h.
Node distances to the nearer end, (b - a) E / (1 + E) with E = exp(-pi
|sinh t|), reach 3e-276 (b - a) at an end at 0; a node that rounds onto an
end moves to the nearest double inside, so no end is evaluated.  Callers map
[a, inf) onto (0, 1/a] by r = 1/x.  Both routines call f once per batch: the
levels h = 1/2 to 1/16 of a piece are one batch of 193 nodes, h = 1/32 another.
"""

import functools
import math

import numpy as np

from .errors import QuadratureError

_EPS = np.finfo(float).eps
# The round-off floor, in eps times the integral of |f|: the nested sums of
# a few hundred terms differ by about this much once converged.
_FLOOR = 8.0
_MAX_PIECES = 64
# Samples per refinement round of maximize: each round narrows the interval
# around the best point so far 32-fold, on np.linspace's points bit for bit.
_REFINE_POINTS = 65
_STEPS = np.arange(_REFINE_POINTS)


def _nodes(t: np.ndarray):
    """Distances to the nearer end over b - a, whether t <= 0, and weights
    pi cosh t E / (1 + E)^2 of the nodes t."""
    e = np.exp(-np.pi * np.abs(np.sinh(t)))
    return e / (1.0 + e), t <= 0.0, np.pi * np.cosh(t) * e / (1.0 + e) ** 2


# Per call, its nodes and levels (h, places of the nodes h adds): the multiples
# of 1/4, those of 1/2 at even places, then the odd multiples of each finer h.
_T = [np.arange(-24, 25) / 4.0] + [np.arange(1 - 6 * k, 6 * k, 2) / k for k in (8, 16, 32)]
_CALLS = [
    (_nodes(np.concatenate(_T[:3])), ((0.5, slice(0, 49, 2)), (0.25, slice(1, 49, 2)),
                                      (0.125, slice(49, 97)), (0.0625, slice(97, None)))),
    (_nodes(_T[3]), ((0.03125, slice(None)),))]


def _end_mass(x: np.ndarray, y: np.ndarray) -> float:
    """The mass near an end that the sum misses, from the first call's nodes
    on its half at distances x from it, ascending, with |f| values y: for
    |f| ~ x^g read from the outermost node x1 and the next distinct one,
    x1 |f(x1)| / (g + 1), less about twice the mass of nodes moved onto x1,
    which carry |f(x1)| to the end; inf if g <= -1, 0 if |f| is 0 at either."""
    k2 = int(np.searchsorted(x, x[0], side="right"))
    if k2 == x.size or y[0] == 0.0 or y[k2] == 0.0:
        return 0.0
    g = math.log(y[0] / y[k2]) / math.log(x[0] / x[k2])
    moved = 1.0 if k2 == 1 else 2.0 * max(-g, 0.0)
    return float(x[0] * y[0]) * moved / (g + 1.0) if g > -1.0 else math.inf


def _ladder(f, lo: float, hi: float, rel_tol: float):
    """S_h on [lo, hi], h = 1/2 to 1/16 from one call (callers' checks read
    every sample), then 1/32 unless S_1/16, S_1/8 agree within rel_tol |S_1/16|
    or the round-off floor: (S_h, integral of |f|, |S_h - S_2h|, _end_mass sum)."""
    width, inside = hi - lo, (np.nextafter(lo, hi), np.nextafter(hi, lo))
    total = total_abs = estimate = 0.0
    for (dist, left, weight), levels in _CALLS:
        x = np.where(left, lo + width * dist, hi - width * dist)
        np.clip(x, *inside, out=x)
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise QuadratureError(f"integrand must map a vector of {x.size} points "
                                  f"to as many values, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise QuadratureError(f"integrand non-finite near x = "
                                  f"{float(x[~np.isfinite(y)][0])!r}")
        y_abs = np.abs(y)
        total_abs += float(weight @ y_abs)
        if levels[0][0] == 0.5:  # the multiples of 1/4, t <= 0 at places 0-24
            tails = (_end_mass(x[:25] - lo, y_abs[:25])
                     + _end_mass(hi - x[48:24:-1], y_abs[48:24:-1]))
        for h, part in levels:
            previous, total = estimate, total + float(weight[part] @ y[part])
            estimate = h * width * total
        integral_abs, diff = h * width * total_abs, abs(estimate - previous)
        if diff <= max(rel_tol * abs(estimate), _FLOOR * _EPS * integral_abs):
            break
    return estimate, integral_abs, diff, tails


def integrate(f, a: float, b: float, rel_tol: float = 1e-12):
    """Integrate over the finite [a, b] a vectorized f, mapping an array of
    points to as many finite values: (value, error summed over the pieces),
    the value inf when a sum of finite samples overflows.  While the error
    exceeds rel_tol |value| and the round-off floor, each piece whose error
    exceeds its share of that tolerance is halved, so a kink without a
    breakpoint costs calls, not accuracy.  QuadratureError names a point
    where f is not finite, and is raised past _MAX_PIECES pieces and when
    the mass the ends' nodes miss exceeds the tolerance (|f| ~ x^g, g near -1).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"integrate requires finite bounds, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    pieces, new = [], [(a, b)]
    while True:
        pieces += [(lo, hi, *_ladder(f, lo, hi, rel_tol)) for lo, hi in new]
        value, integral_abs, error = (math.fsum(p[i] for p in pieces) for i in (2, 3, 4))
        if not math.isfinite(value):
            return value, math.inf
        tol = max(rel_tol * abs(value), _FLOOR * _EPS * integral_abs)
        for lo, hi, *_, tails in pieces[-len(new):]:
            if tails > tol:  # halving keeps the end, and the mass its node misses
                raise QuadratureError(
                    f"the integrand's mass beyond the outermost nodes of [{lo!r}, "
                    f"{hi!r}], about {tails:.3e}, exceeds the tolerance {tol:.3e}")
        if error <= tol:
            return value, error
        share = tol / len(pieces)
        new = [half for lo, hi, *rest in pieces if rest[2] > share
               for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
        if len(pieces) + len(new) // 2 > _MAX_PIECES:
            raise QuadratureError(f"did not converge in {_MAX_PIECES} pieces of "
                                  f"[{a!r}, {b!r}] (error {error:.3e}, value {value:.3e})")
        pieces = [piece for piece in pieces if piece[4] <= share]


@functools.lru_cache(maxsize=4)
def _inverse_grid(a: float, n_grid: int) -> np.ndarray:
    """np.geomspace(1/a, 1e-12/a, n_grid), read-only, computed once per process."""
    grid = np.geomspace(1.0 / a, 1e-12 / a, n_grid)
    grid.flags.writeable = False
    return grid


def maximize(f, a: float, b: float, n_grid: int = 4096):
    """Maximize a continuous f over [a, b], b possibly infinite.

    f must be vectorized: it maps an array of points to an array of as many
    values, finite ones.  A dense grid scan, one call f(xs) on all n_grid
    points, locates the neighbourhood of the global maximum.  Each round of
    refinement then samples the interval between the neighbours of the best
    point so far at _REFINE_POINTS points in one call, until the interval is
    no wider than 1e-12 (|lo| + |hi| + 1); grid endpoints stay in contention
    so boundary maxima are found exactly.  An infinite right endpoint is
    handled by the substitution r = 1/x, which compresses [a, inf) into
    (0, 1/a] and concentrates samples where a decaying profile can still be
    large.  Returns (argmax, max_value), the best sample seen.
    """
    if n_grid < 16:
        raise QuadratureError("maximize needs at least 16 grid points")
    inverse = math.isinf(b)
    if inverse and a <= 0.0:
        raise QuadratureError("infinite-domain maximize requires a > 0")
    # Geometric spacing covers twelve decades of r at uniform log density, so
    # suprema approached at infinity are resolved to round-off while interior
    # peaks still land between two neighbouring grid points.
    xs = _inverse_grid(a, n_grid) if inverse else np.linspace(a, b, n_grid)
    x_best, v_best = None, -math.inf
    while True:
        vals = np.asarray(f(1.0 / xs if inverse else xs), dtype=float)
        if vals.shape != xs.shape:
            raise QuadratureError(f"maximize: f must map a vector of {xs.size} points "
                                  f"to as many values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("maximize: non-finite sample on grid")
        i = int(np.argmax(vals))
        if vals[i] > v_best:
            x_best, v_best = xs[i], vals[i]
        lo, hi = sorted((xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]))
        if (hi - lo) <= 1e-12 * (abs(lo) + abs(hi) + 1.0):
            return 1.0 / float(x_best) if inverse else float(x_best), float(v_best)
        xs = _STEPS * ((hi - lo) / (_REFINE_POINTS - 1)) + lo
        xs[-1] = hi
