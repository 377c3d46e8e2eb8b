"""Adaptive one-dimensional quadrature and bounded maximization.

The integrator is a globally adaptive Gauss-Kronrod scheme: every interval is
estimated with a 15-point Kronrod rule whose embedded 7-point Gauss rule
supplies the error estimate, and the interval with the largest error is
bisected until the summed error drops below tolerance.  The error estimate
follows the classical rescaling

    err = resasc * min(1, (200 * |K15 - G7| / resasc)**1.5)

where resasc is the Kronrod estimate of the integral of |f - mean(f)|, which
guards against the raw difference |K15 - G7| being accidentally small.

Endpoints are never evaluated, so integrable endpoint singularities such as
t**(-0.8) near t = 0 are handled by subdivision alone.

An integral over [a, inf) is brought onto a finite interval by its caller,
with the map r = 1/x of QUADPACK's QAGI: a slowly decaying tail becomes an
integrable singularity at x = 0, which subdivision resolves like any other.

Maximization takes a vectorized callable too: a dense grid is evaluated in
one call f(xs), and each round of refinement samples the neighbourhood of
the best point so far in one more call.
"""

import heapq
import itertools
import math

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod nodes on [-1, 1] (positive half, descending) and weights.
# Odd-index nodes together with the centre form the embedded 7-point Gauss rule.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_CENTER = 0.209482141084728
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
)
_WG_CENTER = 0.417959183673469

# Full 15-node layout in ascending order: [-x0, ..., -x6, 0, x6, ..., x0].
_NODES = np.array([-x for x in _XGK] + [0.0] + [x for x in reversed(_XGK)])
_WEIGHTS_K = np.array(list(_WGK) + [_WGK_CENTER] + list(reversed(_WGK)))
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1::2] = _WG + (_WG_CENTER,) + _WG[::-1]

_EPS = np.finfo(float).eps
# Samples per refinement round of maximize: each round narrows the interval
# around the best point 32-fold.
_REFINE_POINTS = 65


def _panel(f, a: float, b: float):
    """Apply the K15/G7 pair to one interval, returning (value, error, floor).

    floor is the panel's round-off floor, a lower bound on its error.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise QuadratureError(
            f"integrand must map a vector of {x.size} points to as many values, "
            f"got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise QuadratureError(f"integrand non-finite near x = {float(bad)!r}")
    resk = half * float(_WEIGHTS_K @ y)
    resg = half * float(_WEIGHTS_G @ y)
    resabs = abs(half) * float(_WEIGHTS_K @ np.abs(y))
    mean = resk / (b - a)
    resasc = abs(half) * float(_WEIGHTS_K @ np.abs(y - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # Round-off floor: a panel cannot be trusted below machine noise of resabs.
    floor = 50.0 * _EPS * resabs
    return resk, max(err, floor), floor


def integrate(f, a: float, b: float, rel_tol: float = 1e-12,
              abs_tol: float = 1e-300, max_panels: int = 2048):
    """Integrate a vectorized callable f over the finite interval [a, b].

    Returns (value, error_estimate).  The per-panel round-off floors sum to
    about 50 eps times the integral of |f| however [a, b] is split, so when
    that floor alone reaches the tolerance and the error above it is within
    the tolerance, bisection stops and the returned estimate exceeds the
    tolerance by at most the floor.  Otherwise raises QuadratureError if the
    requested tolerance cannot be met within max_panels subdivisions or when
    further bisection would fall below floating-point resolution.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"integrate requires finite bounds, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    counter = itertools.count()
    val, err, floor = _panel(f, a, b)
    # Heap entries: (-error, tiebreak, a, b, value, error, floor).  The
    # tiebreak makes the subdivision order, and hence the result, fully
    # deterministic.
    heap = [(-err, next(counter), a, b, val, err, floor)]
    total_val, total_err, total_floor = val, err, floor
    while total_err > (tol := max(abs_tol, rel_tol * abs(total_val))):
        if total_floor >= tol and total_err - total_floor <= tol:
            break  # only the round-off floor is left; bisection cannot lower it
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"needed more than {max_panels} panels on [{a}, {b}] "
                f"(error {total_err:.3e}, value {total_val:.3e})"
            )
        _, _, pa, pb, pval, perr, pfloor = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # Interval at floating-point resolution; cannot refine further.
            raise QuadratureError(
                f"interval [{pa}, {pb}] no longer divisible, error {perr:.3e}"
            )
        v1, e1, fl1 = _panel(f, pa, pm)
        v2, e2, fl2 = _panel(f, pm, pb)
        heapq.heappush(heap, (-e1, next(counter), pa, pm, v1, e1, fl1))
        heapq.heappush(heap, (-e2, next(counter), pm, pb, v2, e2, fl2))
        total_val += (v1 + v2) - pval
        total_err += (e1 + e2) - perr
        total_floor += (fl1 + fl2) - pfloor
    # Recompute the totals by compensated summation over the final partition;
    # the incremental updates above accumulate round-off over many panels.
    total_val = math.fsum(entry[4] for entry in heap)
    total_err = math.fsum(entry[5] for entry in heap)
    return total_val, total_err


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
    if math.isinf(b):
        if a <= 0.0:
            raise QuadratureError("infinite-domain maximize requires a > 0")
        # Geometric spacing covers twelve decades of r at uniform log density,
        # so suprema approached at infinity are resolved to round-off while
        # interior peaks still land between two neighbouring grid points.
        xs = np.geomspace(1.0 / a, 1e-12 / a, n_grid)
        g = lambda x: f(1.0 / x)
        to_r = lambda x: 1.0 / x
    else:
        xs = np.linspace(a, b, n_grid)
        g = f
        to_r = lambda x: x
    x_best, v_best = None, -math.inf
    while True:
        vals = np.asarray(g(xs), dtype=float)
        if vals.shape != xs.shape:
            raise QuadratureError(
                f"maximize: f must map a vector of {xs.size} points to as many "
                f"values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("maximize: non-finite sample on grid")
        i = int(np.argmax(vals))
        if vals[i] > v_best:
            x_best, v_best = xs[i], vals[i]
        lo, hi = sorted((xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]))
        if (hi - lo) <= 1e-12 * (abs(lo) + abs(hi) + 1.0):
            return to_r(float(x_best)), float(v_best)
        xs = np.linspace(lo, hi, _REFINE_POINTS)
