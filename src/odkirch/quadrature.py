"""Tanh-sinh quadrature and bounded maximization.

The integrator is the double-exponential rule of Takahasi and Mori (Publ.
RIMS 9, 1974), nested as by Bailey, Jeyabalan and Li (Exp. Math. 14, 2005):
x = mid + half tanh((pi/2) sinh t) makes the integrand decay doubly
exponentially in t, endpoint power singularities included, so that the
trapezoidal rule on t in [-6, 6] converges about as exp(-c/h) in its step h.
Node distances to the nearer end, (b - a) E / (1 + E) with E = exp(-pi
|sinh t|), reach 3e-276 (b - a) at an end at 0; a node that rounds onto an
end moves to the nearest double inside, so no end is evaluated.  Callers map
[a, inf) onto (0, 1/a] by r = 1/x.  Both routines call f once per batch for
all its rows (the levels h = 1/2 to 1/16 of a piece are one batch of 193
nodes, h = 1/32 another), and each row gets the bits it would get alone.
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
# Points of maximize's first scan, and samples per refinement round: each
# round narrows the interval around the best point so far 32-fold, on
# np.linspace's points bit for bit.
_GRID_POINTS = 4096
_REFINE_POINTS = 65
_STEPS = np.arange(_REFINE_POINTS)


def _nodes(t: np.ndarray):
    """Distances to the nearer end over b - a, negated from b, whether t <= 0,
    and weights pi cosh t E / (1 + E)^2 of the nodes t."""
    e, left = np.exp(-np.pi * np.abs(np.sinh(t))), t <= 0.0
    weight = np.pi * np.cosh(t) * e / (1.0 + e) ** 2
    return np.where(left, 1.0, -1.0) * (e / (1.0 + e)), left, weight


# Per call, its nodes and levels (h, places of the nodes h adds): the multiples
# of 1/4, those of 1/2 at even places, then the odd multiples of each finer h.
_T = [np.arange(-24, 25) / 4.0] + [np.arange(1 - 6 * k, 6 * k, 2) / k for k in (8, 16, 32)]
_CALLS = [
    (_nodes(np.concatenate(_T[:3])), ((0.5, slice(0, 49, 2)), (0.25, slice(1, 49, 2)),
                                      (0.125, slice(49, 97)), (0.0625, slice(97, None)))),
    (_nodes(_T[3]), ((0.03125, slice(None)),))]


def _end_mass(x: np.ndarray, y: np.ndarray, end: float) -> float:
    """The mass near an end that the sum misses, from the first call's nodes
    x on its half, ascending in distance from it, with |f| values y: for
    |f| ~ x^g read from the outermost node x1 and the next distinct one,
    x1 |f(x1)| / (g + 1), less about twice the mass of nodes moved onto x1,
    which carry |f(x1)| to the end; inf if g <= -1, 0 if |f| is 0 at either."""
    x1, k2 = abs(x.item(0) - end), 1
    while k2 < x.size and abs(x.item(k2) - end) <= x1:
        k2 += 1
    if k2 == x.size or (y1 := y.item(0)) == 0.0 or y.item(k2) == 0.0:
        return 0.0
    g = math.log(y1 / y.item(k2)) / math.log(x1 / abs(x.item(k2) - end))
    moved = 1.0 if k2 == 1 else 2.0 * max(-g, 0.0)
    return x1 * y1 * moved / (g + 1.0) if g > -1.0 else math.inf


def _ladder(f, lo: float, hi: float, rel_tol: float, rows, reads: list) -> dict:
    """S_h on [lo, hi] for the given rows of f (all if None), h = 1/2 to 1/16
    from one call (callers' checks read every sample), then 1/32 for the
    rows whose S_1/16, S_1/8 differ by more than rel_tol |S_1/16| and the
    round-off floor; each call appends the list of its readers to reads.
    {row: ((S_h, integral of |f|, |S_h - S_2h|, _end_mass sum) or the error
    of a non-finite sample, the row's calls)}, each sum np.vecdot's, the
    1-D w @ y_i's bits (a 2-D y @ w sums in another order)."""
    width, inside = hi - lo, (math.nextafter(lo, hi), math.nextafter(hi, lo))
    done, sums = {}, {}
    for (dist, left, weight), levels in _CALLS:
        x = np.where(left, lo, hi) + width * dist
        np.minimum(np.maximum(x, inside[0], out=x), inside[1], out=x)
        y = np.asarray(f(x), dtype=float)
        if y.shape[-1:] != x.shape or y.ndim > 2:
            raise QuadratureError(f"integrand must map a vector of {x.size} points "
                                  f"to as many values, got shape {y.shape}")
        y, finite = y.reshape(-1, x.size), np.isfinite(y).reshape(-1, x.size)
        bad = () if finite.all() else set(np.flatnonzero(~finite.all(axis=1)).tolist())
        y = np.where(finite, y, 0.0) if bad else y  # no arithmetic on a failed row
        y_abs = np.abs(y)
        dots = [np.vecdot(y_abs, weight).tolist()] + [
            np.vecdot(y[:, part], weight[part]).tolist() for _, part in levels]
        first = levels[0][0] == 0.5  # the multiples of 1/4, t <= 0 at places 0-24
        reads.append([])
        rows = range(len(y)) if rows is None else rows
        for i in rows:
            total, total_abs, estimate, tails, calls = sums.get(i, (0.0, 0.0, 0.0, 0.0, ()))
            calls += (len(reads) - 1,)
            if i in bad:
                done[i] = (QuadratureError(f"integrand non-finite near x = "
                                           f"{float(x[~finite[i]][0])!r}"), calls)
                continue
            total_abs += dots[0][i]
            if first:
                tails = (_end_mass(x[:25], y_abs[i, :25], lo)
                         + _end_mass(x[48:24:-1], y_abs[i, 48:24:-1], hi))
            for (h, _), dot in zip(levels, dots[1:]):
                previous, total = estimate, total + dot[i]
                estimate = h * width * total
            integral_abs, diff = h * width * total_abs, abs(estimate - previous)
            if not first or diff <= max(rel_tol * abs(estimate), _FLOOR * _EPS * integral_abs):
                done[i] = ((estimate, integral_abs, diff, tails), calls)
            else:
                sums[i] = (total, total_abs, estimate, tails, calls)
        rows = [i for i in rows if i not in done]
        if not rows:
            return done


def _integral(edges: list, rel_tol: float):
    """One row's integral over each interval between the edges on its own:
    yields the pieces it needs next, is sent their ladders in that order or
    thrown the first one's error, and returns (value, error) summed."""
    parts = []
    for a, b in zip(edges, edges[1:]):
        pieces, new = [], [(a, b)]
        while True:
            ladders = yield new
            pieces += [(*piece, *ladder) for piece, ladder in zip(new, ladders)]
            value, integral_abs, error = map(math.fsum, list(zip(*pieces))[2:5])
            if not math.isfinite(value):
                break
            tol = max(rel_tol * abs(value), _FLOOR * _EPS * integral_abs)
            for lo, hi, *_, tails in pieces[-len(new):]:
                if tails > tol:  # halving keeps the end, and the mass its node misses
                    raise QuadratureError(
                        f"the integrand's mass beyond the outermost nodes of [{lo!r}, "
                        f"{hi!r}], about {tails:.3e}, exceeds the tolerance {tol:.3e}")
            if error <= tol:
                break
            share = tol / len(pieces)
            new = [half for lo, hi, *rest in pieces if rest[2] > share
                   for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
            if len(pieces) + len(new) // 2 > _MAX_PIECES:
                raise QuadratureError(f"did not converge in {_MAX_PIECES} pieces of "
                                      f"[{a!r}, {b!r}] (error {error:.3e}, value {value:.3e})")
            pieces = [piece for piece in pieces if piece[4] <= share]
        parts.append((value, error if math.isfinite(value) else math.inf))
    return tuple(map(math.fsum, zip(*parts)))


def integrate(f, a: float, b: float, rel_tol: float = 1e-12, breaks=(),
              reads=None) -> list:
    """Integrate each row of f over the finite [a, b], each interval between
    the sorted breaks on its own (QUADPACK's QAGP); f maps m points to as
    many finite values, or to (rows, m) values.  While the error exceeds
    rel_tol |value| and the round-off floor, each piece whose error exceeds
    its share of that tolerance is halved, so a kink without a breakpoint
    costs calls, not accuracy.  A row keeps its own pieces and levels,
    sharing each call with the rows that need it, and gets what it gets
    alone: (value, error), the value inf when a sum of finite samples
    overflows; or a QuadratureError naming a point where it is not finite,
    past _MAX_PIECES pieces, or when the mass the ends' nodes miss exceeds
    the tolerance (|f| ~ x^g, g near -1).  reads, if given, gets per call
    the rows that read its samples, up to their error."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"integrate requires finite bounds, got [{a}, {b}]")
    edges, reads = list(dict.fromkeys([a, *breaks, b])), [] if reads is None else reads
    if len(edges) == 1:
        return [(0.0, 0.0)]
    rows, need = None, {(a, edges[1]): None}  # every row needs the first piece
    while need:
        ladders = {piece: _ladder(f, *piece, rel_tol, who, reads)
                   for piece, who in need.items()}
        if rows is None:
            rows = [_integral(edges, rel_tol) for _ in ladders[a, edges[1]]]
            wants, results = [next(row) for row in rows], [None] * len(rows)
        need = {}
        for i, row in enumerate(rows):
            if results[i] is not None:
                continue
            sent = []
            for piece in wants[i]:
                ladder, calls = ladders[piece][i]
                for call in calls:
                    reads[call].append(i)
                if isinstance(ladder, QuadratureError):
                    break
                sent.append(ladder)
            try:
                wants[i] = (row.throw(ladder) if isinstance(ladder, QuadratureError)
                            else row.send(sent))
            except StopIteration as finished:
                results[i] = finished.value
            except QuadratureError as failure:
                results[i] = failure
            else:
                for piece in wants[i]:
                    need.setdefault(piece, []).append(i)
    return results


@functools.lru_cache(maxsize=8)
def geom_grid(start: float, stop: float, n: int) -> np.ndarray:
    """np.geomspace(start, stop, n), read-only, computed once per process:
    the root scan's grid and maximize's on an infinite domain."""
    grid = np.geomspace(start, stop, n)
    grid.flags.writeable = False
    return grid


def maximize(f, a: float, b: float) -> list:
    """Maximize each row of rows of continuous functions on shared samples
    over [a, b], b possibly infinite; a function of one row is one row.

    f must be vectorized: it maps an array of points to an array of as many
    values, finite ones; for rows it maps m points to a (rows, m) array, and
    a (rows, m) array of points, row i for function i, to as many values.  A
    dense grid scan, one call f(xs) on all _GRID_POINTS points, locates the
    neighbourhood of each row's global maximum.  Each round of refinement then
    samples, for every row in one call, the interval between the neighbours
    of its best point so far at _REFINE_POINTS points (a 1-D array of them for
    one row), until every interval is no wider than 1e-12 (|lo| + |hi| + 1); a
    converged row keeps its last interval, its values ignored, so a row's
    result is the one it gets alone.  Grid endpoints stay in contention, so
    boundary maxima are found exactly.  r = 1/x maps [a, inf) onto (0, 1/a],
    where the samples gather where a decaying profile can still be large.
    One entry per row: (argmax, max_value), the best sample seen, or, for a
    row with a non-finite sample, the QuadratureError it holds.
    """
    inverse = math.isinf(b)
    if inverse and a <= 0.0:
        raise QuadratureError("infinite-domain maximize requires a > 0")
    # Geometric spacing covers twelve decades of r at uniform log density, so
    # suprema approached at infinity are resolved to round-off while interior
    # peaks still land between two neighbouring grid points.
    xs = (geom_grid(1.0 / a, 1e-12 / a, _GRID_POINTS) if inverse
          else np.linspace(a, b, _GRID_POINTS))
    vals = np.asarray(f(1.0 / xs if inverse else xs), dtype=float)
    n_rows = len(vals) if vals.ndim == 2 else 1
    # Per row: the best (x, value) and the interval, as Python floats, and its points.
    best, spans, results = [(None, -math.inf)] * n_rows, [None] * n_rows, [None] * n_rows
    live, lines = range(n_rows), [xs] * n_rows
    while True:
        if vals.shape not in (xs.shape, (n_rows, xs.shape[-1])):
            raise QuadratureError(f"maximize: f must map a vector of {xs.size} points "
                                  f"to as many values, got shape {vals.shape}")
        vals = vals.reshape(n_rows, xs.shape[-1])
        finite = np.isfinite(vals).all(axis=1).tolist()
        cols, last, still = vals.argmax(axis=1).tolist(), xs.shape[-1] - 1, []
        for i in live:
            c, row = cols[i], lines[i]
            lo, hi = spans[i] = sorted((row.item(max(c - 1, 0)), row.item(min(c + 1, last))))
            if not finite[i]:
                results[i] = QuadratureError("maximize: non-finite sample on grid")
                continue
            if vals.item(i, c) > best[i][1]:
                best[i] = (row.item(c), vals.item(i, c))
            if (hi - lo) <= 1e-12 * (abs(lo) + abs(hi) + 1.0):
                x_best, v_best = best[i]
                results[i] = (1.0 / x_best if inverse else x_best, v_best)
            else:
                still.append(i)
        live = still
        if not live:
            return results
        lines = [_STEPS * ((hi - lo) / (_REFINE_POINTS - 1)) + lo for lo, hi in spans]
        for line, (_, hi) in zip(lines, spans):
            line[-1] = hi
        xs = lines[0] if n_rows == 1 else np.array(lines)
        vals = np.asarray(f(1.0 / xs if inverse else xs), dtype=float)
