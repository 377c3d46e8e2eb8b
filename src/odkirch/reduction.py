"""Reduction of the overdetermined problems to one scalar equation, and its roots.

Candidate solutions are multiples u = a U of the base field of the geometry.
Since S_k(D^2(aU)) = a^k C(N, k) on the ball (and Delta(aU) = a N |x|^(-N-2)
outside the unit ball, the k = 1 case), writing s = ||u||_p = a ||U||_p turns

    M(||u||_p, ||grad u||_q) * S_k(D^2 u) = lambda

into the scalar transcendental equation

    g(s) := C(N, k) s^k M(s, rho s) = lambda ||U||_p^k,
    rho  := ||grad U||_q / ||U||_p,

because both norms scale linearly in the amplitude.  Each positive root s_*
gives back the exact solution u = (s_* / ||U||_p) U with boundary gradient
c = s_* R / ||U||_p on the ball and c = s_* / ||U||_p on the exterior domain,
and the number of solutions equals the number of roots.

Roots are counted on the monotone pieces of g.  A dense log-spaced scan
evaluates h(s) = g(s) - target and g'(s) in one array call; the grid points
and the critical points s_c, the zeros of g' between them, cut the window
into pieces on which g is monotone, so each piece holds one root exactly
when h changes sign across it or is 0 at an end.  The cells h crosses and
the cells g' turns in are narrowed together (refine_brackets), one array
call per round cutting every open bracket into 64 sections around the
secant point of its ends' h or g', which it keeps as Python floats; an s_c
with h(s_c) past the level splits its cell into two more brackets, and one
within TANGENCY_RTOL * target of it is reported as a tangency.

solve_roots returns one dict, the body of `odkirch analyze --json` but its
"system_check", under the printed names; a root's amplitude and c give its
solution u = amplitude U, and system_count_check and the verifier read them.

system_count_check re-derives the count without the scalar equation, from
the two-dimensional fixed-point system for the pair (s, t) = (||u||, ||grad u||),

    F1 = s - a gamma(s, t) = 0,    F2 = t - b gamma(s, t) = 0,
    gamma = (lambda / (C(N, k) M(s, t)))^(1/k),  a = ||U||_p,  b = ||grad U||_q.

Since b F1 - a F2 = b s - a t, every zero of F lies on the line t = rho s,
where F2 = rho F1.  F is an invertible linear image of the pair
(F1, b s - a t), whose second member changes sign across the line, so the
topological degree of F on a thin box around a segment of the line is +-1
when F1 has opposite signs at the segment's ends and 0 when it has one sign
there (Kearfott 1979, Numer. Math. 32).  The check samples F1 on 401
geometric nodes of the line, counts the segments of nonzero degree and
matches them one by one against the ray roots.  On the line F1 has the sign
of h, but the check computes it by its own formula on its own grid.  Two
zeros in one segment would give degree 0, so the grid also holds the
midpoints of consecutive ray roots, one segment per ray root; a pair that the
ray scan also misses can still share a segment and hide.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base_solutions import BallGeometry, ExteriorGeometry
from .errors import DomainError
from .hessian import binomial
from .kernel import eval_kernel, parse_kernel
from .quadrature import geom_grid


@dataclass(frozen=True)
class ProblemInstance:
    """One fully specified overdetermined problem.

    `kernel` may be given as expression text or as a parsed tree; it is stored
    parsed.  The ball variant requires 1 <= k <= N; the exterior variant is
    Laplacian-only, k = 1.
    """

    geometry: object
    k: int
    p: float
    q: float
    lam: float
    kernel: object

    def __post_init__(self):
        geom = self.geometry
        if not isinstance(geom, (BallGeometry, ExteriorGeometry)):
            raise DomainError(f"unsupported geometry {type(geom).__name__}")
        geom.check_k(self.k)
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"lambda must be finite and positive, got {self.lam}")
        geom.check_exponents(self.p, self.q)
        if isinstance(self.kernel, str):
            object.__setattr__(self, "kernel", parse_kernel(self.kernel))


@dataclass(frozen=True)
class ReducedEquation:
    """The scalar equation g(s) = target together with everything it came from."""

    k: int
    coeff: int          # C(N, k)
    norm_u: float       # ||U||_p
    norm_grad: float    # ||grad U||_q
    rho: float          # norm_grad / norm_u
    lam: float
    target: float       # lam * norm_u^k
    kernel: object
    geometry: object

    def g(self, s, slope=False):
        """Left side of the reduced equation; vectorized in s, +-inf on overflow.

        With slope, the pair (g, g'), g' = C(N, k) s^k (M_s + rho M_t) + k g / s
        from the kernel's slope along (1, rho); g' may be non-finite.
        """
        s_arr = np.asarray(s, dtype=float)
        m = eval_kernel(self.kernel, s_arr, self.rho * s_arr,
                        slope=(1.0, self.rho) if slope else None)
        with np.errstate(over="ignore"):
            scaled = self.coeff * s_arr ** self.k
            out = scaled * (m[0] if slope else m)
        if slope:
            with np.errstate(all="ignore"):
                out = (out, scaled * m[1] + self.k * out / s_arr)
        if np.isscalar(s) or s_arr.ndim == 0:
            return tuple(map(float, out)) if slope else float(out)
        return out

    def h(self, s, slope=False):
        """Scan residual g(s) - target; with slope, the pair (h, g')."""
        out = self.g(s, slope)
        return (out[0] - self.target, out[1]) if slope else out - self.target


def build_reduced(instance: ProblemInstance) -> ReducedEquation:
    """Compute the closed-form norms of the base field and assemble g."""
    geom = instance.geometry
    norm_u = geom.norm_u(instance.p)
    norm_grad = geom.norm_grad(instance.q)
    coeff = binomial(geom.n, instance.k)
    try:
        target = instance.lam * norm_u ** instance.k
    except OverflowError:
        target = math.inf
    if not math.isfinite(target):
        raise DomainError(
            f"target lambda ||U||_p^k = {instance.lam!r} * {norm_u!r}**{instance.k} "
            "overflows a double"
        )
    return ReducedEquation(
        k=instance.k,
        coeff=coeff,
        norm_u=norm_u,
        norm_grad=norm_grad,
        rho=norm_grad / norm_u,
        lam=instance.lam,
        target=target,
        kernel=instance.kernel,
        geometry=geom,
    )


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of the root scan.

    s_max = None picks ten times the root the equation would have with M = 1
    (and no less than 1e3), which covers every kernel whose size is within an
    order of magnitude of constant; the scan warns when the residual is still
    heading toward zero at either edge.  The window must be finite.
    """

    s_min: float = 1e-8
    s_max: float | None = None
    n_grid: int = 10_000
    rel_width: float = 1e-13

    def __post_init__(self):
        if self.n_grid < 100:
            raise DomainError(f"scan needs at least 100 grid points, got {self.n_grid}")
        if not (self.s_min > 0.0):
            raise DomainError(f"s_min must be positive, got {self.s_min}")
        if self.s_max is not None and not (self.s_max > self.s_min):
            raise DomainError(f"s_max = {self.s_max} must exceed s_min = {self.s_min}")
        if not (0.0 < self.rel_width < 1e-2):
            raise DomainError(f"rel_width out of range: {self.rel_width}")
        if not math.isfinite(self.s_min) or not math.isfinite(self.s_max or 0.0):
            raise DomainError(f"scan window [{self.s_min}, {self.s_max}] must be finite")


# Sections of every bracket per array call of h, and the rounds a bracket may
# take: n rounds narrow it at least 32^(n - 1)-fold, _ROUNDS 2^200-fold.
# The edge warnings look at _EDGE_WINDOW grid points at either end.  A
# critical point of g that splits nothing is reported as a tangency within
# TANGENCY_RTOL * target of the level; no count depends on it.
_SECTIONS = 64
_ROUNDS = 41
_EDGE_WINDOW = 50
TANGENCY_RTOL = 1e-3
_HALF = np.linspace(-1.0, 1.0, _SECTIONS + 1)


def refine_brackets(fun, a, b, fa, rel_width: float, rows=None, fb=None):
    """Narrow the sign-change brackets [a_i, b_i], fun(a_i) = fa_i, together.

    Each round makes one call of fun, on _SECTIONS + 1 points of every live
    bracket [lo, hi]: the secant point x of fun at lo and hi, and _SECTIONS/2
    equal sections either side of it over [x - d, x + d] within the bracket,
    d = max(8 (hi - lo)^2 / x, rel_width x); the midpoint and the bracket
    without a secant point in [lo, hi] and in every round after a miss.  The
    bracket becomes its first piece, cut at lo, the points and hi, whose right
    end is exactly 0, which closes it there, or has the other sign, (f < 0)
    != (fa < 0), than fa: a section, 32 times narrower or more, or a miss,
    the piece outside the sections.  So fun(lo) keeps fa's sign and the root
    stays in (lo, hi].  A bracket stays live while hi - lo > rel_width * mid
    and lo < mid < hi, mid = (lo + hi) / 2, for at most _ROUNDS rounds.
    Returns (roots, residuals) as lists: the final midpoints, and |fun| there.

    A bracket's ends, their values, its secant point, window and live test
    are Python scalars; the rounds' (brackets, _SECTIONS + 1) points, fun on
    them, the sign test and the search for the first piece are arrays.

    fun maps an array of points to an array of values.  With rows, fun
    returns rows of values, bracket i is narrowed on row rows[i], and its
    residual is the signed column of fun at its root.  fb holds the values
    at b, on the same rows; without it the first round is uniform.
    """
    n = len(a)
    ends = (np.asarray(v, dtype=float).tolist()
            for v in (a, b, fa, [math.nan] * n if fb is None else fb))
    rows_in = [0] * n if rows is None else np.asarray(rows, dtype=int).tolist()
    # (index, lo, hi, f_lo, f_hi, row, fresh) of every bracket still open.
    todo = list(zip(range(n), *ends, rows_in, [True] * n))
    roots = [math.nan] * n
    with np.errstate(all="ignore"):
        for n_round in range(_ROUNDS + 1):
            live, spec = [], []     # spec: x, x - w_lo, w_hi - x, w_lo, w_hi, f_lo, ...
            for bracket in todo:
                i, lo, hi, f_lo, f_hi, _, fresh = bracket
                mid = 0.5 * (lo + hi)
                if not (hi - lo > rel_width * mid and lo < mid < hi and n_round < _ROUNDS):
                    roots[i] = mid
                    continue
                x, w_lo, w_hi = mid, lo, hi
                if fresh and f_lo != f_hi:      # equal ends have no secant point
                    s = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
                    if lo <= s <= hi:
                        w = hi - lo     # w * w: a Python ** raises on overflow
                        d = max(8.0 * (w * w), rel_width * s * s) / abs(s) if s else math.inf
                        x, w_lo, w_hi = s, max(s - d, lo), min(s + d, hi)
                live.append(bracket)
                spec += x, x - w_lo, w_hi - x, w_lo, w_hi, f_lo
            if not live:
                break
            spec = np.array(spec).reshape(-1, 6)
            points = spec[:, :1] + np.where(_HALF < 0.0, spec[:, 1:2], spec[:, 2:3]) * _HALF
            points[:, 0], points[:, -1] = spec[:, 3], spec[:, 4]
            m = len(live)           # bracket k's values are row rows[k] * m + k
            values = np.reshape(fun(points.ravel()), (-1, _SECTIONS + 1))[
                [bracket[5] * m + k for k, bracket in enumerate(live)]]
            hit = (values == 0.0) | ((values < 0.0) != (spec[:, 5:] < 0.0))
            first = hit.argmax(axis=1)
            # The first hit and the point before it; with no hit, column -1 is w_hi.
            pick = np.arange(m)[:, None], first[:, None] + (-1, 0)
            todo = []
            for (i, lo, hi, f_lo, f_hi, row, fresh), j, (p_0, p_1), (v_0, v_1) in zip(
                    live, first.tolist(), points[pick].tolist(), values[pick].tolist()):
                found = v_1 == 0.0 or (v_1 < 0.0) != (f_lo < 0.0)
                if found:                   # else the piece [w_hi, hi], a miss
                    hi, f_hi = p_1, v_1
                if f_hi == 0.0:             # an exact zero closes the bracket
                    lo, f_lo = hi, f_hi
                elif not (found and j == 0):
                    lo, f_lo = p_0, v_0
                todo.append((i, lo, hi, f_lo, f_hi, row, fresh and found and j > 0))
    last = np.atleast_2d(fun(np.array(roots))) if roots else np.empty((1, 0))
    return roots, (np.abs(last[0]).tolist() if rows is None else last.T.tolist())


def solve_roots(eq: ReducedEquation, config: ScanConfig = ScanConfig()) -> dict:
    """Count and refine the positive roots of g(s) = target.

    Returns the body of `odkirch analyze --json` but its "system_check": the
    equation's coeff, norm_u, norm_grad, rho and target; the scan window
    {s_min, s_max, n_grid}; count; roots [{s, amplitude, c, residual,
    bracket}] in ascending s; tangencies [{s, gap, bracket}]; and the edge
    warnings.  Pure function of its inputs: the scan grid and the refinement
    rounds are deterministic.  DomainError when the default s_max overflows,
    or when h is exactly 0 on two adjacent grid points.
    """
    s_min, s_max = config.s_min, config.s_max
    if s_max is None:
        scale = (eq.target / eq.coeff) ** (1.0 / eq.k)
        s_max = max(10.0 * scale, 1e3)
        if not math.isfinite(s_max):
            raise DomainError(f"default scan window s_max = 10 * {scale!r} is "
                              "not finite; give scan.s_max explicitly")
    if s_max <= s_min:
        raise DomainError(f"scan range empty: [{s_min}, {s_max}]")
    grid = geom_grid(s_min, s_max, config.n_grid)
    hvals, slopes = eq.h(grid, slope=True)

    # Cell i is [grid[i], grid[i + 1]]: it is flagged when its left end is an
    # exact zero or when h changes sign between two nonzero ends.
    zero = hvals == 0.0
    pair = np.flatnonzero(zero[:-1] & zero[1:])
    if pair.size:
        lo, hi = float(grid[pair[0]]), float(grid[pair[0] + 1])
        raise DomainError(f"g(s) = target exactly at adjacent grid points s = "
                          f"{lo!r} and {hi!r}: it holds on an interval, and a "
                          "continuum of solutions has no count")
    negative = hvals < 0.0
    crossing = (negative[:-1] != negative[1:]) & ~zero[:-1] & ~zero[1:]
    flagged = crossing | zero[:-1]
    # g' changes sign in the turning cells that h does not cross, at a
    # critical point s_c that cuts the cell into two monotone pieces.  An
    # extremum that turns away from the level (a maximum of h above it, a
    # minimum below) holds neither a root nor a tangency.
    falling = slopes < 0.0
    crossed = np.flatnonzero(crossing)
    turning = np.flatnonzero((falling[:-1] != falling[1:]) & ~crossing & (
        (falling[1:] == negative[:-1]) | zero[:-1] | zero[1:]))
    cells = np.concatenate([crossed, turning])
    # g' adds a slope walk to every kernel call: only turning cells need it.
    fun = (lambda s: eq.h(s, slope=True)) if turning.size else eq.h
    found, columns = refine_brackets(
        fun, grid[cells], grid[cells + 1],
        np.concatenate([hvals[crossed], slopes[turning]]), config.rel_width,
        rows=[0] * crossed.size + [1] * turning.size,
        fb=np.concatenate([hvals[crossed + 1], slopes[turning + 1]]))

    # Every root is a refined bracket or an exact zero: the crossed cells,
    # the grid zeros, the critical points on the level and the pieces of the
    # cells that a critical point past the level splits.  A critical point in
    # a cell with a zero end is on the zero's monotone piece: no root of its own.
    roots = [(s, abs(col[0]), (float(grid[i]), float(grid[i + 1])))
             for i, s, col in zip(crossed.tolist(), found, columns)]
    roots += [(s, 0.0, (s, s)) for s in grid[zero].tolist()]
    pieces, tangencies = [], []
    near = TANGENCY_RTOL * abs(eq.target)
    for i, s_c, (h_c, _) in zip(turning.tolist(), found[crossed.size:],
                                columns[crossed.size:]):
        (lo, hi), (h_lo, h_hi) = grid[i:i + 2].tolist(), hvals[i:i + 2].tolist()
        split = [(a, b, f_a, f_b) for a, b, f_a, f_b in
                 ((lo, s_c, h_lo, h_c), (s_c, hi, h_c, h_hi))
                 if f_a < 0.0 < f_b or f_b < 0.0 < f_a]
        pieces += split
        if split or 0.0 in (h_lo, h_hi) or not abs(h_c) <= near:
            continue
        if h_c == 0.0:
            roots.append((s_c, 0.0, (lo, hi)))
        else:
            tangencies.append({"s": s_c, "gap": abs(h_c), "bracket": [lo, hi]})
    if pieces:
        a, b, f_a, f_b = np.array(pieces).T
        found, residuals = refine_brackets(eq.h, a, b, f_a, config.rel_width, fb=f_b)
        roots += [(s, res, piece[:2]) for s, res, piece in zip(found, residuals, pieces)]

    # Neighbours compared, not subtracted: inf - inf, where |h| overflows, warns.
    warnings, top, bottom = [], np.abs(hvals[-_EDGE_WINDOW:]), np.abs(hvals[:_EDGE_WINDOW])
    if not flagged[-_EDGE_WINDOW:].any() and np.all(top[1:] < top[:-1]):
        warnings.append(
            f"|g - target| still decreasing at s_max = {s_max:.6g}; "
            "roots beyond the scan range are possible, raise s_max"
        )
    if not flagged[:_EDGE_WINDOW].any() and np.all(bottom[1:] > bottom[:-1]):
        warnings.append(
            f"|g - target| still decreasing at s_min = {s_min:.6g}; "
            "roots below the scan range are possible, lower s_min"
        )

    # |grad U| = R on the boundary sphere (R = 1 for the exterior domain).
    return {
        "coeff": eq.coeff, "norm_u": eq.norm_u, "norm_grad": eq.norm_grad,
        "rho": eq.rho, "target": eq.target,
        "scan": {"s_min": float(s_min), "s_max": float(s_max),
                 "n_grid": config.n_grid},
        "count": len(roots),
        "roots": [{"s": s, "amplitude": s / eq.norm_u,
                   "c": s / eq.norm_u * eq.geometry.radius,
                   "residual": res, "bracket": list(bracket)}
                  for s, res, bracket in sorted(roots, key=lambda r: r[0])],
        "tangencies": tangencies,
        "warnings": warnings,
    }


# Segments of the line t = rho s in the 2-D check, and the exponents of its
# geometric nodes s_lo^(1 - u) s_hi^u, a product that cannot overflow.
_SYSTEM_GRID = 400
_UNIT = np.linspace(0.0, 1.0, _SYSTEM_GRID + 1)
_COUNIT = 1.0 - _UNIT


def system_count_check(eq: ReducedEquation, record: dict) -> dict:
    """Validate solve_roots' record by the degree of the 2-D fixed-point system.

    Samples F1 = s - ||U||_p gamma on 401 geometric nodes (s, rho s) of the
    box [min root / 10, max root * 10] (the scan window when there are no
    roots) and the midpoints of consecutive ray roots, in one kernel call.
    Segment i, [s_i, s_(i+1)), counts when it is not empty (a midpoint can
    fall on a node), M > 0 and gamma is finite at both ends, and F1 is
    exactly 0 at s_i or has opposite signs at the two ends.  matched holds
    when the counted segments are as many as the ray roots and the j-th of
    them holds the j-th root, give or take one segment.  DomainError when an
    edge of the box is not finite and positive.

    Returns the "system_check" record of `odkirch analyze --json`:
    cluster_count, the counted segments, root_count and matched.
    """
    ray = np.array([root["s"] for root in record["roots"]])     # ascending
    s_lo, s_hi = ((float(ray[0]) / 10.0, float(ray[-1]) * 10.0) if ray.size
                  else (record["scan"]["s_min"], record["scan"]["s_max"]))
    t_lo, t_hi = eq.rho * s_lo, eq.rho * s_hi
    for name, edge in (("s_lo", s_lo), ("s_hi", s_hi), ("t_lo", t_lo), ("t_hi", t_hi)):
        if not 0.0 < edge < math.inf:
            raise DomainError(f"2-D check box edge {name} = {edge!r} is not "
                              "finite and positive; lower scan.s_max")

    nodes = s_lo ** _COUNIT * s_hi ** _UNIT
    nodes[0], nodes[-1] = s_lo, s_hi
    s = np.sort(np.concatenate([nodes, 0.5 * (ray[1:] + ray[:-1])]))
    m = eval_kernel(eq.kernel, s, eq.rho * s)
    with np.errstate(all="ignore"):
        s_fix = eq.norm_u * (eq.lam / (eq.coeff * m)) ** (1.0 / eq.k)
        # The sign of F1 where M > 0 and s_fix is finite, NaN elsewhere.
        side = np.where((m > 0.0) & np.isfinite(s_fix), np.sign(s - s_fix), np.nan)
    # NaN never compares, so either test below implies a valid left end.
    left, right = side[:-1], side[1:]
    counted = np.flatnonzero(np.isfinite(right) & (s[:-1] < s[1:])
                             & ((left == 0.0) | (left * right < 0.0)))

    holding = np.searchsorted(s, ray, side="right") - 1
    matched = (counted.size == ray.size
               and bool(np.all(np.abs(counted - holding) <= 1)))
    return {"cluster_count": int(counted.size), "root_count": ray.size,
            "matched": matched}
