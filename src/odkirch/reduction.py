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

Roots are located by a dense log-spaced scan for sign changes of
h(s) = g(s) - target followed by bisection.  Only bracketed (transversal)
crossings are counted; grid points where |h| dips near zero without changing
sign are refined and reported as tangency suspects rather than silently
counted or dropped.

system_count_check re-derives the count without the ray reduction: it scans
the two-dimensional fixed-point system for the pair (s, t) = (||u||, ||grad u||),

    s = ||U||_p * gamma(s, t),    t = ||grad U||_q * gamma(s, t),
    gamma = (lambda / (C(N, k) M(s, t)))^(1/k),

flags grid cells where both residuals change sign, clusters them, and matches
the clusters one-to-one against the ray roots.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base_solutions import BallGeometry, ExteriorGeometry
from .errors import DomainError
from .hessian import binomial
from .kernel import eval_kernel, kernel_to_string, parse_kernel
from .quadrature import golden_max


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

    n: int
    k: int
    coeff: int          # C(N, k)
    norm_u: float       # ||U||_p
    norm_grad: float    # ||grad U||_q
    rho: float          # norm_grad / norm_u
    lam: float
    target: float       # lam * norm_u^k
    kernel: object
    geometry: object

    def g(self, s):
        """Left side of the reduced equation; vectorized in s, +-inf on overflow."""
        s_arr = np.asarray(s, dtype=float)
        m = eval_kernel(self.kernel, s_arr, self.rho * s_arr)
        with np.errstate(over="ignore"):
            out = self.coeff * s_arr ** self.k * m
        if np.isscalar(s) or s_arr.ndim == 0:
            return float(out)
        return out

    def h(self, s):
        """Scan residual g(s) - target."""
        return self.g(s) - self.target

    @property
    def kernel_text(self) -> str:
        return kernel_to_string(self.kernel)


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
        n=geom.n,
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
    heading toward zero at either edge.

    A grid point where |g - target| has a local minimum below
    tangency_rtol * target, with no sign change next to it, is refined and
    reported as a tangency suspect (or as two roots, when the refinement
    finds the level crossed between grid points).
    """

    s_min: float = 1e-8
    s_max: float | None = None
    n_grid: int = 10_000
    rel_width: float = 1e-13
    tangency_rtol: float = 1e-3

    def __post_init__(self):
        if self.n_grid < 100:
            raise DomainError(f"scan needs at least 100 grid points, got {self.n_grid}")
        if not (self.s_min > 0.0):
            raise DomainError(f"s_min must be positive, got {self.s_min}")
        if self.s_max is not None and not (self.s_max > self.s_min):
            raise DomainError(f"s_max = {self.s_max} must exceed s_min = {self.s_min}")
        if not (0.0 < self.rel_width < 1e-2):
            raise DomainError(f"rel_width out of range: {self.rel_width}")


@dataclass(frozen=True)
class RootInfo:
    s: float
    amplitude: float      # s / ||U||_p
    c: float              # boundary gradient of the constructed solution
    bracket: tuple        # grid interval that isolated the root
    residual: float       # |g(s) - target| after refinement


@dataclass(frozen=True)
class TangencyInfo:
    """A near-touching of the target level that did not produce a sign change."""

    s: float
    gap: float            # min |g - target| found near s
    bracket: tuple


@dataclass(frozen=True)
class SolutionStructure:
    equation: ReducedEquation
    roots: tuple
    tangencies: tuple
    warnings: tuple
    s_min: float
    s_max: float
    n_grid: int

    @property
    def count(self) -> int:
        return len(self.roots)


def _bisect(fun, a: float, b: float, fa: float, fb: float, rel_width: float):
    """Shrink a sign-change bracket; returns (root, |fun(root)|)."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= rel_width * mid or mid <= a or mid >= b:
            break
        fm = fun(mid)
        if fm == 0.0:
            return mid, 0.0
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    return root, abs(fun(root))


_EDGE_WINDOW = 50


def solve_roots(eq: ReducedEquation, config: ScanConfig = ScanConfig()) -> SolutionStructure:
    """Count and refine the positive roots of g(s) = target.

    Pure function of its inputs: the scan grid, bisection order and tangency
    refinement are all deterministic.  DomainError when the default s_max
    overflows, or when h is exactly 0 on two adjacent grid points.
    """
    s_min = config.s_min
    s_max = config.s_max
    if s_max is None:
        scale = (eq.target / eq.coeff) ** (1.0 / eq.k)
        s_max = max(10.0 * scale, 1e3)
        if not math.isfinite(s_max):
            raise DomainError(f"default scan window s_max = 10 * {scale!r} is "
                              "not finite; give scan.s_max explicitly")
    if s_max <= s_min:
        raise DomainError(f"scan range empty: [{s_min}, {s_max}]")
    grid = np.geomspace(s_min, s_max, config.n_grid)
    hvals = eq.h(grid)

    def h_scalar(s):
        return eq.h(float(s))

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

    roots = []
    for i in np.flatnonzero(flagged).tolist():
        lo = float(grid[i])
        if zero[i]:
            # Only on a grid finer than 4 rel_width can a root lie this close
            # below a grid zero; the zero is then the same root.
            if not roots or abs(roots[-1][0] - lo) > config.rel_width * lo * 4:
                roots.append((lo, 0.0, (lo, lo)))
            continue
        hi = float(grid[i + 1])
        root, res = _bisect(h_scalar, lo, hi, float(hvals[i]), float(hvals[i + 1]),
                            config.rel_width)
        roots.append((root, res, (lo, hi)))
    if zero[-1]:
        roots.append((float(grid[-1]), 0.0, (float(grid[-1]), float(grid[-1]))))

    # Tangency suspects: interior local minima of |h| with no flagged cell
    # around them, already within tangency_rtol of the target level.
    tangencies = []
    habs = np.abs(hvals)
    near = config.tangency_rtol * abs(eq.target)
    inner = habs[1:-1]
    blocked = flagged[:-1] | flagged[1:] | np.append(flagged[2:], False)
    dips = (inner <= near) & (inner <= habs[:-2]) & (inner <= habs[2:]) & ~blocked
    for j in (np.flatnonzero(dips) + 1).tolist():
        lo, hi = float(grid[j - 1]), float(grid[j + 1])
        s_t, neg_gap = golden_max(lambda s: -abs(h_scalar(s)), lo, hi)
        gap = -neg_gap
        h_t = h_scalar(s_t)
        side = float(hvals[j - 1])
        if h_t != 0.0 and (h_t < 0.0) != (side < 0.0):
            # The dip actually crosses the level between grid points: two
            # transversal roots hide in this cell pair.
            r1, e1 = _bisect(h_scalar, lo, s_t, side, h_t, config.rel_width)
            r2, e2 = _bisect(h_scalar, s_t, hi, h_t, float(hvals[j + 1]),
                             config.rel_width)
            roots.append((r1, e1, (lo, s_t)))
            roots.append((r2, e2, (s_t, hi)))
        elif h_t == 0.0:
            roots.append((s_t, 0.0, (lo, hi)))
        else:
            tangencies.append(TangencyInfo(s=s_t, gap=gap, bracket=(lo, hi)))

    roots.sort(key=lambda r: r[0])
    deduped = []
    for root, res, bracket in roots:
        if deduped and abs(root - deduped[-1][0]) <= 16 * config.rel_width * root:
            continue
        deduped.append((root, res, bracket))

    warnings = []
    if not flagged[-_EDGE_WINDOW:].any() and np.all(np.diff(habs[-_EDGE_WINDOW:]) < 0.0):
        warnings.append(
            f"|g - target| still decreasing at s_max = {s_max:.6g}; "
            "roots beyond the scan range are possible, raise s_max"
        )
    if not flagged[:_EDGE_WINDOW].any() and np.all(np.diff(habs[:_EDGE_WINDOW]) > 0.0):
        warnings.append(
            f"|g - target| still decreasing at s_min = {s_min:.6g}; "
            "roots below the scan range are possible, lower s_min"
        )

    # |grad U| = R on the boundary sphere (R = 1 for the exterior domain).
    root_infos = tuple(
        RootInfo(s=root, amplitude=root / eq.norm_u,
                 c=root / eq.norm_u * eq.geometry.radius,
                 bracket=bracket, residual=res)
        for root, res, bracket in deduped
    )
    return SolutionStructure(
        equation=eq,
        roots=root_infos,
        tangencies=tuple(tangencies),
        warnings=tuple(warnings),
        s_min=float(s_min),
        s_max=float(s_max),
        n_grid=config.n_grid,
    )


@dataclass(frozen=True)
class Solution:
    """An explicit exact solution u = amplitude * U reconstructed from a root."""

    amplitude: float
    c: float
    s: float
    geometry: object
    profile: object       # scaled RadialProfile

    @property
    def u(self):
        """The field as a callable, points (..., n) -> values (...)."""
        return self.profile.as_field(self.geometry.center)


def roots_to_solutions(structure: SolutionStructure) -> tuple:
    """Materialize one explicit solution per root, in root order."""
    geom = structure.equation.geometry
    base = geom.profile()
    return tuple(Solution(amplitude=info.amplitude, c=info.c, s=info.s,
                          geometry=geom, profile=base.scale(info.amplitude))
                 for info in structure.roots)


@dataclass(frozen=True)
class SystemReport:
    cluster_count: int
    root_count: int
    matched: bool
    centroids: tuple      # (s, t) geometric centroids of flagged clusters


# Cells per axis of the 2-D scan, and how many cells a cluster's box reaches
# past its outermost cells when it is matched against a ray root.
_SYSTEM_GRID = 400
_MATCH_CELLS = 8.0


def _cluster_cells(flags: np.ndarray):
    """8-connected components of True cells; deterministic scan order."""
    visited = np.zeros_like(flags, dtype=bool)
    clusters = []
    n_i, n_j = flags.shape
    for i, j in np.argwhere(flags):
        if visited[i, j]:
            continue
        stack = [(int(i), int(j))]
        visited[i, j] = True
        cells = []
        while stack:
            ci, cj = stack.pop()
            cells.append((ci, cj))
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = ci + di, cj + dj
                    if (0 <= ni < n_i and 0 <= nj < n_j
                            and flags[ni, nj] and not visited[ni, nj]):
                        visited[ni, nj] = True
                        stack.append((ni, nj))
        clusters.append(cells)
    return clusters


def every_corner(mask: np.ndarray) -> np.ndarray:
    """Cells of a node grid whose four corner nodes all satisfy mask."""
    return mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]


def system_count_check(eq: ReducedEquation, structure: SolutionStructure) -> SystemReport:
    """Validate the root count against a two-dimensional residual scan.

    Scans the (s, t) box around the expected solutions for cells where both
    fixed-point residuals change sign, clusters the flagged cells, and matches
    clusters one-to-one with the ray roots.  Tangential touchings produce no
    sign change in either view, so the two counts must agree exactly.
    DomainError when an edge of the box is not finite and positive.
    """
    if structure.roots:
        s_lo = min(r.s for r in structure.roots) / 10.0
        s_hi = max(r.s for r in structure.roots) * 10.0
    else:
        s_lo, s_hi = structure.s_min, structure.s_max
    t_lo, t_hi = eq.rho * s_lo, eq.rho * s_hi
    for name, edge in (("s_lo", s_lo), ("s_hi", s_hi), ("t_lo", t_lo), ("t_hi", t_hi)):
        if not 0.0 < edge < math.inf:
            raise DomainError(f"2-D check box edge {name} = {edge!r} is not "
                              "finite and positive; lower scan.s_max")

    s_edges = np.geomspace(s_lo, s_hi, _SYSTEM_GRID + 1)
    t_edges = np.geomspace(t_lo, t_hi, _SYSTEM_GRID + 1)
    ss, tt = np.meshgrid(s_edges, t_edges, indexing="ij")
    m = eval_kernel(eq.kernel, ss, tt)
    with np.errstate(all="ignore"):
        gamma = np.where(m > 0.0,
                         (eq.lam / (eq.coeff * np.where(m > 0.0, m, 1.0)))
                         ** (1.0 / eq.k),
                         np.nan)
        f1 = ss - eq.norm_u * gamma
        f2 = tt - eq.norm_grad * gamma

    # A cell is flagged when its corners are finite and each residual takes
    # both signs (or a zero) on them: neither all > 0 nor all < 0.
    flags = every_corner(np.isfinite(f1) & np.isfinite(f2))
    for f in (f1, f2):
        flags &= ~every_corner(f > 0.0) & ~every_corner(f < 0.0)

    clusters = _cluster_cells(flags)
    log_s = np.log(s_edges)
    log_t = np.log(t_edges)
    ds = (log_s[-1] - log_s[0]) / _SYSTEM_GRID
    dt = (log_t[-1] - log_t[0]) / _SYSTEM_GRID

    centroids = []
    boxes = []
    for cells in clusters:
        ls = [0.5 * (log_s[i] + log_s[i + 1]) for i, _ in cells]
        lt = [0.5 * (log_t[j] + log_t[j + 1]) for _, j in cells]
        centroids.append((math.exp(sum(ls) / len(ls)), math.exp(sum(lt) / len(lt))))
        boxes.append((min(ls) - _MATCH_CELLS * ds, max(ls) + _MATCH_CELLS * ds,
                      min(lt) - _MATCH_CELLS * dt, max(lt) + _MATCH_CELLS * dt))

    matched = len(clusters) == structure.count
    if matched:
        taken = set()
        for info in structure.roots:
            pt = (math.log(info.s), math.log(eq.rho * info.s))
            hit = None
            for idx, (a, b, c, d) in enumerate(boxes):
                if idx not in taken and a <= pt[0] <= b and c <= pt[1] <= d:
                    hit = idx
                    break
            if hit is None:
                matched = False
                break
            taken.add(hit)
    return SystemReport(
        cluster_count=len(clusters),
        root_count=structure.count,
        matched=matched,
        centroids=tuple(centroids),
    )
