"""Base solution fields on balls and exterior domains, with their Lebesgue norms.

The ball problem is solved by U(x) = (|x - x0|^2 - R^2)/2: every k-Hessian of
it equals the constant C(N, k), it vanishes on the sphere of radius R and its
normal derivative there is R.  The exterior problem on the complement of the
closed unit ball is solved by U(x) = (|x|^(-N) - |x|^(2-N))/2, which satisfies
Delta U = N |x|^(-N-2), vanishes on |x| = 1 where |grad U| = 1, and decays at
infinity (stays bounded when N = 2).  Both are two-term power sums in r, and
a RadialProfile holds them as data: scaling by a appends the factor a, and the
Kelvin image in R^N maps each term c r^a to c rho^(2-N-a).

Norms come in two deliberately independent flavours.  `profile_norm` is one
closed form, a beta integral, for any sum of one or two powers, read from the
profile's coefficients, powers and factors alone, as is the admissibility of
an exponent; its incomplete beta is a series summed in logs, which integrates
nothing.  `norm_quadrature` integrates |f|^p r^(N-1) directly (maximization
for the sup norm).  They share nothing but the profile, so agreement between
them validates both.

Everything that depends on the geometry is a method of the two geometry
classes.  The exterior domain also carries the radius 1 and centre 0 of the
ball it excludes, so boundary formulas for a sphere of radius R about x0 hold
on both geometries unchanged.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError
from .quadrature import integrate, maximize
from .specialfun import log_gamma, log_incomplete_beta, sphere_area

_INF = math.inf


@dataclass(frozen=True)
class RadialProfile:
    """A radial function phi(r) = f_m ... f_1 sum_i c_i r^(a_i), held as data.

    `coeffs` c_i and `powers` a_i are the terms of a power sum; `factors` are
    applied to the sum one multiply at a time, innermost first: the base
    field's 1/2, then each `scale`.  phi, dphi and d2phi evaluate the sum and
    its derivatives term by term, on scalars and numpy arrays alike, from
    `_terms`: their nonzero terms (c, a), derived unless given (`scale` gives
    its parent's).  The domain [r_min, r_max] is what `contains` reports;
    evaluation is not clipped, so a small step outside (as finite-difference
    stencils at the boundary take) is allowed.
    """

    coeffs: tuple
    powers: tuple
    factors: tuple
    r_min: float
    r_max: float
    _terms: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._terms is None:
            terms, order = [], list(zip(self.coeffs, self.powers))
            for _ in range(3):
                terms.append([(c, a) for c, a in order if c != 0.0])
                order = [(c * a, a - 1.0) for c, a in order]
            object.__setattr__(self, "_terms", terms)

    def _eval(self, order: int, r):
        """The order-th derivative at r: its precomputed terms c != 0 summed
        left to right, a constant as a scalar, r^1 as r itself and a
        coefficient of +-1 without a multiply; then each factor multiplies."""
        r = np.asarray(r, dtype=float)
        total = None
        for c, a in self._terms[order]:
            x = c if a == 0.0 else r if a == 1.0 else r ** a
            if total is None:
                total = np.full_like(r, c) if a == 0.0 else x if c == 1.0 else c * x
            elif a == 0.0 or c == 1.0:
                total = total + x
            elif c == -1.0:
                total = total - x
            else:
                total = total + c * x
        total = np.zeros_like(r) if total is None else total
        for f in self.factors:
            total = f * total
        return total

    def phi(self, r):
        return self._eval(0, r)

    def dphi(self, r):
        return self._eval(1, r)

    def d2phi(self, r):
        return self._eval(2, r)

    def contains(self, r) -> bool:
        r = np.asarray(r)
        return bool(np.all(r >= self.r_min - 1e-9 * (1.0 + abs(self.r_min)))
                    and np.all(r <= self.r_max + 1e-9 * (1.0 + self.r_max)))

    def scale(self, a: float) -> "RadialProfile":
        """This profile times a.  Scaling changes no coefficient or power, so
        the scaled profile shares its parent's derived terms."""
        return RadialProfile(self.coeffs, self.powers, self.factors + (a,),
                             self.r_min, self.r_max, self._terms)

    def sign_changes(self, order: int) -> list:
        """Radii inside (r_min, r_max) where the order-th derivative, two terms
        c_i r^a_i + c_j r^a_j of opposite signs, changes sign: r^(a_i - a_j) = -c_j/c_i."""
        if len(self._terms[order]) < 2:
            return []
        (c_i, a_i), (c_j, a_j) = self._terms[order]
        r = (-c_j / c_i) ** (1.0 / (a_i - a_j)) if c_i * c_j < 0.0 else math.nan
        return [r] if self.r_min < r < self.r_max else []

    def kelvin(self, n: int) -> "RadialProfile":
        """The Kelvin image |y|^(2-n) u(y/|y|^2) in R^n, an involution: each
        term c r^a becomes c rho^(2-n-a), and [r_min, inf) becomes (0, 1/r_min]."""
        if n < 2:
            raise DomainError(f"Kelvin transform needs dimension >= 2, got {n}")
        return RadialProfile(
            self.coeffs, tuple(2.0 - n - a for a in self.powers), self.factors,
            r_min=0.0 if math.isinf(self.r_max) else 1.0 / self.r_max,
            r_max=_INF if self.r_min == 0.0 else 1.0 / self.r_min)

    def as_field(self, center):
        """Field x -> phi(|x - center|) on points x of shape (..., n).

        The values have shape (...), a scalar for one point (n,); np.vecdot
        rounds each point as d @ d does (einsum and (d * d).sum(-1) sum in
        another order), so stacking points changes no value.
        """
        c = np.asarray(center, dtype=float)

        def u(x):
            d = np.asarray(x, dtype=float) - c
            return self.phi(np.sqrt(np.vecdot(d, d)))

        return u


def _is_finite_exponent(x: float) -> bool:
    """Raise DomainError unless x is positive or inf; True when it is finite."""
    if x == _INF:
        return False
    if not (x > 0.0):
        raise DomainError(f"norm exponent must be positive or inf, got {x}")
    return True


def _log_beta(x: float, y: float) -> float:
    return log_gamma(x) + log_gamma(y) - log_gamma(x + y)


def _check_exponent(profile: RadialProfile, order: int, x: float, n: int) -> None:
    """Raise DomainError unless the order-th derivative is in L^x in R^n: on a
    bounded domain any x > 0 (no power is negative at r = 0); out to r = inf
    the largest power a must satisfy a < 0 and x > n / -a."""
    if not _is_finite_exponent(x) or not math.isinf(profile.r_max):
        return
    what, letter = (("U", "p"), ("grad U", "q"))[order]
    a = max(a for _, a in profile._terms[order])
    if a >= 0.0:
        raise DomainError(f"{what} in R^{n} does not decay at infinity; only "
                          f"its sup norm is finite (use {letter} = inf)")
    if x <= n / -a:
        raise DomainError(f"{what} in R^{n} is in L^{letter} only for "
                          f"{letter} > {n / -a:g}, got {letter} = {x}")


def profile_norm(profile: RadialProfile, order: int, p: float, n: int,
                 what: str) -> float:
    """||f||_p in R^n of the profile's order-th derivative f, from f's terms
    (one or two powers c r^a, of opposite signs) and factors alone.

    p = inf: the largest |f| at the ends of the domain and the sign change of
    f'.  One term: a power integral from r = 0 or inf, the end the domain
    reaches, to the other end r_e.  Two terms, c_j r^a_j dominant at r = 0 or
    inf: y = kappa r^d, kappa = -c_i/c_j, d = a_i - a_j, alpha = (a_j p + n)/d,
    makes the integral |c_j|^p kappa^(-alpha) / |d| times that of
    y^(alpha-1) |1 - y|^p from 0 to y_e = kappa r_e^d: B(alpha, p + 1) up to
    the sign change y = 1, past it B_w(p + 1, -alpha - p) with w = 1 - 1/y,
    the two added as logs.  A y_e within a few ulp of 1 is a profile vanishing
    on the boundary.  DomainError for an inadmissible p and for a norm past
    the double range.
    """
    _check_exponent(profile, order, p, n)
    terms = profile._terms[order]
    scale = abs(math.prod(profile.factors))
    if p == _INF:
        radii = (profile.r_min, profile.r_max, *profile.sign_changes(order + 1))
        norm = scale * max(abs(sum(c * r ** a for c, a in terms)) for r in radii)
    else:
        at_zero = profile.r_min == 0.0
        r_e = profile.r_max if at_zero else profile.r_min
        (c_j, a_j), *rest = sorted(terms, key=lambda t: t[1], reverse=not at_zero)
        e = a_j * p + n
        log_pow = p * math.log(scale * abs(c_j)) + math.log(sphere_area(n))
        if not rest:
            log_pow += e * math.log(r_e) - math.log(abs(e))
        else:
            (c_i, a_i), = rest
            d = a_i - a_j
            alpha = e / d
            log_part = _log_beta(alpha, p + 1.0)
            y_e = -c_i * r_e ** d / c_j
            if y_e < 1.0 - 4.0 * math.ulp(1.0):
                log_part = log_incomplete_beta(y_e, alpha, p + 1.0)
            elif y_e > 1.0 + 4.0 * math.ulp(1.0):
                tail = log_incomplete_beta(1.0 - 1.0 / y_e, p + 1.0, -alpha - p)
                log_part = max(log_part, tail) + math.log1p(
                    math.exp(-abs(log_part - tail)))
            log_pow += (-alpha * (math.log(abs(c_i)) - math.log(abs(c_j)))
                        - math.log(abs(d)) + log_part)
        what = f"{what} = exp({log_pow / p:.6g})"
        try:
            norm = math.exp(log_pow / p)
        except OverflowError:
            raise DomainError(f"closed-form {what} overflows a double") from None
    if norm == 0.0:
        raise DomainError(f"closed-form {what} underflows to 0")
    return norm


class _Geometry:
    """The base field's profile, built with the geometry, and what it gives."""

    def profile(self) -> RadialProfile:
        return self._profile

    def check_exponents(self, p: float = _INF, q: float = _INF) -> None:
        """Raise DomainError unless U is in L^p and grad U in L^q."""
        _check_exponent(self._profile, 0, p, self.n)
        _check_exponent(self._profile, 1, q, self.n)

    def norm_u(self, p: float) -> float:
        return profile_norm(self._profile, 0, p, self.n, f"||U||_{p:g}")

    def norm_grad(self, q: float) -> float:
        return profile_norm(self._profile, 1, q, self.n, f"||grad U||_{q:g}")


@dataclass(frozen=True)
class BallGeometry(_Geometry):
    """Open ball of radius `radius` centred at `center` in R^n."""

    n: int
    radius: float
    center: tuple = ()
    _profile: RadialProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"dimension must be an integer >= 1, got {self.n}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be finite and positive, got {self.radius}")
        if not math.isfinite(self.radius * self.radius):
            raise DomainError(f"radius {self.radius!r}: R^2 overflows a double")
        center = tuple(float(c) for c in self.center) or (0.0,) * self.n
        if len(center) != self.n:
            raise DomainError(f"center has {len(center)} coordinates for dimension {self.n}")
        if not all(map(math.isfinite, center)):
            raise DomainError(f"center must be finite, got {center}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_profile", RadialProfile(
            coeffs=(1.0, -self.radius ** 2), powers=(2.0, 0.0), factors=(0.5,),
            r_min=0.0, r_max=self.radius))

    def check_k(self, k: int) -> None:
        if not (1 <= k <= self.n):
            raise DomainError(f"ball problem needs 1 <= k <= {self.n}, got k = {k}")

    def sample_radii(self, rng, count: int) -> np.ndarray:
        """Seeded interior radii at which the verifier samples the PDE."""
        return self.radius * rng.uniform(0.05, 0.999, count)

    def rhs_weight(self, r):
        """w(r) in S_k(D^2 U) = C(N, k) w(|x - x0|): constant on the ball."""
        return 1.0

    def to_doc(self) -> dict:
        return {"kind": "ball", "dim": self.n, "radius": self.radius,
                "center": list(self.center)}

    def describe(self, fmt) -> str:
        center = ", ".join(fmt(c) for c in self.center)
        return f"ball n={self.n} R={fmt(self.radius)} center=({center})"


@dataclass(frozen=True)
class ExteriorGeometry(_Geometry):
    """Complement of the closed unit ball in R^n, n >= 2."""

    n: int
    _profile: RadialProfile = field(init=False, repr=False, compare=False)
    radius = 1.0                  # of the excluded ball, centred at the origin

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise DomainError(f"exterior geometry needs integer dimension >= 2, got {self.n}")
        object.__setattr__(self, "_profile", RadialProfile(
            coeffs=(1.0, -1.0), powers=(float(-self.n), 2.0 - self.n),
            factors=(0.5,), r_min=1.0, r_max=_INF))

    @property
    def center(self) -> tuple:
        return (0.0,) * self.n

    def check_k(self, k: int) -> None:
        if k != 1:
            raise DomainError(f"exterior problem is Laplacian-only (k = 1), got k = {k}")

    def sample_radii(self, rng, count: int) -> np.ndarray:
        """Radii at which the verifier samples the PDE: the sphere r = 1, where
        the weight r^(-n-2) and so any amplitude error is largest, then
        seeded log-uniform ones in [1, 20]."""
        return np.exp(np.append(0.0, rng.uniform(0.0, math.log(20.0), count - 1)))

    def rhs_weight(self, r):
        """w(r) in Delta U = N w(|x|): w(r) = r^(-n-2)."""
        return r ** (-self.n - 2.0)

    def to_doc(self) -> dict:
        return {"kind": "exterior", "dim": self.n}

    def describe(self, fmt) -> str:
        return f"exterior n={self.n}"


def _check_underflow(field, row: int, x, f_abs, y, tol: float, failure=None) -> None:
    """Raise QuadratureError, naming the radius beyond which |f| underflows
    to 0 and the failure of the integral if any, when the samples at x = 1/r,
    with |f| values f_abs and integrand values y, lose more than tol below
    x0, the largest x where |f| is 0 below the least where it is not, x1:
    about x0 times the integrand at x1.  The radius is found on a geometric
    grid from x0 to x1, in the given row of |f| = field(r)."""
    if f_abs.all():  # no |f| of 0, or no x0
        return
    x1 = float(np.min(x[f_abs > 0.0], initial=_INF))
    x0 = float(np.max(x[(f_abs == 0.0) & (x < x1)], initial=0.0))
    lost = x0 * float(np.max(y[x == x1], initial=0.0))
    if lost > tol:
        grid = np.geomspace(x0, x1, 65)
        x0 = float(np.max(grid[field(1.0 / grid).reshape(-1, grid.size)[row] == 0.0]))
        reason = failure or f"the mass lost there, about {lost:.3e}, exceeds {tol:.3e}"
        raise QuadratureError(f"|f(r)| underflows to 0 beyond r = {1.0 / x0!r} "
                              f"(x = {x0!r}): {reason}") from failure


def norm_quadrature(radial_f, p: float, n: int, r_lo: float, r_hi: float,
                    rel_tol: float = 1e-10, breaks=()):
    """L^p norm of a radial field by direct quadrature, or maximization for p = inf.

    radial_f is the radial representative (of the field or of its gradient
    magnitude); only |radial_f| enters.  r_hi may be inf: r = 1/x then maps
    [r_lo, inf) onto (0, 1/r_lo], where a tail decaying barely faster than
    r^(-n) is an integrable singularity at x = 0.  `breaks` are radii inside
    (r_lo, r_hi) where |radial_f|^p may have a kink, such as the sign
    changes of radial_f: as in QUADPACK's QAGP, each piece between them is
    integrated on its own.  A QuadratureError names the radius beyond which
    |radial_f| underflows to 0 when the mass lost exceeds rel_tol of the
    integral, or the integral fails; it is raised when the integral of a
    field not 0 at every sample overflows or is below m ulp(0) / rel_tol for
    m samples, each rounding by at most one subnormal spacing, and when the
    integrand at a finite end exceeds every sample by more than 1/rel_tol.
    The norm is never a wrong 0.  A radial_f of rows (m radii to (rows, m)
    values, a profile scaled by a column) gives one entry per row, on shared
    calls: the norm, or the QuadratureError held for the caller to raise in
    its turn, that the row gets alone, its checks reading only its samples.
    """
    ndim, samples, reads = [], [], []   # of radial_f's values; per call, the rows read

    def field(r):
        f_abs = np.abs(np.asarray(radial_f(r), dtype=float))
        ndim.append(f_abs.ndim)
        return f_abs

    if not _is_finite_exponent(p):
        norms = [row if isinstance(row, QuadratureError) else row[1]
                 for row in maximize(field, r_lo, r_hi)]
    else:
        if not math.isinf(r_hi):
            edges, ends = [r_lo, *sorted(breaks), r_hi], [r_lo, r_hi]

            def integrand(r):
                f_abs = field(r)
                return f_abs, f_abs ** p * r ** (n - 1.0)
        else:
            if not (math.isfinite(r_lo) and r_lo > 0.0):
                raise QuadratureError(f"the map r = 1/x needs a finite positive "
                                      f"r_lo, got {float(r_lo)!r}")
            edges = [0.0, *sorted(1.0 / r for r in breaks), 1.0 / r_lo]
            ends = edges[-1:]

            def integrand(x):
                # |f(1/x)|^p x^(-n-1) in log form: x^(-n-1) overflows where
                # |f(1/x)|^p underflows.
                f_abs = field(1.0 / x)
                return f_abs, np.exp(p * np.log(f_abs) - (n + 1.0) * np.log(x))

        def sampled(x):
            f_abs, y = integrand(x)
            samples.append((x, f_abs.reshape(-1, x.size), y.reshape(-1, x.size)))
            return y

        def norm(i, result):
            x, f_abs, y = map(np.concatenate, zip(*[
                (x, f[i], v[i]) for (x, f, v), who in zip(samples, reads) if i in who]))
            failure = result if isinstance(result, QuadratureError) else None
            if math.isinf(r_hi):
                _check_underflow(field, i, x, f_abs, y,
                                 0.0 if failure else rel_tol * result[0], failure)
            if failure:
                raise failure
            value = result[0]
            # The nodes never reach the ends of the domain: a boundary layer
            # thinner than the gap to the nearest node shows at a finite end.
            y_max = float(y.max())
            y_end = max([0.0, *(v for v in y_ends[i].tolist() if math.isfinite(v))])
            if y_end > y_max / rel_tol:
                raise QuadratureError(
                    f"the integrand at the end of the domain, {y_end:.3e}, exceeds every "
                    f"sample, at most {y_max:.3e}, by more than 1/rel_tol: a boundary "
                    f"layer lies between the nodes")
            if f_abs.any() and not x.size * math.ulp(0.0) / rel_tol <= value < _INF:
                raise QuadratureError(f"the integral of |f|^p, {value:.3e}, of a field "
                                      f"that is not 0 is outside the normal doubles")
            return 0.0 if value <= 0.0 else math.exp((math.log(sphere_area(n))
                                                       + math.log(value)) / p)

        # integrate holds a row's error: a non-finite value, mass beyond the nodes.
        with np.errstate(all="ignore"):
            results = integrate(sampled, edges[0], edges[-1], rel_tol, edges[1:-1], reads)
            y_ends = integrand(np.array(ends))[1].reshape(-1, len(ends))
            norms = []
            for i, result in enumerate(results):
                try:
                    norms.append(norm(i, result))
                except QuadratureError as failure:
                    norms.append(failure)
    if ndim[0] == 2:
        return norms
    if isinstance(norms[0], QuadratureError):
        raise norms[0]
    return norms[0]
