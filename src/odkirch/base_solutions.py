"""Base solution fields on balls and exterior domains, with their Lebesgue norms.

The ball problem is solved by U(x) = (|x - x0|^2 - R^2)/2: every k-Hessian of
it equals the constant C(N, k), it vanishes on the sphere of radius R and its
normal derivative there is R.  The exterior problem on the complement of the
closed unit ball is solved by U(x) = (|x|^(-N) - |x|^(2-N))/2, which satisfies
Delta U = N |x|^(-N-2), vanishes on |x| = 1 where |grad U| = 1, and decays at
infinity (stays bounded when N = 2).  Both are two-term power sums in r, and
a RadialProfile holds them as data: scaling by a appends the factor a, and the
Kelvin image in R^N maps each term c r^a to c rho^(2-N-a).

Norms come in two deliberately independent flavours: closed forms assembled
from beta functions, and direct quadrature of |f|^p r^(N-1) (maximization for
the sup norm).  They share nothing but the profile definitions, so agreement
between them validates both.

Everything that depends on the geometry is a method of the two geometry
classes.  The exterior domain also carries the radius 1 and centre 0 of the
ball it excludes, so boundary formulas for a sphere of radius R about x0 hold
on both geometries unchanged.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, QuadratureError
from .quadrature import integrate, maximize
from .specialfun import incomplete_beta, log_gamma, sphere_area

_INF = math.inf


@dataclass(frozen=True)
class RadialProfile:
    """A radial function phi(r) = f_m ... f_1 sum_i c_i r^(a_i), held as data.

    `coeffs` c_i and `powers` a_i are the terms of a power sum; `factors` are
    applied to the sum one multiply at a time, innermost first: the base
    field's 1/2, then each `scale`.  phi, dphi and d2phi evaluate the sum and
    its derivatives term by term on scalars and numpy arrays alike.  The
    domain [r_min, r_max] is what `contains` reports; evaluation is not
    clipped, so a small step outside (as finite-difference stencils at the
    boundary take) is allowed.
    """

    coeffs: tuple
    powers: tuple
    factors: tuple
    r_min: float
    r_max: float
    _terms: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        return replace(self, factors=self.factors + (a,))

    def kelvin(self, n: int) -> "RadialProfile":
        """The Kelvin image |y|^(2-n) u(y/|y|^2) in R^n, an involution: each
        term c r^a becomes c rho^(2-n-a), and [r_min, inf) becomes (0, 1/r_min]."""
        if n < 2:
            raise DomainError(f"Kelvin transform needs dimension >= 2, got {n}")
        return replace(
            self, powers=tuple(2.0 - n - a for a in self.powers),
            r_min=0.0 if math.isinf(self.r_max) else 1.0 / self.r_max,
            r_max=_INF if self.r_min == 0.0 else 1.0 / self.r_min)

    def as_field(self, center):
        """Field x -> phi(|x - center|) on points x of shape (..., n).

        The values have shape (...), a scalar for one point (n,); `row_dot`
        rounds each point as d @ d does, so stacking points changes no value.
        """
        c = np.asarray(center, dtype=float)

        def u(x):
            d = np.asarray(x, dtype=float) - c
            return self.phi(np.sqrt(row_dot(d, d)))

        return u


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, (..., n) -> (...), each rounded as the
    1-D a_i @ b_i is; einsum and (a * b).sum(-1) sum in another order."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _is_finite_exponent(x: float) -> bool:
    """Raise DomainError unless x is positive or inf; True when it is finite."""
    if x == _INF:
        return False
    if not (x > 0.0):
        raise DomainError(f"norm exponent must be positive or inf, got {x}")
    return True


def _nonzero(norm: float, what: str) -> float:
    """A closed-form norm; DomainError when it underflows to 0."""
    if norm == 0.0:
        raise DomainError(f"closed-form {what} underflows to 0")
    return norm


def _exp_norm(log_norm: float, what: str) -> float:
    """A closed-form norm exp(log_norm); DomainError when it overflows a
    double or underflows to 0."""
    try:
        norm = math.exp(log_norm)
    except OverflowError:
        raise DomainError(f"closed-form {what} = exp({log_norm:.6g}) "
                          "overflows a double") from None
    return _nonzero(norm, f"{what} = exp({log_norm:.6g})")


def _log_beta(x: float, y: float) -> float:
    return log_gamma(x) + log_gamma(y) - log_gamma(x + y)


@dataclass(frozen=True)
class BallGeometry:
    """Open ball of radius `radius` centred at `center` in R^n."""

    n: int
    radius: float
    center: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"dimension must be an integer >= 1, got {self.n}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be finite and positive, got {self.radius}")
        if not math.isfinite(self.radius * self.radius):
            raise DomainError(f"radius {self.radius!r}: R^2 overflows a double")
        center = tuple(float(c) for c in self.center) or (0.0,) * self.n
        if len(center) != self.n:
            raise DomainError(
                f"center has {len(center)} coordinates for dimension {self.n}"
            )
        if not all(map(math.isfinite, center)):
            raise DomainError(f"center must be finite, got {center}")
        object.__setattr__(self, "center", center)

    @property
    def r_range(self) -> tuple:
        return (0.0, self.radius)

    def profile(self) -> RadialProfile:
        """Radial profile of the ball base solution: phi(r) = (r^2 - R^2)/2."""
        return RadialProfile(coeffs=(1.0, -self.radius ** 2), powers=(2.0, 0.0),
                             factors=(0.5,), r_min=0.0, r_max=self.radius)

    def check_k(self, k: int) -> None:
        if not (1 <= k <= self.n):
            raise DomainError(f"ball problem needs 1 <= k <= {self.n}, got k = {k}")

    def check_exponents(self, p: float = _INF, q: float = _INF) -> None:
        """Raise DomainError unless U is in L^p and grad U in L^q: any p, q > 0."""
        _is_finite_exponent(p)
        _is_finite_exponent(q)

    def norm_u(self, p: float) -> float:
        """||U||_p on the ball, closed form."""
        self.check_exponents(p=p)
        n, radius = self.n, self.radius
        if p == _INF:
            return _nonzero(0.5 * radius ** 2, "||U||_inf")
        log_pow = (-(p + 1.0) * math.log(2.0)
                   + math.log(sphere_area(n))
                   + (2.0 * p + n) * math.log(radius)
                   + _log_beta(0.5 * n, p + 1.0))
        return _exp_norm(log_pow / p, f"||U||_{p:g}")

    def norm_grad(self, q: float) -> float:
        """||grad U||_q on the ball, closed form."""
        self.check_exponents(q=q)
        n, radius = self.n, self.radius
        if q == _INF:
            return radius
        log_pow = (math.log(sphere_area(n))
                   + (q + n) * math.log(radius)
                   - math.log(q + n))
        return _exp_norm(log_pow / q, f"||grad U||_{q:g}")

    def sample_radii(self, rng, count: int) -> np.ndarray:
        """Seeded interior radii at which the verifier samples the PDE."""
        return self.radius * rng.uniform(0.05, 0.999, count)

    def rhs_weight(self, r):
        """w(r) in S_k(D^2 U) = C(N, k) w(|x - x0|): constant on the ball."""
        return 1.0

    def far_field(self, profile: RadialProfile) -> None:
        """The ball is bounded: there is no behaviour at infinity to report."""
        return None

    def to_doc(self) -> dict:
        return {"kind": "ball", "dim": self.n, "radius": self.radius,
                "center": list(self.center)}

    def describe(self, fmt) -> str:
        center = ", ".join(fmt(c) for c in self.center)
        return f"ball n={self.n} R={fmt(self.radius)} center=({center})"


@dataclass(frozen=True)
class ExteriorGeometry:
    """Complement of the closed unit ball in R^n, n >= 2."""

    n: int
    radius = 1.0                  # of the excluded ball, centred at the origin
    r_range = (1.0, _INF)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise DomainError(
                f"exterior geometry needs integer dimension >= 2, got {self.n}"
            )

    @property
    def center(self) -> tuple:
        return (0.0,) * self.n

    def profile(self) -> RadialProfile:
        """Radial profile of the exterior base solution on [1, inf):
        phi(r) = (r^(-n) - r^(2-n))/2, bounded but not decaying when n = 2."""
        return RadialProfile(coeffs=(1.0, -1.0), powers=(float(-self.n), 2.0 - self.n),
                             factors=(0.5,), r_min=1.0, r_max=_INF)

    def check_k(self, k: int) -> None:
        if k != 1:
            raise DomainError(f"exterior problem is Laplacian-only (k = 1), "
                              f"got k = {k}")

    def check_exponents(self, p: float = _INF, q: float = _INF) -> None:
        """Raise DomainError unless U is in L^p and grad U in L^q."""
        n = self.n
        if _is_finite_exponent(p):
            if n == 2:
                raise DomainError(
                    "planar exterior solution is bounded but not decaying; "
                    "only the sup norm is finite (use p = inf)"
                )
            if p <= n / (n - 2.0):
                raise DomainError(
                    f"exterior solution in R^{n} is in L^p only for "
                    f"p > {n / (n - 2.0):g}, got p = {p}"
                )
        # The planar gradient decays like r^-3, faster than the generic r^(1-n).
        threshold = 2.0 / 3.0 if n == 2 else n / (n - 1.0)
        if _is_finite_exponent(q) and q <= threshold:
            raise DomainError(
                f"exterior gradient in R^{n} is in L^q only for q > {threshold}, "
                f"got q = {q}"
            )

    def norm_u(self, p: float) -> float:
        """||U||_p on the exterior domain, closed form.

        The sup norm is attained at r = sqrt(n/(n-2)) for n >= 3, giving
        (1/(n-2)) (n/(n-2))^(-n/2); in the plane |U| increases to its limit 1/2.
        """
        self.check_exponents(p=p)
        n = self.n
        if p == _INF:
            if n == 2:
                return 0.5
            return (1.0 / (n - 2.0)) * (n / (n - 2.0)) ** (-0.5 * n)
        log_pow = (-(p + 1.0) * math.log(2.0)
                   + math.log(sphere_area(n))
                   + _log_beta(0.5 * (p * (n - 2.0) - n), p + 1.0))
        return _exp_norm(log_pow / p, f"||U||_{p:g}")

    def norm_grad(self, q: float) -> float:
        """||grad U||_q on the exterior domain, closed form.

        The sup norm equals 1, attained on the boundary sphere.  The finite-q
        value for n >= 3 splits at the interior zero of the gradient into an
        Euler beta plus an incomplete beta with negative second argument.
        """
        self.check_exponents(q=q)
        n = self.n
        if q == _INF:
            return 1.0
        if n == 2:
            return (2.0 * math.pi / (3.0 * q - 2.0)) ** (1.0 / q)
        log_pref = (-q * math.log(2.0)
                    + math.log(sphere_area(n))
                    + (q + 1.0) * math.log(n)
                    - math.log(2.0 * (n - 2.0))
                    + 0.5 * ((n - 2.0) - (n + 1.0) * q)
                    * (math.log(n) - math.log(n - 2.0)))
        outer = math.exp(_log_beta(0.5 * ((n - 1.0) * q - n), q + 1.0))
        inner = incomplete_beta(2.0 / n, q + 1.0, 0.5 * (n - (n + 1.0) * q))
        return _exp_norm((log_pref + math.log(outer + inner)) / q,
                         f"||grad U||_{q:g}")

    def sample_radii(self, rng, count: int) -> np.ndarray:
        """Seeded radii in [1, 20], log-uniform, at which the verifier samples the PDE."""
        return np.exp(rng.uniform(0.0, math.log(20.0), count))

    def rhs_weight(self, r):
        """w(r) in Delta U = N w(|x|): w(r) = r^(-n-2)."""
        return r ** (-self.n - 2.0)

    def far_field(self, profile: RadialProfile) -> float:
        """|u(r_far)| r_far^(n-2) for n >= 3 (the decay coefficient, about
        amplitude/2) and |u(r_far)| itself for n = 2 (the bounded limit, again
        about amplitude/2).  r_far = 1e5, lowered from n = 63 on so that
        r_far^(n-2) stays at most about 1e300."""
        if self.n == 2:
            return abs(float(profile.phi(1e5)))
        r_far = min(1e5, 10.0 ** (300.0 / (self.n - 2)))
        return abs(float(profile.phi(r_far))) * r_far ** (self.n - 2.0)

    def to_doc(self) -> dict:
        return {"kind": "exterior", "dim": self.n}

    def describe(self, fmt) -> str:
        return f"exterior n={self.n}"


def norm_quadrature(radial_f, p: float, n: int, r_lo: float, r_hi: float,
                    rel_tol: float = 1e-10) -> float:
    """L^p norm of a radial field by direct quadrature, or maximization for p = inf.

    radial_f is the radial representative (of the field or of its gradient
    magnitude); only |radial_f| enters.  r_hi may be inf: r = 1/x then maps
    [r_lo, inf) onto (0, 1/r_lo], where a tail decaying barely faster than
    r^(-n) is an integrable singularity at x = 0.  A QuadratureError names
    the radius beyond which |radial_f| underflows to 0 when the mass lost
    there may exceed the tolerance.
    """
    if not _is_finite_exponent(p):
        _, value = maximize(lambda r: np.abs(np.asarray(radial_f(r), dtype=float)),
                            r_lo, r_hi)
        return value

    if not math.isinf(r_hi):
        # integrate rejects a non-finite value and names the point.
        with np.errstate(all="ignore"):
            value, _ = integrate(lambda r: np.abs(radial_f(r)) ** p * r ** (n - 1.0),
                                 r_lo, r_hi, rel_tol=rel_tol)
    else:
        if not (math.isfinite(r_lo) and r_lo > 0.0):
            raise QuadratureError(f"the map r = 1/x needs a finite positive "
                                  f"r_lo, got {float(r_lo)!r}")
        samples = []

        def integrand(x):
            # |f(1/x)|^p x^(-n-1) in log form: x^(-n-1) overflows where
            # |f(1/x)|^p underflows.  integrate rejects a non-finite value.
            with np.errstate(all="ignore"):
                f_abs = np.abs(np.asarray(radial_f(1.0 / x), dtype=float))
                y = np.exp(p * np.log(f_abs) - (n + 1.0) * np.log(x))
            samples.append((x, f_abs, y))
            return y

        value, _ = integrate(integrand, 0.0, 1.0 / r_lo, rel_tol=rel_tol)
        # Below x1, the smallest sample where |f| is not 0, the mass under
        # the largest zero sample x0 is lost: about x0 times the integrand at x1.
        x, f_abs, y = map(np.concatenate, zip(*samples))
        live = f_abs > 0.0
        if live.any():
            i1 = np.flatnonzero(live)[np.argmin(x[live])]
            x0 = float(np.max(x[~live & (x < x[i1])], initial=0.0))
            lost = x0 * float(y[i1])
            if lost > rel_tol * value:
                raise QuadratureError(
                    f"|f(r)| underflows to 0 beyond r = {1.0 / x0!r} (x = {x0!r}); "
                    f"the mass lost there, about {lost:.3e}, exceeds rel_tol * "
                    f"value = {rel_tol * value:.3e}")
    if value <= 0.0:
        return 0.0
    return math.exp((math.log(sphere_area(n)) + math.log(value)) / p)
