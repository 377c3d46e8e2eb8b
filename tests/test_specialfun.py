"""Special functions against scipy/mpmath oracles and frozen values."""

import ast
import math
from pathlib import Path

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from odkirch.base_solutions import _log_beta
from odkirch.errors import DomainError
from odkirch.quadrature import integrate
from odkirch import specialfun
from odkirch.specialfun import log_gamma, log_incomplete_beta, sphere_area

# Frozen from a 40-digit mpmath quadrature of the defining integral.
NEGATIVE_Y_VALUES = [
    # (z, x, y, value)
    (0.5, 0.5, 3.0, 1.0135197197007181),
    (2.0 / 3.0, 2.0, -1.0, 0.90138771133189031),
    (0.9, 0.3, -0.7, 9.4002644610403561),
    (2.0 / 3.0, 3.0, -2.5, 1.704614625443537),
]


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 7.0, 30.5, 171.0])
    def test_against_scipy(self, x):
        assert log_gamma(x) == pytest.approx(scipy.special.gammaln(x), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


def beta(x, y):
    """Euler B(x, y) from the log-beta that the closed-form norms use."""
    return math.exp(_log_beta(x, y))


class TestBeta:
    @pytest.mark.parametrize(
        "x,y", [(1.0, 1.0), (0.5, 0.5), (2.0, 3.0), (7.5, 0.25), (40.0, 40.0)]
    )
    def test_against_scipy(self, x, y):
        assert beta(x, y) == pytest.approx(scipy.special.beta(x, y), rel=1e-13)

    @given(x=st.floats(0.05, 30.0), y=st.floats(0.05, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x, y):
        assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)

    @given(x=st.floats(0.5, 20.0), y=st.floats(0.5, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x, y):
        # B(x+1, y) = B(x, y) * x / (x + y)
        assert beta(x + 1.0, y) == pytest.approx(
            beta(x, y) * x / (x + y), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(-1.0, 2.0)
        with pytest.raises(DomainError):
            beta(2.0, 0.0)


class TestSphereArea:
    def test_known_dimensions(self):
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_gamma_form(self, n):
        ref = 2.0 * math.pi ** (n / 2.0) / scipy.special.gamma(n / 2.0)
        assert sphere_area(n) == pytest.approx(ref, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_area(0)
        with pytest.raises(DomainError):
            sphere_area(2.5)

    @pytest.mark.parametrize("n", [439, 456])
    def test_below_normal_doubles(self, n):
        # From n = 439 the area is subnormal, from n = 456 it is 0: a closed
        # form built on its logarithm would have no digits left.
        with pytest.raises(DomainError, match=f"R\\^{n}.*smallest normal double"):
            sphere_area(n)


def incomplete_beta(z, x, y):
    """B_z(x, y) from the log that the closed-form norms use."""
    return math.exp(log_incomplete_beta(z, x, y))


class TestIncompleteBeta:
    @pytest.mark.parametrize(
        "z,x,y",
        [(0.3, 2.0, 3.0), (0.8, 0.5, 0.5), (0.05, 4.0, 1.5), (0.99, 1.5, 2.5),
         (0.5, 0.2, 6.0),
         # Summed as B(x, y) - B_(1-z)(y, x): the direct terms would grow
         # past the largest double, or fall only as fast as z^k.
         (0.5, 1.0, 2000.0), (0.999999, 0.5, 3.0)],
    )
    def test_against_scipy_positive(self, z, x, y):
        ref = scipy.special.betainc(x, y, z) * scipy.special.beta(x, y)
        assert incomplete_beta(z, x, y) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("z,x,y,expected", NEGATIVE_Y_VALUES)
    def test_frozen_negative_y(self, z, x, y, expected):
        assert incomplete_beta(z, x, y) == pytest.approx(expected, rel=1e-11)

    def test_zero_limit(self):
        assert incomplete_beta(0.0, 0.4, -2.0) == 0.0

    @given(
        x=st.floats(0.2, 8.0), y=st.floats(-2.0, 4.0),
        z1=st.floats(0.05, 0.9), z2=st.floats(0.05, 0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_additivity_dual_route(self, x, y, z1, z2):
        # Independent route: the increment over [z1, z2] integrated directly,
        # away from the t = 0 endpoint, must match the difference of values.
        lo, hi = sorted((z1, z2))
        (direct, _), = integrate(
            lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0), lo, hi,
            rel_tol=1e-12,
        )
        diff = incomplete_beta(hi, x, y) - incomplete_beta(lo, x, y)
        assert diff == pytest.approx(direct, rel=1e-8, abs=1e-10)

    @given(x=st.floats(0.3, 5.0), y=st.floats(-1.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_z(self, x, y):
        vals = [incomplete_beta(z, x, y) for z in (0.2, 0.4, 0.6, 0.8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            log_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            log_incomplete_beta(1.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            log_incomplete_beta(1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            log_incomplete_beta(1.0, 2.0, 3.0)


def mp_log_incomplete_beta(z, x, y):
    """log B_z(x, y) at 50 digits from the non-Euler form z^x / x
    2F1(x, 1-y; x+1; z), not the Euler form the library sums."""
    with mpmath.workdps(50):
        z, x, y = map(mpmath.mpf, (z, x, y))
        return float(mpmath.log(z ** x / x * mpmath.hyp2f1(x, 1 - y, x + 1, z,
                                                          maxterms=10 ** 6)))


class TestLogIncompleteBetaSeries:
    """The series on the exterior gradient norm's own arguments, z = 2/n,
    x = q + 1, y = -alpha - q with alpha = ((n - 1) q - n) / 2, and at the
    edges of its stopping rule."""

    @pytest.mark.parametrize("n", [3, 4, 5, 11, 50, 100, 438])
    @pytest.mark.parametrize("q_over_threshold", [1.001, 1.5, 40.0, 1e3, 1e4])
    def test_against_mpmath_on_the_exterior_domain(self, n, q_over_threshold):
        q = min(q_over_threshold * n / (n - 1.0), 1e4)
        alpha = ((n - 1.0) * q - n) / 2.0
        z, x, y = 2.0 / n, q + 1.0, -alpha - q
        ref = mp_log_incomplete_beta(z, x, y)
        assert abs(log_incomplete_beta(z, x, y) - ref) <= 4e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x_plus_y", [0.0, -1.0, -3.0, 1e-9, -1e-9, -1.0 + 1e-9,
                                          -1.0 - 1e-9, -3.0 + 1e-9, -3.0 - 1e-9])
    @pytest.mark.parametrize("z, x", [(0.9, 0.5), (0.6, 2.5)])
    def test_near_a_non_positive_integer(self, x_plus_y, z, x):
        # A term with x + y + k = 0 ends the series; one within 1e-9 of 0 makes
        # the next term tiny, and the terms after it must still be summed.
        y = x_plus_y - x
        ref = mp_log_incomplete_beta(z, x, y)
        assert abs(log_incomplete_beta(z, x, y) - ref) <= 4e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n", [3, 10, 438])
    def test_huge_negative_first_parameter(self, n):
        # q = 1e300: x + y = 1 - alpha is about -1e300, every ratio is the
        # same -(alpha - 1) z / (q + 2), and the integrand t^q (1-t)^(y-1)
        # peaks at t = z so sharply that log B_z = phi(z) - log phi'(z) to
        # about 1/q, phi = (x-1) log t + (y-1) log(1-t).
        q = 1e300
        z, x, y = 2.0 / n, q + 1.0, -((n - 1.0) * q - n) / 2.0 - q
        with mpmath.workdps(50):
            zz, xx, yy = map(mpmath.mpf, (z, x, y))
            slope = (xx - 1) / zz - (yy - 1) / (1 - zz)
            ref = float((xx - 1) * mpmath.log(zz) + (yy - 1) * mpmath.log(1 - zz)
                        - mpmath.log(slope))
        assert log_incomplete_beta(z, x, y) == pytest.approx(ref, rel=1e-15)

    def test_no_numerical_integration(self):
        # The closed forms must share no code with the quadrature norms they
        # are checked against.
        tree = ast.parse(Path(specialfun.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert imported and not [m for m in imported if "quadrature" in m]
