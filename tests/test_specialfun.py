"""Special functions against scipy/mpmath oracles and frozen values."""

import math

import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from odkirch.base_solutions import _log_beta
from odkirch.errors import DomainError
from odkirch.quadrature import integrate
from odkirch.specialfun import incomplete_beta, log_gamma, sphere_area

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


class TestIncompleteBeta:
    @pytest.mark.parametrize(
        "z,x,y",
        [(0.3, 2.0, 3.0), (0.8, 0.5, 0.5), (0.05, 4.0, 1.5), (0.99, 1.5, 2.5),
         (0.5, 0.2, 6.0)],
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
        direct, _ = integrate(
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
            incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            incomplete_beta(1.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            incomplete_beta(1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            incomplete_beta(1.0, 2.0, 3.0)
