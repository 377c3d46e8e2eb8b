"""Adaptive quadrature against scipy oracles and analytic values."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from odkirch.base_solutions import norm_quadrature
from odkirch.errors import QuadratureError
from odkirch.quadrature import golden_max, integrate, maximize


def integral_to_infinity(f, a):
    """int_a^inf |f| through the map r = 1/x: in one dimension the sphere
    area is 2, so the L^1 norm over [a, inf) is twice the integral."""
    return 0.5 * norm_quadrature(f, 1.0, 1, a, math.inf)


class TestIntegrate:
    def test_polynomial_exact(self):
        # The 15-point Kronrod rule is exact through degree 22, so a single
        # panel already nails this; the result must be at round-off level.
        val, err = integrate(lambda x: 7.0 * x**6, 0.0, 2.0)
        assert val == pytest.approx(2.0**7, rel=1e-14)

    def test_analytic_values(self):
        cases = [
            (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
            (lambda x: np.cos(x), 0.0, math.pi / 2, 1.0),
            (lambda x: 1.0 / x, 1.0, math.e, 1.0),
            (lambda x: np.sin(x) ** 2, 0.0, 2.0 * math.pi, math.pi),
        ]
        for f, a, b, exact in cases:
            val, err = integrate(f, a, b)
            assert val == pytest.approx(exact, rel=1e-13)
            assert abs(val - exact) <= max(10.0 * err, 1e-13 * abs(exact))

    @pytest.mark.parametrize(
        "f,a,b",
        [
            (lambda x: np.exp(-(x**2)), -3.0, 5.0),
            (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
            (lambda x: np.sin(50.0 * x), 0.0, 1.0),
            (lambda x: np.sqrt(np.abs(x)), 0.0, 2.0),
            (lambda x: x ** 1.5 * np.log(x + 1e-300), 0.0, 1.0),
        ],
    )
    def test_against_scipy(self, f, a, b):
        # Differential oracle: same integrand through an independent code.
        # sin(50x) integrates to ~7e-4 with heavy cancellation, so a relative
        # target of 1e-12 is unreachable; 1e-10 still leaves round-trip room.
        val, _ = integrate(f, a, b, rel_tol=1e-10)
        ref, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(lambda x: np.exp(x), 2.0, 2.0) == (0.0, 0.0)

    def test_deterministic(self):
        f = lambda x: np.sin(50.0 * x) / (1e-3 + x**2)
        a = integrate(f, 0.0, 1.0)
        b = integrate(f, 0.0, 1.0)
        assert a == b  # bit-identical, not just close

    def test_rejects_nonfinite_bounds(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: x, 0.0, math.inf)

    def test_rejects_nonfinite_integrand(self):
        with np.errstate(divide="ignore"), pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_nonfinite_message_prints_a_plain_float(self):
        # The centre node of the one panel on [245, 246.07] is 245.535.
        f = lambda x: np.where(x > 245.5, np.inf, 1.0)
        with pytest.raises(QuadratureError,
                           match=r"^integrand non-finite near x = 245\.5\d+$"):
            integrate(f, 245.0, 246.07)

    def test_rejects_wrong_shape(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.ones(3), 0.0, 1.0)

    def test_panel_exhaustion(self):
        with pytest.raises(QuadratureError, match="panels"):
            integrate(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0,
                      rel_tol=1e-15, abs_tol=0.0, max_panels=8)

    @given(
        c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5),
        alpha=st.floats(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    # The combination integrates to 1.07e-2 from an O(1) integrand, so the
    # round-off floor 50 eps * int |f| (1.09e-13) exceeds abs_tol.
    @example(c0=4.75, c1=-1.125, c2=-3.6875, alpha=3.0)
    def test_linearity(self, c0, c1, c2, alpha):
        f = lambda x: c0 + c1 * x + c2 * x**2
        g = lambda x: np.exp(-x) * np.ones_like(np.asarray(x, dtype=float))
        # abs_tol floor: the combination can integrate to near zero while the
        # integrand stays O(1), and a pure relative target is then below what
        # the per-panel error estimate can certify.
        lhs, _ = integrate(lambda x: f(x) + alpha * g(x), 0.0, 2.0, abs_tol=1e-13)
        fa, _ = integrate(f, 0.0, 2.0, abs_tol=1e-13)
        ga, _ = integrate(g, 0.0, 2.0, abs_tol=1e-13)
        assert lhs == pytest.approx(fa + alpha * ga, rel=1e-11, abs=1e-11)

    def test_round_off_floor_stops_bisection(self):
        # A tolerance below the round-off floor cannot be certified; the
        # integrator returns with its honest estimate instead of bisecting
        # up to max_panels.
        f = lambda x: 4.75 - 1.125 * x - 3.6875 * x**2 + 3.0 * np.exp(-x)
        val, err = integrate(f, 0.0, 2.0, abs_tol=1e-13)
        exact = 9.5 - 2.25 - 3.6875 * 8.0 / 3.0 + 3.0 * (1.0 - math.exp(-2.0))
        assert 1e-13 < err < 2e-13
        assert abs(val - exact) <= err

    @given(c=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, c):
        f = lambda x: np.exp(x) * np.sin(3.0 * x)
        whole, _ = integrate(f, 0.0, 1.0)
        left, _ = integrate(f, 0.0, c)
        right, _ = integrate(f, c, 1.0)
        assert whole == pytest.approx(left + right, rel=1e-11, abs=1e-12)


class TestIntegrateDecaying:
    """Improper integrals of decaying integrands over [a, inf)."""

    @pytest.mark.parametrize(
        "f,a,exact",
        [
            (lambda r: r**-3.5, 1.0, 1.0 / 2.5),
            (lambda r: r**-4.0, 2.0, 2.0**-3 / 3.0),
            (lambda r: np.exp(-r), 1.0, math.exp(-1.0)),
            (lambda r: np.log(r) * r**-3.0, 1.0, 0.25),
        ],
    )
    def test_analytic_tails(self, f, a, exact):
        val = integral_to_infinity(f, a)
        assert val == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("a", [1.0, 50.0])
    def test_exponential_underflow_integrates(self, a):
        # exp(-r) underflows to 0 past r = 745; the mass beyond is far below
        # the tolerance, so the underflow is no error.
        val = integral_to_infinity(lambda r: np.exp(-r), a)
        assert val == pytest.approx(math.exp(-a), rel=1e-10)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning"
    )
    def test_against_scipy_improper(self):
        f = lambda r: r ** (-2.7) * (1.0 + np.sin(r) / r)
        val = integral_to_infinity(f, 1.0)
        ref, _ = scipy.integrate.quad(f, 1.0, np.inf, epsabs=1e-13, epsrel=1e-13,
                                      limit=800)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_rejects_growing_integrand(self):
        with pytest.raises(QuadratureError):
            integral_to_infinity(lambda r: r**0.5, 1.0)

    def test_rejects_nonpositive_start(self):
        with pytest.raises(QuadratureError):
            integral_to_infinity(lambda r: r**-3.0, 0.0)

    @pytest.mark.parametrize("a", [-1.0, math.inf, math.nan])
    def test_rejects_start_off_the_half_line(self, a):
        with pytest.raises(QuadratureError, match="finite positive r_lo"):
            integral_to_infinity(lambda r: r**-3.0, a)

    def test_underflow_that_drops_mass_is_named(self):
        # r^(-1.01) is integrable, but a tenth of its mass lies beyond
        # r = 1e100; a field that underflows there loses it.
        f = lambda r: np.where(r < 1e100, r ** -1.01, 0.0)
        with pytest.raises(QuadratureError) as info:
            integral_to_infinity(f, 1.0)
        message = str(info.value)
        assert "underflows to 0 beyond r = " in message
        assert "np.float64" not in message
        r0 = float(message.split("beyond r = ")[1].split(" ")[0])
        assert 1e100 <= r0 < 1e101


class TestMaximize:
    def test_interior_maximum(self):
        # f(x) = x exp(-x) peaks at x = 1 with value 1/e.  The argmax of a
        # flat quadratic peak is only determined to ~sqrt(eps); the value
        # itself is second-order accurate and stays tight.
        x, v = maximize(lambda x: x * np.exp(-x), 0.0, 5.0)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_boundary_maximum(self):
        x, v = maximize(lambda x: -x, 2.0, 7.0)
        assert x == pytest.approx(2.0, abs=1e-9)
        assert v == pytest.approx(-2.0, rel=1e-12)

    def test_infinite_domain(self):
        # r^2 exp(-r) on [1, inf) peaks at r = 2.
        x, v = maximize(lambda r: r * r * np.exp(-r), 1.0, math.inf)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert v == pytest.approx(4.0 * math.exp(-2.0), rel=1e-10)

    def test_infinite_domain_boundary(self):
        x, v = maximize(lambda r: 1.0 / r, 3.0, math.inf)
        assert v == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_golden_max_quadratic(self):
        x, v = golden_max(lambda x: -(x - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=1e-6)
        assert v == pytest.approx(2.0, abs=1e-12)

    @given(peak=st.floats(0.5, 9.5))
    @settings(max_examples=40, deadline=None)
    def test_gaussian_peak_found(self, peak):
        x, v = maximize(lambda x: np.exp(-((x - peak) ** 2)), 0.0, 10.0)
        assert x == pytest.approx(peak, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("b", [5.0, math.inf])
    def test_grid_is_one_vectorized_call(self, b):
        # One call on the whole grid, then scalar golden-section steps.
        calls = []

        def f(r):
            calls.append(np.shape(r))
            return np.asarray(r, dtype=float) ** 2 * np.exp(-r)

        x, v = maximize(f, 1.0, b, n_grid=1000)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert calls[0] == (1000,)
        assert all(shape == () for shape in calls[1:])
        assert len(calls) <= 1 + 200

    def test_nonfinite_sample_on_infinite_grid(self):
        def f(r):
            out = 1.0 / np.asarray(r, dtype=float)
            if out.ndim:
                out[100] = np.nan
            return out

        with pytest.raises(QuadratureError, match="non-finite"):
            maximize(f, 1.0, math.inf)

    def test_rejects_scalar_only_result(self):
        with pytest.raises(QuadratureError, match="as many values"):
            maximize(lambda x: 1.0, 0.0, 1.0)
