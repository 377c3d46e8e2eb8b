"""Tanh-sinh quadrature against scipy oracles and analytic values."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from odkirch.base_solutions import norm_quadrature
from odkirch.errors import QuadratureError
from odkirch import quadrature
from odkirch.quadrature import integrate, maximize


def integral_to_infinity(f, a):
    """int_a^inf |f| through the map r = 1/x: in one dimension the sphere
    area is 2, so the L^1 norm over [a, inf) is twice the integral."""
    return 0.5 * norm_quadrature(f, 1.0, 1, a, math.inf)


def tanh_sinh_sum(f, a, b, h):
    """The tanh-sinh trapezoid sum S_h over t = k h in [-6, 6], written out
    directly: x = mid + half tanh(u) with u = (pi/2) sinh t, and weight
    half (pi/2) cosh t / cosh(u)^2."""
    t = np.arange(-round(6.0 / h), round(6.0 / h) + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * np.tanh(u)
    return h * half * float(np.sum(0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2 * f(x)))


def integrate_one(f, a, b, **kwargs):
    """integrate of one function: its (value, error), or its error raised."""
    (result,) = integrate(f, a, b, **kwargs)
    if isinstance(result, QuadratureError):
        raise result
    return result


class TestIntegrate:
    def test_polynomial_exact(self):
        # The levels converge on a polynomial to round-off level.
        val, err = integrate_one(lambda x: 7.0 * x**6, 0.0, 2.0)
        assert val == pytest.approx(2.0**7, rel=1e-14)

    def test_analytic_values(self):
        cases = [
            (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
            (lambda x: np.cos(x), 0.0, math.pi / 2, 1.0),
            (lambda x: 1.0 / x, 1.0, math.e, 1.0),
            (lambda x: np.sin(x) ** 2, 0.0, 2.0 * math.pi, math.pi),
        ]
        for f, a, b, exact in cases:
            val, err = integrate_one(f, a, b)
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
        val, _ = integrate_one(f, a, b, rel_tol=1e-10)
        ref, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-13)

    def test_empty_interval(self):
        assert integrate_one(lambda x: np.exp(x), 2.0, 2.0) == (0.0, 0.0)

    def test_deterministic(self):
        f = lambda x: np.sin(50.0 * x) / (1e-3 + x**2)
        a = integrate_one(f, 0.0, 1.0)
        b = integrate_one(f, 0.0, 1.0)
        assert a == b  # bit-identical, not just close

    def test_rejects_nonfinite_bounds(self):
        with pytest.raises(QuadratureError):
            integrate_one(lambda x: x, 0.0, math.inf)

    def test_rejects_nonfinite_integrand(self):
        with np.errstate(divide="ignore"), pytest.raises(QuadratureError):
            integrate_one(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_nonfinite_message_prints_a_plain_float(self):
        # The centre node of the one panel on [245, 246.07] is 245.535.
        f = lambda x: np.where(x > 245.5, np.inf, 1.0)
        with pytest.raises(QuadratureError,
                           match=r"^integrand non-finite near x = 245\.5\d+$"):
            integrate_one(f, 245.0, 246.07)

    def test_rejects_wrong_shape(self):
        with pytest.raises(QuadratureError):
            integrate_one(lambda x: np.ones(3), 0.0, 1.0)

    def test_piece_exhaustion(self):
        # sin(1e6 x) oscillates 160,000 times on [0, 1]: 64 pieces cannot
        # resolve it, and none is evaluated past them.
        calls = []

        def f(x):
            calls.append(x.size)
            return np.sin(1e6 * x)

        with pytest.raises(QuadratureError, match="did not converge in 64 pieces"):
            integrate_one(f, 0.0, 1.0)
        assert len(calls) <= 4 * (2 * 64 - 1)

    def test_jump_costs_calls_not_accuracy(self):
        # The pieces holding the jump at 1/3 shrink until their error, which
        # shrinks with their width, is within the tolerance.
        val, err = integrate_one(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-11)
        assert err <= 1e-12 * val

    @given(
        c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5),
        alpha=st.floats(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    # The combination integrates to 1.07e-2 from an O(1) integrand, so the
    # tolerance 1e-12 of the value lies below the round-off floor.
    @example(c0=4.75, c1=-1.125, c2=-3.6875, alpha=3.0)
    def test_linearity(self, c0, c1, c2, alpha):
        f = lambda x: c0 + c1 * x + c2 * x**2
        g = lambda x: np.exp(-x) * np.ones_like(np.asarray(x, dtype=float))
        # The combination can integrate to near zero while the integrand
        # stays O(1); the round-off floor, a few eps times the integral of
        # |f|, then stops the levels.
        lhs, _ = integrate_one(lambda x: f(x) + alpha * g(x), 0.0, 2.0)
        fa, _ = integrate_one(f, 0.0, 2.0)
        ga, _ = integrate_one(g, 0.0, 2.0)
        assert lhs == pytest.approx(fa + alpha * ga, rel=1e-11, abs=1e-11)

    def test_round_off_floor_stops_the_levels(self):
        # rel_tol = 0 cannot be certified; the levels stop at the round-off
        # floor, 8 eps times the integral of |f|, in one call.
        calls = []

        def f(x):
            calls.append(x.size)
            return 4.75 - 1.125 * x - 3.6875 * x**2 + 3.0 * np.exp(-x)

        val, err = integrate_one(f, 0.0, 2.0, rel_tol=0.0)
        assert len(calls) == 1
        exact = 9.5 - 2.25 - 3.6875 * 8.0 / 3.0 + 3.0 * (1.0 - math.exp(-2.0))
        abs_integral, _ = integrate_one(lambda x: np.abs(f(x)), 0.0, 2.0)
        assert err <= 8.0 * np.finfo(float).eps * abs_integral
        assert abs(val - exact) <= 1e-15

    def test_easy_integrand_takes_one_call(self):
        # Levels h = 1/2 to 1/16 share the first call; x^(-1/2) on [0, 1]
        # agrees between h = 1/8 and 1/16 to 2.2e-16.
        calls = []

        def f(x):
            calls.append(x.size)
            return x ** -0.5

        val, err = integrate_one(f, 0.0, 1.0, rel_tol=1e-6)
        assert calls == [193]
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_first_call_sums_the_levels_down_to_a_sixteenth(self):
        # rel_tol = 1 stops after the first call, whose value is S_1/16 and
        # error |S_1/16 - S_1/8|: 29.53 and 2.59 for the near-pole at +-0.1i,
        # against the sums written out directly.
        f = lambda x: 1.0 / (0.01 + x ** 2)
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        val, err = integrate_one(counted, -1.0, 1.0, rel_tol=1.0)
        s8, s16 = (tanh_sinh_sum(f, -1.0, 1.0, h) for h in (1.0 / 8.0, 1.0 / 16.0))
        assert calls == [193]
        assert val == pytest.approx(s16, rel=1e-14)
        assert err == pytest.approx(abs(s16 - s8), rel=1e-13)

    def test_interior_kink_without_a_breakpoint(self):
        # |x - 1/3| has a kink that no midpoint split reaches: the pieces
        # around it are split until their error is within the tolerance.
        val, err = integrate_one(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, rel_tol=1e-10)
        assert val == pytest.approx(5.0 / 18.0, rel=1e-10)
        assert err <= 1e-10 * val

    @pytest.mark.parametrize("exponent", [-1.0 + 1e-3, -1.0 + 1e-2])
    def test_mass_beyond_the_outermost_node_is_an_error(self, exponent):
        # x^(-1 + e) on [0, 1] integrates to 1/e, a share x1^e of it below
        # the outermost node x1 = 3e-276: 53% for e = 1e-3, 0.18% for 1e-2.
        with pytest.raises(QuadratureError, match="mass beyond the outermost nodes"):
            integrate_one(lambda x: x ** exponent, 0.0, 1.0, rel_tol=1e-10)

    def test_singular_end_the_doubles_cannot_reach_is_an_error(self):
        # Nodes within a spacing of the doubles of 1 all sit at 1 - 1.1e-16,
        # where (1 - x)^(-1/2) leaves 2e-8 of the integral unaccounted for.
        with pytest.raises(QuadratureError, match="mass beyond the outermost nodes"):
            integrate_one(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0, rel_tol=1e-10)

    @given(c=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, c):
        f = lambda x: np.exp(x) * np.sin(3.0 * x)
        whole, _ = integrate_one(f, 0.0, 1.0)
        left, _ = integrate_one(f, 0.0, c)
        right, _ = integrate_one(f, c, 1.0)
        assert whole == pytest.approx(left + right, rel=1e-11, abs=1e-12)


class TestIntegrateRows:
    """Rows of functions on shared nodes: each row's entry is its lone call's."""

    FUNCTIONS = [
        lambda x: np.exp(x),                        # done at h = 1/16 in one call
        lambda x: 1.0 / (0.01 + x ** 2),            # needs h = 1/32 and halved pieces
        lambda x: np.abs(x - 1.0 / 3.0),            # halves the pieces at its kink
        lambda x: np.where(x > 0.5, np.nan, x),     # holds a non-finite sample's error
        lambda x: x ** 6,
    ]

    @staticmethod
    def counted(f, calls):
        def g(x):
            calls.append(np.shape(x))
            return f(x)
        return g

    def test_rows_equal_lone_calls(self):
        # Each row reads only the calls its lone integral makes, although
        # the rows make more between them: a row done in one call ignores
        # the h = 1/32 calls and halved pieces of the others, and the row
        # with a non-finite sample holds its error while the others finish.
        calls, reads = [], []
        rows = self.counted(lambda x: np.array([f(x) for f in self.FUNCTIONS]), calls)
        got = integrate(rows, -1.0, 1.0, 1e-10, reads=reads)
        alone = []
        for i, f in enumerate(self.FUNCTIONS):
            lone_calls = []
            assert repr([got[i]]) == repr(integrate(self.counted(f, lone_calls), -1.0, 1.0,
                                                    1e-10))
            assert sum(i in readers for readers in reads) == len(lone_calls)
            alone.append(len(lone_calls))
        assert alone[:2] == [1, 6] and alone[3] == 1
        assert isinstance(got[3], QuadratureError) and "non-finite" in str(got[3])
        assert len(reads) == len(calls) and max(alone) < len(calls) < sum(alone)

    def test_agreeing_rows_share_every_call(self):
        # Multiples of one function, as a run's roots are: as many calls as
        # one row, each row's value and error its own.
        f = self.FUNCTIONS[1]
        factors = np.array([[0.5], [1.0], [3.0]])
        calls, lone_calls = [], []
        got = integrate(self.counted(lambda x: factors * f(x), calls), -1.0, 1.0, 1e-10)
        for i, factor in enumerate(factors[:, 0].tolist()):
            lone_calls.clear()
            assert [got[i]] == integrate(self.counted(lambda x: factor * f(x), lone_calls),
                                         -1.0, 1.0, 1e-10)
            assert lone_calls == calls

    def test_breaks_integrate_each_interval_on_its_own(self):
        f = self.FUNCTIONS[2]
        (value, error), = integrate(f, 0.0, 1.0, 1e-10, breaks=(1.0 / 3.0,))
        parts = [integrate_one(f, a, b, rel_tol=1e-10) for a, b in ((0.0, 1.0 / 3.0),
                                                                   (1.0 / 3.0, 1.0))]
        assert value == math.fsum(v for v, _ in parts)
        assert error == math.fsum(e for _, e in parts)


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


def maximize_one(f, a, b):
    """maximize of one function: its (argmax, max), or its error raised."""
    (best,) = maximize(f, a, b)
    if isinstance(best, QuadratureError):
        raise best
    return best


class TestMaximize:
    def test_interior_maximum(self):
        # f(x) = x exp(-x) peaks at x = 1 with value 1/e.  The argmax of a
        # flat quadratic peak is only determined to ~sqrt(eps); the value
        # itself is second-order accurate and stays tight.
        x, v = maximize_one(lambda x: x * np.exp(-x), 0.0, 5.0)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_boundary_maximum(self):
        x, v = maximize_one(lambda x: -x, 2.0, 7.0)
        assert x == pytest.approx(2.0, abs=1e-9)
        assert v == pytest.approx(-2.0, rel=1e-12)

    def test_infinite_domain(self):
        # r^2 exp(-r) on [1, inf) peaks at r = 2.
        x, v = maximize_one(lambda r: r * r * np.exp(-r), 1.0, math.inf)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert v == pytest.approx(4.0 * math.exp(-2.0), rel=1e-10)

    def test_infinite_domain_boundary(self):
        x, v = maximize_one(lambda r: 1.0 / r, 3.0, math.inf)
        assert v == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_quadratic_peak_refined(self):
        # The peak lies between grid points; refinement reaches it.
        x, v = maximize_one(lambda x: -(x - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=1e-6)
        assert v == pytest.approx(2.0, abs=1e-12)

    @given(peak=st.floats(0.5, 9.5))
    @settings(max_examples=40, deadline=None)
    def test_gaussian_peak_found(self, peak):
        x, v = maximize_one(lambda x: np.exp(-((x - peak) ** 2)), 0.0, 10.0)
        assert x == pytest.approx(peak, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("b", [5.0, math.inf])
    def test_grid_is_one_vectorized_call(self, b):
        # One call on the whole grid, then one array call per refinement
        # round; no scalar call.
        calls = []

        def f(r):
            calls.append(np.shape(r))
            return np.asarray(r, dtype=float) ** 2 * np.exp(-r)

        x, v = maximize_one(f, 1.0, b)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert calls[0] == (4096,)
        assert all(shape == (65,) for shape in calls[1:])
        assert 2 <= len(calls) <= 12

    @pytest.mark.parametrize("b", [5.0, math.inf])
    def test_rows_share_each_call(self, b):
        # Rows that are multiples of one function, as a run's roots are: as
        # many calls as one row alone, each row's (argmax, max) its own.
        calls = []

        def counted(factor):
            def f(r):
                calls.append(np.shape(r))
                return factor * (np.asarray(r, dtype=float) ** 2 * np.exp(-r))
            return f

        factors = np.array([[0.5], [1.0], [3.0]])
        got = maximize(counted(factors), 1.0, b)
        shapes = list(calls)
        for i, factor in enumerate(factors[:, 0].tolist()):
            calls.clear()
            assert [got[i]] == maximize(counted(factor), 1.0, b)
            assert len(calls) == len(shapes)
        assert shapes[0] == (4096,)
        assert all(shape == (3, 65) for shape in shapes[1:])

    def test_refinement_points_are_linspaces(self):
        # Each round samples every row's interval at np.linspace's points,
        # bit for bit, for one row and for rows.
        for peaks in (1.7, np.array([[1.7], [2.9]])):
            calls = []

            def f(x):
                calls.append(np.array(x, ndmin=2))
                return np.exp(-(np.asarray(x, dtype=float) - peaks) ** 2)

            maximize(f, 1.0, 5.0)
            for points in calls[1:]:
                for line in points.tolist():
                    assert line == np.linspace(line[0], line[-1], 65).tolist()

    def test_rows_finish_on_their_own(self):
        # The interval test is relative to |lo| + |hi| + 1: a peak near 0
        # takes one round more than one near 5.  The row done first keeps its
        # last interval meanwhile and returns what it returns alone; a row
        # with a non-finite sample holds the error that one row raises.
        calls = []

        def counted(peaks):
            def f(x):
                calls.append(np.shape(x))
                x = np.asarray(x, dtype=float)
                out = np.exp(-(x - peaks) ** 2)
                if out.ndim == 2:
                    out[2] = np.where(np.abs(x[-1] - 3.7) < 1e-3, np.nan, out[2])
                return out
            return f

        got = maximize(counted(np.array([[0.01], [4.9], [3.7]])), 0.0, 5.0)
        rounds = len(calls)
        alone = []
        for i, peak in enumerate((0.01, 4.9)):
            calls.clear()
            assert [got[i]] == maximize(counted(peak), 0.0, 5.0)
            alone.append(len(calls))
        assert alone[0] > alone[1] and rounds == alone[0]
        assert isinstance(got[2], QuadratureError)
        assert "non-finite" in str(got[2])

    def test_grids_are_one_memoized_geomspace(self):
        # The root scan's grid and maximize's grid for [2, inf) share one
        # cache: one read-only grid per argument tuple, np.geomspace's values.
        for args in ((1e-8, 1e3, 10_000), (0.5, 0.5e-12, 4096)):
            grid = quadrature.geom_grid(*args)
            assert quadrature.geom_grid(*args) is grid
            assert np.array_equal(grid, np.geomspace(*args))
            assert not grid.flags.writeable

    def test_nonfinite_refinement_sample(self):
        # The NaN stretch around the peak lies between grid points: only
        # the refinement samples reach it.
        def f(x):
            return np.where(np.abs(x - 2.5) < 1e-4, np.nan, np.exp(-(x - 2.5) ** 2))

        with pytest.raises(QuadratureError, match="non-finite"):
            maximize_one(f, 0.0, 5.0)

    def test_nonfinite_sample_on_infinite_grid(self):
        def f(r):
            out = 1.0 / np.asarray(r, dtype=float)
            if out.ndim:
                out[100] = np.nan
            return out

        with pytest.raises(QuadratureError, match="non-finite"):
            maximize_one(f, 1.0, math.inf)

    def test_rejects_scalar_only_result(self):
        with pytest.raises(QuadratureError, match="as many values"):
            maximize(lambda x: 1.0, 0.0, 1.0)
