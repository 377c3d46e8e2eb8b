"""Base solution fields and the closed-form vs quadrature norm dual route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odkirch.base_solutions import BallGeometry, ExteriorGeometry, norm_quadrature
from odkirch.errors import DomainError, QuadratureError

INF = math.inf


def exterior_thresholds(n):
    """The exponents at and below which U (n >= 3) and grad U leave L^p."""
    u = n / (n - 2.0) if n >= 3 else None
    return u, (2.0 / 3.0 if n == 2 else n / (n - 1.0))

# Exterior sup norms frozen from a 40-digit evaluation of
# (1/(n-2)) (n/(n-2))^(-n/2), attained at r = sqrt(n/(n-2)).
EXTERIOR_SUP_U = {
    3: 0.19245008972987525,
    4: 0.125,
    5: 0.092951600308978005,
}


class TestGeometries:
    def test_ball_defaults(self):
        g = BallGeometry(n=3, radius=2.0)
        assert g.center == (0.0, 0.0, 0.0)

    def test_ball_center_kept(self):
        g = BallGeometry(n=2, radius=1.0, center=(1.0, -2.0))
        assert g.center == (1.0, -2.0)

    def test_ball_validation(self):
        with pytest.raises(DomainError):
            BallGeometry(n=0, radius=1.0)
        with pytest.raises(DomainError):
            BallGeometry(n=2, radius=0.0)
        with pytest.raises(DomainError):
            BallGeometry(n=2, radius=-1.0)
        with pytest.raises(DomainError):
            BallGeometry(n=2, radius=1.0, center=(0.0,))
        with pytest.raises(DomainError):
            BallGeometry(n=2.5, radius=1.0)

    def test_exterior_validation(self):
        with pytest.raises(DomainError):
            ExteriorGeometry(n=1)
        assert ExteriorGeometry(n=2).n == 2


class TestGeometryInterface:
    def test_exterior_excludes_the_unit_ball(self):
        geom = ExteriorGeometry(n=3)
        assert geom.radius == 1.0 and geom.center == (0.0, 0.0, 0.0)
        assert geom.r_range == (1.0, INF)
        with pytest.raises(TypeError):
            ExteriorGeometry(n=3, radius=2.0)  # not a parameter

    def test_rhs_weight(self):
        r = np.array([1.0, 2.0])
        assert BallGeometry(n=3, radius=2.0).rhs_weight(r) == 1.0
        assert np.allclose(ExteriorGeometry(n=3).rhs_weight(r), r ** -5.0)

    def test_check_k(self):
        BallGeometry(n=3, radius=1.0).check_k(3)
        ExteriorGeometry(n=3).check_k(1)
        with pytest.raises(DomainError):
            BallGeometry(n=3, radius=1.0).check_k(4)
        with pytest.raises(DomainError):
            ExteriorGeometry(n=3).check_k(2)

    def test_sample_radii_inside(self):
        rng = np.random.default_rng(0)
        ball = BallGeometry(n=2, radius=3.0).sample_radii(rng, 50)
        outside = ExteriorGeometry(n=2).sample_radii(rng, 50)
        assert np.all((ball > 0.0) & (ball < 3.0))
        assert np.all((outside >= 1.0) & (outside <= 20.0))

    def test_closed_form_overflow_is_domain_error(self):
        geom = BallGeometry(n=9, radius=1e30)
        with pytest.raises(DomainError, match="overflows"):
            geom.norm_u(0.3)
        with pytest.raises(DomainError, match="overflows"):
            BallGeometry(n=2, radius=1e150).norm_grad(0.01)
        assert geom.norm_u(INF) == pytest.approx(0.5e60, rel=1e-15)


class TestProfilesAndFields:
    def test_ball_boundary_conditions(self):
        geom = BallGeometry(n=3, radius=1.5)
        prof = geom.profile()
        assert prof.phi(1.5) == pytest.approx(0.0, abs=1e-15)
        assert prof.dphi(1.5) == pytest.approx(1.5)  # |grad U| = R on the sphere
        assert prof.phi(0.0) == pytest.approx(-1.125)

    def test_exterior_boundary_conditions(self):
        for n in (2, 3, 4, 7):
            prof = ExteriorGeometry(n=n).profile()
            assert prof.phi(1.0) == pytest.approx(0.0, abs=1e-15)
            assert abs(prof.dphi(1.0)) == pytest.approx(1.0)

    def test_exterior_far_field(self):
        # n = 2 stays bounded (limit -1/2); n >= 3 decays to zero.
        flat = ExteriorGeometry(n=2).profile()
        assert flat.phi(1e8) == pytest.approx(-0.5, rel=1e-12)
        decaying = ExteriorGeometry(n=3).profile()
        assert abs(decaying.phi(1e8)) < 1e-8

    def test_scale(self):
        prof = BallGeometry(n=2, radius=1.0).profile().scale(3.0)
        assert prof.phi(0.5) == pytest.approx(3.0 * 0.5 * (0.25 - 1.0))
        assert prof.dphi(0.5) == pytest.approx(1.5)


class TestVectorizedField:
    """as_field on a stack of points gives each point's value bit for bit."""

    @staticmethod
    def single_point(prof, center, x):
        d = x - np.asarray(center)
        return float(prof.phi(math.sqrt(float(d @ d))))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_off_centre_ball(self, n):
        rng = np.random.default_rng(100 + n)
        geom = BallGeometry(n=n, radius=1.7, center=tuple(rng.normal(size=n)))
        prof = geom.profile()
        field = prof.as_field(geom.center)
        pts = np.asarray(geom.center) + rng.uniform(-1.7, 1.7, size=(500, n))
        stacked = field(pts)
        assert stacked.shape == (500,)
        assert np.array_equal(stacked, [self.single_point(prof, geom.center, x)
                                        for x in pts])
        assert np.array_equal(stacked, [field(x) for x in pts])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_exterior(self, n):
        rng = np.random.default_rng(200 + n)
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        field = prof.as_field(geom.center)
        dirs = rng.normal(size=(500, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(1.0, 6.0, size=(500, 1))
        stacked = field(pts)
        assert np.array_equal(stacked, [self.single_point(prof, geom.center, x)
                                        for x in pts])

    def test_leading_axes_and_single_point(self):
        geom = BallGeometry(n=3, radius=2.0, center=(0.5, -1.0, 2.0))
        field = geom.profile().as_field(geom.center)
        pts = np.random.default_rng(3).normal(size=(4, 5, 3))
        grid = field(pts)
        assert grid.shape == (4, 5)
        assert np.array_equal(grid.ravel(), field(pts.reshape(20, 3)))
        assert np.ndim(field(pts[0, 0])) == 0
        assert field(pts[0, 0]) == grid[0, 0]


class TestAdmissibility:
    def test_ball_accepts_any_positive_exponent(self):
        geom = BallGeometry(n=3, radius=1.0)
        for p in (0.5, 1.0, 97.0, INF):
            geom.check_exponents(p=p)
            geom.check_exponents(q=p)

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            BallGeometry(n=2, radius=1.0).check_exponents(p=bad)

    def test_planar_exterior_u_only_sup(self):
        geom = ExteriorGeometry(n=2)
        geom.check_exponents(p=INF)
        with pytest.raises(DomainError):
            geom.check_exponents(p=5.0)

    def test_planar_exterior_gradient_threshold(self):
        # The planar gradient decays like r^-3, so L^q needs q > 2/3.
        geom = ExteriorGeometry(n=2)
        geom.check_exponents(q=0.7)
        geom.check_exponents(q=1.0)
        with pytest.raises(DomainError):
            geom.check_exponents(q=2.0 / 3.0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exterior_thresholds(self, n):
        geom = ExteriorGeometry(n=n)
        p_thr = n / (n - 2.0)
        q_thr = n / (n - 1.0)
        geom.check_exponents(p=p_thr + 0.01)
        geom.check_exponents(q=q_thr + 0.01)
        with pytest.raises(DomainError):
            geom.check_exponents(p=p_thr)
        with pytest.raises(DomainError):
            geom.check_exponents(q=q_thr)


class TestBallNormsDualRoute:
    @pytest.mark.parametrize("n,radius", [(2, 1.0), (3, 1.5), (5, 0.7)])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7, INF])
    def test_u_norm(self, n, radius, p):
        geom = BallGeometry(n=n, radius=radius)
        prof = geom.profile()
        closed = geom.norm_u(p)
        quad = norm_quadrature(prof.phi, p, n, 0.0, radius)
        assert quad == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("n,radius", [(2, 1.0), (3, 1.5), (5, 0.7)])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0, INF])
    def test_gradient_norm(self, n, radius, q):
        geom = BallGeometry(n=n, radius=radius)
        prof = geom.profile()
        closed = geom.norm_grad(q)
        quad = norm_quadrature(prof.dphi, q, n, 0.0, radius)
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_sup_norms_explicit(self):
        geom = BallGeometry(n=4, radius=2.0)
        assert geom.norm_u(INF) == pytest.approx(2.0)
        assert geom.norm_grad(INF) == pytest.approx(2.0)

    @given(r1=st.floats(0.2, 3.0), r2=st.floats(0.2, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_radius(self, r1, r2):
        lo, hi = sorted((r1, r2))
        if hi - lo < 1e-9:
            return
        n_lo = BallGeometry(n=3, radius=lo).norm_u(2.0)
        n_hi = BallGeometry(n=3, radius=hi).norm_u(2.0)
        assert n_lo < n_hi


class TestExteriorNormsDualRoute:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p_kind", ["near_threshold", "moderate", "large", "sup"])
    def test_u_norm(self, n, p_kind):
        geom = ExteriorGeometry(n=n)
        p = {
            "near_threshold": n / (n - 2.0) + 0.5,
            "moderate": 4.0,
            "large": 7.3,
            "sup": INF,
        }[p_kind]
        prof = geom.profile()
        closed = geom.norm_u(p)
        quad = norm_quadrature(prof.phi, p, n, 1.0, INF)
        assert quad == pytest.approx(closed, rel=1e-8)

    def test_u_norm_planar_sup(self):
        geom = ExteriorGeometry(n=2)
        prof = geom.profile()
        assert geom.norm_u(INF) == 0.5
        assert norm_quadrature(prof.phi, INF, 2, 1.0, INF) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("q_kind", ["near_threshold", "one", "two", "five", "sup"])
    def test_gradient_norm(self, n, q_kind):
        geom = ExteriorGeometry(n=n)
        threshold = 2.0 / 3.0 if n == 2 else n / (n - 1.0)
        q = {
            "near_threshold": threshold + 0.1,
            "one": 1.0,
            "two": 2.0,
            "five": 5.0,
            "sup": INF,
        }[q_kind]
        if q != INF and q <= threshold:
            pytest.skip("inadmissible exponent for this dimension")
        prof = geom.profile()
        closed = geom.norm_grad(q)
        quad = norm_quadrature(prof.dphi, q, n, 1.0, INF)
        assert quad == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_just_above_threshold(self, n):
        # The mapped integrands behave like x^(-1 + 0.05 (n - 2)) and
        # x^(-1 + 0.05 (n - 1)) at x = 1/r = 0.
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        p, q = (t + 0.05 for t in exterior_thresholds(n))
        assert norm_quadrature(prof.phi, p, n, 1.0, INF) == pytest.approx(
            geom.norm_u(p), rel=1e-8)
        assert norm_quadrature(prof.dphi, q, n, 1.0, INF) == pytest.approx(
            geom.norm_grad(q), rel=1e-8)

    def test_steep_u_norm(self):
        # |U|^20 r^8 decays like r^(-132), and underflows past r of about 1e44.
        geom = ExteriorGeometry(n=9)
        quad = norm_quadrature(geom.profile().phi, 20.0, 9, 1.0, INF)
        assert quad == pytest.approx(geom.norm_u(20.0), rel=1e-8)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_near_threshold_sweep_is_right_or_raises(self, n):
        # Closer to the threshold the mass sits at ever larger r, until the
        # profile underflows or the panels run out; that must be an error,
        # never a wrong value.
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        u_threshold, grad_threshold = exterior_thresholds(n)
        cases = [(prof.dphi, grad_threshold, geom.norm_grad)]
        if u_threshold is not None:
            cases.append((prof.phi, u_threshold, geom.norm_u))
        for radial_f, threshold, closed in cases:
            for delta in (0.01, 0.02, 0.03, 0.05, 0.08):
                e = threshold + delta
                try:
                    quad = norm_quadrature(radial_f, e, n, 1.0, INF)
                except QuadratureError:
                    continue
                assert quad == pytest.approx(closed(e), rel=1e-8)

    def test_underflow_near_threshold_is_named(self):
        # n = 3, q = 1.52: dphi underflows past r of about 1e154 while the
        # mass beyond is far above the tolerance.
        prof = ExteriorGeometry(n=3).profile()
        with pytest.raises(QuadratureError,
                           match=r"underflows to 0 beyond r = \d\.\d+e\+1[56]\d "):
            norm_quadrature(prof.dphi, 1.52, 3, 1.0, INF)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_frozen_sup_values(self, n):
        geom = ExteriorGeometry(n=n)
        assert geom.norm_u(INF) == pytest.approx(EXTERIOR_SUP_U[n], rel=1e-14)
        assert geom.norm_grad(INF) == 1.0

    def test_planar_gradient_closed_form(self):
        # n = 2: ||grad U||_q^q = 2 pi / (3q - 2); check q = 1 against 2 pi.
        geom = ExteriorGeometry(n=2)
        assert geom.norm_grad(1.0) == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_inadmissible_raise(self):
        geom = ExteriorGeometry(n=3)
        with pytest.raises(DomainError):
            geom.norm_u(2.0)
        with pytest.raises(DomainError):
            geom.norm_grad(1.2)


class TestNormQuadrature:
    def test_simple_field(self):
        # f(r) = 1 on the unit ball in R^3: ||f||_p^p = |B| = 4 pi / 3.
        val = norm_quadrature(lambda r: np.ones_like(np.asarray(r, float)), 2.0, 3, 0.0, 1.0)
        assert val == pytest.approx((4.0 * math.pi / 3.0) ** 0.5, rel=1e-10)

    def test_zero_field(self):
        val = norm_quadrature(lambda r: np.zeros_like(np.asarray(r, float)), 2.0, 3, 0.0, 1.0)
        assert val == 0.0

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            norm_quadrature(lambda r: r, -1.0, 2, 0.0, 1.0)
