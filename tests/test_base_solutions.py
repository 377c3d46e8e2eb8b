"""Base solution fields and the closed-form vs quadrature norm dual route."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from odkirch import base_solutions
from odkirch.base_solutions import (BallGeometry, ExteriorGeometry, RadialProfile,
                                    norm_quadrature, profile_norm)
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_ball_rejects_non_finite_center(self, bad):
        with pytest.raises(DomainError, match="center must be finite"):
            BallGeometry(n=2, radius=1.0, center=(bad, 0.0))

    def test_exterior_validation(self):
        with pytest.raises(DomainError):
            ExteriorGeometry(n=1)
        assert ExteriorGeometry(n=2).n == 2


class TestGeometryInterface:
    def test_exterior_excludes_the_unit_ball(self):
        geom = ExteriorGeometry(n=3)
        assert geom.radius == 1.0 and geom.center == (0.0, 0.0, 0.0)
        prof = geom.profile()
        assert (prof.r_min, prof.r_max) == (1.0, INF)
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

    @pytest.mark.parametrize("geom", [BallGeometry(n=1000, radius=1.0),
                                      ExteriorGeometry(n=1000)])
    def test_vanishing_sphere_area_is_domain_error(self, geom):
        # The finite-exponent closed forms take the log of the sphere area,
        # which is 0 in R^1000; the sup norms do not need it.
        for norm in (geom.norm_u, geom.norm_grad):
            with pytest.raises(DomainError, match="smallest normal double"):
                norm(3.0)
            assert math.isfinite(norm(INF))


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

    def test_scales_round_one_multiply_at_a_time(self):
        prof = ExteriorGeometry(n=5).profile()
        r = np.linspace(1.0, 9.0, 33)
        twice = prof.scale(1.3).scale(0.7)
        assert twice.factors == (0.5, 1.3, 0.7)
        for name in ("phi", "dphi", "d2phi"):
            base = getattr(prof, name)(r)
            assert np.array_equal(getattr(twice, name)(r), 0.7 * (1.3 * base))

    @pytest.mark.parametrize("geom", [BallGeometry(n=3, radius=1.7), ExteriorGeometry(n=5),
                                      ExteriorGeometry(n=2)])
    def test_scale_shares_the_derived_terms(self, geom):
        # A scaled profile carries its parent's terms, and evaluates exactly as
        # a profile that derives them afresh from the same data.
        prof = geom.profile()
        scaled = prof.scale(2.0).scale(0.3)
        assert prof.scale(2.0)._terms is prof._terms and scaled._terms is prof._terms
        fresh = RadialProfile(coeffs=prof.coeffs, powers=prof.powers,
                              factors=(0.5, 2.0, 0.3), r_min=prof.r_min, r_max=prof.r_max)
        assert scaled == fresh and fresh._terms == prof._terms
        r = prof.r_min + np.random.default_rng(7).uniform(0.0, 3.0, 64)
        for name in ("phi", "dphi", "d2phi"):
            assert np.array_equal(getattr(scaled, name)(r), getattr(fresh, name)(r))
        assert scaled.sign_changes(1) == prof.sign_changes(1)

    def test_sign_changes(self):
        # Only zeros strictly inside the domain count: the base fields vanish
        # on the boundary, and the exterior gradient at sqrt(n/(n-2)).
        assert BallGeometry(n=3, radius=1.2).profile().sign_changes(0) == []
        assert BallGeometry(n=3, radius=1.2).profile().sign_changes(1) == []
        ext = ExteriorGeometry(n=4).profile()
        assert ext.sign_changes(0) == []
        assert ext.sign_changes(1) == [pytest.approx(math.sqrt(2.0), rel=1e-15)]
        assert ExteriorGeometry(n=2).profile().sign_changes(1) == []
        same_sign = RadialProfile(coeffs=(1.0, 1.0), powers=(2.0, 0.0), factors=(1.0,),
                                  r_min=0.0, r_max=5.0)
        assert same_sign.sign_changes(0) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 64])
    def test_power_sums_round_as_the_closed_forms(self, n):
        # phi, phi' and phi'' of both base fields, written out by hand: the
        # term-by-term sums must give the same bits.
        r = np.linspace(1.0, 7.0, 41)
        ext = ExteriorGeometry(n=n).profile()
        assert np.array_equal(ext.phi(r), 0.5 * (r ** (-n) - r ** (2.0 - n)))
        assert np.array_equal(ext.dphi(r), 0.5 * (-n * r ** (-n - 1.0)
                                                  + (n - 2.0) * r ** (1.0 - n)))
        assert np.array_equal(ext.d2phi(r), 0.5 * (n * (n + 1.0) * r ** (-n - 2.0)
                                                   - (n - 2.0) * (n - 1.0) * r ** (-n)))
        ball = BallGeometry(n=n, radius=7.0).profile()
        rr = np.concatenate([[0.0], r])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.array_equal(ball.phi(rr), 0.5 * (rr ** 2 - 49.0))
            assert np.array_equal(ball.dphi(rr), rr)
            assert np.array_equal(ball.d2phi(rr), np.ones_like(rr))
        assert np.ndim(ball.d2phi(0.5)) == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_kelvin_maps_powers(self, n):
        # c r^a -> c rho^(2-n-a): the exterior base field goes to the
        # unit-ball one, and a second transform gives back the same data.
        prof = ExteriorGeometry(n=n).profile()
        image = prof.kelvin(n)
        assert image.powers == (2.0, 0.0)
        assert image == BallGeometry(n=n, radius=1.0).profile()
        assert image.kelvin(n) == prof
        scaled = prof.scale(2.5)
        assert scaled.kelvin(n).kelvin(n) == scaled


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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_thresholds_are_exact(self, n):
        # n / -a for the largest power a at infinity: n/(n-2), n/(n-1), and
        # 2/3 for the planar gradient, which decays like r^-3.
        geom = ExteriorGeometry(n=n)
        q_thr = 2.0 / 3.0 if n == 2 else n / (n - 1.0)
        geom.check_exponents(q=math.nextafter(q_thr, INF))
        with pytest.raises(DomainError, match=f"only for q > {q_thr:g}, got q = "):
            geom.check_exponents(q=q_thr)
        if n == 2:
            with pytest.raises(DomainError, match="does not decay at infinity"):
                geom.check_exponents(p=1e6)
            return
        p_thr = n / (n - 2.0)
        geom.check_exponents(p=math.nextafter(p_thr, INF))
        with pytest.raises(DomainError, match=f"only for p > {p_thr:g}, got p = "):
            geom.check_exponents(p=p_thr)


def sphere_area_ref(n):
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def quad_pieces(f, edges):
    """Sum of scipy's QUADPACK quad of f over consecutive edges, to a
    relative 2e-14 each."""
    return math.fsum(scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))


def ball_reference(n, radius, p, field):
    """(|S^(n-1)| integral of |f(r)|^p r^(n-1) over [0, R])^(1/p) by scipy,
    with f = (r^2 - R^2)/2 or f' = r written out."""
    f = (lambda r: 0.5 * (r * r - radius * radius)) if field == "u" else (lambda r: r)
    total = quad_pieces(lambda r: abs(f(r)) ** p * r ** (n - 1.0), [0.0, radius])
    return (sphere_area_ref(n) * total) ** (1.0 / p)


def exterior_reference(n, p, field):
    """The same over [1, inf) for f = (r^(-n) - r^(2-n))/2 or its derivative,
    in t = log r: |f|^p r^(n-1) dr = exp(p log|f(e^t)| + n t) dt with the
    power that rules at infinity taken out of log|f| by hand, so that the
    exponent is a small number times t.  Pieces break at the kink of |f'|
    and double out to where the integrand is below e^-60 of its start."""
    if field == "u":
        rate = (2.0 - n) * p + n
        def log_f(t):   # log|f| - (2-n) t = log(|1 - e^(-2t)| / 2)
            return math.log(0.5) + math.log(-math.expm1(-2.0 * t))
        edges = [0.0]
    elif n == 2:
        rate = -3.0 * p + n
        def log_f(t):   # f' = -r^-3
            return 0.0
        edges = [0.0]
    else:
        rate = (1.0 - n) * p + n
        def log_f(t):   # log|f'| - (1-n) t = log(|(n-2) - n e^(-2t)| / 2)
            x = abs((n - 2.0) - n * math.exp(-2.0 * t))
            return math.log(0.5) + (math.log(x) if x > 0.0 else -INF)
        edges = [0.0, 0.5 * math.log(n / (n - 2.0))]
    assert rate < 0.0
    while edges[-1] < 60.0 / -rate:
        edges.append(max(2.0 * edges[-1], 1.0))
    total = quad_pieces(lambda t: math.exp(p * log_f(t) + rate * t), edges)
    return (sphere_area_ref(n) * total) ** (1.0 / p)


class TestClosedFormsAgainstQuadpack:
    """profile_norm against a direct scipy quadrature of the defining integral."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
    @pytest.mark.parametrize("radius", [0.01, 0.3, 1.2, 7.0, 1e3])
    def test_ball(self, n, radius):
        geom = BallGeometry(n=n, radius=radius)
        for p in (0.3, 1.0, 2.0, 5.5, 40.0):
            assert geom.norm_u(p) == pytest.approx(ball_reference(n, radius, p, "u"),
                                                   rel=1e-12), p
            assert geom.norm_grad(p) == pytest.approx(ball_reference(n, radius, p, "grad"),
                                                      rel=1e-12), p

    @pytest.mark.parametrize("n", range(2, 12))
    def test_exterior(self, n):
        geom = ExteriorGeometry(n=n)
        q_thr = 2.0 / 3.0 if n == 2 else n / (n - 1.0)
        for q in (q_thr * 1.001, q_thr + 0.1, 7.0):
            assert geom.norm_grad(q) == pytest.approx(exterior_reference(n, q, "grad"),
                                                      rel=1e-12), q
        if n >= 3:
            p_thr = n / (n - 2.0)
            for p in (p_thr * 1.001, p_thr + 0.1, 7.0):
                assert geom.norm_u(p) == pytest.approx(exterior_reference(n, p, "u"),
                                                       rel=1e-12), p

    @pytest.mark.parametrize("c0, r_max", [(-4.0, 1.0), (-0.25, 1.0), (-1.0, 1.0)])
    def test_bounded_two_term_sum(self, c0, r_max):
        # f = r^2 + c0 on [0, 1] changes sign at r = 2 (past the domain), at
        # r = 1/2 (inside it) and at r = 1 (on its boundary).
        prof = RadialProfile(coeffs=(1.0, c0), powers=(2.0, 0.0), factors=(1.0,),
                             r_min=0.0, r_max=r_max)
        for p in (0.5, 2.0, 9.0):
            total = quad_pieces(lambda r: abs(r * r + c0) ** p * r ** 2.0,
                                [0.0, *prof.sign_changes(0), r_max])
            ref = (sphere_area_ref(3) * total) ** (1.0 / p)
            assert profile_norm(prof, 0, p, 3, "f") == pytest.approx(ref, rel=1e-12)
        assert profile_norm(prof, 0, INF, 3, "f") == max(-c0, abs(1.0 + c0))


class TestClosedFormQuadratureCalls:
    """Only the exterior gradient, whose profile changes sign inside the
    domain, needs an incomplete beta; the rest are complete betas."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = base_solutions.log_incomplete_beta

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(base_solutions, "log_incomplete_beta", counted)
        return calls

    @pytest.mark.parametrize("radius", [0.3, 1.2, 7.0])
    def test_ball_norms(self, calls, radius):
        # y_e = R^2 / R^2 lands on 1 however R^2 rounds.
        for n in (2, 3, 7):
            geom = BallGeometry(n=n, radius=radius)
            for p in (0.3, 2.0, 5.5):
                geom.norm_u(p)
                geom.norm_grad(p)
        assert calls == []

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_exterior_norms(self, calls, n):
        geom = ExteriorGeometry(n=n)
        if n >= 3:
            geom.norm_u(4.0)
            assert calls == []
        geom.norm_grad(2.0)
        assert len(calls) == (1 if n >= 3 else 0)


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

    def test_gradient_kink_is_a_breakpoint(self):
        # |f'|^q has a kink at the zero r* = sqrt(n/(n-2)) of f', which one
        # K15/G7 panel straddled here (9.9e-10 off without the breakpoint).
        geom = ExteriorGeometry(n=4)
        prof = geom.profile()
        quad = norm_quadrature(prof.dphi, 3.45936, 4, 1.0, INF,
                               breaks=prof.sign_changes(1))
        assert quad == pytest.approx(geom.norm_grad(3.45936), rel=1e-10)

    def test_underflow_near_threshold_is_named(self):
        # n = 3, q = 1.52: dphi underflows past r of about 1e154 while the
        # mass beyond is far above the tolerance.
        prof = ExteriorGeometry(n=3).profile()
        with pytest.raises(QuadratureError,
                           match=r"underflows to 0 beyond r = \d\.\d+e\+1[56]\d "):
            norm_quadrature(prof.dphi, 1.52, 3, 1.0, INF)

    @pytest.mark.parametrize("n", [3, 5, 10, 100])
    def test_gradient_closed_form_to_large_q(self, n):
        # The series serves every q; the quadrature still resolves the
        # boundary layer of |grad U|^q at r = 1 up to q = 3e4.
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        for q in (1.05 * n / (n - 1.0), 2.0, 10.0, 100.0, 1e3, 1e4, 3e4):
            quad = norm_quadrature(prof.dphi, q, n, 1.0, INF,
                                   breaks=prof.sign_changes(1))
            assert quad == pytest.approx(geom.norm_grad(q), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 5, 10, 100])
    def test_huge_gradient_exponent_is_the_sup_norm(self, n):
        # ||grad U||_q tends to ||grad U||_inf = 1; at q = 1e300 the logs of
        # the closed form, near 1e303, must cancel to 1e-14 of q.
        geom = ExteriorGeometry(n=n)
        assert geom.norm_grad(1e300) == pytest.approx(geom.norm_grad(INF), rel=1e-14)

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

    @pytest.mark.parametrize("n, radius", [(2, 1.0), (3, 1.5), (7, 0.3)])
    @pytest.mark.parametrize("order", [0, 1])
    def test_smooth_ball_norm_takes_one_call_per_piece(self, n, radius, order):
        # The levels down to h = 1/16 agree at rel_tol 1e-10: one call on the
        # one piece, then the check of the integrand at the ends.
        geom = BallGeometry(n=n, radius=radius)
        f = (geom.profile().phi, geom.profile().dphi)[order]
        for p in (0.3, 1.0, 3.5):
            sizes = []

            def counted(r):
                sizes.append(np.size(r))
                return f(r)

            quad = norm_quadrature(counted, p, n, 0.0, radius, rel_tol=1e-10)
            assert sizes == [193, 2]
            assert quad == pytest.approx((geom.norm_u, geom.norm_grad)[order](p), rel=1e-10)

    def test_zero_field(self):
        val = norm_quadrature(lambda r: np.zeros_like(np.asarray(r, float)), 2.0, 3, 0.0, 1.0)
        assert val == 0.0

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            norm_quadrature(lambda r: r, -1.0, 2, 0.0, 1.0)

    @pytest.mark.parametrize("n, radius, p", [(3, 1e-50, 2.0), (2, 1.0, 1e300),
                                              (2, 0.01, 80.0)])
    def test_underflowing_integral_is_an_error(self, n, radius, p):
        # |U|^p r^(n-1) is below the smallest normal double on the whole
        # ball, or is 0 there, while |U| is not: the norm is no double's 0.
        prof = BallGeometry(n=n, radius=radius).profile()
        with pytest.raises(QuadratureError, match="outside the normal doubles"):
            norm_quadrature(prof.phi, p, n, 0.0, radius)

    def test_subnormal_integral_of_accurate_norm(self):
        # The integral of |U|^p r is 9.0e-311, subnormal, yet far above the
        # rounding of its samples: the norm is as good as at any exponent.
        geom = BallGeometry(n=2, radius=0.01)
        prof = geom.profile()
        quad = norm_quadrature(prof.phi, 70.655, 2, 0.0, 0.01)
        assert quad == pytest.approx(geom.norm_u(70.655), rel=1e-10)

    def test_overflowing_integral_is_an_error(self):
        # |U|^82.7 r^2 on the ball of radius 100 sums past the largest double.
        prof = BallGeometry(n=3, radius=100.0).profile()
        with pytest.raises(QuadratureError, match="inf, of a field"):
            norm_quadrature(prof.phi, 82.71356783919597, 3, 0.0, 100.0)

    @pytest.mark.parametrize("q", [1e18, 1e21])
    def test_boundary_layer_between_nodes_is_an_error(self, q):
        # |grad U|^q is 1 at r = 1 and falls within about 1/q of it, inside
        # the gap to the nearest node, one spacing of the doubles below
        # x = 1, where every sample underflows to 0.
        prof = ExteriorGeometry(n=3).profile()
        with pytest.raises(QuadratureError, match="boundary layer"):
            norm_quadrature(prof.dphi, q, 3, 1.0, INF, breaks=prof.sign_changes(1))

    def test_boundary_layer_within_the_nodes_is_integrated(self):
        # At q = 1e6 the layer, about 1/q wide, holds nodes: the tanh-sinh
        # nodes reach within a spacing of the doubles of x = 1.
        geom = ExteriorGeometry(n=3)
        prof = geom.profile()
        quad = norm_quadrature(prof.dphi, 1e6, 3, 1.0, INF, breaks=prof.sign_changes(1))
        assert quad == pytest.approx(geom.norm_grad(1e6), rel=1e-10)

    def test_boundary_layer_at_the_outermost_node_is_an_error(self):
        # At q = 1e9 the estimated mass of the layer beyond the outermost
        # node, within a spacing of the doubles of x = 1, exceeds the
        # tolerance of the piece that holds it.
        prof = ExteriorGeometry(n=3).profile()
        with pytest.raises(QuadratureError, match=r"mass beyond the outermost nodes "
                           r"of \[0\.99\d+, 1\.0\], about .* exceeds the tolerance"):
            norm_quadrature(prof.dphi, 1e9, 3, 1.0, INF, breaks=prof.sign_changes(1))

    @pytest.mark.parametrize("n, order, p", [(5, 0, 263.0737955037441),
                                             (3, 1, 228.7143092529782),
                                             (438, 0, 85.06182959508595),
                                             (438, 0, 1.0503541567607189)])
    def test_integrand_zero_at_the_outermost_nodes(self, n, order, p):
        # |f|^p x^(-n-1) underflows to 0 at the nodes nearest x = 0 and is
        # not 0 farther in: those zeros are samples, and no mass beyond
        # them is extrapolated from the first nonzero one.
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        f = (prof.phi, prof.dphi)[order]
        quad = norm_quadrature(f, p, n, 1.0, INF, breaks=prof.sign_changes(order))
        assert quad == pytest.approx((geom.norm_u, geom.norm_grad)[order](p), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 5])
    def test_large_gradient_exponent_is_right_or_raises(self, n):
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        for q in np.linspace(3e4, 1.2e5, 40):
            try:
                quad = norm_quadrature(prof.dphi, q, n, 1.0, INF,
                                       breaks=prof.sign_changes(1))
            except QuadratureError:
                continue
            assert quad == pytest.approx(geom.norm_grad(q), rel=1e-10)
