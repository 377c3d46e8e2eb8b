"""Elementary symmetric functions and k-Hessian operators, dual-route checked."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odkirch.base_solutions import BallGeometry, ExteriorGeometry
from odkirch.errors import DomainError
from odkirch.hessian import (
    binomial,
    elementary_symmetric,
    hessian_fd,
    k_hessian_field,
    k_hessian_radial,
    principal_minor_sum,
)


def brute_force_e_k(values, k):
    return math.fsum(
        math.prod(combo) for combo in itertools.combinations(values, k)
    )


class TestBinomial:
    def test_pascal_triangle(self):
        for n in range(0, 12):
            for k in range(0, n + 1):
                if 0 < k < n:
                    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
        assert binomial(0, 0) == 1
        assert binomial(10, 0) == 1
        assert binomial(10, 10) == 1

    def test_above_diagonal_is_zero(self):
        assert binomial(3, 5) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)
        with pytest.raises(DomainError):
            binomial(4, -2)
        with pytest.raises(DomainError):
            binomial(4.0, 2)

    def test_numpy_integers_accepted(self):
        assert binomial(np.int64(6), np.int64(2)) == 15


class TestElementarySymmetric:
    def test_small_cases(self):
        vals = [1.0, 2.0, 3.0]
        assert elementary_symmetric(vals, 0) == 1.0
        assert elementary_symmetric(vals, 1) == pytest.approx(6.0)
        assert elementary_symmetric(vals, 2) == pytest.approx(11.0)
        assert elementary_symmetric(vals, 3) == pytest.approx(6.0)

    @given(
        vals=st.lists(st.floats(-4.0, 4.0), min_size=0, max_size=7),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, vals, data):
        k = data.draw(st.integers(0, len(vals)))
        got = elementary_symmetric(vals, k)
        ref = brute_force_e_k(vals, k)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    @given(vals=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_vieta_product(self, vals):
        # prod (1 + v_i) = sum_k e_k, Vieta's identity at t = 1.
        total = math.fsum(elementary_symmetric(vals, k) for k in range(len(vals) + 1))
        assert total == pytest.approx(math.prod(1.0 + v for v in vals), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            elementary_symmetric([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            elementary_symmetric([[1.0, 2.0]], 1)


class TestKHessianRadial:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_ball_profile_is_constant(self, n):
        # The ball base profile has Hessian = identity, so S_k = C(n, k).
        prof = BallGeometry(n=n, radius=2.0).profile()
        radii = np.linspace(0.05, 1.95, 40)
        for k in range(1, n + 1):
            vals = k_hessian_radial(prof, radii, n, k)
            assert np.max(np.abs(vals - binomial(n, k))) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exterior_laplacian_identity(self, n):
        # For the exterior base profile, S_1 = n r^(-n-2).
        prof = ExteriorGeometry(n=n).profile()
        radii = np.geomspace(1.0, 40.0, 30)
        got = k_hessian_radial(prof, radii, n, 1)
        ref = n * radii ** (-n - 2.0)
        # The Laplacian is a near-cancelling residue of terms ~ r^(-n), so
        # the achievable relative accuracy degrades like eps * r^2.
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11

    def test_eigenvalue_route(self):
        # Independent route: e_k of the explicit eigenvalue list
        # (phi'/r with multiplicity n-1, phi'' once).
        prof = ExteriorGeometry(n=4).profile()
        n = 4
        for r in (1.3, 2.0, 7.5):
            lam = [prof.dphi(r) / r] * (n - 1) + [prof.d2phi(r)]
            for k in range(1, n + 1):
                ref = elementary_symmetric(lam, k)
                assert k_hessian_radial(prof, r, n, k) == pytest.approx(ref, rel=1e-12)

    def test_scalar_and_array_agree(self):
        prof = BallGeometry(n=3, radius=1.0).profile()
        arr = k_hessian_radial(prof, np.array([0.5, 0.7]), 3, 2)
        assert arr[0] == k_hessian_radial(prof, 0.5, 3, 2)
        assert isinstance(k_hessian_radial(prof, 0.5, 3, 2), float)

    def test_domain(self):
        prof = BallGeometry(n=3, radius=1.0).profile()
        with pytest.raises(DomainError):
            k_hessian_radial(prof, 0.5, 3, 4)
        with pytest.raises(DomainError):
            k_hessian_radial(prof, -0.5, 3, 1)
        with pytest.raises(DomainError):
            k_hessian_radial(prof, 1.5, 3, 1)


class TestHessianFd:
    def test_quadratic_is_exact_to_roundoff(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=4)
        u = lambda x: 0.5 * np.sum((x @ a) * x, axis=-1) + x @ b
        x0 = rng.normal(size=4)
        hess = hessian_fd(u, x0, h=1e-2)
        # Truncation error vanishes for quadratics; only round-off remains.
        assert np.max(np.abs(hess - a)) < 1e-10
        assert np.array_equal(hess, hess.T)

    def test_smooth_field(self):
        u = lambda x: np.sin(x[:, 0]) * np.exp(x[:, 1])
        x0 = np.array([0.4, -0.3])
        hess = hessian_fd(u, x0)
        ref = np.array(
            [
                [-math.sin(0.4) * math.exp(-0.3), math.cos(0.4) * math.exp(-0.3)],
                [math.cos(0.4) * math.exp(-0.3), math.sin(0.4) * math.exp(-0.3)],
            ]
        )
        assert np.max(np.abs(hess - ref)) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            hessian_fd(lambda x: 0.0, np.zeros(2), h=0.0)

    @pytest.mark.parametrize("u", [
        lambda x: 0.0,                          # a scalar for the whole stencil
        lambda x: np.zeros(3),                  # too few values
        lambda x: np.zeros((len(x), 1)),        # one column per point
    ])
    def test_rejects_unvectorized_field(self, u):
        # The stencil of n = 2 has 1 + 2n + 2n(n - 1) = 9 points.
        with pytest.raises(DomainError, match="9 points"):
            hessian_fd(u, np.array([0.4, -0.3]))
        with pytest.raises(DomainError, match="9 points"):
            k_hessian_field(u, np.array([0.4, -0.3]), 1)


class TestPrincipalMinorSum:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_eigenvalue_symmetric_functions(self, seed, n, data):
        k = data.draw(st.integers(0, n))
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        ref = brute_force_e_k(np.linalg.eigvalsh(m).tolist(), k)
        assert principal_minor_sum(m, k) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_trace_and_determinant_ends(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert principal_minor_sum(m, 0) == 1.0
        assert principal_minor_sum(m, 1) == pytest.approx(5.0)
        assert principal_minor_sum(m, 2) == pytest.approx(5.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            principal_minor_sum(np.ones((2, 3)), 1)
        with pytest.raises(DomainError):
            principal_minor_sum(np.eye(2), 3)


class TestKHessianField:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3), (5, 2)])
    def test_matches_radial_route(self, n, k):
        # Dual route: FD + principal minors against the radial closed form.
        prof = BallGeometry(n=n, radius=3.0).profile()
        field = prof.as_field(center=np.zeros(n))
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=n)
            x *= 1.5 / np.linalg.norm(x)
            ref = k_hessian_radial(prof, float(np.linalg.norm(x)), n, k)
            got = k_hessian_field(field, x, k, h=1e-2)
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_nonradial_polynomial(self):
        # u = x^2 y has Hessian [[2y, 2x], [2x, 0]]: S_1 = 2y, S_2 = -4x^2.
        u = lambda x: x[:, 0] ** 2 * x[:, 1]
        pt = np.array([0.7, -1.2])
        assert k_hessian_field(u, pt, 1, h=1e-3) == pytest.approx(-2.4, rel=1e-6)
        assert k_hessian_field(u, pt, 2, h=1e-3) == pytest.approx(-4 * 0.49, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            k_hessian_field(lambda x: 0.0, np.zeros(2), 3)
