"""Reduction to the scalar equation, root scan, and solution reconstruction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from odkirch import reduction
from odkirch.base_solutions import BallGeometry, ExteriorGeometry
from odkirch.errors import DomainError, KernelEvalError, OdkirchError
from odkirch.hessian import binomial
from odkirch.kernel import eval_kernel, kernel_to_string, parse_kernel
from odkirch.reduction import (
    ProblemInstance,
    ScanConfig,
    build_reduced,
    refine_brackets,
    solve_roots,
    system_count_check,
)

from conftest import make_instance


class TestProblemInstance:
    def test_string_kernel_is_parsed(self):
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=2.0, q=2.0,
            lam=1.0, kernel="1 + s",
        )
        assert inst.kernel == parse_kernel("1 + s")

    def test_exterior_is_laplacian_only(self):
        with pytest.raises(DomainError, match="k = 1"):
            ProblemInstance(
                geometry=ExteriorGeometry(n=3), k=2, p=4.0, q=2.0,
                lam=1.0, kernel="1",
            )

    def test_ball_k_range(self):
        geom = BallGeometry(n=3, radius=1.0)
        with pytest.raises(DomainError):
            ProblemInstance(geometry=geom, k=0, p=2.0, q=2.0, lam=1.0, kernel="1")
        with pytest.raises(DomainError):
            ProblemInstance(geometry=geom, k=4, p=2.0, q=2.0, lam=1.0, kernel="1")

    def test_lambda_positive(self):
        geom = BallGeometry(n=2, radius=1.0)
        with pytest.raises(DomainError):
            ProblemInstance(geometry=geom, k=1, p=2.0, q=2.0, lam=0.0, kernel="1")
        with pytest.raises(DomainError):
            ProblemInstance(geometry=geom, k=1, p=2.0, q=2.0, lam=-3.0, kernel="1")

    def test_inadmissible_exponents_rejected(self):
        with pytest.raises(DomainError):
            ProblemInstance(
                geometry=ExteriorGeometry(n=3), k=1, p=2.0, q=2.0,
                lam=1.0, kernel="1",
            )

    def test_bad_geometry_type(self):
        with pytest.raises(DomainError):
            ProblemInstance(geometry=object(), k=1, p=2.0, q=2.0, lam=1.0, kernel="1")


class TestBuildReduced:
    def test_battery_norms(self, battery):
        for case in battery["cases"]:
            lam = case["runs"][0]["lambda"]
            eq = build_reduced(make_instance(case, lam))
            assert eq.norm_u == pytest.approx(case["norm_u"], rel=1e-12), case["name"]
            assert eq.norm_grad == pytest.approx(case["norm_grad"], rel=1e-10), case["name"]
            assert eq.coeff == binomial(case["geometry"]["n"], case["k"])
            assert eq.target == pytest.approx(lam * case["norm_u"] ** case["k"], rel=1e-12)
            assert eq.rho == pytest.approx(case["norm_grad"] / case["norm_u"], rel=1e-10)

    def test_exterior_rho_frozen(self, battery):
        case = next(c for c in battery["cases"] if c["name"] == "exterior-saturating")
        eq = build_reduced(make_instance(case, 1.0))
        assert eq.rho == pytest.approx(case["rho"], rel=1e-10)

    def test_g_and_h(self):
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=math.inf, q=2.0,
            lam=3.0, kernel="1",
        )
        eq = build_reduced(inst)
        # M = 1: g(s) = C(2,1) s = 2s; target = 3 * 0.5.
        assert eq.g(0.75) == pytest.approx(1.5, rel=1e-14)
        assert eq.h(0.75) == pytest.approx(0.0, abs=1e-14)
        arr = eq.g(np.array([0.5, 1.0]))
        assert np.allclose(arr, [1.0, 2.0])

    def test_slope_matches_central_difference(self, battery):
        # g'(s) = C(N, k) s^k (M_s + rho M_t) + k g(s) / s, away from roots
        # of g' as well: 1e-6 relative, with the round-off floor 1e-8 |g|.
        for case in battery["cases"]:
            eq = build_reduced(make_instance(case, 1.0))
            s = np.array([0.05, 0.7, 1.3, 2.9, 11.0])
            values, slopes = eq.g(s, slope=True)
            assert values.tobytes() == eq.g(s).tobytes()
            step = 1e-6 * s
            want = (eq.g(s + step) - eq.g(s - step)) / (2.0 * step)
            error = np.abs(slopes - want)
            assert np.all(error <= 1e-6 * np.abs(want) + 1e-8 * np.abs(values))
            assert eq.h(0.7, slope=True) == (eq.h(0.7), slopes[1])

    def test_non_finite_slope_keeps_the_count(self):
        # g' = inf at s_min = 1e-8, where M = sqrt(s - 1e-8) = 0: no warning
        # (RuntimeWarning is an error under pytest here) and the one root.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=math.inf, q=2.0,
            lam=1.0, kernel="sqrt(s - 1e-8)",
        )
        eq = build_reduced(inst)
        assert eq.g(1e-8, slope=True) == (0.0, math.inf)
        record = solve_roots(eq)
        assert record["count"] == 1 and record["tangencies"] == []
        # 2 s sqrt(s) = target = 0.5, up to the shift 1e-8.
        assert record["roots"][0]["s"] == pytest.approx(0.25 ** (2.0 / 3.0), rel=1e-6)

    def test_kernel_text(self):
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=2.0, q=2.0,
            lam=1.0, kernel="(s - 2)^2 + 0.1",
        )
        assert kernel_to_string(build_reduced(inst).kernel) == "(s - 2.0)^2.0 + 0.1"


class TestScanConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ScanConfig(n_grid=10)
        with pytest.raises(DomainError):
            ScanConfig(s_min=0.0)
        with pytest.raises(DomainError):
            ScanConfig(s_min=2.0, s_max=1.0)
        with pytest.raises(DomainError):
            ScanConfig(rel_width=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"s_min": math.inf}, "window"),
        ({"s_max": math.inf}, "window"),
    ])
    def test_non_finite_window_or_band(self, kwargs, message):
        with pytest.raises(DomainError, match=f"{message}.*finite"):
            ScanConfig(**kwargs)


class TestClosedFormRoots:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 7.0])
    def test_constant_kernel(self, n, k, lam):
        geom = BallGeometry(n=n, radius=1.0)
        inst = ProblemInstance(geometry=geom, k=k, p=2.0, q=2.0, lam=lam, kernel="1")
        eq = build_reduced(inst)
        record = solve_roots(eq)
        assert record["count"] == 1
        expected = (eq.target / eq.coeff) ** (1.0 / k)
        assert record["roots"][0]["s"] == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("m", [1, 2])
    def test_power_kernel(self, m):
        # M = s^m turns g into coeff * s^(k+m), still a single closed-form root.
        geom = BallGeometry(n=3, radius=1.2)
        inst = ProblemInstance(
            geometry=geom, k=2, p=2.0, q=2.0, lam=2.5, kernel=f"s^{m}",
        )
        eq = build_reduced(inst)
        record = solve_roots(eq)
        assert record["count"] == 1
        expected = (eq.target / eq.coeff) ** (1.0 / (2 + m))
        assert record["roots"][0]["s"] == pytest.approx(expected, rel=1e-11)

    @given(lam=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_increasing_kernel_unique_root(self, lam):
        # M = 1 + s makes g strictly increasing from 0, so exactly one root.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=2.0, q=2.0,
            lam=lam, kernel="1 + s",
        )
        record = solve_roots(build_reduced(inst))
        assert record["count"] == 1
        assert not record["warnings"]


class TestBatteryCounts:
    def test_all_cases(self, battery):
        for case in battery["cases"]:
            for run in case["runs"]:
                record = solve_roots(build_reduced(make_instance(case, run["lambda"])))
                assert record["count"] == run["count"], (case["name"], run["lambda"])
                for root, expected in zip(record["roots"], run.get("roots", [])):
                    assert root["s"] == pytest.approx(expected, rel=1e-10)
                for root, expected in zip(record["roots"], run.get("c", [])):
                    assert root["c"] == pytest.approx(expected, rel=1e-10)

    def test_root_invariants(self, battery):
        for case in battery["cases"]:
            run = case["runs"][0]
            eq = build_reduced(make_instance(case, run["lambda"]))
            record = solve_roots(eq)
            for info in record["roots"]:
                assert info["bracket"][0] <= info["s"] <= info["bracket"][1]
                assert info["amplitude"] == pytest.approx(info["s"] / eq.norm_u, rel=1e-14)
                assert abs(eq.h(info["s"])) <= 1e-9 * max(1.0, abs(eq.target))
            assert list(r["s"] for r in record["roots"]) == sorted(
                r["s"] for r in record["roots"]
            )

    def test_boundary_gradient_scale(self, battery):
        # Ball: c = amplitude * R; exterior: boundary gradient is amplitude itself.
        for case in battery["cases"]:
            run = case["runs"][0]
            if run["count"] == 0:
                continue
            eq = build_reduced(make_instance(case, run["lambda"]))
            record = solve_roots(eq)
            scale = (case["geometry"]["radius"]
                     if case["geometry"]["kind"] == "ball" else 1.0)
            for info in record["roots"]:
                assert info["c"] == pytest.approx(info["amplitude"] * scale, rel=1e-13)

    def test_deterministic(self, battery):
        case = battery["cases"][1]
        eq = build_reduced(make_instance(case, 2.0))
        a = solve_roots(eq)
        b = solve_roots(eq)
        assert [r["s"] for r in a["roots"]] == [r["s"] for r in b["roots"]]
        assert a["tangencies"] == b["tangencies"]


class TestExactGridZeros:
    @pytest.mark.parametrize("s_min, s_max", [(2.0, 100.0), (1e-2, 2.0)])
    def test_zero_on_first_or_last_grid_point(self, s_min, s_max):
        # M = 1, ||U||_inf = 2: g(s) = 2s meets target = 4 exactly at s = 2,
        # which geomspace keeps exact at either end of the grid.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=2.0), k=1, p=math.inf, q=2.0,
            lam=2.0, kernel="1",
        )
        record = solve_roots(build_reduced(inst), ScanConfig(s_min=s_min, s_max=s_max))
        assert record["count"] == 1
        root = record["roots"][0]
        assert root["s"] == 2.0 and root["residual"] == 0.0
        assert root["bracket"] == [2.0, 2.0]


class TestDegenerateScans:
    def test_continuum_is_domain_error(self):
        # M = 1/s, ||U||_inf = 2: g(s) = 2 s (1/s) equals the target 2 up to
        # one rounding, so h is exactly 0 on runs of adjacent grid points.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=2.0), k=1, p=math.inf, q=2.0,
            lam=1.0, kernel="1/s",
        )
        with pytest.raises(DomainError, match="adjacent grid points.*interval"):
            solve_roots(build_reduced(inst))

    def test_infinite_default_window_is_domain_error(self):
        # target = ||U||_inf = R^2 / 2 = 5e307, and ten times the M = 1 root
        # target / C(2, 1) overflows.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1e154), k=1, p=math.inf,
            q=math.inf, lam=1.0, kernel="1",
        )
        eq = build_reduced(inst)
        with pytest.raises(DomainError, match="s_max .* not finite"):
            solve_roots(eq)
        # An explicit window still scans: g(s) = 2 s meets 5e307 at 2.5e307.
        record = solve_roots(eq, ScanConfig(s_max=5e307))
        assert record["count"] == 1
        assert record["roots"][0]["s"] == pytest.approx(2.5e307, rel=1e-12)


class TestTangency:
    def test_near_tangent_level_reported_not_counted(self, battery):
        case = next(c for c in battery["cases"] if "tangency" in c)
        lam = case["tangency"]["lambda_t"] * (1.0 + 1e-6)
        record = solve_roots(build_reduced(make_instance(case, lam)))
        assert record["count"] == 1
        assert len(record["tangencies"]) == 1
        tang = record["tangencies"][0]
        assert tang["s"] == pytest.approx(case["tangency"]["s_local_max"], rel=1e-3)
        assert 0.0 < tang["gap"] < 1e-4

    def test_transversal_level_has_no_tangency(self, battery):
        case = next(c for c in battery["cases"] if "tangency" in c)
        record = solve_roots(build_reduced(make_instance(case, 2.0)))
        assert record["count"] == 3
        assert record["tangencies"] == []

    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14])
    def test_level_below_dip_gives_two_roots(self, battery, eps):
        # Just below the tangent level the dip crosses: the suspect cell must
        # be promoted to two transversal roots, not reported as a tangency.
        # From eps = 1e-8 down both roots lie between the same two grid
        # points, and a search for the largest -|h| stops on one of them.
        case = next(c for c in battery["cases"] if "tangency" in c)
        lam = case["tangency"]["lambda_t"] * (1.0 - eps)
        record = solve_roots(build_reduced(make_instance(case, lam)))
        assert record["count"] == 3
        assert record["tangencies"] == []

    def test_small_target_flat_stretch_is_no_tangency(self):
        # target = lambda ||U||_p^3 is about 4e-4: |h| is flat near the target
        # level at small s, well inside an absolute 1e-3 band but not inside
        # the relative TANGENCY_RTOL * target one.
        inst = ProblemInstance(
            geometry=BallGeometry(n=5, radius=0.829238), k=3, p=1.61592,
            q=3.50038, lam=0.014270130864769696, kernel="1 + 0.957854 * t",
        )
        record = solve_roots(build_reduced(inst))
        assert record["count"] == 1
        assert record["roots"][0]["s"] == pytest.approx(0.01951848277187835, rel=1e-10)
        assert record["tangencies"] == []


def substituted(f, df):
    """A stand-in for ReducedEquation.h: h = f, and g' = df with slope."""
    def h(s, slope=False):
        s = np.asarray(s, dtype=float)
        out = (f(s), df(s)) if slope else (f(s),)
        out = tuple(x if x.ndim else float(x) for x in out)
        return out if slope else out[0]
    return h


def scan_substituted_h(f, df, rel_width=1e-13):
    """solve_roots on [1, 2] with 100 grid points, h replaced by f and g' by df."""
    h = substituted(f, df)

    inst = ProblemInstance(geometry=BallGeometry(n=2, radius=1.0), k=1,
                           p=math.inf, q=2.0, lam=1.0, kernel="1")
    eq = build_reduced(inst)
    object.__setattr__(eq, "h", h)
    return solve_roots(eq, ScanConfig(s_min=1.0, s_max=2.0, n_grid=100,
                                      rel_width=rel_width))


class TestDipBranches:
    """A dip of |h| between grid points 50 and 51 that never changes sign
    on the grid (target 0.5, so TANGENCY_RTOL * target = 5e-4): g' changes
    sign in cell 50, at the critical point c."""

    grid = np.geomspace(1.0, 2.0, 100)
    center = 0.5 * (grid[50] + grid[51])

    def test_zero_plateau_is_one_exact_root(self):
        # h = 0 on [c - 1e-4, c + 1e-4] and negative elsewhere: the
        # critical point lands on the plateau, in cell 50.
        c = self.center
        record = scan_substituted_h(
            lambda s: -1e-2 * np.maximum(np.abs(s - c) - 1e-4, 0.0),
            lambda s: -1e-2 * np.sign(s - c) * (np.abs(s - c) > 1e-4))
        assert record["count"] == 1 and record["tangencies"] == []
        root = record["roots"][0]
        assert abs(root["s"] - c) <= 1e-4
        assert root["residual"] == 0.0
        assert root["bracket"] == [float(self.grid[50]), float(self.grid[51])]

    def test_plateau_through_a_grid_point_is_one_root(self):
        # h = 0 on [grid[50] - 1e-3, grid[50] + 1e-3] and negative elsewhere:
        # the bisection of g' in cell 50 stops on the plateau, on the grid
        # zero's monotone piece, so it adds no second root.
        p = float(self.grid[50])
        record = scan_substituted_h(
            lambda s: -1e-2 * np.maximum(np.abs(s - p) - 1e-3, 0.0),
            lambda s: -1e-2 * np.sign(s - p) * (np.abs(s - p) > 1e-3))
        assert record["count"] == 1 and record["tangencies"] == []
        assert record["roots"][0]["s"] == p and record["roots"][0]["bracket"] == [p, p]

    def test_extremum_away_from_the_level_is_no_tangency(self):
        # h = (s - c)^2 - 4e-4 has its minimum -4e-4 below the level, within
        # TANGENCY_RTOL * target = 5e-4 of it, as are both ends of cell 50:
        # a maximum of |h| is no near-touching.  Its roots are 0.02 from c.
        c = self.center
        record = scan_substituted_h(lambda s: (s - c) ** 2 - 4e-4,
                                       lambda s: 2.0 * (s - c))
        assert record["tangencies"] == []
        assert [info["s"] for info in record["roots"]] == pytest.approx([c - 0.02, c + 0.02])

    def test_close_pair_inside_one_cell(self):
        # Roots at c -+ 1e-3, both inside cell 50: the critical point c,
        # where h = -1e-8, splits it into two brackets.
        c = self.center
        record = scan_substituted_h(lambda s: 1e-2 * ((s - c) ** 2 - 1e-6),
                                       lambda s: 2e-2 * (s - c))
        assert record["count"] == 2 and record["tangencies"] == []
        for info, want in zip(record["roots"], (c - 1e-3, c + 1e-3)):
            assert info["s"] == pytest.approx(want, rel=1e-12)
            lo, hi = info["bracket"]
            assert self.grid[49] <= lo < info["s"] < hi <= self.grid[52]

    def test_close_pair_within_rel_width_is_two_roots(self):
        # The pair is closer than rel_width = 5e-3 relative, yet each root has
        # its own monotone piece on either side of c, so neither is dropped.
        c = self.center
        record = scan_substituted_h(lambda s: 1e-2 * ((s - c) ** 2 - 1e-6),
                                       lambda s: 2e-2 * (s - c), rel_width=5e-3)
        assert record["count"] == 2 and record["tangencies"] == []
        assert record["roots"][0]["s"] < c < record["roots"][1]["s"]


class TestEdgeWarnings:
    def test_right_edge_warning(self):
        # g = 2s/(1+s) climbs to 2 from below; a target above 2 leaves the
        # residual still shrinking at s_max.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=math.inf, q=2.0,
            lam=4.4, kernel="1/(1 + s)",
        )
        record = solve_roots(build_reduced(inst), ScanConfig(s_max=1e3))
        assert record["count"] == 0
        assert any("s_max" in w for w in record["warnings"])

    def test_left_edge_warning(self):
        # M = 1: root at target/2 = 5e-9 sits below s_min = 1e-8.
        inst = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0), k=1, p=math.inf, q=2.0,
            lam=2e-8, kernel="1",
        )
        record = solve_roots(build_reduced(inst), ScanConfig(s_max=1.0))
        assert record["count"] == 0
        assert any("s_min" in w for w in record["warnings"])

    def test_no_warning_when_root_found(self, battery):
        case = battery["cases"][0]
        record = solve_roots(build_reduced(make_instance(case, 3.0)))
        assert record["warnings"] == []

    @pytest.mark.parametrize("geometry, p, s_root", [
        (BallGeometry(n=3, radius=1.0), 2.0, 2.24339e149),
        (ExteriorGeometry(n=3), 4.0, 4.53286e149),
    ])
    def test_overflowing_edge_raises_no_numpy_warning(self, geometry, p, s_root):
        # |h| is inf at the top of the default window, where inf - inf
        # would be nan: the edge check decides without a RuntimeWarning,
        # which the test suite turns into an error.
        inst = ProblemInstance(geometry=geometry, k=1, p=p, q=p, lam=1e300,
                               kernel="1 + t")
        record = solve_roots(build_reduced(inst))
        assert record["count"] == 1 and record["warnings"] == []
        assert record["roots"][0]["s"] == pytest.approx(s_root, rel=1e-5)


def solution_field(eq, root):
    """The profile and field of root's explicit solution u = amplitude U."""
    profile = eq.geometry.profile().scale(root["amplitude"])
    return profile, profile.as_field(eq.geometry.center)


class TestSolutions:
    def test_explicit_solution_fields(self, battery):
        case = battery["cases"][0]  # ball, n=2, R=1, M=1, lambda=3
        eq = build_reduced(make_instance(case, 3.0))
        roots = solve_roots(eq)["roots"]
        assert len(roots) == 1
        root = roots[0]
        assert root["amplitude"] == pytest.approx(1.5, rel=1e-11)
        assert root["c"] == pytest.approx(1.5, rel=1e-11)
        # u = amplitude * (|x|^2 - 1)/2: value at the center is -amplitude/2.
        _, u = solution_field(eq, root)
        assert u(np.zeros(2)) == pytest.approx(-0.75, rel=1e-11)
        assert u(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_solution_count_matches_roots(self, battery):
        for case in battery["cases"]:
            for run in case["runs"]:
                record = solve_roots(build_reduced(make_instance(case, run["lambda"])))
                assert len(record["roots"]) == record["count"] == run["count"]

    def test_exterior_solution_decay(self, battery):
        case = next(c for c in battery["cases"] if c["name"] == "exterior-saturating")
        eq = build_reduced(make_instance(case, 1.0))
        profile, u = solution_field(eq, solve_roots(eq)["roots"][0])
        assert u(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        # n = 3 decays like r^-1; the field must track the scaled profile.
        far = u(np.array([300.0, 0.0, 0.0]))
        assert far == pytest.approx(float(profile.phi(300.0)), rel=1e-13)
        assert abs(far) < abs(u(np.array([2.0, 0.0, 0.0])))


class TestSystemCountCheck:
    @pytest.mark.parametrize(
        "name,lam",
        [
            ("ball-constant", 3.0),
            ("ball-decaying", 0.5),
            ("exterior-plane-double-well", 0.4),
        ],
    )
    def test_counts_match(self, battery, name, lam):
        case = next(c for c in battery["cases"] if c["name"] == name)
        eq = build_reduced(make_instance(case, lam))
        record = solve_roots(eq)
        report = system_count_check(eq, record)
        assert report["matched"]
        assert report["cluster_count"] == record["count"]

    def test_no_roots_no_clusters(self, battery):
        case = next(c for c in battery["cases"] if c["name"] == "ball-decaying")
        eq = build_reduced(make_instance(case, 5.0))
        record = solve_roots(eq)
        report = system_count_check(eq, record)
        assert report["matched"]
        assert report["cluster_count"] == 0


def sequential_bisect(fun, a, b, fa, rel_width):
    """Reference: the scalar bisection loop, one call of fun per step."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= rel_width * mid or mid <= a or mid >= b:
            break
        fm = fun(mid)
        if fm == 0.0:
            return mid, 0.0
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    return root, abs(fun(root))


def battery_lambdas(case):
    lams = [run["lambda"] for run in case["runs"]]
    if "tangency" in case:
        # Just below the fold the dip splits into a bisected pair.
        lams.append(case["tangency"]["lambda_t"] * (1.0 - 1e-6))
    return lams


def sign_change(fun, lo, hi):
    return (fun(lo) < 0.0) != (fun(hi) < 0.0)


class TestBatchedBisection:
    """refine_brackets against the sequential bisection loop: the same roots
    to rel_width."""

    def test_battery_brackets(self, battery):
        rel_width = ScanConfig().rel_width
        checked = 0
        for case in battery["cases"]:
            for lam in battery_lambdas(case):
                eq = build_reduced(make_instance(case, lam))
                for info in solve_roots(eq)["roots"]:
                    lo, hi = info["bracket"]
                    if lo == hi:
                        continue      # an exact grid zero, not refined
                    want, want_res = sequential_bisect(eq.h, lo, hi, eq.h(lo), rel_width)
                    assert lo < info["s"] < hi and sign_change(eq.h, lo, hi)
                    if info["residual"] == want_res == 0.0:
                        continue      # both on a stretch where h is exactly 0
                    assert abs(info["s"] - want) <= rel_width * info["s"]
                    assert info["residual"] == abs(eq.h(info["s"]))
                    checked += 1
        assert checked >= 12

    @pytest.mark.parametrize("zero_at", [1.5, 1.25, 1.0 + 2.0 ** -10, 1.0 + 2.0 ** -30])
    def test_exact_zero_midpoint(self, zero_at):
        # Dyadic points of [1, 2] are section ends; 2^-30 lies five array
        # calls deep.
        def fun(s):
            return np.asarray(s) - zero_at

        want = sequential_bisect(lambda s: s - zero_at, 1.0, 2.0, 1.0 - zero_at, 1e-13)
        assert want == (zero_at, 0.0)
        assert refine_brackets(fun, [1.0], [2.0], [1.0 - zero_at], 1e-13) == (
            [zero_at], [0.0])

    def test_bracket_narrower_than_rel_width(self):
        calls = []

        def fun(s):
            calls.append(np.shape(s))
            return np.asarray(s) ** 2 - 2.0

        a, b = 1.4142135623730, 1.4142135623731
        roots, residuals = refine_brackets(fun, [a], [b], [a * a - 2.0], 1e-12)
        want = sequential_bisect(lambda s: s * s - 2.0, a, b, a * a - 2.0, 1e-12)
        assert (roots[0], residuals[0]) == want
        assert want[0] == 0.5 * (a + b)
        assert calls == [(1,)]      # no refinement round, one residual call

    def test_mixed_brackets_in_one_pass(self):
        # Brackets that need no round and about seven, finishing in
        # different array calls.
        calls = []

        def fun(s):
            calls.append(np.shape(s))
            return np.cos(np.asarray(s))

        brackets = [(1.5, 1.6), (1.5707963267948, 1.5707963267949),
                    (4.0, 5.0), (1.0, 2.0)]
        rel_width = 1e-13
        roots, residuals = refine_brackets(
            fun, [a for a, _ in brackets], [b for _, b in brackets],
            [math.cos(a) for a, _ in brackets], rel_width)
        for (a, b), root, res, exact in zip(brackets, roots, residuals,
                                            (0.5, 0.5, 1.5, 0.5)):
            want, _ = sequential_bisect(math.cos, a, b, math.cos(a), rel_width)
            assert abs(root - want) <= rel_width * root
            assert abs(root - exact * math.pi) <= rel_width * root
            assert res == abs(math.cos(root))
        # 65 points per live bracket: a uniform first round (no values at b),
        # then rounds around the secant point take the bracket of width 0.1 to
        # rel_width in 3 rounds, the two of width 1 in 4; the narrow one needs
        # none.
        assert calls == [(3 * 65,)] * 3 + [(2 * 65,), (4,)]

    def test_step_cap(self):
        # Narrowing 1e300 down to the root 2e-300 takes about 330 halvings.
        # After the first, uniform, round the secant point's offset 1e-300 /
        # 1.6e298 underflows to 0, so x = lo and each round keeps the 32
        # sections right of it: refinement stops after 41 rounds, with hi at
        # 1e300 / (64 * 32^40).
        calls = []

        def fun(s):
            calls.append(np.shape(s))
            return np.asarray(s) - 2e-300

        roots, residuals = refine_brackets(fun, [1e-300], [1e300], [-1e-300], 1e-13)
        assert roots[0] == pytest.approx(0.5 * (1e-300 + 1e300 / 2.0 ** 206), rel=1e-12)
        assert residuals[0] == roots[0] - 2e-300
        assert len(calls) == 41 + 1

    def test_grid_zero_after_bisected_cell(self):
        # h crosses in cell 40, is exactly 0 on grid point 42 and crosses
        # back in cell 80.  The grid zero lies within rel_width of the first
        # refined root, yet it is a root of its own: h is 0 at an end of
        # its pieces.  Each refined root keeps its own cell as its bracket.
        config = ScanConfig(s_min=1.0, s_max=2.0, n_grid=100, rel_width=5e-3)
        grid = np.geomspace(1.0, 2.0, 100)
        up, zero_at, down = 0.5 * (grid[40] + grid[41]) + 1e-4, grid[42], grid[80] + 1e-3

        def f(s):
            out = np.where((s < up) | (s > down), -1.0, 1.0)
            return np.where(s == zero_at, 0.0, out)

        h = substituted(f, np.zeros_like)
        inst = ProblemInstance(geometry=BallGeometry(n=2, radius=1.0), k=1,
                               p=math.inf, q=2.0, lam=1.0, kernel="1")
        eq = build_reduced(inst)
        object.__setattr__(eq, "h", h)
        record = solve_roots(eq, config)
        assert [r["bracket"] for r in record["roots"]] == [
            [float(grid[40]), float(grid[41])], [float(zero_at), float(zero_at)],
            [float(grid[80]), float(grid[81])]]
        assert record["roots"][1]["s"] == zero_at and record["roots"][1]["residual"] == 0.0
        for info, jump in zip(record["roots"][::2], (up, down)):
            lo, hi = info["bracket"]
            want, _ = sequential_bisect(h, lo, hi, h(lo), config.rel_width)
            assert abs(info["s"] - want) <= config.rel_width * info["s"]
            assert abs(info["s"] - jump) <= config.rel_width * info["s"]
            assert info["residual"] == 1.0


def steep_feature(kind, scale, lo, root, part):
    """tanh(scale (s - root)), or the kink |s - p| - c whose right zero is
    root, with p = root - c inside [lo, root] when part < 0.5."""
    if kind == "tanh":
        return lambda s: np.tanh(scale * (np.asarray(s) - root))
    c = (root - lo) * (0.5 + part)
    return lambda s: np.abs(np.asarray(s) - (root - c)) - c


class TestWindowRefinement:
    """Rounds around the secant point on steep features, where the secant
    point lands outside the window: the bracket, the agreement with the
    sequential loop and the round cap hold, and the miss path runs."""

    def test_steep_features(self):
        rel_width = 1e-13
        misses = []

        @given(kind=st.sampled_from(["tanh", "kink"]), lo=st.floats(0.1, 10.0),
               width=st.floats(-6.0, 0.0), place=st.floats(0.01, 0.99),
               scale=st.floats(0.0, 8.0), part=st.floats(0.01, 2.0),
               sign=st.sampled_from([1.0, -1.0]))
        @example(kind="tanh", lo=1.0, width=-3.0, place=0.9, scale=8.0, part=1.0,
                 sign=1.0)
        @settings(max_examples=150, deadline=None)
        def check(kind, lo, width, place, scale, part, sign):
            hi = lo * (1.0 + 10.0 ** width)
            root = lo + (hi - lo) * place
            feature = steep_feature(kind, 10.0 ** scale, lo, root, part)

            def f(s):
                return sign * feature(s)

            calls = []

            def fun(s):
                calls.append(np.array(s))
                return f(s)

            fa, fb = float(f(lo)), float(f(hi))
            assume((fa < 0.0) != (fb < 0.0) and 0.0 not in (fa, fb))
            (found,), (res,) = refine_brackets(fun, [lo], [hi], [fa], rel_width, fb=[fb])
            want, _ = sequential_bisect(lambda s: float(f(s)), lo, hi, fa, rel_width)
            assert lo <= found <= hi
            left, right = f(found * (1.0 - rel_width)), f(found * (1.0 + rel_width))
            assert 0.0 in (left, right) or (left < 0.0) != (right < 0.0)
            assert abs(found - want) <= rel_width * found
            assert res == abs(f(found))
            # Every round narrows the bracket 32-fold or more, one miss aside.
            cap = 2 + math.floor(math.log((hi - lo) / (rel_width * lo), 32))
            assert len(calls) <= min(cap, reduction._ROUNDS) + 1
            missed = False
            for points in calls[:-1]:
                if missed:                  # 64 uniform sections for good
                    steps = np.diff(points)
                    ulps = 4.0 * np.spacing(points[-1])
                    assert np.allclose(steps, steps.mean(), rtol=0.0, atol=ulps)
                else:
                    values = f(points)
                    hit = (values == 0.0) | ((values < 0.0) != (fa < 0.0))
                    missed = bool(hit[0] or not hit.any())
            misses.append(missed)

        check()
        assert any(misses) and not all(misses)


def batch_feature(kind, lo, hi, place, scale, sign):
    """One bracket's function on [lo, hi]: a steep tanh or kink through a
    root at lo + place (hi - lo), or s - root with root = lo (1 + place),
    which is exact on the section points of a dyadic [lo, 2 lo]."""
    if kind == "dyadic":
        return lambda s: sign * (np.asarray(s) - lo * (1.0 + place))
    return lambda s: sign * steep_feature(kind, scale, lo, lo + (hi - lo) * place, 0.5)(s)


@st.composite
def bracket_batches(draw):
    """(fun, a, b, fa, rows, fb) for one to six brackets, bracket i in the
    octave region [4^i, 4^(i + 1)) of its own feature on row rows[i]; the
    other row of that region holds 1.  rows and fb are each None or given."""
    with_rows, with_fb = draw(st.booleans()), draw(st.booleans())
    brackets, features = [], [[], []]
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["tanh", "kink", "dyadic"]))
        row = draw(st.integers(0, 1)) if with_rows else 0
        lo = 4.0 ** i * (1.0 if kind == "dyadic" else draw(st.floats(1.0, 2.0)))
        if kind == "dyadic":
            # Zeros on the first round's section points and deeper ones.
            shift = draw(st.sampled_from([6, 12, 30]))
            hi, place = 2.0 * lo, draw(st.integers(1, 2 ** 6 - 1)) * 2.0 ** -shift
        else:
            # From below rel_width (no round) up to lo: about 7 rounds.
            hi = lo * (1.0 + 10.0 ** draw(st.floats(-13.5, 0.0)))
            place = draw(st.floats(0.01, 0.99))
        f = batch_feature(kind, lo, hi, place, 10.0 ** draw(st.floats(0.0, 8.0)),
                          draw(st.sampled_from([1.0, -1.0])))
        fa, fb = float(f(lo)), float(f(hi))
        assume(fa != 0.0 and (fa < 0.0) != (fb < 0.0))
        features[row].append(f)
        features[1 - row].append(lambda s: np.ones_like(np.asarray(s)))
        brackets.append((lo, hi, fa, fb, row))
    edges = 4.0 ** np.arange(1, len(brackets))

    def fun(s):
        s = np.asarray(s)
        region = np.searchsorted(edges, s, side="right")
        out = np.array([[f(s) for f in row] for row in features])
        out = out[:, region, np.arange(s.size)]
        return out if with_rows else out[0]

    a, b, fa, fb, rows = (list(v) for v in zip(*brackets))
    return fun, a, b, fa, rows if with_rows else None, fb if with_fb else None


class TestBatching:
    """Refining brackets together changes no bracket's result, and costs one
    call of fun per round."""

    @given(batch=bracket_batches())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_lone_brackets(self, batch):
        fun, a, b, fa, rows, fb = batch
        rel_width = 1e-13
        roots, residuals = refine_brackets(fun, a, b, fa, rel_width, rows=rows, fb=fb)
        assert len(roots) == len(residuals) == len(a)
        for i, (root, residual) in enumerate(zip(roots, residuals)):
            alone = refine_brackets(
                fun, [a[i]], [b[i]], [fa[i]], rel_width,
                rows=None if rows is None else [rows[i]],
                fb=None if fb is None else [fb[i]])
            assert repr((root, residual)) == repr((alone[0][0], alone[1][0]))
            # The root is a sign change of its own row.
            near = np.atleast_2d(fun([max(root * (1.0 - rel_width), a[i]),
                                      min(root * (1.0 + rel_width), b[i])]))
            left, right = near[0 if rows is None else rows[i]]
            assert a[i] <= root <= b[i]
            assert 0.0 in (left, right) or (left < 0.0) != (right < 0.0)

    def test_no_brackets_no_call(self):
        def fun(s):
            raise AssertionError("fun called on an empty batch")

        assert refine_brackets(fun, [], [], [], 1e-13) == ([], [])

    def test_one_call_per_round(self):
        # 200 brackets around the roots j pi of sin, of relative widths from
        # 1e-14 to 1: call i holds 65 points of every bracket still live in
        # round i, as counted by refining each bracket alone, and the last
        # call the 200 roots.
        def counted(calls):
            def fun(s):
                calls.append(np.size(s))
                return np.sin(np.asarray(s))
            return fun

        rng = np.random.default_rng(7)
        centre = np.pi * np.arange(1, 201)
        width = centre * 10.0 ** rng.uniform(-14.0, 0.0, 200)
        a = centre - width * rng.uniform(0.05, 0.95, 200)
        b = a + width
        rounds = []
        for lo, hi in zip(a.tolist(), b.tolist()):
            alone = []
            refine_brackets(counted(alone), [lo], [hi], [math.sin(lo)], 1e-13,
                            fb=[math.sin(hi)])
            rounds.append(len(alone) - 1)
        calls = []
        refine_brackets(counted(calls), a, b, np.sin(a), 1e-13, fb=np.sin(b))
        live = [sum(r > i for r in rounds) for i in range(max(rounds))]
        assert max(rounds) >= 3 and min(rounds) == 0
        assert calls == [65 * n for n in live] + [200]

    def test_constant_g_many_cells(self):
        # g is constant for M = 1/s on this ball, and the scan flags its
        # rounding noise as turning cells, many of them in one batch.  The
        # number of cells depends on the rounding, and is not pinned.
        eq = build_reduced(ProblemInstance(geometry=BallGeometry(n=3, radius=1.2), k=1,
                                           p=2.0, q=3.0, lam=0.3, kernel="s^-1"))
        record = solve_roots(eq)
        assert record["count"] == 0 and record["tangencies"] == []


def count_kernel_calls(monkeypatch):
    """Counts of the scalar and array kernel calls reduction makes, h and g'
    together."""
    calls = {"scalar": 0, "array": 0}

    def counted(node, s, t, slope=None):
        calls["scalar" if np.ndim(s) == 0 else "array"] += 1
        return eval_kernel(node, s, t, slope=slope)

    monkeypatch.setattr(reduction, "eval_kernel", counted)
    return calls


# g = 2 s ((1000 (s - c))^2 + 1) dips by 1.6 target between two grid points
# around c and crosses the level twice there.
NARROW_WELL = ProblemInstance(
    geometry=BallGeometry(n=2, radius=1.0), k=1, p=math.inf, q=2.0,
    lam=4.005111667807524, kernel="(1000*(s - 1.001268153956326))^2 + 1")


def near_fold_lambdas(case):
    lam_t = case["tangency"]["lambda_t"]
    return [lam_t * (1.0 + 1e-6), lam_t * (1.0 - 1e-9), lam_t * (1.0 - 1e-14)]


class TestWorkCounts:
    def test_three_roots_in_few_array_calls(self, battery, monkeypatch):
        # Counts, not timings: a fall-back to one scalar call per bisection
        # step (36 per root here) fails this.
        case = next(c for c in battery["cases"] if c["name"] == "ball-quadratic-well")
        eq = build_reduced(make_instance(case, 2.0))
        calls = count_kernel_calls(monkeypatch)
        record = solve_roots(eq)
        assert record["count"] == 3 and record["tangencies"] == []
        assert calls["scalar"] == 0
        assert calls["array"] <= 10

    def test_no_scalar_kernel_call(self, battery, monkeypatch):
        runs = [(case, run["lambda"]) for case in battery["cases"] for run in case["runs"]]
        runs += [(case, lam) for case in battery["cases"] if "tangency" in case
                 for lam in near_fold_lambdas(case)]
        for case, lam in runs:
            eq = build_reduced(make_instance(case, lam))
            calls = count_kernel_calls(monkeypatch)
            solve_roots(eq)
            assert calls["scalar"] == 0, (case["name"], lam)
            assert calls["array"] > 0

    def test_array_calls_pinned(self, battery, monkeypatch):
        # The scan, three rounds around the secant points of the cells' end
        # values and one residual call: 5 calls for one pass of brackets, 3
        # where the first secant point is an exact zero of h or g' (the
        # constant kernel's linear h, and ball-decaying's turning cell at
        # lambda 5), more where a critical point splits its cell.
        exact = {("ball-constant", 3.0), ("ball-decaying", 5.0)}
        runs = [(make_instance(case, run["lambda"]),
                 3 if (case["name"], run["lambda"]) in exact else 5)
                for case in battery["cases"] for run in case["runs"]]
        case = next(c for c in battery["cases"] if "tangency" in c)
        runs += [(make_instance(case, lam), want)
                 for lam, want in zip(near_fold_lambdas(case), (5, 12, 10))]
        runs.append((NARROW_WELL, 12))
        for inst, want in runs:
            calls = count_kernel_calls(monkeypatch)
            solve_roots(build_reduced(inst))
            assert (calls["array"], calls["scalar"]) == (want, 0), inst.lam

    def test_no_root_turning_run(self, battery, monkeypatch):
        # ball-decaying at lambda 5 has no root: its one turning cell is
        # narrowed on g' with no early stop, and with no split cell the
        # second refinement is skipped.  2 calls after the scan.
        case = next(c for c in battery["cases"] if c["name"] == "ball-decaying")
        eq = build_reduced(make_instance(case, 5.0))
        refined = []
        monkeypatch.setattr(reduction, "refine_brackets",
                            lambda *args, **kw: refined.append(len(args[1])) or
                            refine_brackets(*args, **kw))
        calls = count_kernel_calls(monkeypatch)
        record = solve_roots(eq)
        assert record["count"] == 0 and record["tangencies"] == []
        assert refined == [1] and calls == {"scalar": 0, "array": 1 + 2}


class TestCriticalPoints:
    """The critical points of g at ball-quadratic-well's fold."""

    def test_tangency_is_the_critical_point(self, battery):
        case = next(c for c in battery["cases"] if "tangency" in c)
        lam = case["tangency"]["lambda_t"] * (1.0 + 1e-6)
        (tang,) = solve_roots(build_reduced(make_instance(case, lam)))["tangencies"]
        assert tang["s"] == pytest.approx(case["tangency"]["s_local_max"], rel=1e-12)

    def test_fold_value_at_the_critical_point(self, battery):
        case = next(c for c in battery["cases"] if "tangency" in c)
        lam_t = case["tangency"]["lambda_t"]
        eq = build_reduced(make_instance(case, lam_t * (1.0 + 1e-6)))
        (tang,) = solve_roots(eq)["tangencies"]
        assert eq.g(tang["s"]) / eq.norm_u ** eq.k == pytest.approx(lam_t, rel=1e-12)

    def test_narrow_well_pair_between_grid_points(self):
        # g = 2 s ((1000 (s - c))^2 + 1) dips by 1.6 target between two grid
        # points around c, far outside any tangency band, and crosses the
        # level twice there.  The roots are those of brentq on g - target.
        record = solve_roots(build_reduced(NARROW_WELL))
        assert record["count"] == 3 and record["tangencies"] == []
        tiny, left, right = (info["s"] for info in record["roots"])
        assert tiny < 1e-5
        assert left == pytest.approx(1.001264492304602, abs=1e-10)
        assert right == pytest.approx(1.0012708168638624, abs=1e-10)


# --- The 2-D check on the line t = rho s.

def ball(n, radius=1.0):
    return BallGeometry(n=n, radius=radius)


def assert_counts_agree(eq):
    record = solve_roots(eq)
    report = system_count_check(eq, record)
    assert (report["cluster_count"], report["matched"]) == (record["count"], True)


# The counter disagreements of ROADMAP item 3 with their root and segment
# counts.  The full-grid cell flags gave them 5, 10 and 1 clusters.
ITEM3_INSTANCES = [
    (dict(geometry=ball(6), k=2, p=7.5, q=2.0, lam=0.6524044984771312,
          kernel="exp(-t)*s^4"), 0, 0),
    (dict(geometry=ExteriorGeometry(n=2), k=1, p=math.inf, q=5.0, lam=2.6e-5,
          kernel="exp(-t)*s^4"), 2, 2),
    (dict(geometry=ball(2, 0.5), k=2, p=0.3, q=math.inf, lam=11.19167451866462,
          kernel="abs(s-1)+1e-3"), 3, 3),
]


class TestSystemCheckParity:
    """The 2-D check counts the ray roots, each one in its own segment."""

    def test_battery_runs(self, battery):
        for case in battery["cases"]:
            lams = [run["lambda"] for run in case["runs"]]
            if "tangency" in case:
                lams.append(case["tangency"]["lambda_t"] * (1.0 + 1e-6))
            for lam in lams:
                assert_counts_agree(build_reduced(make_instance(case, lam)))

    @pytest.mark.parametrize("geometry,p,q", [(ball(3, 1.2), 2.0, 3.0),
                                              (ExteriorGeometry(n=3), 4.0, 2.0)])
    def test_corpus_kernels(self, corpus, geometry, p, q):
        # Every kernel, signed ones such as s - t included: wherever the scan
        # returns, the check agrees with it.
        checked = 0
        for text in corpus:
            for lam in (0.3, 3.0):
                eq = build_reduced(ProblemInstance(geometry=geometry, k=1, p=p, q=q,
                                                   lam=lam, kernel=text))
                try:
                    record = solve_roots(eq)
                except OdkirchError:
                    continue
                report = system_count_check(eq, record)
                assert (report["cluster_count"], report["matched"]) == (
                    record["count"], True), (text, lam)
                checked += 1
        assert checked >= 90

    @pytest.mark.parametrize("k,kernel,lam", [
        (2, "1 + t", 2.0), (2, "(s - 2)^2 + 0.1", 1.0), (2, "2 * exp(-s)", 0.5),
        (3, "1 + t", 3.0), (3, "(s - 1)^2 + 0.05", 0.2), (3, "1 / (1 + s*t)", 1.0),
        (3, "1", 1.0)])
    def test_higher_k(self, k, kernel, lam):
        inst = ProblemInstance(geometry=ball(4, 1.5), k=k, p=2.0, q=4.0, lam=lam,
                               kernel=kernel)
        assert_counts_agree(build_reduced(inst))

    @pytest.mark.parametrize("spec,roots,boxes", ITEM3_INSTANCES)
    def test_item3_instances(self, spec, roots, boxes):
        eq = build_reduced(ProblemInstance(**spec))
        report = system_count_check(eq, solve_roots(eq))
        assert (report["root_count"], report["cluster_count"]) == (roots, boxes)
        assert report["matched"] == (roots == boxes)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-14, None])
    def test_close_pairs_merge(self, battery, eps):
        # Below the fold and in the narrow well (eps None) a close pair sits
        # next to a third root.  Without a node between them, the pair would
        # share one segment where F1 has one sign at both ends, degree 0; the
        # midpoints of consecutive ray roots give each root its own segment,
        # so all 3 count and match.
        case = next(c for c in battery["cases"] if "tangency" in c)
        inst = (NARROW_WELL if eps is None
                else make_instance(case, case["tangency"]["lambda_t"] * (1.0 - eps)))
        eq = build_reduced(inst)
        report = system_count_check(eq, solve_roots(eq))
        assert (report["root_count"], report["cluster_count"], report["matched"]) == (3, 3, True)

    @pytest.mark.parametrize("shift,matched", [(1.0 + 1e-3, True), (1.5, False)])
    def test_root_must_lie_in_its_segment(self, battery, shift, matched):
        # One segment of 400 spans a factor 100^(1/400), about 1.0116: a ray
        # root moved by 0.1% still matches, one moved by half does not.
        case = next(c for c in battery["cases"] if c["name"] == "ball-constant")
        eq = build_reduced(make_instance(case, 3.0))
        record = solve_roots(eq)
        moved = {**record["roots"][0], "s": record["roots"][0]["s"] * shift}
        report = system_count_check(eq, {**record, "roots": [moved]})
        assert (report["cluster_count"], report["matched"]) == (1, matched)

    def test_window_wider_than_a_double(self):
        # s_max / s_min = 1e310 overflows a double; the nodes must not.
        eq = build_reduced(ProblemInstance(geometry=ball(2), k=1, p=math.inf,
                                           q=2.0, lam=300.0, kernel="exp(-s)"))
        record = solve_roots(eq, ScanConfig(s_min=1e-300, s_max=1e10))
        assert system_count_check(eq, record) == {
            "cluster_count": 0, "root_count": 0, "matched": True}

    @pytest.mark.parametrize("window,count", [((1.0, 10.0), 1), ((0.1, 1.0), 0)])
    def test_exact_zero_at_a_node_counts_once(self, window, count):
        # M = 1 and k = 1: F1 = s - s_fix, 0 at s_fix.  A zero at a node
        # counts in the segment to its right, so one at the first node counts
        # once and one at the last node, past every segment, not at all.
        eq = build_reduced(ProblemInstance(geometry=ball(2), k=1, p=math.inf,
                                           q=2.0, lam=3.0, kernel="1"))
        s_fix = eq.norm_u * (eq.lam / (eq.coeff * 1.0)) ** 1.0
        lo, hi = window
        record = {**solve_roots(eq), "roots": [],
                  "scan": {"s_min": lo * s_fix, "s_max": hi * s_fix}}
        report = system_count_check(eq, record)
        assert (report["cluster_count"], report["root_count"]) == (count, 0)


def ray_root_at_one(template):
    """The equation of a kernel template whose ray root sits at s = 1, and
    its scan stopped at s = 4; the check's box reaches s = 10."""
    geometry = ball(2)
    probe = build_reduced(ProblemInstance(geometry=geometry, k=1, p=math.inf,
                                          q=2.0, lam=1.0, kernel="1"))
    rho = probe.rho
    kernel = template.format(c=5.0, c_t=5.0 * rho, c_st=5.0 * (1.0 + rho),
                             rho=repr(rho))
    m_at_1 = eval_kernel(parse_kernel(kernel), 1.0, rho)
    lam = probe.coeff * m_at_1 / probe.norm_u
    eq = build_reduced(ProblemInstance(geometry=geometry, k=1, p=math.inf,
                                       q=2.0, lam=lam, kernel=kernel))
    record = solve_roots(eq, ScanConfig(s_max=4.0))
    assert record["count"] >= 1
    assert min(r["s"] for r in record["roots"]) == pytest.approx(1.0, rel=1e-9)
    return eq, record


class TestSystemCheckErrorParity:
    """A kernel that faults inside the 2-D box but not on the ray scan."""

    @pytest.mark.parametrize("template", ["sqrt({c} - s)", "sqrt({c_t} - t)",
                                          "sqrt({c_st} - s - t)"])
    def test_fault_past_the_scan(self, template):
        # Each kernel turns invalid at s = 5 on the line, past the scan.
        eq, record = ray_root_at_one(template)
        with pytest.raises(KernelEvalError) as info:
            system_count_check(eq, record)
        s, t = info.value.point
        assert 4.0 < s < 10.0 and t == eq.rho * s

    def test_fault_off_the_line(self):
        # Invalid only where t > rho (1 + s), which the line never reaches.
        eq, record = ray_root_at_one("1 + log(1 + s - t/{rho})")
        report = system_count_check(eq, record)
        assert (report["cluster_count"], report["root_count"], report["matched"]) == (1, 1, True)

    @pytest.mark.parametrize("kernel", ["log(0)", "sqrt(-1)", "2^2000"])
    def test_constant_fault(self, kernel):
        # A kernel of neither variable faults everywhere, so the scan of a
        # sound kernel supplies the record.
        eq = build_reduced(ProblemInstance(geometry=ball(2), k=1, p=math.inf,
                                           q=2.0, lam=3.0, kernel="1"))
        record = solve_roots(eq)
        faulty = dataclasses.replace(eq, kernel=parse_kernel(kernel))
        with pytest.raises(KernelEvalError):
            system_count_check(faulty, record)


def kernel_call_sizes(monkeypatch):
    """The points of each kernel call reduction makes from here on."""
    sizes = []

    def counted(node, s, t):
        sizes.append(np.broadcast(s, t).size)
        return eval_kernel(node, s, t)

    monkeypatch.setattr(reduction, "eval_kernel", counted)
    return sizes


class TestSystemCheckWork:
    """One kernel call on the line, whatever the kernel reads: 401 grid
    points plus one midpoint between each pair of consecutive ray roots."""

    @pytest.mark.parametrize("kernel,lam,points", [
        ("(s - 2)^2 + 0.1", 2.0, 403), ("1 + t", 2.0, 401),
        ("1", 3.0, 401), ("1/(1 + s*t)", 1.0, 402)])
    def test_kernel_points(self, monkeypatch, kernel, lam, points):
        eq = build_reduced(ProblemInstance(geometry=ball(2), k=1, p=math.inf,
                                           q=2.0, lam=lam, kernel=kernel))
        record = solve_roots(eq)
        sizes = kernel_call_sizes(monkeypatch)
        report = system_count_check(eq, record)
        assert report["matched"] and report["cluster_count"] >= 1
        assert sizes == [points] == [401 + record["count"] - 1]

    def test_one_call_per_battery_run(self, battery, monkeypatch):
        runs = [(case["name"], build_reduced(make_instance(case, run["lambda"])))
                for case in battery["cases"] for run in case["runs"]]
        records = [solve_roots(eq) for _, eq in runs]
        sizes = kernel_call_sizes(monkeypatch)
        for (name, eq), record in zip(runs, records):
            sizes.clear()
            system_count_check(eq, record)
            assert sizes == [401 + max(record["count"] - 1, 0)], (name, eq.lam)
