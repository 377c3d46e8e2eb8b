"""End-to-end verification: PDE residuals, Kelvin identities, gamma scaling."""

import math

import numpy as np
import pytest

from odkirch.base_solutions import BallGeometry, ExteriorGeometry, RadialProfile
from odkirch import verifier
from odkirch.errors import DomainError, KernelEvalError, QuadratureError
from odkirch.hessian import binomial
from odkirch.reduction import (ProblemInstance, build_reduced, solve_roots,
                               system_count_check)
from odkirch.verifier import (
    _Draws,
    _field,
    gamma_scaling_check,
    judge_kelvin,
    judge_run,
    _unit_directions,
    draw_samples,
    verify,
)

from conftest import make_instance

# M = 2 - s has roots near s = 0.05 and 1.95; at amplitude_scale 1.05 the
# second root's field has norm past 2, where M < 0.
NON_POSITIVE = {"name": "non-positive-kernel",
                "geometry": {"kind": "ball", "n": 2, "radius": 1.0},
                "p": "inf", "q": 2.0, "kernel": "2 - s"}


def first_root(case, lam):
    inst = make_instance(case, lam)
    return inst, solve_roots(build_reduced(inst))["roots"][0]


def all_roots(case, lam):
    inst = make_instance(case, lam)
    return inst, solve_roots(build_reduced(inst))["roots"]


def judge_root(inst, root, seed=0, scale=1.0):
    """The record judge_run makes of root judged as a one-root run."""
    analysis = {"count": 1, "roots": [root], "warnings": [],
                "system_check": {"matched": True}}
    return judge_run(inst, analysis, seed, scale)["roots"][0]


class TestVerifyBall:
    def test_battery_solutions_pass(self, battery):
        for case in battery["cases"]:
            if case["geometry"]["kind"] != "ball":
                continue
            for run in case["runs"]:
                if run["count"] == 0:
                    continue
                inst, roots = all_roots(case, run["lambda"])
                for root in roots:
                    report = verify(inst, [root], draw_samples(inst.geometry, 0, 64))[0]
                    label = (case["name"], run["lambda"], root["s"])
                    assert report["interior_residual"] < 1e-6, label
                    assert report["boundary_value"] < 1e-10, label
                    assert report["boundary_gradient"] < 1e-8, label
                    assert report["norm_u_quad"] == pytest.approx(root["s"], rel=1e-8)

    def test_perturbed_solution_fails(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        report = verify(inst, [root], draw_samples(inst.geometry, 0, 32), scale=1.02)[0]
        assert report["interior_residual"] > 1e-3
        assert report["boundary_gradient"] > 1e-3

    def test_perturbation_leaves_claims(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        bad = judge_root(inst, root, scale=2.0)
        assert bad["c"] == root["c"] and bad["s"] == root["s"]
        assert bad["amplitude"] == pytest.approx(2.0 * root["amplitude"])

    def test_perturbed_field_is_scaled(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        center = inst.geometry.center
        good = _field(inst, root["amplitude"], 1.0).as_field(center)
        bad = _field(inst, root["amplitude"], 1.02).as_field(center)
        x = np.array([0.3, -0.4])
        assert bad(x) == pytest.approx(1.02 * good(x), rel=1e-15)

    def test_root_of_another_geometry_fails(self, battery):
        # The field is always built on the instance's geometry: the exterior
        # root's amplitude and c make a wrong solution of the ball problem.
        ball_case = battery["cases"][0]
        ext_case = next(c for c in battery["cases"] if c["geometry"]["kind"] == "exterior")
        _, root_ext = first_root(ext_case, 1.0)
        inst_ball, _ = first_root(ball_case, 3.0)
        draws = draw_samples(inst_ball.geometry, 0)
        assert judge_root(inst_ball, root_ext)["pass"] is False

    def test_off_center_ball(self):
        case = {
            "geometry": {"kind": "ball", "n": 2, "radius": 1.0},
            "k": 1, "p": "inf", "q": 2, "kernel": "1",
        }
        inst = make_instance(case, 3.0)
        # Shift the domain; the construction must be translation-covariant.
        from odkirch.reduction import ProblemInstance
        shifted = ProblemInstance(
            geometry=BallGeometry(n=2, radius=1.0, center=(2.0, -1.0)),
            k=1, p=inst.p, q=inst.q, lam=3.0, kernel="1",
        )
        root = solve_roots(build_reduced(shifted))["roots"][0]
        report = verify(shifted, [root], draw_samples(shifted.geometry, 0, 32))[0]
        assert report["interior_residual"] < 1e-6
        assert report["boundary_value"] < 1e-10


class TestVerifyExterior:
    def test_battery_solutions_pass(self, battery):
        for case in battery["cases"]:
            if case["geometry"]["kind"] != "exterior":
                continue
            for run in case["runs"]:
                if run["count"] == 0:
                    continue
                inst, roots = all_roots(case, run["lambda"])
                for root in roots:
                    report = verify(inst, [root], draw_samples(inst.geometry, 0, 64))[0]
                    label = (case["name"], run["lambda"], root["s"])
                    assert report["interior_residual"] < 1e-6, label
                    assert report["boundary_value"] < 1e-10, label
                    assert report["boundary_gradient"] < 1e-8, label

    def test_perturbed_solution_fails(self, battery):
        case = next(c for c in battery["cases"] if c["geometry"]["kind"] == "exterior")
        inst, root = first_root(case, 1.0)
        report = verify(inst, [root], draw_samples(inst.geometry, 0, 32), scale=0.97)[0]
        assert report["interior_residual"] > 1e-3


class TestJudge:
    def test_battery_root_passes_perturbed_fails(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        doc = judge_root(inst, root)
        assert doc["pass"] is True
        assert all(chk["pass"] for chk in doc["checks"].values())
        assert doc["s"] == root["s"] and "far_field_ratio" not in doc
        bad = judge_root(inst, root, scale=1.02)
        assert bad["pass"] is False
        assert not bad["checks"]["interior_residual"]["pass"]

    @pytest.mark.parametrize("scale, passes", [(1.0, True), (1.05, False)])
    def test_gamma_pde_relative_to_binomial(self, scale, passes):
        # C(24, 12) = 2.7e6 scales the base equation's right side; its
        # round-off alone once read 1.1e-6 against the 1e-6 gate.
        inst = ProblemInstance(geometry=BallGeometry(n=24, radius=1.0), k=12,
                               p=math.inf, q=math.inf, lam=1.0, kernel="1 + s")
        (root,) = solve_roots(build_reduced(inst))["roots"]
        doc = judge_root(inst, root, scale=scale)
        check = doc["checks"]["gamma_pde"]
        assert check["pass"] is passes
        assert (check["value"] < 1e-10) is passes

    @pytest.mark.parametrize("scale", [1.0, 1.05, 0.9])
    def test_rows_equal_lone_roots(self, battery, scale):
        # judge_run judges a run's roots as rows of one field; each row's
        # record holds the bits of that root judged as a one-root run, and
        # the values of verify on the run's draw and of the gamma check on
        # a draw of its own 48 samples.  The kernel 2 - s is negative at the
        # 1.05-scaled field of its second root: that row gets nan gamma
        # values and the other row does not.
        runs = [(case, run["lambda"]) for case in battery["cases"]
                for run in case["runs"] if run["count"] >= 2]
        runs += [({**NON_POSITIVE, "k": k}, lam) for k, lam in ((1, 0.39), (2, 0.76))]
        for case, lam in runs:
            inst = make_instance(case, lam)
            eq = build_reduced(inst)
            record = solve_roots(eq)
            analysis = {**record, "system_check": system_count_check(eq, record)}
            assert 2 <= analysis["count"] <= 3
            for seed in (0, 5, 11):
                docs = judge_run(inst, analysis, seed, scale)["roots"]
                lone = [judge_root(inst, root, seed, scale) for root in record["roots"]]
                assert repr(docs) == repr(lone), (case["name"], lam, seed)
                draws = draw_samples(inst.geometry, seed)
                radii = draw_samples(inst.geometry, seed, 48)[0]
                for doc, root in zip(docs, record["roots"]):
                    values = verify(inst, [root], draws, scale)[0]
                    values.update(gamma_scaling_check(inst, [root], [values], radii,
                                                      scale)[0])
                    flat = {**doc, **{name: chk["value"]
                                      for name, chk in doc["checks"].items()}}
                    # repr: the nan gamma values of M <= 0 equal themselves.
                    assert repr({name: flat[name] for name in values}) == repr(values)
                if case["name"] != NON_POSITIVE["name"]:
                    continue
                gammas = [math.isnan(doc["gamma"]) for doc in docs]
                assert gammas == ([False, True] if scale == 1.05 else [False, False])

    @pytest.mark.parametrize("name, lam", [("exterior-saturating", 1.0),
                                           ("ball-quadratic-well", 2.0)])
    def test_first_failing_root_raises_at_its_stage(self, battery, monkeypatch, name, lam):
        # Root 0's kernel value faults, and root 1's norm of U fails: its
        # finite-p quadrature raises, or at p = inf its row of the one sup
        # norm call for all roots is non-finite.  Alone, root 0 fails first,
        # so the run raises its KernelEvalError; without that fault the run
        # raises root 1's QuadratureError.
        case = next(c for c in battery["cases"] if c["name"] == name)
        inst = make_instance(case, lam)
        eq = build_reduced(inst)
        record = solve_roots(eq)
        analysis = {**record, "system_check": system_count_check(eq, record)}
        s_0, s_1 = (root["s"] for root in record["roots"][:2])
        nan_row_1 = np.array([[0.0], [math.nan], [0.0]])[:record["count"]]
        norm_quadrature, eval_kernel = verifier.norm_quadrature, verifier.eval_kernel
        calls = []

        def failing_norm(radial_f, p, *args, **kwargs):
            rows = radial_f
            value = norm_quadrature((lambda r: rows(r) + nan_row_1) if math.isinf(p)
                                    else radial_f, p, *args, **kwargs)
            calls.append(value)
            if p == inst.p and value == pytest.approx(s_1, rel=1e-8):
                raise QuadratureError("root 1's norm")
            return value

        def failing_kernel(node, s, t):
            if s == pytest.approx(s_0, rel=1e-8):
                raise KernelEvalError("root 0's kernel value", "1 / (1 + s * t)", (s, t))
            return eval_kernel(node, s, t)

        monkeypatch.setattr(verifier, "norm_quadrature", failing_norm)
        monkeypatch.setattr(verifier, "eval_kernel", failing_kernel)
        with pytest.raises(KernelEvalError, match="root 0's kernel value"):
            judge_run(inst, analysis)
        assert len(calls) == 2          # root 0's two norms; root 1's never start
        monkeypatch.setattr(verifier, "eval_kernel", eval_kernel)
        with pytest.raises(QuadratureError):
            judge_run(inst, analysis)

    def test_gamma_check_reads_the_first_48_radii(self, battery, monkeypatch):
        # judge_run hands the gamma check the first 48 radii of the run's
        # draw.  gamma_pde is a maximum that the smallest radii usually set,
        # so comparing values rarely sees all 64 radii passed instead.
        seen, gamma_scaling_check = [], verifier.gamma_scaling_check

        def spy(instance, roots, values, radii, scale=1.0):
            seen.append(radii)
            return gamma_scaling_check(instance, roots, values, radii, scale)

        monkeypatch.setattr(verifier, "gamma_scaling_check", spy)
        for name, lam in (("ball-quadratic-well", 2.0), ("exterior-plane-double-well", 0.4)):
            case = next(c for c in battery["cases"] if c["name"] == name)
            inst = make_instance(case, lam)
            eq = build_reduced(inst)
            record = solve_roots(eq)
            analysis = {**record, "system_check": system_count_check(eq, record)}
            for seed in (0, 5, 11):
                judge_run(inst, analysis, seed)
                assert np.array_equal(seen.pop(), draw_samples(inst.geometry, seed, 48)[0])

    @pytest.mark.parametrize("geom", [BallGeometry(n=3, radius=1.5), ExteriorGeometry(n=4)])
    def test_gamma_radii_are_a_draw_of_48(self, geom):
        # judge_run hands the gamma check the first 48 radii of the run's
        # draw: those of a draw of 48 samples from the same seed, bit for bit.
        for seed in (0, 5, 2 ** 70):
            assert np.array_equal(draw_samples(geom, seed, 48)[0],
                                  draw_samples(geom, seed)[0][:48])

    def test_kelvin_only_outside(self):
        assert judge_kelvin(BallGeometry(n=3, radius=1.0)) is None
        doc = judge_kelvin(ExteriorGeometry(n=3), seed=0)
        assert doc["pass"] is True
        assert doc["checks"]["image_pointwise"]["threshold"] == 1e-10


class TestKelvinTransform:
    def test_exterior_base_maps_to_ball_profile(self):
        # The image of the exterior base field is (rho^2 - 1)/2 for every n.
        for n in (2, 3, 4, 5, 7):
            image = ExteriorGeometry(n=n).profile().kelvin(n)
            rho = np.linspace(0.05, 1.0, 50)
            assert np.max(np.abs(image.phi(rho) - 0.5 * (rho**2 - 1.0))) < 1e-12
            assert np.max(np.abs(image.dphi(rho) - rho)) < 1e-12
            assert np.max(np.abs(image.d2phi(rho) - 1.0)) < 1e-11

    def test_domain_inversion(self):
        prof = ExteriorGeometry(n=3).profile()
        image = prof.kelvin(3)
        assert image.r_min == 0.0
        assert image.r_max == 1.0

    def test_involution(self):
        prof = ExteriorGeometry(n=4).profile()
        twice = prof.kelvin(4).kelvin(4)
        rr = np.linspace(1.0, 6.0, 40)
        assert np.max(np.abs(twice.phi(rr) - prof.phi(rr))) < 1e-12
        assert np.max(np.abs(twice.dphi(rr) - prof.dphi(rr))) < 1e-12
        assert np.max(np.abs(twice.d2phi(rr) - prof.d2phi(rr))) < 1e-11

    def test_harmonicity_preserved(self):
        # r^(2-n) is harmonic away from 0; its Kelvin image is the constant
        # function 1, whose Laplacian vanishes identically.
        n = 5
        harmonic = RadialProfile((1.0,), (2.0 - n,), (1.0,), 1.0, math.inf).kelvin(n)
        rho = np.linspace(0.1, 0.9, 20)
        lap = harmonic.d2phi(rho) + (n - 1) / rho * harmonic.dphi(rho)
        assert np.max(np.abs(lap)) < 1e-10

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            ExteriorGeometry(n=3).profile().kelvin(1)


class TestKelvinChecks:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identities_hold(self, n):
        dev = {name: chk["value"] for name, chk in
               judge_kelvin(ExteriorGeometry(n=n), seed=0, n_samples=48)["checks"].items()}
        assert dev["image_pointwise"] < 1e-10
        assert dev["laplacian_identity"] < 1e-8
        assert dev["laplacian_constant"] < 1e-8
        assert dev["boundary_identity"] < 1e-8
        assert dev["double_transform"] < 1e-10

    @pytest.mark.parametrize("n,bound", [(2, 0.25), (3, 1e-3)])
    def test_removability_indicator(self, n, bound):
        # The singularity of the image at 0 is removable: the ratio against
        # the fundamental singularity must shrink along dyadic radii.  The
        # planar comparison function is log(1/rho), so its ratio decays only
        # logarithmically; n >= 3 shrinks like a power.
        report = judge_kelvin(ExteriorGeometry(n=n), seed=1, n_samples=24)
        assert report["removability_monotone"]
        assert report["removability_log_shrink"] < math.log(bound)

    @pytest.mark.parametrize("n", [70, 100, 438])
    def test_removability_log_shrink_past_underflow(self, n):
        # exp of the log shrink underflows to 0 from n = 70 on; the log
        # itself stays a finite, very negative number.
        log_shrink = judge_kelvin(ExteriorGeometry(n=n))["removability_log_shrink"]
        assert math.isfinite(log_shrink)
        assert log_shrink < math.log(1e-300)

    def test_deterministic(self):
        a = judge_kelvin(ExteriorGeometry(n=3), seed=7)
        b = judge_kelvin(ExteriorGeometry(n=3), seed=7)
        assert a == b


class TestArrayPassesMatchLoops:
    """The verifier's array passes against the per-point loops they replaced:
    the arithmetic is the same, so the bits must be too."""

    def test_boundary_checks(self, battery):
        for case in battery["cases"]:
            for run in (r for r in case["runs"] if r["count"] > 0):
                inst, root = first_root(case, run["lambda"])
                geom = inst.geometry
                u = _field(inst, root["amplitude"], 1.0).as_field(geom.center)
                h = 1e-4 * max(1.0, geom.radius, *map(abs, geom.center))
                for seed in (0, 7):
                    report = verify(inst, [root], draw_samples(geom, seed, 16))[0]
                    rng = _Draws(seed)
                    geom.sample_radii(rng, 16)
                    bval = bgrad = 0.0
                    for d in _unit_directions(rng, 16, geom.n):
                        x = np.asarray(geom.center) + geom.radius * d
                        bval = max(bval, abs(u(x)))
                        dn = (-u(x + 2.0 * h * d) + 8.0 * u(x + h * d)
                              - 8.0 * u(x - h * d) + u(x - 2.0 * h * d)) / (12.0 * h)
                        bgrad = max(bgrad, abs(abs(dn) - root["c"]))
                    assert report["boundary_value"] == bval
                    assert report["boundary_gradient"] == bgrad

    @pytest.mark.parametrize("n", range(2, 10))
    def test_kelvin_checks(self, n):
        geom = ExteriorGeometry(n=n)
        image = geom.profile().kelvin(n)
        for seed in (0, 3):
            report = judge_kelvin(geom, seed=seed, n_samples=48)
            ratios = []
            for j in range(4, 21):
                r = 2.0 ** (-j)
                log_w = math.log(abs(float(image.phi(r))))
                ratios.append(log_w - ((2.0 - n) * math.log(r) if n >= 3
                                       else math.log(math.log(1.0 / r))))
            assert report["removability_monotone"] == all(
                later < earlier for earlier, later in zip(ratios, ratios[1:]))
            assert report["removability_log_shrink"] == ratios[-1] - ratios[0]


class TestGammaScaling:
    def test_battery_roots_recover_base_field(self, battery):
        for case in battery["cases"]:
            for run in case["runs"]:
                if run["count"] == 0:
                    continue
                inst, roots = all_roots(case, run["lambda"])
                for root in roots:
                    draws = draw_samples(inst.geometry, 0)
                    (report,) = gamma_scaling_check(inst, [root], verify(inst, [root], draws),
                                                    draws[0][:48])
                    label = (case["name"], run["lambda"], root["s"])
                    assert abs(report["recovered_amplitude"] - 1.0) < 1e-6, label
                    assert report["gamma_pde"] * binomial(inst.geometry.n, inst.k) < 1e-6, label

    def test_gamma_value_constant_kernel(self, battery):
        # M = 1: gamma = (C(N,k)/lambda)^(1/k) explicitly.
        case = battery["cases"][0]
        inst, root = first_root(case, 3.0)
        draws = draw_samples(inst.geometry, 0)
        (report,) = gamma_scaling_check(inst, [root], verify(inst, [root], draws),
                                        draws[0][:48])
        assert report["gamma"] == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_wrong_amplitude_detected(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        draws = draw_samples(inst.geometry, 0)
        (report,) = gamma_scaling_check(inst, [root], verify(inst, [root], draws, scale=1.05),
                                        draws[0][:48], scale=1.05)
        # Norms move, so the kernel value and gamma move with them; the
        # product gamma * amplitude must drift off 1.
        assert abs(report["recovered_amplitude"] - 1.0) > 1e-3
