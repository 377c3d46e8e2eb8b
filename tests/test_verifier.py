"""End-to-end verification: PDE residuals, Kelvin identities, gamma scaling."""

import math

import numpy as np
import pytest

from odkirch.base_solutions import BallGeometry, ExteriorGeometry, RadialProfile
from odkirch.errors import DomainError
from odkirch.hessian import binomial
from odkirch.reduction import (ProblemInstance, build_reduced, solve_roots,
                               system_count_check)
from odkirch.verifier import (
    _Draws,
    _field,
    gamma_scaling_check,
    judge_kelvin,
    judge_run,
    judge_solution,
    _unit_directions,
    draw_samples,
    verify,
)

from conftest import make_instance


def first_root(case, lam):
    inst = make_instance(case, lam)
    return inst, solve_roots(build_reduced(inst))["roots"][0]


def all_roots(case, lam):
    inst = make_instance(case, lam)
    return inst, solve_roots(build_reduced(inst))["roots"]


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
                    report = verify(inst, root, draw_samples(inst.geometry, 0, 64))
                    label = (case["name"], run["lambda"], root["s"])
                    assert report["interior_residual"] < 1e-6, label
                    assert report["boundary_value"] < 1e-10, label
                    assert report["boundary_gradient"] < 1e-8, label
                    assert report["norm_u_quad"] == pytest.approx(root["s"], rel=1e-8)

    def test_perturbed_solution_fails(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        report = verify(inst, root, draw_samples(inst.geometry, 0, 32), scale=1.02)
        assert report["interior_residual"] > 1e-3
        assert report["boundary_gradient"] > 1e-3

    def test_perturbation_leaves_claims(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        bad = judge_solution(inst, root, draw_samples(inst.geometry, 0), scale=2.0)
        assert bad["c"] == root["c"] and bad["s"] == root["s"]
        assert bad["amplitude"] == pytest.approx(2.0 * root["amplitude"])

    def test_perturbed_field_is_scaled(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        center = inst.geometry.center
        good = _field(inst, root, 1.0).as_field(center)
        bad = _field(inst, root, 1.02).as_field(center)
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
        assert judge_solution(inst_ball, root_ext, draws)["pass"] is False

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
        report = verify(shifted, root, draw_samples(shifted.geometry, 0, 32))
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
                    report = verify(inst, root, draw_samples(inst.geometry, 0, 64))
                    label = (case["name"], run["lambda"], root["s"])
                    assert report["interior_residual"] < 1e-6, label
                    assert report["boundary_value"] < 1e-10, label
                    assert report["boundary_gradient"] < 1e-8, label
                    assert "far_field_ratio" in report

    def test_perturbed_solution_fails(self, battery):
        case = next(c for c in battery["cases"] if c["geometry"]["kind"] == "exterior")
        inst, root = first_root(case, 1.0)
        report = verify(inst, root, draw_samples(inst.geometry, 0, 32), scale=0.97)
        assert report["interior_residual"] > 1e-3


class TestJudge:
    def test_battery_root_passes_perturbed_fails(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        draws = draw_samples(inst.geometry, 0)
        doc = judge_solution(inst, root, draws)
        assert doc["pass"] is True
        assert all(chk["pass"] for chk in doc["checks"].values())
        assert doc["s"] == root["s"] and "far_field_ratio" not in doc
        bad = judge_solution(inst, root, draws, scale=1.02)
        assert bad["pass"] is False
        assert not bad["checks"]["interior_residual"]["pass"]

    @pytest.mark.parametrize("scale, passes", [(1.0, True), (1.05, False)])
    def test_gamma_pde_relative_to_binomial(self, scale, passes):
        # C(24, 12) = 2.7e6 scales the base equation's right side; its
        # round-off alone once read 1.1e-6 against the 1e-6 gate.
        inst = ProblemInstance(geometry=BallGeometry(n=24, radius=1.0), k=12,
                               p=math.inf, q=math.inf, lam=1.0, kernel="1 + s")
        (root,) = solve_roots(build_reduced(inst))["roots"]
        doc = judge_solution(inst, root, draw_samples(inst.geometry, 0), scale)
        check = doc["checks"]["gamma_pde"]
        assert check["pass"] is passes
        assert (check["value"] < 1e-10) is passes

    def test_exterior_root_reports_far_field(self, battery):
        case = next(c for c in battery["cases"] if c["name"] == "exterior-saturating")
        inst, root = first_root(case, 1.0)
        doc = judge_solution(inst, root, draw_samples(inst.geometry, 0))
        assert doc["pass"] is True
        assert doc["far_field_ratio"] == pytest.approx(0.5 * root["amplitude"], rel=1e-4)

    @pytest.mark.parametrize("scale", [1.0, 1.05])
    def test_run_records_equal_lone_judgements(self, battery, scale):
        # judge_run draws once for all the roots of a run; each record is the
        # one judge_solution makes alone, and holds the values of verify on
        # that draw and of the gamma check on a draw of its own 48 samples.
        for case in battery["cases"]:
            for run in (r for r in case["runs"] if r["count"] >= 2):
                inst = make_instance(case, run["lambda"])
                eq = build_reduced(inst)
                record = solve_roots(eq)
                analysis = {**record, "system_check": system_count_check(eq, record)}
                for seed in (0, 5):
                    docs = judge_run(inst, analysis, seed, scale)["roots"]
                    assert len(docs) == run["count"] >= 2
                    draws = draw_samples(inst.geometry, seed)
                    radii = draw_samples(inst.geometry, seed, 48)[0]
                    for doc, root in zip(docs, record["roots"]):
                        assert doc == judge_solution(inst, root, draws, scale)
                        lone = verify(inst, root, draws, scale)
                        lone.update(gamma_scaling_check(inst, root, lone, radii, scale))
                        values = {**doc, **{name: chk["value"]
                                            for name, chk in doc["checks"].items()}}
                        assert {name: values[name] for name in lone} == lone

    @pytest.mark.parametrize("geom", [BallGeometry(n=3, radius=1.5), ExteriorGeometry(n=4)])
    def test_gamma_radii_are_a_draw_of_48(self, geom):
        # judge_solution hands the gamma check the first 48 radii of the run's
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
        assert dev["orthogonality"] < 1e-10
        assert dev["pythagoras"] < 1e-10
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
                u = _field(inst, root, 1.0).as_field(geom.center)
                h = 1e-4 * max(1.0, geom.radius, *map(abs, geom.center))
                for seed in (0, 7):
                    report = verify(inst, root, draw_samples(geom, seed, 16))
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
        base = geom.profile()
        image = base.kelvin(n)
        e1 = np.eye(n)[0]
        for seed in (0, 3):
            report = judge_kelvin(geom, seed=seed, n_samples=48)
            rng = _Draws(seed)
            rng.uniform(0.05, 0.999, 48)       # rho
            rng.uniform(1.0, 4.0, 48)          # radii of the double transform
            dirs = _unit_directions(rng, 48, n)
            ortho = pyth = 0.0
            for d, r in zip(dirs, rng.uniform(1.1, 3.0, 48)):
                grad = float(base.phi(r)) * e1 + r * d[0] * float(base.dphi(r)) * d
                b = (grad @ d) * d
                a = grad - b
                scale = max(1.0, float(grad @ grad))
                ortho = max(ortho, abs(float(a @ b)) / scale)
                pyth = max(pyth, abs(float(a @ a + b @ b - grad @ grad)) / scale)
            assert report["checks"]["orthogonality"]["value"] == ortho
            assert report["checks"]["pythagoras"]["value"] == pyth
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
                    report = gamma_scaling_check(inst, root, verify(inst, root, draws),
                                                 draws[0][:48])
                    label = (case["name"], run["lambda"], root["s"])
                    assert abs(report["recovered_amplitude"] - 1.0) < 1e-6, label
                    assert report["gamma_pde"] * binomial(inst.geometry.n, inst.k) < 1e-6, label

    def test_gamma_value_constant_kernel(self, battery):
        # M = 1: gamma = (C(N,k)/lambda)^(1/k) explicitly.
        case = battery["cases"][0]
        inst, root = first_root(case, 3.0)
        draws = draw_samples(inst.geometry, 0)
        report = gamma_scaling_check(inst, root, verify(inst, root, draws), draws[0][:48])
        assert report["gamma"] == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_wrong_amplitude_detected(self, battery):
        inst, root = first_root(battery["cases"][0], 3.0)
        draws = draw_samples(inst.geometry, 0)
        report = gamma_scaling_check(inst, root, verify(inst, root, draws, scale=1.05),
                                     draws[0][:48], scale=1.05)
        # Norms move, so the kernel value and gamma move with them; the
        # product gamma * amplitude must drift off 1.
        assert abs(report["recovered_amplitude"] - 1.0) > 1e-3
