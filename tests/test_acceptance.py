"""Acceptance gate: one test per shipped criterion, tolerances pinned inline.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line when it gets to
the end; a failed assertion leaves the line unprinted and the test red, so
`pytest -v tests/test_acceptance.py` reads as a per-criterion scoreboard.
"""

import json
import math
import time

import numpy as np
import pytest

from odkirch.base_solutions import BallGeometry, ExteriorGeometry, norm_quadrature
from odkirch.cli import main
from odkirch.hessian import binomial, k_hessian_field, k_hessian_radial
from odkirch.kernel import kernel_to_string, parse_kernel
from odkirch.reduction import (
    ProblemInstance,
    build_reduced,
    solve_roots,
    system_count_check,
)
from odkirch.verifier import draw_samples, gamma_scaling_check, judge_kelvin, verify

from conftest import load_battery, load_corpus, make_instance

INF = math.inf
BATTERY = load_battery()


def report(number: int, name: str):
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_norm_formulas():
    """Closed-form norms vs the quadrature/maximization oracle, rel <= 1e-8."""
    started = time.monotonic()
    checked = 0
    for n in (2, 3, 4, 5):
        geom = ExteriorGeometry(n=n)
        prof = geom.profile()
        if n == 2:
            p_list = [INF]
            q_list = [0.7, 1.0, 1.5, 2.2, 5.0, INF]
        else:
            p_thr = n / (n - 2.0)
            q_thr = n / (n - 1.0)
            p_list = [p_thr * 1.07, p_thr + 1.0, 4.0, 5.5, 9.0, INF]
            q_list = [q_thr * 1.05, 2.0, 3.0, 4.5, 7.0, INF]
        for p in p_list:
            closed = geom.norm_u(p)
            quad = norm_quadrature(prof.phi, p, n, 1.0, INF)
            assert abs(closed - quad) / closed <= 1e-8, ("u", n, p)
            checked += 1
        for q in q_list:
            closed = geom.norm_grad(q)
            quad = norm_quadrature(prof.dphi, q, n, 1.0, INF)
            assert abs(closed - quad) / closed <= 1e-8, ("grad", n, q)
            checked += 1
        # Ball norms at the same dimension, covering both ball sup formulas.
        bgeom = BallGeometry(n=n, radius=1.3)
        bprof = bgeom.profile()
        for e in (0.75, 1.0, 2.0, 3.5, 6.0, INF):
            closed = bgeom.norm_u(e)
            quad = norm_quadrature(bprof.phi, e, n, 0.0, 1.3)
            assert abs(closed - quad) / closed <= 1e-8, ("ball u", n, e)
            closed = bgeom.norm_grad(e)
            quad = norm_quadrature(bprof.dphi, e, n, 0.0, 1.3)
            assert abs(closed - quad) / closed <= 1e-8, ("ball grad", n, e)
            checked += 2
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"norm battery took {elapsed:.1f} s"
    assert checked >= 4 * 6  # six exponents per dimension at minimum
    report(1, "norm formulas vs quadrature oracle")


def test_criterion_2_k_hessian_identity():
    """S_k(D^2 U) = C(N,k): closed path <= 1e-12, FD path <= 1e-6; exterior
    Laplacian identity rel <= 1e-8."""
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        geom = BallGeometry(n=n, radius=1.3)
        prof = geom.profile()
        radii = rng.uniform(0.01, 1.29, 100)
        for k in range(1, n + 1):
            vals = k_hessian_radial(prof, radii, n, k)
            assert np.max(np.abs(vals - binomial(n, k))) <= 1e-12, (n, k)
        # Independent route: finite-difference Hessian of the scalar field at
        # 100 points.  The field is quadratic, so the h = 1e-2 stencil has no
        # truncation error and round-off stays far below the gate.
        field = prof.as_field(center=np.zeros(n))
        for _ in range(100):
            x = rng.normal(size=n)
            x *= rng.uniform(0.01, 1.29) / np.linalg.norm(x)
            for k in range(1, n + 1):
                got = k_hessian_field(field, x, k, h=1e-2)
                assert abs(got - binomial(n, k)) <= 1e-6, (n, k)
    for n in range(2, 9):
        eprof = ExteriorGeometry(n=n).profile()
        radii = np.geomspace(1.0, 50.0, 100)
        got = k_hessian_radial(eprof, radii, n, 1)
        ref = n * radii ** (-n - 2.0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-8, n
    report(2, "k-Hessian and exterior Laplacian identities")


def test_criterion_3_analytic_roots():
    """Solver roots vs closed forms for M = 1, s, s^2, rel <= 1e-10."""
    for m, kernel in ((0, "1"), (1, "s"), (2, "s^2")):
        for n in (3, 4, 5):
            for k in (1, 2, 3):
                for lam in (0.5, 1.0, 7.0):
                    geom = BallGeometry(n=n, radius=1.0)
                    inst = ProblemInstance(geometry=geom, k=k, p=2.0, q=2.0,
                                           lam=lam, kernel=kernel)
                    eq = build_reduced(inst)
                    record = solve_roots(eq)
                    assert record["count"] == 1, (m, n, k, lam)
                    expected = (eq.target / eq.coeff) ** (1.0 / (k + m))
                    got = record["roots"][0]["s"]
                    assert abs(got - expected) / expected <= 1e-10, (m, n, k, lam)
    report(3, "analytic root recovery on the (N, k, lambda) grid")


def dense_scan_count(eq, s_min: float, s_max: float, n_points: int = 10**6) -> int:
    """Committed oracle: exact-zero and sign-change count on a dense grid."""
    grid = np.geomspace(s_min, s_max, n_points)
    h = eq.h(grid)
    zeros = int(np.count_nonzero(h == 0.0))
    sign = np.sign(h)
    nz = sign[sign != 0.0]
    crossings = int(np.count_nonzero(nz[:-1] != nz[1:]))
    return zeros + crossings


def every_battery_run():
    for case in BATTERY["cases"]:
        for run in case["runs"]:
            yield case, run["lambda"], run["count"]
    tangent_case = next(c for c in BATTERY["cases"] if "tangency" in c)
    yield tangent_case, tangent_case["tangency"]["lambda_t"] * (1.0 + 1e-6), 1


def test_criterion_4_root_count_equivalence():
    """solve_roots == 1e6-point dense scan == 2-D cluster count, exactly."""
    kernels = {case["kernel"] for case in BATTERY["cases"]}
    assert len(kernels) >= 5
    assert "(s - 2)^2 + 0.1" in kernels
    for case, lam, expected in every_battery_run():
        eq = build_reduced(make_instance(case, lam))
        record = solve_roots(eq)
        scan = dense_scan_count(eq, record["scan"]["s_min"], record["scan"]["s_max"])
        system = system_count_check(eq, record)
        label = (case["name"], lam)
        assert record["count"] == expected, label
        assert scan == expected, label
        assert system["cluster_count"] == expected, label
        assert system["matched"], label
    report(4, "root-count equivalence across three independent counters")


def test_criterion_5_pde_residuals():
    """Constructed solutions satisfy their PDE: interior <= 1e-6 at 100
    samples, boundary value <= 1e-10, gradient vs c <= 1e-8."""
    for case, lam, expected in every_battery_run():
        if expected == 0:
            continue
        inst = make_instance(case, lam)
        eq = build_reduced(inst)
        for root in solve_roots(eq)["roots"]:
            rep = verify(inst, root, draw_samples(inst.geometry, 0, 100))
            label = (case["name"], lam, root["s"])
            assert rep["interior_residual"] <= 1e-6, label
            assert rep["boundary_value"] <= 1e-10, label
            assert rep["boundary_gradient"] <= 1e-8, label
    report(5, "end-to-end PDE residuals on every battery root")


def test_criterion_6_kelvin_suite():
    """Kelvin image, Laplacian constant, boundary identity, double
    transform, at their stated tolerances."""
    for n in (2, 3, 4, 5):
        dev = {name: chk["value"] for name, chk in
               judge_kelvin(ExteriorGeometry(n=n), seed=0, n_samples=64)["checks"].items()}
        assert dev["image_pointwise"] <= 1e-10, n
        assert dev["laplacian_constant"] <= 1e-8, n
        assert dev["laplacian_identity"] <= 1e-8, n
        assert dev["boundary_identity"] <= 1e-8, n
        assert dev["double_transform"] <= 1e-10, n
    report(6, "Kelvin transform suite")


def test_criterion_7_gamma_scaling():
    """v = gamma u recovers the base field equation within 1e-6 per root."""
    for case, lam, expected in every_battery_run():
        if expected == 0:
            continue
        inst = make_instance(case, lam)
        eq = build_reduced(inst)
        for root in solve_roots(eq)["roots"]:
            values = verify(inst, root, draw_samples(inst.geometry, 0))
            rep = gamma_scaling_check(inst, root, values,
                                      draw_samples(inst.geometry, 0, 100)[0])
            label = (case["name"], lam, root["s"])
            assert abs(rep["recovered_amplitude"] - 1.0) <= 1e-6, label
            # gamma_pde is relative to C(N, k); the criterion bounds the
            # deviation itself.
            assert rep["gamma_pde"] * binomial(inst.geometry.n, inst.k) <= 1e-6, label
    report(7, "gamma scaling back to the base field")


def test_criterion_8_determinism_and_format(tmp_path, capsys):
    """Byte-identical structured output, CSV header contract, corpus
    parse-print-parse idempotence."""
    case = next(c for c in BATTERY["cases"] if "tangency" in c)
    doc = {
        "schema_version": 1,
        "geometry": {"kind": "ball", "dim": case["geometry"]["n"],
                     "radius": case["geometry"]["radius"]},
        "k": case["k"], "p": case["p"], "q": case["q"],
        "lambda": 2.0, "kernel": case["kernel"], "seed": 11,
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(doc))

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    for command in (("analyze",), ("verify",), ("norms",)):
        first = run(*command, "-c", str(path), "--json")
        second = run(*command, "-c", str(path), "--json")
        assert first == second, command
        json.loads(first[1])  # must be well-formed JSON as well

    code, out = run("plot-data", "-c", str(path))
    assert code == 0
    assert out.splitlines()[0] == "s,g,target,is_root"
    code2, out2 = run("plot-data", "-c", str(path))
    assert out == out2

    corpus = load_corpus()
    assert len(corpus) >= 50
    for text in corpus:
        tree = parse_kernel(text)
        assert parse_kernel(kernel_to_string(tree)) == tree, text
    report(8, "determinism, CSV contract, corpus round-trip")
