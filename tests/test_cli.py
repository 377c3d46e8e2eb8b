"""Command-line interface: output shape, determinism, exit codes."""

import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from odkirch.base_solutions import BallGeometry, ExteriorGeometry
from odkirch import cli
from odkirch.cli import main
from odkirch.config import build_config
from odkirch.errors import DomainError
from odkirch.reduction import build_reduced, solve_roots, system_count_check
from odkirch.verifier import draw_samples, judge_kelvin, judge_norms, judge_run, verify

from conftest import load_battery, make_instance

BATTERY = load_battery()


def config_doc(case, lam, **extra):
    geo = case["geometry"]
    gdoc = {"kind": geo["kind"], "dim": geo["n"]}
    if geo["kind"] == "ball":
        gdoc["radius"] = geo["radius"]
    doc = {
        "schema_version": 1,
        "geometry": gdoc,
        "k": case["k"],
        "p": case["p"],
        "q": case["q"],
        "lambda": lam,
        "kernel": case["kernel"],
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, case, lam, name="run.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(config_doc(case, lam, **extra)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_body(out):
    """The --json document printed as out, without its instance header."""
    return {key: value for key, value in json.loads(out).items()
            if key not in ("command", *cli._HEADER)}


def analysis_record(inst):
    """What `analyze --json` prints of inst, header aside, from the library."""
    eq = build_reduced(inst)
    record = solve_roots(eq)
    return {**record, "system_check": system_count_check(eq, record)}


class TestAnalyze:
    def test_text_output(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        code, out, err = run_cli(capsys, "analyze", "-c", path)
        assert code == 0 and err == ""
        assert "ball n=2 R=1" in out
        assert "count          1" in out
        assert "s=0.75" in out
        assert "matched=yes" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        code, out, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "analyze"
        assert doc["count"] == 1
        assert doc["roots"][0]["s"] == pytest.approx(0.75, rel=1e-11)
        assert doc["roots"][0]["c"] == pytest.approx(1.5, rel=1e-11)
        assert doc["system_check"]["matched"] is True
        assert doc["warnings"] == []

    def test_json_deterministic(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"] if "tangency" in c)
        path = write_config(tmp_path, case, 2.0)
        _, first, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        _, second, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        assert first == second  # byte-identical
        assert first.endswith("\n")

    def test_json_keys_sorted(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        _, out, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        keys = [ln.split('"')[1] for ln in out.splitlines()
                if ln.startswith('  "')]
        assert keys == sorted(keys)

    def test_tangency_reported(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"] if "tangency" in c)
        lam = case["tangency"]["lambda_t"] * (1.0 + 1e-6)
        path = write_config(tmp_path, case, lam)
        code, out, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert len(doc["tangencies"]) == 1
        assert doc["tangencies"][0]["s"] == pytest.approx(
            case["tangency"]["s_local_max"], rel=1e-3
        )
        code, out, _ = run_cli(capsys, "analyze", "-c", path)
        assert code == 0 and "count          1\n" in out
        assert re.findall(r"^tangency .*$", out, re.M) == [
            f"tangency       s={doc['tangencies'][0]['s']:.6g}, "
            f"gap={doc['tangencies'][0]['gap']:.6g} (near-touching, not counted)"
        ]
        assert "s=0.692" in out

    def test_exterior_case(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"]
                    if c["name"] == "exterior-saturating")
        path = write_config(tmp_path, case, 1.0)
        code, out, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 2
        assert doc["rho"] == pytest.approx(case["rho"], rel=1e-10)

    @pytest.mark.parametrize("name,lam", [("ball-constant", 3.0),
                                          ("exterior-saturating", 1.0)])
    def test_library_returns_what_json_prints(self, tmp_path, capsys, name, lam):
        # 17 significant digits round-trip every float, so == is exact.
        case = next(c for c in BATTERY["cases"] if c["name"] == name)
        path = write_config(tmp_path, case, lam)
        code, out, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        record = analysis_record(make_instance(case, lam))
        assert code == 0 and record["count"] >= 1
        assert json_body(out) == record


class TestVerify:
    def test_ball_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["kelvin"] is None and doc["warnings"] == []
        for root in doc["roots"]:
            for chk in root["checks"].values():
                assert chk["pass"] is True

    def test_exterior_includes_kelvin(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"]
                    if c["name"] == "exterior-saturating")
        path = write_config(tmp_path, case, 1.0)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        kel = doc["kelvin"]
        assert kel["pass"] is True
        assert set(kel["checks"]) == {
            "image_pointwise", "laplacian_identity", "laplacian_constant",
            "boundary_identity", "double_transform",
        }

    @pytest.mark.parametrize("scale", [1.0, 1.05])
    @pytest.mark.parametrize("name,lam", [("ball-constant", 3.0),
                                          ("exterior-saturating", 1.0)])
    def test_library_returns_what_json_prints(self, tmp_path, capsys, name, lam,
                                              scale):
        # 17 significant digits round-trip every float, so == is exact.
        case = next(c for c in BATTERY["cases"] if c["name"] == name)
        path = write_config(tmp_path, case, lam, amplitude_scale=scale)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        body = json_body(out)
        inst = make_instance(case, lam)
        analysis = analysis_record(inst)
        assert analysis["count"] >= 1
        assert body == judge_run(inst, analysis, 0, scale)
        values = verify(inst, analysis["roots"], draw_samples(inst.geometry, 0), scale)
        assert len(body["roots"]) == len(values)
        for doc, value in zip(body["roots"], values):
            flat = {**doc, **{name: chk["value"] for name, chk in doc["checks"].items()}}
            assert {name: flat[name] for name in value} == value
        assert body["kelvin"] == judge_kelvin(inst.geometry)
        assert body["verdict"] == ("pass" if scale == 1.0 else "fail")
        assert code == (0 if scale == 1.0 else 1)

    def test_corrupted_amplitude_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0,
                            amplitude_scale=1.05)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        failing = [name for name, chk in doc["roots"][0]["checks"].items()
                   if not chk["pass"]]
        assert "interior_residual" in failing

    @pytest.mark.parametrize("k, lam", [(1, 0.39), (2, 0.76)])
    @pytest.mark.parametrize("scale", [1.0, 1.05])
    def test_non_positive_kernel_at_corrupted_field_fails(self, tmp_path, capsys,
                                                          k, lam, scale):
        # M = 2 - s has roots near 0.05 and 1.95; a field 1.05 times too large
        # has its norm past 2 at the second, where no real gamma exists.
        case = {"geometry": {"kind": "ball", "n": 2, "radius": 1.0},
                "k": k, "p": "inf", "q": 2.0, "kernel": "2 - s"}
        path = write_config(tmp_path, case, lam, amplitude_scale=scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", "-c", path, "--json")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert err == ""
        doc = json.loads(out)
        assert doc["count"] == 2
        if scale == 1.0:
            assert code == 0 and doc["verdict"] == "pass"
            return
        assert code == 1 and doc["verdict"] == "fail"
        root = doc["roots"][1]
        assert root["kernel_value"] < 0.0
        assert root["gamma"] == root["recovered_amplitude"] == "nan"
        assert not root["checks"]["gamma_amplitude"]["pass"]
        assert not root["checks"]["gamma_pde"]["pass"]

    def test_zero_roots_still_passes(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"] if c["name"] == "ball-decaying")
        path = write_config(tmp_path, case, 5.0)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["roots"] == []

    def test_text_mode_shows_thresholds(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        code, out, _ = run_cli(capsys, "verify", "-c", path)
        assert code == 0
        assert "verdict: PASS" in out
        assert "interior_residual" in out and "PASS" in out
        assert "warning" not in out

    def test_window_miss_is_reported(self, tmp_path, capsys):
        # M = 1e-3 puts the one root at s = 7500, past the default window
        # [1e-8, 1000]: the count is 0, and the scan's edge warning says so.
        case = {"geometry": {"kind": "ball", "n": 2, "radius": 1.0},
                "k": 1, "p": "inf", "q": 2.0, "kernel": "1e-3"}
        path = write_config(tmp_path, case, 30.0)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 0
        (warning,) = doc["warnings"]
        assert "s_max = 1000" in warning
        code, out, _ = run_cli(capsys, "verify", "-c", path)
        assert code == 0
        assert re.findall(r"^warning: .*$", out, re.M) == [f"warning: {warning}"]

    def test_deterministic(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"]
                    if c["name"] == "exterior-saturating")
        path = write_config(tmp_path, case, 1.0)
        _, first, _ = run_cli(capsys, "verify", "-c", path, "--json")
        _, second, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert first == second


QUADRATIC_WELL = next(c for c in BATTERY["cases"] if "tangency" in c)
LAMBDA_T = QUADRATIC_WELL["tangency"]["lambda_t"]


class TestClosePairs:
    """Three roots, two of them close together: the 2-D check gives each ray
    root a segment of its own, so the counters agree and verify passes."""

    CASES = {
        "abs-kernel": ({"geometry": {"kind": "ball", "n": 2, "radius": 0.5},
                        "k": 2, "p": 0.3, "q": "inf", "kernel": "abs(s-1)+1e-3"},
                       11.19167451866462),
        "below-fold-1e-6": (QUADRATIC_WELL, LAMBDA_T * (1.0 - 1e-6)),
        "below-fold-1e-9": (QUADRATIC_WELL, LAMBDA_T * (1.0 - 1e-9)),
        "below-fold-1e-14": (QUADRATIC_WELL, LAMBDA_T * (1.0 - 1e-14)),
        "narrow-well": ({"geometry": {"kind": "ball", "n": 2, "radius": 1.0},
                         "k": 1, "p": "inf", "q": 2.0,
                         "kernel": "(1000*(s - 1.001268153956326))^2 + 1"},
                        4.005111667807524),
    }

    @pytest.mark.parametrize("scale, want", [(1.0, 0), (1.05, 1)])
    @pytest.mark.parametrize("name", list(CASES))
    def test_verify(self, tmp_path, capsys, name, scale, want):
        case, lam = self.CASES[name]
        path = write_config(tmp_path, case, lam, amplitude_scale=scale)
        code, out, err = run_cli(capsys, "verify", "-c", path)
        assert code == want and err == ""
        assert "count: 3 (system check clusters=3, matched=yes)" in out


class TestScaleOfTheGeometry:
    """Instances whose check once failed a correct root for its scale alone."""

    @pytest.mark.parametrize("n, p", [(48, 3.0), (64, "inf")])
    def test_high_dimension_kelvin_suite(self, tmp_path, capsys, n, p):
        # rho^(2-n) at rho = 2^-20 overflows from n = 64 on; the removability
        # ratios are compared as logs.
        case = {"geometry": {"kind": "exterior", "n": n}, "k": 1, "p": p,
                "q": p, "kernel": "1 + s"}
        path = write_config(tmp_path, case, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", "-c", path, "--json")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 0 and err == ""
        kelvin = json.loads(out)["kelvin"]
        assert kelvin["pass"] and kelvin["removability_monotone"]
        assert -math.inf < kelvin["removability_log_shrink"] < math.log(1e-3)

    @pytest.mark.parametrize("scale, want", [(1.0, 0), (1.05, 1)])
    @pytest.mark.parametrize("n", [100, 240, 438])
    def test_kelvin_suite_up_to_max_dim(self, tmp_path, capsys, n, scale, want):
        # laplacian_identity is relative to n, and rho^(-n-2) stays below
        # 1e300: absolute, it failed from n = 100 on and read nan from n = 300.
        case = {"geometry": {"kind": "exterior", "n": n}, "k": 1, "p": "inf",
                "q": "inf", "kernel": "1 + s"}
        path = write_config(tmp_path, case, 1.0, amplitude_scale=scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "verify", "-c", path, "--json")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == want and err == ""
        assert json.loads(out)["kelvin"]["pass"]

    @pytest.mark.parametrize("scale", [0.9, 1.05])
    @pytest.mark.parametrize("n", [100, 438])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_amplitude_error_shows_at_the_sphere(self, tmp_path, capsys, n, scale, seed):
        # The residual weight r^(-n-2) hides a 5% amplitude error beyond
        # r = 1.1 at n = 100 and r = 1.03 at n = 438; the sphere r = 1 is
        # always sampled, whatever the seed.
        case = {"geometry": {"kind": "exterior", "n": n}, "k": 1, "p": "inf",
                "q": "inf", "kernel": "1 + s"}
        path = write_config(tmp_path, case, 1.0, amplitude_scale=scale, seed=seed)
        code, out, err = run_cli(capsys, "verify", "-c", path, "--json")
        checks = json.loads(out)["roots"][0]["checks"]
        assert code == 1 and err == ""
        assert not checks["interior_residual"]["pass"] and not checks["gamma_pde"]["pass"]

    @pytest.mark.parametrize("scale, want", [(1.0, 0), (1.05, 1)])
    def test_off_centre_ball(self, tmp_path, capsys, scale, want):
        # The boundary stencil's step grows with the coordinates, as
        # hessian_fd's does: at 1e-4 alone it is lost to rounding at 1e5.
        doc = {"schema_version": 1, "k": 1, "p": 2.0, "q": 2.0, "lambda": 1.0,
               "kernel": "1 + s", "amplitude_scale": scale,
               "geometry": {"kind": "ball", "dim": 3, "radius": 1.0,
                            "center": [1e5, 0.0, 0.0]}}
        path = tmp_path / "off-centre.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "-c", str(path), "--json")
        assert code == want and err == ""
        checks = json.loads(out)["roots"][0]["checks"]
        assert checks["boundary_gradient"]["pass"] == (scale == 1.0)


class TestNorms:
    def test_ball(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][3], 2.0)
        code, out, _ = run_cli(capsys, "norms", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        # p=2, q=4 distinct from inf: four rows (u@p, u@inf, grad@q, grad@inf).
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert row["rel_err"] <= doc["threshold"]

    def test_sup_exponent_dedupes(self, tmp_path, capsys):
        # p = inf collapses u@p and u@inf into one row.
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        _, out, _ = run_cli(capsys, "norms", "-c", path, "--json")
        doc = json.loads(out)
        u_rows = [r for r in doc["rows"] if r["field"] == "u"]
        assert len(u_rows) == 1 and u_rows[0]["exponent"] == "inf"

    def test_text_table(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        code, out, _ = run_cli(capsys, "norms", "-c", path)
        assert code == 0
        assert "closed form" in out and "verdict: PASS" in out

    @pytest.mark.parametrize("name", ["ball-constant", "exterior-saturating"])
    def test_library_returns_what_json_prints(self, tmp_path, capsys, name):
        case = next(c for c in BATTERY["cases"] if c["name"] == name)
        path = write_config(tmp_path, case, 1.0)
        code, out, _ = run_cli(capsys, "norms", "-c", path, "--json")
        body = json_body(out)
        assert code == 0 and body["verdict"] == "pass"
        assert body == judge_norms(make_instance(case, 1.0))


class TestPlotData:
    def test_csv_contract(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][1], 2.0)
        code, out, _ = run_cli(capsys, "plot-data", "-c", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,g,target,is_root"
        rows = list(csv.DictReader(io.StringIO(out)))
        # 3 roots merged into the 10000-point grid dump.
        assert len(rows) == 10_000 + 3
        target = {row["target"] for row in rows}
        assert len(target) == 1
        root_rows = [row for row in rows if row["is_root"] == "1"]
        assert len(root_rows) == 3
        for row in root_rows:
            assert float(row["g"]) == pytest.approx(float(row["target"]), rel=1e-9)
        s_values = [float(row["s"]) for row in rows]
        assert s_values == sorted(s_values)

    def test_output_file(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "plot-data", "-c", path, "-o", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("s,g,target,is_root\n")

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        out_file = tmp_path / "missing" / "curve.csv"
        code, out, err = run_cli(capsys, "plot-data", "-c", path, "-o", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot write {out_file}: ")
        assert err.count("\n") == 1 and not out_file.parent.exists()

    def test_no_system_check(self, tmp_path, capsys):
        # plot-data prints the scan and its roots only: the 2-D check box
        # around the root 2.5e307 would reach past a double, and that does
        # not stop the plot.
        case = {"geometry": {"kind": "ball", "n": 2, "radius": 1e154},
                "k": 1, "p": "inf", "q": "inf", "kernel": "1"}
        path = write_config(tmp_path, case, 1.0, scan={"s_max": 1e308})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "plot-data", "-c", path)
        assert code == 0 and err == ""
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10_000 + 1
        root, = (row for row in rows if row["is_root"] == "1")
        assert float(root["s"]) == pytest.approx(2.5e307, rel=1e-12)

    def test_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        _, first, _ = run_cli(capsys, "plot-data", "-c", path)
        _, second, _ = run_cli(capsys, "plot-data", "-c", path)
        assert first == second

    def test_reader_closing_early(self, tmp_path):
        # `plot-data | head -3`: the reader closes the pipe after three of the
        # 10,001 lines.  The command still exits 0 and prints no traceback.
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "odkirch.cli", "plot-data", "-c", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0 and err == ""
        assert lines[0] == "s,g,target,is_root\n" and lines[2].endswith(",0\n")


SELFTEST_CASES = ("ball n=2 k=1", "ball n=4 k=2", "exterior n=3 k=1")


class TestSelftest:
    def test_passes(self, capsys):
        code, out, err = run_cli(capsys, "selftest")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            f"selftest {case} {command}: PASS"
            for case in SELFTEST_CASES for command in ("verify", "norms")
        ] + ["selftest: all passed"]

    @pytest.mark.parametrize("geometry, norm, failing", [
        (BallGeometry, "norm_u", SELFTEST_CASES[:2]),
        (ExteriorGeometry, "norm_grad", SELFTEST_CASES[2:]),
    ])
    def test_wrong_closed_form_fails(self, capsys, monkeypatch, geometry, norm,
                                     failing):
        closed = getattr(geometry, norm)
        monkeypatch.setattr(geometry, norm,
                            lambda self, exponent: 1.05 * closed(self, exponent))
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        for case in SELFTEST_CASES:
            for command in ("verify", "norms"):
                flag = "FAIL" if case in failing else "PASS"
                assert f"selftest {case} {command}: {flag}\n" in out
        assert f"selftest: {2 * len(failing)} failed\n" in out

    def test_domain_error_is_a_fail_line(self, capsys, monkeypatch):
        def overflow(self, exponent):
            raise DomainError("closed-form norm overflows")

        monkeypatch.setattr(BallGeometry, "norm_u", overflow)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        for case in SELFTEST_CASES:
            for command in ("verify", "norms"):
                line = (f"selftest {case} {command}: FAIL "
                        f"(DomainError: closed-form norm overflows)"
                        if case.startswith("ball") else f"selftest {case} {command}: PASS")
                assert line + "\n" in out
        assert out.endswith("selftest: 4 failed\n")

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "odkirch.cli",
             "selftest"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.count(": PASS\n") == 6


class TestParser:
    """Argument errors, --help, and the parser every call of main shares."""

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["analyze"], ["plot-data", "-c", "x.json", "--json"],
        ["analyze", "-c", "x.json", "-o", "x.csv"], ["selftest", "-c", "x.json"],
    ], ids=["no-command", "unknown-command", "no-config", "plot-data-json",
            "analyze-output", "selftest-config"])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and captured.err.startswith("usage:")

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        for command in ("analyze", "verify", "norms", "plot-data", "selftest"):
            assert command in out

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        argvs = [["analyze", "-c", path, "--json"], ["analyze", "-c", path],
                 ["plot-data", "-c", path], ["verify", "-c", path, "--json"]]
        first = []
        for argv in argvs:
            cli._parser.cache_clear()
            first.append(run_cli(capsys, *argv))
        cli._parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in argvs] == first
        assert cli._parser.cache_info().misses == 1

    def test_not_built_at_import(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import odkirch.cli as cli; print(cli._parser.cache_info().misses)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0 and proc.stdout == "0\n"


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "analyze", "-c", str(tmp_path / "nope.json"))
        assert code == 2 and "config error" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "analyze", "-c", str(path))
        assert code == 2 and "config error" in err

    def test_bad_kernel_syntax(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BATTERY["cases"][0], kernel="s +"), 3.0)
        code, _, err = run_cli(capsys, "analyze", "-c", str(path))
        assert code == 2 and "config error" in err

    @pytest.mark.parametrize("kernel", [
        "-" * 3000 + "s", "+".join(["s"] * 400), "(" * 1500 + "s" + ")" * 1500,
        "^".join(["s"] * 2001)], ids=["minus-chain", "sum", "parentheses", "tower"])
    def test_overlong_kernel_is_config_error(self, tmp_path, capsys, kernel):
        path = write_config(tmp_path, dict(BATTERY["cases"][0], kernel=kernel), 3.0)
        code, out, err = run_cli(capsys, "analyze", "-c", path)
        assert code == 2 and out == ""
        assert err.startswith("config error: bad kernel expression: kernel longer than 200")

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "is not valid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "analyze", "-c", str(path))
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and message in err

    def test_domain_violation(self, tmp_path, capsys):
        case = dict(BATTERY["cases"][4])  # exterior
        case = dict(case, k=2)
        path = write_config(tmp_path, case, 1.0)
        code, _, err = run_cli(capsys, "analyze", "-c", path)
        assert code == 3 and "domain error" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_target_overflow_is_domain_error(self, tmp_path, capsys, command):
        # ||U||_0.3 of the ball n=9, R=40 is 6.7e51; its 8th power overflows.
        case = {"geometry": {"kind": "ball", "n": 9, "radius": 40.0},
                "k": 8, "p": 0.3, "q": 2.0, "kernel": "1 + t"}
        path = write_config(tmp_path, case, 1.0)
        code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and "overflows" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "norms"])
    def test_closed_form_norm_overflow_is_domain_error(self, tmp_path, capsys,
                                                       command):
        # ||U||_0.3 of the ball n=9, R=1e30 is about exp(2.2e3), past a double.
        case = {"geometry": {"kind": "ball", "n": 9, "radius": 1e30},
                "k": 1, "p": 0.3, "q": 2.0, "kernel": "1 + t"}
        path = write_config(tmp_path, case, 1.0)
        code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and "overflows" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "norms"])
    @pytest.mark.parametrize("radius, p, q, norm", [
        (1e-100, 2.0, 2.0, "||U||_2"),
        (1e-100, 2.0, "inf", "||U||_2"),
        (1e-162, "inf", 2.0, "||U||_inf"),
        (1e-162, "inf", "inf", "||U||_inf"),
        (1e-150, "inf", 2.0, "||grad U||_2"),
    ])
    def test_closed_form_norm_underflow_is_domain_error(self, tmp_path, capsys,
                                                        command, radius, p, q, norm):
        # ||U||_2 is about R^3.5, ||U||_inf = R^2 / 2 and ||grad U||_2 about
        # R^2.5: each is 0 in a double.
        case = {"geometry": {"kind": "ball", "n": 3, "radius": radius},
                "k": 1, "p": p, "q": q, "kernel": "1 + t"}
        path = write_config(tmp_path, case, 1.0)
        code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err
        assert f"closed-form {norm}" in err and "underflows to 0" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "verify", "norms"])
    def test_radius_squared_overflow_is_domain_error(self, tmp_path, capsys, command):
        # R^2 = 1e400 is past a double: ||U||_inf = R^2 / 2 and the profile
        # phi = (r^2 - R^2) / 2 cannot be formed.
        case = {"geometry": {"kind": "ball", "n": 2, "radius": 1e200},
                "k": 1, "p": "inf", "q": "inf", "kernel": "1"}
        path = write_config(tmp_path, case, 1.0)
        code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and "overflows" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("radius, q, kernel, message, extra", [
        # The default s_max overflows.
        pytest.param(1e154, "inf", "1", "not finite", {}, id="1e+154-inf-1-not finite"),
        # g = target on an interval.
        pytest.param(2.0, 2.0, "1/s", "interval", {}, id="2.0-2.0-1/s-interval"),
        # The ball-constant case with s_min above its default s_max of 1e3.
        pytest.param(1.0, 2.0, "1", "scan range empty: [10000.0, 1000.0]",
                     {"scan": {"s_min": 1e4}}, id="1.0-2.0-1-scan range empty"),
    ])
    def test_degenerate_scan_is_domain_error(self, tmp_path, capsys, command,
                                             radius, q, kernel, message, extra):
        case = {"geometry": {"kind": "ball", "n": 2, "radius": radius},
                "k": 1, "p": "inf", "q": q, "kernel": kernel}
        path = write_config(tmp_path, case, 1.0, **extra)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and message in err
        assert out == "" and "Traceback" not in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("extra, message", [
        # JSON reads 1e999 as inf; json.dumps writes it back as Infinity.
        ({"scan": {"s_max": math.inf}}, "scan window"),
        pytest.param({"geometry": {"kind": "ball", "dim": 2, "radius": 1.0,
                                   "center": [math.inf, 0]}}, "center", id="extra4-center"),
        pytest.param({"geometry": {"kind": "ball", "dim": 2, "radius": 1.0,
                                   "center": [math.nan, 0]}}, "center", id="extra5-center"),
    ])
    def test_non_finite_scan_or_center_is_domain_error(self, tmp_path, capsys,
                                                       command, extra, message):
        case = {"geometry": {"kind": "ball", "n": 2, "radius": 1.0},
                "k": 1, "p": "inf", "q": "inf", "kernel": "1 + s"}
        path = write_config(tmp_path, case, 1.0, **extra)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and message in err
        assert "finite" in err and out == "" and "Traceback" not in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_box_edge_overflow_is_domain_error(self, tmp_path, capsys, command):
        # The root 2.5e307 is found, but the 2-D box around it reaches
        # 10 * 2.5e307, past a double; g itself overflows on the scan grid.
        case = {"geometry": {"kind": "ball", "n": 2, "radius": 1e154},
                "k": 1, "p": "inf", "q": "inf", "kernel": "1"}
        path = write_config(tmp_path, case, 1.0, scan={"s_max": 1e308})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err
        assert "box edge s_hi = inf is not finite" in err
        assert out == "" and "Traceback" not in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("command", ["analyze", "verify", "norms"])
    @pytest.mark.parametrize("geometry, scan", [
        ({"kind": "ball", "n": 10 ** 400, "radius": 1.0}, {}),
        ({"kind": "exterior", "n": 10 ** 400}, {}),
        # The surface measure of the unit sphere in R^1000 underflows to 0.
        ({"kind": "ball", "n": 1000, "radius": 1.0}, {}),
        ({"kind": "ball", "n": 2, "radius": 1.0}, {"n_grid": 10 ** 400}),
    ])
    def test_huge_dimension_or_grid_is_config_error(self, tmp_path, capsys, command,
                                                    geometry, scan):
        case = {"geometry": geometry, "k": 1, "p": 2.0, "q": 2.0, "kernel": "1"}
        extra = {"scan": scan} if scan else {}
        path = write_config(tmp_path, case, 1.0, **extra)
        code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 2 and "config error" in err and "must be at most" in err
        assert out == "" and "Traceback" not in err

    def test_largest_dimension_runs(self, tmp_path, capsys):
        case = {"geometry": {"kind": "ball", "n": 438, "radius": 1.0},
                "k": 1, "p": 2.0, "q": 2.0, "kernel": "1"}
        path = write_config(tmp_path, case, 1.0)
        code, out, err = run_cli(capsys, "analyze", "-c", path)
        assert code == 0 and err == "" and "ball n=438" in out

    def test_kernel_eval_fault(self, tmp_path, capsys):
        case = dict(BATTERY["cases"][0], kernel="log(s - 10)")
        path = write_config(tmp_path, case, 3.0)
        code, _, err = run_cli(capsys, "analyze", "-c", path)
        assert code == 4 and "kernel fault" in err

    def test_verify_failure_is_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0,
                            amplitude_scale=0.9)
        code, _, _ = run_cli(capsys, "verify", "-c", path)
        assert code == 1

    # Ball q = 1e300: the verify quadrature of |grad u|^q with amplitude 1.5
    # overflows.  Exterior p = q = 1e300: the closed forms are finite, so
    # analyze counts the root, but |u|^p underflows in the quadrature norms.
    @pytest.mark.parametrize("geometry, p, command", [
        ({"kind": "ball", "n": 2, "radius": 1.0}, "inf", "verify"),
        ({"kind": "exterior", "n": 3}, 1e300, "analyze"),
        ({"kind": "exterior", "n": 3}, 1e300, "verify"),
        ({"kind": "exterior", "n": 3}, 1e300, "norms"),
    ])
    def test_overflowing_integrand_is_one_error_line(self, tmp_path, capsys,
                                                      geometry, p, command):
        case = {"geometry": geometry, "k": 1, "p": p, "q": 1e300, "kernel": "1"}
        path = write_config(tmp_path, case, 3.0)
        code, out, err = run_cli(capsys, command, "-c", path)
        if command == "analyze":
            assert code == 0 and err == "" and "count          1" in out
            return
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("domain error:")


    # At amplitude_scale 1e300 the k-Hessians, profiles and residuals of these
    # runs overflow; each non-finite value fails its check, with no numpy
    # RuntimeWarning on stderr.
    @pytest.mark.parametrize("doc", [
        {"geometry": {"kind": "ball", "dim": 2, "radius": 0.5}, "k": 2, "p": 0.3,
         "q": "inf", "lambda": 11.19167451866462, "kernel": "abs(s-1)+1e-3"},
        {"geometry": {"kind": "exterior", "dim": 64}, "k": 1, "p": "inf", "q": "inf",
         "lambda": 1.0, "kernel": "1 + s"},
    ], ids=["item3-abs-merge", "exterior-n64"])
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_overflowing_field_fails_without_warnings(self, tmp_path, capsys, doc, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema_version": 1, **doc, "amplitude_scale": 1e300}))
        code, out, err = run_cli(capsys, "verify", "-c", str(path), *flags)
        assert code == 1 and err == ""
        if flags:
            assert json.loads(out)["verdict"] == "fail"
        else:
            assert "verdict: FAIL" in out


class TestExteriorTails:
    """Exterior exponents close to the integrability threshold."""

    @staticmethod
    def config(tmp_path, n, p, q):
        case = {"geometry": {"kind": "exterior", "n": n}, "k": 1, "p": p,
                "q": q, "kernel": "1 + t"}
        return write_config(tmp_path, case, 1.0)

    @pytest.mark.parametrize("command", ["verify", "norms"])
    @pytest.mark.parametrize("n, p, q", [(9, 20.0, 2.0), (4, 2.05, 2.0),
                                         (3, 3.05, 2.0)])
    def test_near_threshold_passes(self, tmp_path, capsys, command, n, p, q):
        path = self.config(tmp_path, n, p, q)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 0 and err == ""
        assert "verdict: PASS" in out
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("command", ["verify", "norms"])
    def test_underflowing_gradient_is_domain_error(self, tmp_path, capsys, command):
        # q = 1.52 is 0.02 above the threshold 3/2: dphi underflows to 0
        # long before the mass of |dphi|^q r^2 is exhausted.
        path = self.config(tmp_path, 3, 3.1, 1.52)
        code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and "underflows to 0" in err
        assert out == "" and "Traceback" not in err



class TestHugeExponents:
    """Instances whose closed form or quadrature norm once overflowed, or
    came back 0 or wrong without an error and so failed a correct root.
    Each command now ends in a verdict or in one typed error line."""

    # name: (geometry, p, q, lambda, kernel, verify exit, norms exit)
    CASES = {
        "exterior-q1000": ({"kind": "exterior", "n": 3}, 4.0, 1000.0, 1.0,
                           "1 + t", 3, 0),
        "exterior-p600": ({"kind": "exterior", "n": 3}, 600.0, "inf", 1.0,
                          "1 + s", 3, 3),
        "exterior-p1e300": ({"kind": "exterior", "n": 3}, 1e300, 1e300, 3.0,
                            "1", 3, 3),
        "ball-r0.01-p70": ({"kind": "ball", "n": 2, "radius": 0.01}, 70.0, 2.0,
                           1.0, "1 + t", 3, 0),
        "ball-q1e300": ({"kind": "ball", "n": 2, "radius": 1.0}, "inf", 1e300,
                        3.0, "1", 3, 3),
        "ball-p1e300": ({"kind": "ball", "n": 2, "radius": 1.0}, 1e300, 2.0,
                        3.0, "1", 3, 3),
        # The default window misses the root s = 1.63e-176, so verify has
        # nothing to check; ||U||_2 is 4.89e-176 and its integral underflows.
        "ball-r1e-50": ({"kind": "ball", "n": 3, "radius": 1e-50}, 2.0, 2.0,
                        1.0, "1 + t", 0, 3),
    }

    @classmethod
    def config(cls, tmp_path, name, **extra):
        geometry, p, q, lam, kernel, _, _ = cls.CASES[name]
        case = {"geometry": geometry, "k": 1, "p": p, "q": q, "kernel": kernel}
        return write_config(tmp_path, case, lam, **extra)

    def test_exterior_q1000_counts_its_root(self, tmp_path, capsys):
        # The incomplete beta's integrand overflowed here from q of about 323.
        path = self.config(tmp_path, "exterior-q1000")
        code, out, err = run_cli(capsys, "analyze", "-c", path)
        assert code == 0 and err == "" and "count          1\n" in out
        code, out, err = run_cli(capsys, "norms", "-c", path)
        assert code == 0 and err == "" and "verdict: PASS" in out

    @pytest.mark.parametrize("command", ["verify", "norms"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_verdict_or_one_error_line(self, tmp_path, capsys, name, command):
        want = self.CASES[name][5 if command == "verify" else 6]
        code, out, err = run_cli(capsys, command, "-c", self.config(tmp_path, name))
        assert code == want
        if code == 3:
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("domain error:")
        else:
            assert err == "" and "verdict: PASS" in out

    def test_corrupted_exterior_field_still_fails(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"]
                    if c["name"] == "exterior-saturating")
        path = write_config(tmp_path, case, 1.0, amplitude_scale=1.05)
        code, out, err = run_cli(capsys, "verify", "-c", path)
        assert code == 1 and err == "" and "verdict: FAIL" in out


def reference_json(obj, indent: int = 0) -> str:
    """The isinstance walk that canonical_json dispatches around: the
    reference its bytes must match."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return cli._format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + reference_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {reference_json(obj[key], indent + 1)}"
            for key in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class TestCanonicalJson:
    EDGE = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 0.1, 1e22,
        np.float64(1.0 / 3.0), np.float32(0.1), np.float64(math.nan), np.float64(-math.inf),
        np.int64(-7), np.int32(3), np.bool_(True), np.bool_(False), True, False, 0, -12,
        10 ** 30, None, {"a": True, "b": 1, "c": [False, 0, 1, True]}, [], {}, (),
        [[], {}, ()], {"x": {}}, (1, 2.5, "t"), "", "plain", "caf\u00e9 \u2603 \U0001f600",
        "\x00\x01\x1f\x7f \n\t\r \" \\ /", {"k\u00e9y\n": "\u2028"}, {3: "int key"},
        [np.float64(2.0), np.int64(2), np.bool_(True)],
    ]

    @pytest.mark.parametrize("value", EDGE, ids=repr)
    def test_edge_values(self, value):
        assert cli.canonical_json(value) == reference_json(value)
        assert cli.canonical_json([value], 2) == reference_json([value], 2)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            cli.canonical_json({"a": {1}})

    def test_battery_records(self):
        # Every battery run's analyze, verify and norms records.
        for case in BATTERY["cases"]:
            for run in case["runs"]:
                cfg = build_config(config_doc(case, run["lambda"]))
                for command in ("analyze", "verify", "norms"):
                    record = cli._record(command, cfg)
                    assert cli.canonical_json(record) == reference_json(record)


class TestPolicyHome:
    def test_cli_holds_no_pass_fail_policy(self):
        # Gates, quadrature and judges live in the library; the CLI renders
        # the records of judge_run and judge_norms.
        tree = ast.parse(Path(cli.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names
                             for part in (alias.name, alias.asname) if part)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert "judge_run" in names and "judge_norms" in names
        policy = {"THRESHOLDS", "norm_quadrature", "verify", "gamma_scaling_check",
                  "judge_kelvin"}
        assert names.isdisjoint(policy), names & policy


class TestResidentModules:
    def test_verify_imports_no_numpy_random(self, tmp_path):
        # The verifier samples with the standard library's generator:
        # numpy.random would import secrets, hmac and OpenSSL's hashlib,
        # 5.7 MB resident.  The exterior instance runs the Kelvin suite too.
        path = write_config(tmp_path, BATTERY["cases"][4], 1.0)
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import contextlib, io, sys\n"
            "from odkirch.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    code = main(['verify', '-c', {path!r}, '--json'])\n"
            "print(code, '\"kelvin\": {' in out.getvalue(), sorted(\n"
            "    name for name in ('numpy.random', 'secrets', '_hashlib')\n"
            "    if name in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 True []\n"
