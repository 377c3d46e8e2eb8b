"""Command-line interface: output shape, determinism, exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

from odkirch.cli import main

from conftest import load_battery

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

    def test_exterior_case(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"]
                    if c["name"] == "exterior-saturating")
        path = write_config(tmp_path, case, 1.0)
        code, out, _ = run_cli(capsys, "analyze", "-c", path, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 2
        assert doc["rho"] == pytest.approx(case["rho"], rel=1e-10)


class TestVerify:
    def test_ball_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        code, out, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["kelvin"] is None
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
            "boundary_identity", "orthogonality", "pythagoras",
            "double_transform",
        }

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

    def test_deterministic(self, tmp_path, capsys):
        case = next(c for c in BATTERY["cases"]
                    if c["name"] == "exterior-saturating")
        path = write_config(tmp_path, case, 1.0)
        _, first, _ = run_cli(capsys, "verify", "-c", path, "--json")
        _, second, _ = run_cli(capsys, "verify", "-c", path, "--json")
        assert first == second


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

    def test_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, BATTERY["cases"][0], 3.0)
        _, first, _ = run_cli(capsys, "plot-data", "-c", path)
        _, second, _ = run_cli(capsys, "plot-data", "-c", path)
        assert first == second


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.count("PASS") == 7
        assert "all passed" in out


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
    @pytest.mark.parametrize("radius, q, kernel, message", [
        (1e154, "inf", "1", "not finite"),      # default s_max overflows
        (2.0, 2.0, "1/s", "interval"),           # g = target on an interval
    ])
    def test_degenerate_scan_is_domain_error(self, tmp_path, capsys, command,
                                             radius, q, kernel, message):
        case = {"geometry": {"kind": "ball", "n": 2, "radius": radius},
                "k": 1, "p": "inf", "q": q, "kernel": kernel}
        path = write_config(tmp_path, case, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "-c", path)
        assert code == 3 and "domain error" in err and message in err
        assert out == "" and "Traceback" not in err
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
