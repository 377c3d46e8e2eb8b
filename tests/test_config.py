"""Configuration schema: validation, defaults, round-trips."""

import json
import math
import sys

import pytest

from odkirch.base_solutions import BallGeometry, ExteriorGeometry
from odkirch.cli import main
from odkirch.config import MAX_DIM, MAX_GRID, build_config, config_to_dict, load_config
from odkirch.errors import ConfigError, DomainError
from odkirch.specialfun import sphere_area


def base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "geometry": {"kind": "ball", "dim": 2, "radius": 1.0},
        "k": 1,
        "p": "inf",
        "q": 2,
        "lambda": 3.0,
        "kernel": "1",
    }
    doc.update(overrides)
    return doc


class TestBuildConfig:
    def test_minimal_document(self):
        cfg = build_config(base_doc())
        assert isinstance(cfg.instance.geometry, BallGeometry)
        assert cfg.instance.p == math.inf
        assert cfg.instance.q == 2.0
        assert cfg.instance.lam == 3.0
        assert cfg.seed == 0
        assert cfg.amplitude_scale == 1.0
        assert cfg.scan.n_grid == 10_000

    def test_exterior_document(self):
        cfg = build_config(base_doc(
            geometry={"kind": "exterior", "dim": 3}, p=4, q=2, kernel="1/(1+s*t)",
        ))
        assert isinstance(cfg.instance.geometry, ExteriorGeometry)
        assert cfg.instance.geometry.n == 3

    def test_scan_overrides(self):
        cfg = build_config(base_doc(scan={"s_min": 1e-6, "s_max": 50.0,
                                          "n_grid": 2000}))
        assert cfg.scan.s_min == 1e-6
        assert cfg.scan.s_max == 50.0
        assert cfg.scan.n_grid == 2000

    def test_null_s_max_means_auto(self):
        cfg = build_config(base_doc(scan={"s_max": None}))
        assert cfg.scan.s_max is None

    def test_ball_center(self):
        cfg = build_config(base_doc(
            geometry={"kind": "ball", "dim": 2, "radius": 1.0, "center": [1, 2]},
        ))
        assert cfg.instance.geometry.center == (1.0, 2.0)

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            ({"schema_version": 2}, "schema_version"),
            ({"extra": 1}, "unknown key"),
            ({"p": -2}, "'p'"),
            ({"p": "two"}, "'p'"),
            ({"p": True}, "'p'"),
            ({"k": 1.5}, "'k'"),
            ({"k": True}, "'k'"),
            ({"lambda": "three"}, "'lambda'"),
            ({"kernel": "s +"}, "bad kernel"),
            ({"kernel": 7}, "'kernel'"),
            ({"seed": -1}, "'seed'"),
            ({"seed": 1.5}, "'seed'"),
            ({"amplitude_scale": 0.0}, "amplitude_scale"),
            ({"scan": {"bogus": 1}}, "unknown scan key"),
            ({"scan": {"n_grid": "many"}}, "n_grid"),
            ({"scan": 5}, "'scan'"),
            ({"geometry": {"kind": "torus", "dim": 2}}, "geometry kind"),
            ({"geometry": {"kind": "exterior", "dim": 3, "radius": 1.0}},
             "does not apply"),
            ({"geometry": {"kind": "ball", "dim": 2}}, "radius"),
            ({"geometry": 5}, "geometry"),
        ],
    )
    def test_malformed_documents(self, mutation, fragment):
        doc = base_doc(**mutation)
        with pytest.raises(ConfigError, match=fragment):
            build_config(doc)

    def test_missing_keys(self):
        for key in ("schema_version", "geometry", "k", "p", "q", "lambda", "kernel"):
            doc = base_doc()
            del doc[key]
            with pytest.raises(ConfigError):
                build_config(doc)

    def test_domain_violations_are_domain_errors(self):
        # Schema-valid but mathematically inadmissible: DomainError, not ConfigError.
        with pytest.raises(DomainError):
            build_config(base_doc(geometry={"kind": "exterior", "dim": 3},
                                  p=2, q=2))
        with pytest.raises(DomainError):
            build_config(base_doc(k=5))
        with pytest.raises(DomainError):
            build_config(base_doc(**{"lambda": -1.0}))

    def test_non_dict_root(self):
        with pytest.raises(ConfigError):
            build_config([1, 2, 3])


# A JSON integer past the largest double: json reads it as an exact int.
HUGE = 10 ** 400


class TestIntegerOverflow:
    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            ({"lambda": HUGE}, "'lambda'"),
            ({"geometry": {"kind": "ball", "dim": 2, "radius": HUGE}}, "'radius'"),
            ({"geometry": {"kind": "ball", "dim": 2, "radius": 1.0,
                           "center": [0, HUGE]}}, "'center'"),
            ({"p": HUGE}, "'p'"),
            ({"q": HUGE}, "'q'"),
            ({"scan": {"s_min": HUGE}}, "'s_min'"),
            ({"scan": {"s_max": HUGE}}, "'s_max'"),
            ({"scan": {"rel_width": HUGE}}, "'rel_width'"),
            pytest.param({"amplitude_scale": HUGE}, "'amplitude_scale'",
                         id="mutation9-'amplitude_scale'"),
        ],
    )
    def test_config_error_exit_two(self, tmp_path, capsys, mutation, fragment):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_doc(**mutation)))
        assert str(HUGE) in path.read_text()
        with pytest.raises(ConfigError, match=f"{fragment}.*too large for a double"):
            load_config(str(path))
        assert main(["analyze", "-c", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_largest_double_still_reads(self):
        # 2^1024 - 2^971 is the largest finite double, exactly representable.
        big = 2 ** 1024 - 2 ** 971
        cfg = build_config(base_doc(**{"lambda": big}))
        assert cfg.instance.lam == float(big)


class TestIntegerBounds:
    def test_bounds_are_inclusive(self):
        cfg = build_config(base_doc(
            geometry={"kind": "exterior", "dim": MAX_DIM}, scan={"n_grid": MAX_GRID}))
        assert cfg.instance.geometry.n == MAX_DIM and cfg.scan.n_grid == MAX_GRID

    @pytest.mark.parametrize("mutation, fragment", [
        ({"geometry": {"kind": "ball", "dim": MAX_DIM + 1, "radius": 1.0}}, "'dim'"),
        ({"geometry": {"kind": "exterior", "dim": HUGE}}, "'dim'"),
        ({"scan": {"n_grid": MAX_GRID + 1}}, "'n_grid'"),
        ({"scan": {"n_grid": HUGE}}, "'n_grid'"),
    ])
    def test_above_bound_is_config_error(self, mutation, fragment):
        with pytest.raises(ConfigError, match=f"{fragment} must be at most"):
            build_config(base_doc(**mutation))

    def test_max_dim_is_last_normal_sphere_area(self):
        assert sphere_area(MAX_DIM) >= sys.float_info.min
        with pytest.raises(DomainError):
            sphere_area(MAX_DIM + 1)


class TestRoundTrip:
    def test_dict_round_trip(self):
        doc = base_doc(
            geometry={"kind": "ball", "dim": 3, "radius": 1.5, "center": [0.0, 0.0, 1.0]},
            k=2, p=2, q=4, kernel="1 + t",
            scan={"s_min": 1e-7, "s_max": 100.0, "n_grid": 5000,
                  "rel_width": 1e-12},
            seed=3, amplitude_scale=1.25,
        )
        cfg = build_config(doc)
        out = config_to_dict(cfg)
        assert build_config(out) == cfg
        # Idempotent: dumping the rebuilt config changes nothing.
        assert config_to_dict(build_config(out)) == out

    def test_inf_survives_round_trip(self):
        cfg = build_config(base_doc())
        out = config_to_dict(cfg)
        assert out["p"] == "inf"
        assert build_config(out).instance.p == math.inf

    def test_kernel_normalized_not_lost(self):
        cfg = build_config(base_doc(kernel="(s-2)^2 + 0.1"))
        out = config_to_dict(cfg)
        assert build_config(out).instance.kernel == cfg.instance.kernel


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_doc()))
        cfg = load_config(str(path))
        assert cfg.instance.lam == 3.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))
