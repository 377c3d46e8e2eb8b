"""Run configuration: one JSON document fully describes a problem instance.

Schema (version 1):

    {
      "schema_version": 1,
      "geometry": {"kind": "ball", "dim": 3, "radius": 1.0, "center": [0, 0, 0]}
                | {"kind": "exterior", "dim": 3},
      "k": 1,
      "p": 2.0 | "inf",
      "q": 2.0 | "inf",
      "lambda": 1.0,
      "kernel": "1 + s^2",
      "scan": {"s_min": 1e-8, "s_max": null, "n_grid": 10000,
               "rel_width": 1e-13},                  # optional, defaults shown
      "seed": 0,                                      # optional
      "amplitude_scale": 1.0                          # optional, verify only
    }

"center" is optional (origin).  "dim" is at most 438 (MAX_DIM): beyond it the
surface measure of the unit sphere, 2 pi^(n/2) / Gamma(n/2), falls below the
smallest normal double.  "s_max": null lets the scan pick its own upper
bound.  "n_grid" is at most 10^6 (MAX_GRID), which keeps the scan's arrays
within tens of megabytes.  "rel_width" is the relative bracket width at which
root refinement stops (0 < rel_width < 1e-2).
"amplitude_scale" deliberately corrupts candidates before verification; any
value other than 1.0 must drive `verify` to a failing exit, which is how the
failure path is exercised.

Malformed documents raise ConfigError; domain violations (non-integrable
exponents, k out of range, a non-finite "center", "s_min" or "s_max") raise
DomainError; kernel syntax problems are configuration problems and also raise
ConfigError.
"""

import json
import math
from dataclasses import dataclass

from .base_solutions import BallGeometry, ExteriorGeometry
from .errors import ConfigError, KernelSyntaxError
from .kernel import kernel_to_string, parse_kernel
from .reduction import ProblemInstance, ScanConfig

SCHEMA_VERSION = 1
MAX_DIM = 438
MAX_GRID = 10 ** 6


@dataclass(frozen=True)
class RunConfig:
    instance: ProblemInstance
    scan: ScanConfig
    seed: int = 0
    amplitude_scale: float = 1.0


def _require(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise ConfigError(f"missing key '{key}' in {where}")
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' in {where} has type "
                          f"{type(value).__name__}")
    return value


def _number(value, where: str) -> float:
    """float(value); ConfigError for an integer too large for a double."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a double") from None


def _exponent(value, key: str) -> float:
    if isinstance(value, str) and value.strip().lower() == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = _number(value, f"'{key}'")
        if math.isfinite(out) and out > 0.0:
            return out
    raise ConfigError(f"key '{key}' must be a positive number or \"inf\", "
                      f"got {value!r}")


def _geometry(doc):
    if not isinstance(doc, dict):
        raise ConfigError("'geometry' must be an object")
    kind = _require(doc, "kind", str, "geometry")
    dim = _require(doc, "dim", int, "geometry")
    if dim > MAX_DIM:
        raise ConfigError(f"'dim' must be at most {MAX_DIM}")
    if kind == "ball":
        radius = _number(_require(doc, "radius", (int, float), "geometry"), "'radius'")
        center = doc.get("center", [])
        if not isinstance(center, list) or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in center):
            raise ConfigError("'center' must be a list of numbers")
        return BallGeometry(n=dim, radius=radius,
                            center=tuple(_number(c, "'center' entry") for c in center))
    if kind == "exterior":
        for extra in ("radius", "center"):
            if extra in doc:
                raise ConfigError(f"'{extra}' does not apply to exterior geometry")
        return ExteriorGeometry(n=dim)
    raise ConfigError(f"unknown geometry kind {kind!r}")


def build_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and assemble the run configuration."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    version = _require(doc, "schema_version", int, "configuration")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}, "
                          f"this build reads version {SCHEMA_VERSION}")
    known = {"schema_version", "geometry", "k", "p", "q", "lambda", "kernel",
             "scan", "seed", "amplitude_scale"}
    if unknown := [key for key in doc if key not in known]:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    geometry = _geometry(_require(doc, "geometry", dict, "configuration"))
    k = _require(doc, "k", int, "configuration")
    p = _exponent(doc["p"] if "p" in doc else None, "p")
    q = _exponent(doc["q"] if "q" in doc else None, "q")
    lam = _number(_require(doc, "lambda", (int, float), "configuration"), "'lambda'")
    kernel_text = _require(doc, "kernel", str, "configuration")
    try:
        kernel = parse_kernel(kernel_text)
    except KernelSyntaxError as exc:
        raise ConfigError(f"bad kernel expression: {exc}") from exc

    scan_doc = doc.get("scan", {})
    if not isinstance(scan_doc, dict):
        raise ConfigError("'scan' must be an object")
    scan_kwargs = {}
    scan_fields = {"s_min": (int, float), "s_max": (int, float, type(None)),
                   "n_grid": int, "rel_width": (int, float)}
    for key, kinds in scan_fields.items():
        if key in scan_doc:
            value = scan_doc[key]
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ConfigError(f"scan key '{key}' has type {type(value).__name__}")
            if key == "n_grid" and value > MAX_GRID:
                raise ConfigError(f"scan key 'n_grid' must be at most {MAX_GRID}")
            scan_kwargs[key] = (value if key == "n_grid" or value is None
                                else _number(value, f"scan key '{key}'"))
    if unknown := [key for key in scan_doc if key not in scan_fields]:
        raise ConfigError(f"unknown scan key {unknown[0]!r}")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a non-negative integer, got {seed!r}")
    amplitude_scale = doc.get("amplitude_scale", 1.0)
    if (not isinstance(amplitude_scale, (int, float))
            or isinstance(amplitude_scale, bool)
            or not math.isfinite(_number(amplitude_scale, "'amplitude_scale'"))
            or amplitude_scale <= 0.0):
        raise ConfigError("'amplitude_scale' must be a positive finite number")

    instance = ProblemInstance(geometry=geometry, k=k, p=p, q=q, lam=lam,
                               kernel=kernel)
    return RunConfig(instance=instance, scan=ScanConfig(**scan_kwargs),
                     seed=seed, amplitude_scale=float(amplitude_scale))


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path} is nested too deeply to read") from None
    return build_config(doc)


def exponent_doc(x: float):
    """An exponent as a document holds it: the number, or "inf"."""
    return "inf" if math.isinf(x) else x


def config_to_dict(cfg: RunConfig) -> dict:
    """Inverse of build_config, up to default filling; round-trips exactly."""
    scan = cfg.scan
    return {
        "schema_version": SCHEMA_VERSION,
        "geometry": cfg.instance.geometry.to_doc(),
        "k": cfg.instance.k,
        "p": exponent_doc(cfg.instance.p),
        "q": exponent_doc(cfg.instance.q),
        "lambda": cfg.instance.lam,
        "kernel": kernel_to_string(cfg.instance.kernel),
        "scan": {"s_min": scan.s_min, "s_max": scan.s_max,
                 "n_grid": scan.n_grid, "rel_width": scan.rel_width},
        "seed": cfg.seed,
        "amplitude_scale": cfg.amplitude_scale,
    }
