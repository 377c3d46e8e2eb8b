"""odkirch benchmark: one seeded workload, end to end or traced per layer.

    python3 benchmarks/run.py --workload verify-sup --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; odkirch is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Detailed results go to .bench_out/.  See
benchmarks/README.md for the workloads, the metrics and the calibration.
"""

import os

# One caller, no extra threads: pin the BLAS pools before numpy is imported,
# here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100            # p90 then has at least ten samples beyond it
SETUP_SPAWNS = 12        # timed interpreter starts for setup_s, after one warm-up
WORKER_TIMEOUT_S = 150

LAYERS = ("cli", "config", "reduction", "kernel", "quadrature",
          "base_solutions", "verifier", "hessian")
# per-layer ms metric -> (span name, inclusive or self time)
LAYER_MS = {
    "cli.main.self_ms": ("cli.main", "self"),
    "config.load_config.ms": ("config.load_config", "incl"),
    "cli.canonical_json.ms": ("cli.canonical_json", "incl"),
    "reduction.build_reduced.ms": ("reduction.build_reduced", "incl"),
    "reduction.solve_roots.ms": ("reduction.solve_roots", "incl"),
    "reduction.system_count_check.ms": ("reduction.system_count_check", "incl"),
    "reduction.roots_to_solutions.ms": ("reduction.roots_to_solutions", "incl"),
    "kernel.eval_kernel.self_ms": ("kernel.eval_kernel", "self"),
    "quadrature.maximize.ms": ("quadrature.maximize", "incl"),
    "quadrature.integrate.ms": ("quadrature.integrate", "incl"),
    "quadrature.integrate_decaying.ms": ("quadrature.integrate_decaying", "incl"),
    "base_solutions.norm_quadrature.ms": ("base_solutions.norm_quadrature", "incl"),
    "verifier.verify.ms": ("verifier.verify", "incl"),
    "verifier.gamma_scaling_check.ms": ("verifier.gamma_scaling_check", "incl"),
    "verifier.kelvin_checks.ms": ("verifier.kelvin_checks", "incl"),
    "hessian.k_hessian_radial.ms": ("hessian.k_hessian_radial", "incl"),
}
LAYER_COUNTS = (
    "reduction.solve_roots.kernel_scalar_calls",
    "kernel.eval_kernel.scalar_calls",
    "kernel.eval_kernel.array_calls",
    "kernel.eval_kernel.points",
    "quadrature.maximize.f_evals",
    "quadrature.golden_max.f_evals",
    "quadrature.integrate.panels",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def _spawn_seconds(code: str, env: dict) -> float:
    """Seconds from starting a fresh interpreter to the end of `code`.

    The child reads the monotonic clock after running `code`; on Linux
    perf_counter is CLOCK_MONOTONIC, shared by all processes, so process
    teardown is left out.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}; import time; print(repr(time.perf_counter()))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter start failed: {proc.stderr.strip()}")
    return float(proc.stdout) - t0


def measure_setup(refwork) -> tuple:
    """Median calibrated and raw seconds from interpreter start to `import odkirch.cli`.

    Starts alternate with the standard-library reference start, so every
    timed start has a reference right before and right after it.
    """
    env = _child_env()
    _spawn_seconds("import odkirch.cli", env)     # warm-up: fills the bytecode cache
    ref_prev = _spawn_seconds(refwork.SPAWN_REFERENCE, env)
    calibrated, raw = [], []
    for _ in range(SETUP_SPAWNS):
        wall = _spawn_seconds("import odkirch.cli", env)
        ref_next = _spawn_seconds(refwork.SPAWN_REFERENCE, env)
        raw.append(wall)
        calibrated.append(wall * refwork.calibration_factor(
            ref_prev, ref_next, refwork.SPAWN_REF_FIXED_S))
        ref_prev = ref_next
    return statistics.median(calibrated), statistics.median(raw)


def run_worker(plan: dict, workdir: Path) -> dict:
    plan_path = workdir / "plan.json"
    result_path = workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           str(plan_path), str(result_path)],
                          env=_child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(records, result, setup) -> dict:
    times = [r["wall"] * r["factor"] for r in records]
    return {
        "setup_s": _metric(setup[0], "s"),
        "latency_p50_ms": _metric(1e3 * statistics.median(times), "ms"),
        "latency_p90_ms": _metric(1e3 * _p90(times), "ms"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(records, result, instances) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    out = {}
    for metric, (span, kind) in LAYER_MS.items():
        total = sum(r["layers"][kind].get(span, 0.0) * r["factor"] for r in traced)
        out[metric] = _metric(1e3 * total / n, "ms")
    counts = {}
    for r in traced:
        for key, value in r["layers"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for metric in LAYER_COUNTS:
        out[metric] = _metric(counts.get(metric, 0) / n, "count")
    roots = sum(instances[r["id"]]["expect"]["count"] for r in traced
                if instances[r["id"]]["command"] == "verify")
    calls = counts.get("base_solutions.norm_quadrature.calls", 0)
    out["base_solutions.norm_quadrature.calls_per_root"] = _metric(
        calls / roots if roots else 0.0, "count")
    for layer in LAYERS:
        out[f"{layer}.errors"] = _metric(counts.get(f"{layer}.errors", 0), "count")
    traced_ms = [1e3 * r["wall"] * r["factor"] for r in traced]
    plain_ms = [1e3 * r["wall"] * r["factor"] for r in plain]
    out["trace.overhead_ms"] = _metric(
        statistics.median(traced_ms) - statistics.median(plain_ms), "ms")
    out["trace.op_ms"] = _metric(statistics.median(traced_ms), "ms")
    out["trace.op_raw_ms"] = _metric(
        statistics.median(1e3 * r["wall"] for r in traced), "ms")
    # Traced time outside every span: installing and removing the wrappers,
    # capturing stdout and parsing it.
    out["trace.unattributed_ms"] = _metric(1e3 * sum(
        (r["wall"] - sum(r["layers"]["self"].values())) * r["factor"]
        for r in traced) / n, "ms")
    out["trace.missing_names"] = _metric(len(result["missing"]), "count")
    return out


def evaluate(instances, result, check) -> tuple:
    """Check every record; returns (attempted, failed, wrong answers, reasons)."""
    failed, wrong, reasons = 0, 0, []
    for rec in result["records"]:
        inst = instances[rec["id"]]
        reason = check.check(inst["command"], inst["expect"], rec)
        if reason is not None:
            failed += 1
            wrong += check.wrong_answer(rec, reason)
            reasons.append(f"op {rec['id']}: {reason}")
    return len(result["records"]), failed, wrong, reasons


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sup", "verify-finite", "analyze-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "odkirch" / "cli.py").is_file():
        print(f"benchmark: no odkirch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import check
    import refwork
    import workloads

    instances = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = []
        for inst in instances:
            path = workdir / f"op{inst['id']:03d}.json"
            path.write_text(json.dumps(inst["config"]), encoding="utf-8")
            ops.append({"id": inst["id"], "command": inst["command"], "path": str(path)})
        setup = measure_setup(refwork) if not args.trace else None
        plan = {"src": str(SRC), "ops": ops, "seconds": args.seconds,
                "trace": args.trace, "min_ops": MIN_OPS,
                "trace_file": str(OUT / f"trace-{tag}.json") if args.trace else None}
        result = run_worker(plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if Path(result["odkirch"]).parent != (SRC / "odkirch").resolve():
        print(f"benchmark: imported odkirch from {result['odkirch']}, not {SRC}",
              file=sys.stderr)
        return 2
    records = result["records"]
    for rec in records:
        rec["factor"] = refwork.calibration_factor(*rec["ref"])
    attempted, failed, wrong, reasons = evaluate(instances, result, check)
    for line in reasons[:10]:
        print(f"benchmark: failed {line}", file=sys.stderr)
    if result["missing"]:
        print(f"benchmark: wrapped names missing: {', '.join(result['missing'])}",
              file=sys.stderr)

    if args.trace:
        metrics = per_layer(records, result, instances)
    else:
        metrics = end_to_end(records, result, setup)
    raw_ms = [1e3 * r["wall"] for r in records if not r["traced"]]
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "round_size": len(instances), "metrics": metrics,
              "raw": {"latency_p50_ms": statistics.median(raw_ms),
                      "latency_p90_ms": _p90(raw_ms),
                      "setup_s": setup[1] if setup else None,
                      "reference_ms": 1e3 * statistics.median(
                          r["ref"][0] for r in records)},
              "failures": reasons, "missing": result["missing"],
              "ops": {"columns": ["id", "traced", "calibrated_ms", "wall_s",
                                  "ref_before_s", "ref_after_s"],
                      "rows": [[r["id"], r["traced"], 1e3 * r["wall"] * r["factor"],
                                r["wall"], *r["ref"]] for r in records]}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1),
                                            encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed; raw p50 {detail['raw']['latency_p50_ms']:.2f} ms")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
