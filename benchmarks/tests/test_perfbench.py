"""Tests of the benchmark itself: oracle, failure detection and tracing.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from odkirch import cli  # noqa: E402

BATTERY = json.loads((ROOT / "tests" / "fixtures" / "battery.json").read_text())["cases"]


def _exponent(x):
    return math.inf if x == "inf" else float(x)


def _geometry(spec):
    geom = {"kind": spec["kind"], "dim": spec["n"]}
    if "radius" in spec:
        geom["radius"] = spec["radius"]
    return geom


def _battery_reduced(case):
    """The battery case's g(s), with the kernel text evaluated by numpy."""
    text = case["kernel"].replace("^", "**")
    m = eval(f"lambda s, t: {text}", {"exp": oracle.np.exp})  # noqa: S307 - fixture text
    return oracle.reduced(_geometry(case["geometry"]), case["k"],
                          _exponent(case["p"]), _exponent(case["q"]), m)


@pytest.mark.parametrize("case", BATTERY, ids=[c["name"] for c in BATTERY])
def test_oracle_reproduces_battery(case):
    geom = _geometry(case["geometry"])
    norm_u, norm_grad = oracle.base_norms(geom, _exponent(case["p"]), _exponent(case["q"]))
    assert norm_u == pytest.approx(case["norm_u"], rel=1e-12)
    assert norm_grad == pytest.approx(case["norm_grad"], rel=1e-12)
    red = _battery_reduced(case)
    for run in case["runs"]:
        roots = oracle.roots(red, run["lambda"])
        assert len(roots) == run["count"]
        for s, s_ref in zip(roots, run.get("roots", [])):
            assert s == pytest.approx(s_ref, rel=1e-12)
        for s, c_ref in zip(roots, run.get("c", [])):
            assert oracle.boundary_gradient(geom, norm_u, s) == pytest.approx(c_ref, rel=1e-12)
    if "tangency" in case:
        folds = oracle.fold_lambdas(red)
        assert min(abs(f / case["tangency"]["lambda_t"] - 1) for f in folds) < 1e-10


def test_sweep_families_match_battery():
    by_name = {c["name"]: c for c in BATTERY}
    for fam in workloads.SWEEP_FAMILIES:
        case = by_name[fam["name"]]
        assert _geometry(case["geometry"]) == fam["geometry"]
        assert (case["k"], _exponent(case["p"]), _exponent(case["q"])) == \
            (fam["k"], fam["p"], fam["q"])
        ours = workloads.kernel_numpy(fam["family"], fam["params"])
        theirs = _battery_reduced(case).m
        s = oracle.np.geomspace(1e-3, 1e2, 50)
        assert oracle.np.allclose(ours(s, 2.0 * s), theirs(s, 2.0 * s), rtol=1e-14)


def test_generation_is_seeded():
    a = workloads.generate("verify-finite", 7)
    b = workloads.generate("verify-finite", 7)
    c = workloads.generate("verify-finite", 8)
    assert [i["config"] for i in a] == [i["config"] for i in b]
    assert [i["config"] for i in a] != [i["config"] for i in c]
    counts = [i["expect"]["count"] for i in a]
    assert counts == [s["count"] for s in workloads.VERIFY_FINITE * 2]


def _run(inst, tmp_path, **overrides):
    path = tmp_path / f"op{inst['id']}.json"
    path.write_text(json.dumps({**inst["config"], **overrides}))
    return worker._outcome(*worker.run_op(cli.main, inst["command"], str(path)))


@pytest.fixture(scope="module")
def verify_instance():
    return workloads.generate("verify-sup", 0)[1]


def test_correct_operation_passes(verify_instance, tmp_path):
    outcome = _run(verify_instance, tmp_path)
    assert check.check("verify", verify_instance["expect"], outcome) is None


def test_amplitude_scale_counts_as_failed(verify_instance, tmp_path):
    outcome = _run(verify_instance, tmp_path, amplitude_scale=1.001)
    reason = check.check("verify", verify_instance["expect"], outcome)
    assert reason is not None
    assert not check.wrong_answer(outcome, reason)      # exit 1, not a silent error


def test_moved_root_counts_as_failed(verify_instance, tmp_path):
    outcome = _run(verify_instance, tmp_path)
    outcome["summary"]["s"][0] *= 1.0 + 1e-6
    reason = check.check("verify", verify_instance["expect"], outcome)
    assert reason is not None and reason.startswith("root 0")
    assert check.wrong_answer(outcome, reason)


def test_trace_survives_missing_name(tmp_path, monkeypatch):
    inst = workloads.generate("analyze-sweep", 0)[2]
    path = tmp_path / "op.json"
    path.write_text(json.dumps(inst["config"]))
    # `norms` is the only command that calls cli.norm_quadrature, so analyze
    # still runs without it, as it would after a refactor removed the name.
    monkeypatch.delattr(cli, "norm_quadrature")
    tracer = tracing.Tracer()
    rc, doc = worker.run_op(tracer.operation(0, cli.main), "analyze", str(path))
    layers = tracer.last
    assert rc == 0 and doc["count"] == inst["expect"]["count"]
    assert tracer.missing == ["cli.norm_quadrature"]
    assert layers["incl"]["reduction.solve_roots"] > 0.0
    assert sum(layers["self"].values()) == pytest.approx(layers["wall"], abs=1e-9)
    # the wrappers are gone again after the operation
    assert not hasattr(cli.solve_roots, "__wrapped__")


def test_trace_counts_verify_work(verify_instance, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(verify_instance["config"]))
    tracer = tracing.Tracer()
    rc, _ = worker.run_op(tracer.operation(0, cli.main), "verify", str(path))
    layers = tracer.last
    assert rc == 0 and tracer.missing == []
    roots = verify_instance["expect"]["count"]
    # verify and the gamma check each compute both norms of every root
    assert layers["counts"]["base_solutions.norm_quadrature.calls"] == 4 * roots
    assert layers["counts"]["quadrature.maximize.f_evals"] >= 4096
    assert sum(layers["self"].values()) == pytest.approx(layers["wall"], abs=1e-9)


def test_trace_counts_an_exception_through_main():
    tracer = tracing.Tracer()

    def failing_main(argv):
        raise RuntimeError("boom")

    rc, err = worker.run_op(tracer.operation(0, failing_main), "analyze", "unused.json")
    assert rc is None and err.startswith("RuntimeError")
    assert tracer.last["counts"]["cli.errors"] == 1
    assert not hasattr(cli.solve_roots, "__wrapped__")


def _child_peak_mb(alloc_mb: int) -> float:
    """worker.peak_rss_mb() in a fresh interpreter that writes alloc_mb MB."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import worker; "
            f"buf = b'x' * ({alloc_mb} << 20); print(worker.peak_rss_mb())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def test_peak_rss_is_the_workers_own():
    # This process holds scipy and mpmath (the oracle), more than either
    # child below; a figure inherited from the parent would hide the 50 MB.
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    base, grown = _child_peak_mb(0), _child_peak_mb(50)
    assert base < parent_mb
    assert 45.0 < grown - base < 60.0
