"""tools/mutants.py: every injected defect fails the verdict where it changes
the answer, and the unmutated pipeline passes."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

RUNS = mutants.battery_runs()


def _reads_t(run):
    return re.search(r"\bt\b", run["kernel"]) is not None


def _exterior(run):
    return run["kind"] == "exterior"


# The ten mutants of the first audit, each with the runs whose answer it
# changes: the gradient norm enters only through a kernel that reads t, and
# the exterior weight and the Kelvin image only on the exterior domain.
AFFECTS = {
    "c x1.001": None,
    "s, amplitude x1.001": None,
    "||U||_p x1.001": None,
    "||grad U||_q x1.001": _reads_t,
    "dphi x1.001": None,
    "d2phi x1.001": None,
    "C(N,k)+1 verifier": None,
    "C(N,k)+1 reduction": None,
    "weight r^(-n-1)": _exterior,
    "Kelvin image x1.001": _exterior,
}


@pytest.fixture(scope="module")
def rows():
    return dict(mutants.matrix(mutants.load(ROOT / "src"), RUNS, seed=0))


def test_battery_runs():
    assert len(RUNS) == 8
    assert [_reads_t(run) for run in RUNS].count(True) == 2
    assert [_exterior(run) for run in RUNS].count(True) == 2


def test_baseline_passes(rows):
    assert mutants.verdicts(rows["baseline"]) == "P" * len(RUNS)
    assert all(not mutants.failed_gates(doc) for doc in rows["baseline"])


@pytest.mark.parametrize("name", AFFECTS)
def test_mutant_fails_every_run_it_affects(rows, name):
    affects = AFFECTS[name] or (lambda run: True)
    expected = "".join("F" if affects(run) else "P" for run in RUNS)
    assert mutants.verdicts(rows[name]) == expected


def test_directions_fail_the_boundary_checks_on_every_root(rows):
    roots = [root for doc in rows["directions x1.001"] for root in doc["roots"]]
    assert len(roots) == 14
    for root in roots:
        assert not root["checks"]["boundary_value"]["pass"]
        assert not root["checks"]["boundary_gradient"]["pass"]


def test_patches_are_undone(rows):
    again = mutants.judge(mutants.load(ROOT / "src"), RUNS, [], seed=0)
    assert again == rows["baseline"]
