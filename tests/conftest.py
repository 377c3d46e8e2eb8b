import json
from pathlib import Path

import pytest

from odkirch.base_solutions import BallGeometry, ExteriorGeometry
from odkirch.reduction import ProblemInstance

FIXTURES = Path(__file__).parent / "fixtures"


def load_battery():
    with open(FIXTURES / "battery.json") as fh:
        return json.load(fh)


def load_corpus():
    lines = (FIXTURES / "kernel_corpus.txt").read_text().splitlines()
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def make_geometry(spec):
    if spec["kind"] == "ball":
        return BallGeometry(n=spec["n"], radius=spec["radius"])
    return ExteriorGeometry(n=spec["n"])


def make_instance(case, lam):
    p = case["p"]
    q = case["q"]
    return ProblemInstance(
        geometry=make_geometry(case["geometry"]),
        k=case["k"],
        p=float("inf") if p == "inf" else float(p),
        q=float("inf") if q == "inf" else float(q),
        lam=float(lam),
        kernel=case["kernel"],
    )


@pytest.fixture(scope="session")
def battery():
    return load_battery()


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()
