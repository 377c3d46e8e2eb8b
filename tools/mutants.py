"""Inject one defect at a time into odkirch and show which verify gates catch it.

    python3 tools/mutants.py [SRC] [--seed N ...]

SRC (by default the `src` directory of this checkout) is a directory holding
the `odkirch` package; it is imported in this process, from that directory
only.  Each mutant monkeypatches functions or methods of that tree while its
row runs, and the patches are undone after it.  Every run of
tests/fixtures/battery.json with roots (8 runs, 14 roots) is analyzed as
`odkirch analyze` does it (build_reduced, solve_roots, system_count_check)
and judged by `judge_run` at the seed, with the mutant in place.

The mutants, each a factor 1.001 unless said otherwise:

- c, and s with amplitude: the claims of every root record that the
  verifier judges;
- norm_u and norm_grad: the closed-form ||U||_p and ||grad U||_q that the
  reduction reads;
- phi, dphi and d2phi: the radial profile and its derivatives, wherever they
  are evaluated;
- C(N,k)+1 in the verifier (its gamma check) and in the reduction (the
  reduced equation);
- the exterior right-hand-side weight r^(-n-1) in place of r^(-n-2);
- the Kelvin image;
- the kernel value the verifier computes at its recomputed norms, + 1e-6;
- the unit directions the verifier draws, so its boundary points leave the
  sphere.

For each seed (0 by default) it prints a row for the unmutated baseline, then
one per mutant: the verdict on each run, P or F, in the order of the run
list printed first, and every gate that failed on some run.  The gates are
the checks of each root and of the Kelvin suite, `removability_monotone`
when that flag is false and `system_check` when the 2-D check did not match.
Then one line per gate of the baseline: the mutants it catches, and those it
alone catches on some run, where no other gate failed.  With more than one
seed, a last line names every mutant, and the runs, whose verdict or failed
gates on a run differ between seeds: the catches that depend on the draw.
The script exits 1 when the baseline fails a run and 0 otherwise.
"""

import argparse
import contextlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
BATTERY = ROOT / "tests" / "fixtures" / "battery.json"
MODULES = ("base_solutions", "config", "reduction", "verifier")


def load(src) -> SimpleNamespace:
    """The odkirch modules the mutants patch, imported from src."""
    sys.path.insert(0, str(src))
    od = SimpleNamespace(**{name: importlib.import_module(f"odkirch.{name}")
                            for name in MODULES})
    where = Path(od.verifier.__file__).resolve().parent
    if where != (Path(src) / "odkirch").resolve():
        raise SystemExit(f"imported odkirch from {where}, not {src}")
    return od


def battery_runs() -> list:
    """{label, kind, kernel, config} of every battery run with roots."""
    runs = []
    for case in json.loads(BATTERY.read_text())["cases"]:
        geo = case["geometry"]
        gdoc = {"kind": geo["kind"], "dim": geo["n"]}
        if "radius" in geo:
            gdoc["radius"] = geo["radius"]
        for run in case["runs"]:
            if run["count"]:
                runs.append({"label": f"{case['name']} lambda={run['lambda']:g}",
                             "kind": geo["kind"], "kernel": case["kernel"],
                             "config": {"schema_version": 1, "geometry": gdoc,
                                        "k": case["k"], "p": case["p"],
                                        "q": case["q"], "lambda": run["lambda"],
                                        "kernel": case["kernel"]}})
    return runs


def _times(f):
    """f with its value 1.001 times too large."""
    return lambda *args, **kwargs: f(*args, **kwargs) * 1.001


def _claims(judge, *keys):
    """judge_solution judging root records whose keys are 1.001 times too large."""
    def mutated(instance, root, *args):
        return judge(instance, {**root, **{key: root[key] * 1.001 for key in keys}},
                     *args)
    return mutated


def mutants(od) -> list:
    """(name, [(owner, attribute, replacement)]) of every mutant."""
    profile, geometry = od.base_solutions.RadialProfile, od.base_solutions._Geometry
    verifier, binomial = od.verifier, od.reduction.binomial
    kelvin, eval_kernel = profile.kelvin, verifier.eval_kernel
    return [
        ("c x1.001", [(verifier, "judge_solution", _claims(verifier.judge_solution, "c"))]),
        ("s, amplitude x1.001", [(verifier, "judge_solution", _claims(
            verifier.judge_solution, "s", "amplitude"))]),
        ("||U||_p x1.001", [(geometry, "norm_u", _times(geometry.norm_u))]),
        ("||grad U||_q x1.001", [(geometry, "norm_grad", _times(geometry.norm_grad))]),
        ("dphi x1.001", [(profile, "dphi", _times(profile.dphi))]),
        ("d2phi x1.001", [(profile, "d2phi", _times(profile.d2phi))]),
        ("C(N,k)+1 verifier", [(verifier, "binomial", lambda n, k: binomial(n, k) + 1)]),
        ("C(N,k)+1 reduction", [(od.reduction, "binomial",
                                 lambda n, k: binomial(n, k) + 1)]),
        ("weight r^(-n-1)", [(od.base_solutions.ExteriorGeometry, "rhs_weight",
                              lambda self, r: r ** (-self.n - 1.0))]),
        ("Kelvin image x1.001", [(profile, "kelvin",
                                  lambda self, n: kelvin(self, n).scale(1.001))]),
        ("phi x1.001", [(profile, "phi", _times(profile.phi))]),
        ("verifier kernel +1e-6", [(verifier, "eval_kernel",
                                    lambda *a, **kw: eval_kernel(*a, **kw) + 1e-6)]),
        ("directions x1.001", [(verifier, "_unit_directions",
                                _times(verifier._unit_directions))]),
    ]


def judge(od, runs: list, patches: list, seed: int) -> list:
    """The judge_run record of every run at seed, with patches in place."""
    docs = []
    with contextlib.ExitStack() as stack:
        for owner, name, new in patches:
            stack.enter_context(mock.patch.object(owner, name, new))
        for run in runs:
            cfg = od.config.build_config(run["config"])
            eq = od.reduction.build_reduced(cfg.instance)
            record = od.reduction.solve_roots(eq, cfg.scan)
            analysis = {**record, "system_check": od.reduction.system_count_check(eq, record)}
            docs.append(od.verifier.judge_run(cfg.instance, analysis, seed))
    return docs


def failed_gates(doc: dict) -> set:
    """The gates that failed in a judge_run record."""
    checks = [check for root in doc["roots"] for check in root["checks"].items()]
    kelvin = doc["kelvin"]
    if kelvin is not None:
        checks += kelvin["checks"].items()
    failed = {name for name, check in checks if not check["pass"]}
    if kelvin is not None and not kelvin["removability_monotone"]:
        failed.add("removability_monotone")
    if not doc["system_check"]["matched"]:
        failed.add("system_check")
    return failed


def verdicts(docs: list) -> str:
    return "".join("P" if doc["verdict"] == "pass" else "F" for doc in docs)


def matrix(od, runs: list, seed: int) -> list:
    """(mutant name, judge_run records) for the baseline and every mutant."""
    return [(name, judge(od, runs, patches, seed))
            for name, patches in [("baseline", []), *mutants(od)]]


def gates(docs: list) -> list:
    """Every gate of judge_run records, in the order they print."""
    names = dict.fromkeys(name for doc in docs for root in doc["roots"]
                          for name in root["checks"])
    for doc in docs:
        if doc["kelvin"] is not None:
            names.update(dict.fromkeys([*doc["kelvin"]["checks"], "removability_monotone"]))
    return [*names, "system_check"]


def print_matrix(rows: list, width: int) -> None:
    for name, docs in rows:
        failed = set().union(*map(failed_gates, docs))
        print(f"  {name:<{width}}  {verdicts(docs)}  {', '.join(sorted(failed)) or '-'}")
    print("  gate: mutants caught (caught alone, on some run)")
    mutated = rows[1:]
    for gate in gates(rows[0][1]):
        caught = [name for name, docs in mutated
                  if any(gate in failed_gates(doc) for doc in docs)]
        alone = [name for name, docs in mutated
                 if any(failed_gates(doc) == {gate} for doc in docs)]
        print(f"    {gate}: {len(caught)} ({', '.join(alone) or 'none'})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"),
                        help="directory holding the odkirch package")
    parser.add_argument("--seed", type=int, action="append", metavar="N",
                        help="judge_run seed (repeatable, default 0)")
    args = parser.parse_args(argv)
    od, runs = load(args.src), battery_runs()
    print(f"odkirch from {Path(od.verifier.__file__).resolve().parent}")
    print(f"runs with roots ({len(runs)}), in verdict order:")
    for i, run in enumerate(runs, 1):
        print(f"  {i} {run['label']}")
    by_seed = {}
    for seed in args.seed or [0]:
        rows = by_seed[seed] = matrix(od, runs, seed)
        print(f"seed {seed}")
        print_matrix(rows, max(len(name) for name, _ in rows))
    if len(by_seed) > 1:
        moved = []
        for i, (name, _) in enumerate(rows):
            per_seed = [seed_rows[i][1] for seed_rows in by_seed.values()]
            differ = [str(j + 1) for j in range(len(runs)) if len({
                (docs[j]["verdict"], frozenset(failed_gates(docs[j]))) for docs in per_seed
            }) > 1]
            if differ:
                moved.append(f"{name} (run {', '.join(differ)})")
        print(f"catches that depend on the seed: {', '.join(moved) or 'none'}")
    return 1 if any("F" in verdicts(rows[0][1]) for rows in by_seed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
