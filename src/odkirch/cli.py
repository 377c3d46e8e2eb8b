"""Command line interface.

Subcommands:

    analyze    reduce the problem, count and refine roots, report solutions
    verify     re-derive everything numerically and pass/fail the candidates
    norms      closed-form norms against the quadrature oracle
    plot-data  CSV of the reduced equation for external plotting
    selftest   quick self-contained sanity battery, no configuration needed

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including a plot-data output file that cannot be opened for writing),
3 domain or numerical-convergence error, 4 kernel evaluation fault.

Structured output (--json) is deterministic: keys are sorted, floats carry 17
significant digits, and no timestamps or machine identifiers appear, so two
runs of the same configuration are byte-identical.  Human output rounds to 6
significant digits.
"""

import argparse
import json
import math
import sys

import numpy as np

from .base_solutions import BallGeometry, norm_quadrature
from .config import SCHEMA_VERSION, RunConfig, config_to_dict, exponent_doc, load_config
from .errors import (ConfigError, DomainError, KernelEvalError,
                     KernelSyntaxError, QuadratureError)
from .hessian import binomial, k_hessian_radial
from .kernel import eval_kernel, kernel_to_string, parse_kernel
from .reduction import (ProblemInstance, ScanConfig, build_reduced,
                        roots_to_solutions, solve_roots, system_count_check)
from .specialfun import beta, incomplete_beta, sphere_area
from .verifier import THRESHOLDS, judge_kelvin, judge_solution, perturb_solution


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + canonical_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {canonical_json(obj[key], indent + 1)}"
            for key in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _f6(x: float) -> str:
    return format(x, ".6g")


def _instance_doc(cfg: RunConfig) -> dict:
    doc = config_to_dict(cfg)
    return {key: doc[key] for key in
            ("geometry", "k", "p", "q", "lambda", "kernel")}


def _analyze(cfg: RunConfig):
    eq = build_reduced(cfg.instance)
    structure = solve_roots(eq, cfg.scan)
    report = system_count_check(eq, structure)
    return eq, structure, report


def cmd_analyze(cfg: RunConfig, as_json: bool, out) -> int:
    eq, structure, sysrep = _analyze(cfg)
    if as_json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "analyze",
            **_instance_doc(cfg),
            "coeff": eq.coeff,
            "norm_u": eq.norm_u,
            "norm_grad": eq.norm_grad,
            "rho": eq.rho,
            "target": eq.target,
            "scan": {"s_min": structure.s_min, "s_max": structure.s_max,
                     "n_grid": structure.n_grid},
            "count": structure.count,
            "roots": [
                {"s": r.s, "amplitude": r.amplitude, "c": r.c,
                 "residual": r.residual, "bracket": list(r.bracket)}
                for r in structure.roots
            ],
            "tangencies": [
                {"s": t.s, "gap": t.gap, "bracket": list(t.bracket)}
                for t in structure.tangencies
            ],
            "warnings": list(structure.warnings),
            "system_check": {"cluster_count": sysrep.cluster_count,
                             "root_count": sysrep.root_count,
                             "matched": sysrep.matched},
        }
        out.write(canonical_json(doc) + "\n")
        return 0
    w = out.write
    w(f"geometry       {cfg.instance.geometry.describe(_f6)}\n")
    w(f"operator       k={cfg.instance.k} (C(n,k)={eq.coeff})\n")
    w(f"exponents      p={exponent_doc(cfg.instance.p)}, "
      f"q={exponent_doc(cfg.instance.q)}\n")
    w(f"lambda         {_f6(cfg.instance.lam)}\n")
    w(f"kernel         {eq.kernel_text}\n")
    w(f"norm_u         {_f6(eq.norm_u)}\n")
    w(f"norm_grad      {_f6(eq.norm_grad)}\n")
    w(f"rho            {_f6(eq.rho)}\n")
    w(f"target         {_f6(eq.target)}\n")
    w(f"scan           s in [{_f6(structure.s_min)}, {_f6(structure.s_max)}], "
      f"{structure.n_grid} points\n")
    w(f"count          {structure.count}\n")
    for i, r in enumerate(structure.roots, 1):
        w(f"  root {i}: s={_f6(r.s)}, amplitude={_f6(r.amplitude)}, "
          f"c={_f6(r.c)}, residual={_f6(r.residual)}\n")
    for t in structure.tangencies:
        w(f"tangency       s={_f6(t.s)}, gap={_f6(t.gap)} (near-touching, not counted)\n")
    if not structure.tangencies:
        w("tangencies     (none)\n")
    for msg in structure.warnings:
        w(f"warning        {msg}\n")
    if not structure.warnings:
        w("warnings       (none)\n")
    w(f"system check   clusters={sysrep.cluster_count}, "
      f"matched={'yes' if sysrep.matched else 'NO'}\n")
    return 0


def cmd_verify(cfg: RunConfig, as_json: bool, out) -> int:
    eq, structure, sysrep = _analyze(cfg)
    solutions = roots_to_solutions(structure)
    if cfg.amplitude_scale != 1.0:
        solutions = tuple(perturb_solution(s, cfg.amplitude_scale)
                          for s in solutions)
    reports = [judge_solution(cfg.instance, sol, seed=cfg.seed) for sol in solutions]
    kelvin_doc = judge_kelvin(cfg.instance.geometry, seed=cfg.seed)
    all_ok = (sysrep.matched and all(doc["pass"] for doc in reports)
              and (kelvin_doc is None or kelvin_doc["pass"]))
    verdict = "pass" if all_ok else "fail"
    if as_json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            **_instance_doc(cfg),
            "amplitude_scale": cfg.amplitude_scale,
            "count": structure.count,
            "system_check": {"cluster_count": sysrep.cluster_count,
                             "root_count": sysrep.root_count,
                             "matched": sysrep.matched},
            "roots": reports,
            "kelvin": kelvin_doc,
            "verdict": verdict,
        }
        out.write(canonical_json(doc) + "\n")
        return 0 if all_ok else 1
    w = out.write
    w(f"verdict: {verdict.upper()}\n")
    w(f"count: {structure.count} "
      f"(system check clusters={sysrep.cluster_count}, "
      f"matched={'yes' if sysrep.matched else 'NO'})\n")

    def write_checks(checks):
        for name, chk in checks.items():
            flag = "PASS" if chk["pass"] else "FAIL"
            w(f"  {name:<22} {_f6(chk['value']):>12}  "
              f"<= {_f6(chk['threshold'])}  {flag}\n")

    for i, doc in enumerate(reports, 1):
        w(f"root {i} (s={_f6(doc['s'])}):\n")
        write_checks(doc["checks"])
    if kelvin_doc is not None:
        w("kelvin transform suite:\n")
        write_checks(kelvin_doc["checks"])
        flag = "PASS" if kelvin_doc["removability_monotone"] else "FAIL"
        w(f"  removability monotone decay, shrink "
          f"{_f6(kelvin_doc['removability_shrink'])}  {flag}\n")
    return 0 if all_ok else 1


def _norm_rows(cfg: RunConfig):
    inst = cfg.instance
    geom = inst.geometry
    prof = geom.profile()
    rows = []
    # The sup-norm row of a field is listed once when its exponent is inf.
    specs = {(name, exponent): (closed, fun) for name, exponent, closed, fun in (
        ("u", inst.p, geom.norm_u, prof.phi),
        ("u", math.inf, geom.norm_u, prof.phi),
        ("grad_u", inst.q, geom.norm_grad, prof.dphi),
        ("grad_u", math.inf, geom.norm_grad, prof.dphi))}
    for (name, exponent), (closed, fun) in specs.items():
        cval = closed(exponent)
        qval = norm_quadrature(fun, exponent, geom.n, *geom.r_range)
        rows.append({
            "field": name,
            "exponent": exponent_doc(exponent),
            "closed_form": cval,
            "quadrature": qval,
            "rel_err": abs(cval - qval) / abs(cval),
        })
    return rows


def cmd_norms(cfg: RunConfig, as_json: bool, out) -> int:
    rows = _norm_rows(cfg)
    ok = all(row["rel_err"] <= THRESHOLDS["norm_agreement"] for row in rows)
    if as_json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "norms",
            **_instance_doc(cfg),
            "rows": rows,
            "threshold": THRESHOLDS["norm_agreement"],
            "verdict": "pass" if ok else "fail",
        }
        out.write(canonical_json(doc) + "\n")
        return 0 if ok else 1
    w = out.write
    w(f"geometry   {cfg.instance.geometry.describe(_f6)}\n")
    w(f"{'field':<8} {'exponent':>8} {'closed form':>16} "
      f"{'quadrature':>16} {'rel err':>10}\n")
    for row in rows:
        w(f"{row['field']:<8} {str(row['exponent']):>8} "
          f"{_f6(row['closed_form']):>16} {_f6(row['quadrature']):>16} "
          f"{_f6(row['rel_err']):>10}\n")
    w(f"verdict: {'PASS' if ok else 'FAIL'} "
      f"(threshold {_f6(THRESHOLDS['norm_agreement'])})\n")
    return 0 if ok else 1


def cmd_plot_data(cfg: RunConfig, out) -> int:
    eq = build_reduced(cfg.instance)
    structure = solve_roots(eq, cfg.scan)
    grid = np.geomspace(structure.s_min, structure.s_max, structure.n_grid)
    rows = [(s, g, 0) for s, g in zip(grid.tolist(), eq.g(grid).tolist())]
    rows.extend((r.s, eq.g(r.s), 1) for r in structure.roots)
    rows.sort(key=lambda row: (row[0], row[2]))
    out.write("s,g,target,is_root\n")
    for s, g, is_root in rows:
        out.write(f"{s:.17g},{g:.17g},{eq.target:.17g},{is_root}\n")
    return 0


def _selftest_checks():
    def sphere_areas():
        return (abs(sphere_area(2) - 2 * math.pi) < 1e-12
                and abs(sphere_area(3) - 4 * math.pi) < 1e-12
                and abs(sphere_area(4) - 2 * math.pi ** 2) < 1e-12)

    def beta_identity():
        lhs = beta(2.5, 3.5)
        rhs = math.gamma(2.5) * math.gamma(3.5) / math.gamma(6.0)
        return abs(lhs - rhs) < 1e-14 and abs(beta(2.5, 3.5) - beta(3.5, 2.5)) < 1e-15

    def incomplete_beta_values():
        full = abs(incomplete_beta(1.0, 2.0, 3.0) - beta(2.0, 3.0)) < 1e-12
        # integral of t (1-t)^(-2) over [0, 2/3] has the closed value 2 - ln 3
        neg = abs(incomplete_beta(2.0 / 3.0, 2.0, -1.0) - (2.0 - math.log(3.0))) < 1e-10
        return full and neg

    def ball_hessian_constant():
        geom = BallGeometry(n=4, radius=2.0)
        prof = geom.profile()
        vals = k_hessian_radial(prof, np.array([0.3, 1.0, 1.9]), 4, 2)
        return bool(np.all(np.abs(vals - binomial(4, 2)) < 1e-12))

    def norm_agreement():
        geom = BallGeometry(n=3, radius=1.0)
        closed = geom.norm_u(2.0)
        quad = norm_quadrature(geom.profile().phi, 2.0, 3, 0.0, 1.0)
        return abs(closed - quad) / closed < 1e-9

    def kernel_round_trip():
        for text in ("1", "s*t", "-s^2", "min(s, t)/2", "exp(-(s-2)^2)"):
            tree = parse_kernel(text)
            if parse_kernel(kernel_to_string(tree)) != tree:
                return False
        return abs(eval_kernel(parse_kernel("2^-2"), 1.0, 1.0) - 0.25) < 1e-15

    def constant_kernel_root():
        inst = ProblemInstance(geometry=BallGeometry(n=2, radius=1.0), k=1,
                               p=math.inf, q=2.0, lam=3.0, kernel="1")
        structure = solve_roots(build_reduced(inst))
        if structure.count != 1:
            return False
        root = structure.roots[0]
        return abs(root.s - 0.75) < 1e-10 and abs(root.c - 1.5) < 1e-10

    return [
        ("sphere areas", sphere_areas),
        ("beta identity", beta_identity),
        ("incomplete beta", incomplete_beta_values),
        ("ball k-hessian constant", ball_hessian_constant),
        ("norm closed vs quadrature", norm_agreement),
        ("kernel round-trip", kernel_round_trip),
        ("constant kernel root", constant_kernel_root),
    ]


def cmd_selftest(out) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = bool(check())
        except Exception as exc:  # a selftest must never crash the reporter
            ok = False
            out.write(f"selftest {name}: raised {type(exc).__name__}: {exc}\n")
        out.write(f"selftest {name}: {'PASS' if ok else 'FAIL'}\n")
        failures += 0 if ok else 1
    out.write(f"selftest: {'all passed' if failures == 0 else f'{failures} failed'}\n")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odkirch",
        description="Solution structure of overdetermined ball/exterior "
                    "problems with Kirchhoff-type coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("analyze", "reduce, count and refine roots"),
                       ("verify", "numerically verify constructed solutions"),
                       ("norms", "closed-form norms against quadrature")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("-c", "--config", required=True,
                        help="path to a JSON run configuration")
        sp.add_argument("--json", action="store_true",
                        help="deterministic machine-readable output")
    sp = sub.add_parser("plot-data", help="CSV dump of g(s) and the target level")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("-o", "--output", default="-",
                    help="output file, '-' for stdout (default)")
    sub.add_parser("selftest", help="quick sanity battery, no config needed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "selftest":
            return cmd_selftest(out)
        cfg = load_config(args.config)
        if args.command != "plot-data":
            command = {"analyze": cmd_analyze, "verify": cmd_verify, "norms": cmd_norms}
            return command[args.command](cfg, args.json, out)
        if args.output == "-":
            return cmd_plot_data(cfg, out)
        try:
            fh = open(args.output, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc}") from exc
        with fh:
            return cmd_plot_data(cfg, fh)
    except (ConfigError, KernelSyntaxError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, QuadratureError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except KernelEvalError as exc:
        print(f"kernel fault: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
