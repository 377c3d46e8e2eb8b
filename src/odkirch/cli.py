"""Command line interface.

Subcommands:

    analyze    reduce the problem, count and refine roots, report solutions
    verify     re-derive everything numerically and pass/fail the candidates
    norms      closed-form norms against the quadrature oracle
    plot-data  CSV of the reduced equation for external plotting
    selftest   verify and norms on three built-in instances, no config needed

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including a plot-data output file that cannot be opened for writing),
3 domain or numerical-convergence error, 4 kernel evaluation fault; the
same code, and no traceback, when the reader closes stdout early (`| head`).

analyze, verify and norms each take one record from the library, verdicts
included (verifier.judge_run, verifier.judge_norms): --json prints it, the
text output renders it, and a "fail" verdict in it makes the exit code 1.

Structured output (--json) is deterministic: keys are sorted, floats carry 17
significant digits, and no timestamps or machine identifiers appear, so two
runs of the same configuration are byte-identical.  Human output rounds to 6
significant digits.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, build_config, config_to_dict, load_config
from .errors import (ConfigError, DomainError, KernelEvalError,
                     KernelSyntaxError, OdkirchError, QuadratureError)
from .quadrature import geom_grid
from .reduction import build_reduced, solve_roots, system_count_check
from .verifier import judge_norms, judge_run

# The instances selftest runs through verify and norms: the constant-kernel
# ball whose one root is s = 0.75, a 2-Hessian ball, and an exterior domain,
# whose finite-q gradient norm goes through log_incomplete_beta and whose
# verify run includes the Kelvin suite.  Kernels that read t make a wrong
# gradient norm move the roots.
_SELFTEST = (
    {"schema_version": 1, "geometry": {"kind": "ball", "dim": 2, "radius": 1.0},
     "k": 1, "p": "inf", "q": 2.0, "lambda": 3.0, "kernel": "1"},
    {"schema_version": 1, "geometry": {"kind": "ball", "dim": 4, "radius": 2.0},
     "k": 2, "p": 2.0, "q": 2.0, "lambda": 1.0, "kernel": "1 + t"},
    {"schema_version": 1, "geometry": {"kind": "exterior", "dim": 3},
     "k": 1, "p": 4.0, "q": 2.0, "lambda": 1.0, "kernel": "1 + t"},
)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


# json.dumps of a str is this C function: the same escapes, the same bytes.
_quote = json.encoder.encode_basestring_ascii


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats.

    The exact built-in types of the records are formatted; numpy scalars,
    tuples and subclasses are turned into their plain value first.
    """
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is dict or kind is list:
        if not obj:
            return "{}" if kind is dict else "[]"
        pad = "  " * indent
        inner = "\n" + pad + "  "
        if kind is dict:
            items = [f"{_quote(str(key))}: {canonical_json(obj[key], indent + 1)}"
                     for key in sorted(obj)]
            return "{" + inner + ("," + inner).join(items) + "\n" + pad + "}"
        items = [canonical_json(v, indent + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"
    if kind is str:
        return _quote(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    # numpy scalars, tuples and subclasses: their plain value, formatted above.
    for kinds, plain in (((bool, np.bool_), bool), ((int, np.integer), int),
                         ((float, np.floating), float), (str, str.__str__),
                         ((list, tuple), list), (dict, dict)):
        if isinstance(obj, kinds):
            return canonical_json(plain(obj), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _f6(x: float) -> str:
    return format(x, ".6g")


def _analyze(cfg: RunConfig) -> dict:
    """The body of the analyze record."""
    eq = build_reduced(cfg.instance)
    record = solve_roots(eq, cfg.scan)
    return {**record, "system_check": system_count_check(eq, record)}


def _analyze_text(rec: dict, geometry, w) -> None:
    w(f"geometry       {geometry.describe(_f6)}\n")
    w(f"operator       k={rec['k']} (C(n,k)={rec['coeff']})\n")
    w(f"exponents      p={rec['p']}, q={rec['q']}\n")
    w(f"lambda         {_f6(rec['lambda'])}\n")
    w(f"kernel         {rec['kernel']}\n")
    for key in ("norm_u", "norm_grad", "rho", "target"):
        w(f"{key:<15}{_f6(rec[key])}\n")
    scan = rec["scan"]
    w(f"scan           s in [{_f6(scan['s_min'])}, {_f6(scan['s_max'])}], "
      f"{scan['n_grid']} points\n")
    w(f"count          {rec['count']}\n")
    for i, r in enumerate(rec["roots"], 1):
        w(f"  root {i}: s={_f6(r['s'])}, amplitude={_f6(r['amplitude'])}, "
          f"c={_f6(r['c'])}, residual={_f6(r['residual'])}\n")
    for t in rec["tangencies"]:
        w(f"tangency       s={_f6(t['s'])}, gap={_f6(t['gap'])} "
          f"(near-touching, not counted)\n")
    if not rec["tangencies"]:
        w("tangencies     (none)\n")
    for msg in rec["warnings"]:
        w(f"warning        {msg}\n")
    if not rec["warnings"]:
        w("warnings       (none)\n")
    check = rec["system_check"]
    w(f"system check   clusters={check['cluster_count']}, "
      f"matched={'yes' if check['matched'] else 'NO'}\n")


def _verify_record(cfg: RunConfig) -> dict:
    return judge_run(cfg.instance, _analyze(cfg), cfg.seed, cfg.amplitude_scale)


def _verify_text(rec: dict, geometry, w) -> None:
    check = rec["system_check"]
    w(f"verdict: {rec['verdict'].upper()}\n")
    w(f"count: {rec['count']} "
      f"(system check clusters={check['cluster_count']}, "
      f"matched={'yes' if check['matched'] else 'NO'})\n")
    for msg in rec["warnings"]:
        w(f"warning: {msg}\n")

    def write_checks(checks):
        for name, chk in checks.items():
            flag = "PASS" if chk["pass"] else "FAIL"
            w(f"  {name:<22} {_f6(chk['value']):>12}  "
              f"<= {_f6(chk['threshold'])}  {flag}\n")

    for i, doc in enumerate(rec["roots"], 1):
        w(f"root {i} (s={_f6(doc['s'])}):\n")
        write_checks(doc["checks"])
    kelvin = rec["kelvin"]
    if kelvin is not None:
        w("kelvin transform suite:\n")
        write_checks(kelvin["checks"])
        flag = "PASS" if kelvin["removability_monotone"] else "FAIL"
        w(f"  removability monotone decay, log shrink "
          f"{_f6(kelvin['removability_log_shrink'])}  {flag}\n")


def _norms_record(cfg: RunConfig) -> dict:
    return judge_norms(cfg.instance)


def _norms_text(rec: dict, geometry, w) -> None:
    w(f"geometry   {geometry.describe(_f6)}\n")
    w(f"{'field':<8} {'exponent':>8} {'closed form':>16} "
      f"{'quadrature':>16} {'rel err':>10}\n")
    for row in rec["rows"]:
        w(f"{row['field']:<8} {str(row['exponent']):>8} "
          f"{_f6(row['closed_form']):>16} {_f6(row['quadrature']):>16} "
          f"{_f6(row['rel_err']):>10}\n")
    w(f"verdict: {rec['verdict'].upper()} (threshold {_f6(rec['threshold'])})\n")


# name: (help, record builder, text view).  A record builder turns a config
# into the body of the command's --json document; the text view renders the
# whole document, with the geometry for its description.
_COMMANDS = {
    "analyze": ("reduce, count and refine roots", _analyze, _analyze_text),
    "verify": ("numerically verify constructed solutions", _verify_record,
               _verify_text),
    "norms": ("closed-form norms against quadrature", _norms_record, _norms_text),
}
_HEADER = ("schema_version", "geometry", "k", "p", "q", "lambda", "kernel")


def _record(command: str, cfg: RunConfig) -> dict:
    """The --json document of command on cfg: the instance header and its body."""
    doc = config_to_dict(cfg)
    return {"command": command, **{key: doc[key] for key in _HEADER},
            **_COMMANDS[command][1](cfg)}


def cmd_plot_data(cfg: RunConfig, out) -> int:
    eq = build_reduced(cfg.instance)
    record = solve_roots(eq, cfg.scan)
    scan = record["scan"]
    grid = geom_grid(scan["s_min"], scan["s_max"], scan["n_grid"])
    rows = [(s, g, 0) for s, g in zip(grid.tolist(), eq.g(grid).tolist())]
    rows.extend((r["s"], eq.g(r["s"]), 1) for r in record["roots"])
    rows.sort(key=lambda row: (row[0], row[2]))
    out.write("s,g,target,is_root\n")
    for s, g, is_root in rows:
        out.write(f"{s:.17g},{g:.17g},{eq.target:.17g},{is_root}\n")
    return 0


def cmd_selftest(out) -> int:
    failures = 0
    for doc in _SELFTEST:
        geometry = doc["geometry"]
        case = f"{geometry['kind']} n={geometry['dim']} k={doc['k']}"
        for name in ("verify", "norms"):
            try:
                ok, note = _record(name, build_config(doc))["verdict"] == "pass", ""
            except OdkirchError as exc:
                ok, note = False, f" ({type(exc).__name__}: {exc})"
            out.write(f"selftest {case} {name}: {'PASS' if ok else 'FAIL'}{note}\n")
            failures += 0 if ok else 1
    out.write(f"selftest: {'all passed' if failures == 0 else f'{failures} failed'}\n")
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="odkirch",
        description="Solution structure of overdetermined ball/exterior "
                    "problems with Kirchhoff-type coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("-c", "--config", required=True,
                        help="path to a JSON run configuration")
        sp.add_argument("--json", action="store_true",
                        help="deterministic machine-readable output")
    sp = sub.add_parser("plot-data", help="CSV dump of g(s) and the target level")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("-o", "--output", default="-",
                    help="output file, '-' for stdout (default)")
    sub.add_parser("selftest", help="verify and norms on built-in instances")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out, code = sys.stdout, 0
    try:
        cfg = None if args.command == "selftest" else load_config(args.config)
        if cfg is None:
            code = cmd_selftest(out)
        elif args.command in _COMMANDS:
            record = _record(args.command, cfg)
            code = 1 if record.get("verdict") == "fail" else 0
            if args.json:
                out.write(canonical_json(record) + "\n")
            else:
                _COMMANDS[args.command][2](record, cfg.instance.geometry, out.write)
        elif args.output == "-":
            code = cmd_plot_data(cfg, out)
        else:
            try:
                fh = open(args.output, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise ConfigError(f"cannot write {args.output}: {exc}") from exc
            with fh:
                code = cmd_plot_data(cfg, fh)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader left (`| head`) after code was known; quiet the last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
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
