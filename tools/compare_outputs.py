"""Compare the CLI outputs of two odkirch source trees, byte for byte.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [CONFIG ...]
        [--workload-seed N ...] [--drop-key NAME ...]

PARENT_SRC and CHANGE_SRC are directories holding the `odkirch` package (the
`src` directory of a checkout).  Each tree runs in its own interpreter, which
imports odkirch from that directory only and calls `odkirch.cli.main`
in-process once per operation:

- every run of tests/fixtures/battery.json, plus four runs of the case
  that records a tangency: the near-tangent run lambda_t * (1 + 1e-6), and
  the below-fold runs lambda_t * (1 - 1e-6), (1 - 1e-9) and (1 - 1e-14),
  where the critical point between two roots splits one grid cell into two
  bisected brackets; NARROW_WELL, whose two close roots share one grid
  cell 1.6 target away from the level on the grid; ITEM3_RUNS, the
  instances with 0 and 2 roots on which the 2-D check once counted 5 and
  10 clusters, and the abs kernel whose 3 roots it once counted as 1;
  SCALE_RUNS, the exterior instances in R^48 (p = q = 3), R^64, R^100 and
  R^438 (p = q = inf) whose Kelvin suite once failed, the ball centred at
  (1e5, 0, 0) whose boundary step was once lost to rounding, and the ball
  with kernel 1e-3 whose one root lies past the default scan window; and
  NON_POSITIVE_RUNS, the kernel 2 - s on the ball n=2 with k = 1 and 2,
  which turns negative at the norms of the 1.05-scaled field at its second
  root: analyze, verify and norms, as text and with --json, at
  amplitude_scale 1.0, 1.05 and 0.9, and plot-data (the scan grid and the
  roots, which do not depend on amplitude_scale) once;
- verify, as text and with --json, on every run of
  tests/fixtures/battery.json (with the four runs of its tangency case) at
  EXTREME_SCALES, amplitude_scale 1e-300 and 1e300, where each run with
  roots ends in the typed error of its first failing root: exit 3 for a
  non-finite integrand, an integral outside the normal doubles or an
  underflow radius, exit 4 for the kernel fault of (s - 1.0)^2.0;
- analyze, as text and with --json, for every kernel of
  tests/fixtures/kernel_corpus.txt on the two geometries of
  `test_corpus_kernels` (ball n=3 R=1.2 p=2 q=3 and exterior n=3 p=4 q=2,
  k=1) at lambda 0.3 and 3, which compares the printed kernels and the
  kernel fault messages;
- selftest;
- USAGE_ARGVS, the argument errors that exit 2 with a usage line (no
  command, an unknown command, analyze without -c, plot-data --json,
  analyze -o, selftest -c) and --help, run before every operation below so
  that those reuse a parser that has already rejected an argv;
- WARNING_RUNS, the ball with q = 1e300 and the exterior domain with
  p = q = 1e300, whose quadrature integrands overflow or underflow; the
  exterior domain with q = 1000, whose closed-form incomplete beta once
  overflowed; the ball of radius 0.01 with p = 70 and the exterior domain
  with p = 600, whose quadrature norms once came back 0 and failed a correct
  root: analyze, verify and norms, as text and with --json;
- analyze, verify and norms, as text and with --json, and plot-data on each
  CONFIG given, and on every config that `benchmarks/workloads.generate`
  draws for the three benchmark workloads at each --workload-seed N, and
  verify, as text and with --json, on each workload config at
  amplitude_scale 1.05.  The workload module is imported from this
  checkout, without writing bytecode under benchmarks/.

Exit code, stdout and stderr of every operation are compared.  With
--drop-key NAME, when the stdout of an operation parses as JSON on both
sides, every key NAME is deleted from both documents, at any depth, before
they are compared, and they are shown as parsed JSON printed with sorted
keys; text outputs are compared as they are.  Each tree writes one result
file per operation, so a plot-data output of some 10,000 lines is held in
memory only while it is compared.  Each differing
operation is printed as a unified diff of the two sides.  A summary line
then sorts them: a difference is float-only when the exit codes agree, the
stderr is equal once every float literal is masked (a kernel fault names
the point where it failed), and the stdout differs only in floats, and
structural otherwise.  The stdout is compared as JSON output parsed, with
the same keys, lengths and non-float values; as plot-data CSV parsed row by
row, with the same header and rows, s, g and target compared as floats
(so a float that prints as an integer is still a float) and is_root
exactly; and as any other text equal once every float literal is masked.
Each JSON key path holding a float-only difference, list indices collapsed
(`roots[].s`), and each plot-data column (`plot-data.s`) gets one line with
the number of outputs it differs in and its largest relative change.  The
script exits 1 when any operation differs and 0 when all agree.  It is meant
for refactors, which must leave every output unchanged or say which floats
move.
"""

import argparse
import contextlib
import difflib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATTERY = ROOT / "tests" / "fixtures" / "battery.json"
CORPUS = ROOT / "tests" / "fixtures" / "kernel_corpus.txt"
BENCHMARKS = ROOT / "benchmarks"
COMMANDS = ("analyze", "verify", "norms")
SCALES = (1.0, 1.05, 0.9)
# Fields so small or large that every battery run with roots ends in a typed
# error of its first failing root: a non-finite integrand, an integral
# outside the normal doubles, an underflow radius or a kernel fault.
EXTREME_SCALES = (1e-300, 1e300)
# g = 2 s ((1000 (s - c))^2 + 1) crosses the level twice inside one grid
# cell, at s = 1.001264492304602 and 1.0012708168638624, and once near 1e-6.
NARROW_WELL = {"name": "narrow-well",
               "geometry": {"kind": "ball", "n": 2, "radius": 1.0},
               "k": 1, "p": "inf", "q": 2.0,
               "kernel": "(1000*(s - 1.001268153956326))^2 + 1",
               "runs": [{"lambda": 4.005111667807524}]}
# Counter disagreements of ROADMAP item 3: two false positives of the old 2-D
# cell flags (0 roots but 5 clusters, 2 roots but 10) and a close pair that
# the 2-D check once merged (3 roots, 1 segment).
ITEM3_RUNS = [
    {"name": "item3-ball-false-positive",
     "geometry": {"kind": "ball", "n": 6, "radius": 1.0},
     "k": 2, "p": 7.5, "q": 2.0, "kernel": "exp(-t)*s^4",
     "runs": [{"lambda": 0.6524044984771312}]},
    {"name": "item3-exterior-false-positive",
     "geometry": {"kind": "exterior", "n": 2},
     "k": 1, "p": "inf", "q": 5.0, "kernel": "exp(-t)*s^4",
     "runs": [{"lambda": 2.6e-5}]},
    {"name": "item3-abs-merge",
     "geometry": {"kind": "ball", "n": 2, "radius": 0.5},
     "k": 2, "p": 0.3, "q": "inf", "kernel": "abs(s-1)+1e-3",
     "runs": [{"lambda": 11.19167451866462}]},
]

# Instances whose checks once failed a correct root for its scale alone: the
# Kelvin suite in R^48, R^64, R^100 and R^438 (rho^(2-n) overflowed from
# n = 64 on, the absolute laplacian_identity failed from n = 100 on) and a
# ball centred at 1e5, where a boundary step of 1e-4 was lost to rounding.
# The last run's one root, s = 7500, lies past the default window [1e-8,
# 1000]: it counts 0 with an edge warning, which verify once dropped.
SCALE_RUNS = [
    *({"name": f"exterior-n{n}", "geometry": {"kind": "exterior", "n": n},
       "k": 1, "p": p, "q": p, "kernel": "1 + s", "runs": [{"lambda": 1.0}]}
      for n, p in ((48, 3.0), (64, "inf"), (100, "inf"), (438, "inf"))),
    {"name": "off-centre-ball",
     "geometry": {"kind": "ball", "n": 3, "radius": 1.0, "center": [1e5, 0.0, 0.0]},
     "k": 1, "p": 2.0, "q": 2.0, "kernel": "1 + s", "runs": [{"lambda": 1.0}]},
    {"name": "window-miss-ball", "geometry": {"kind": "ball", "n": 2, "radius": 1.0},
     "k": 1, "p": "inf", "q": 2.0, "kernel": "1e-3", "runs": [{"lambda": 30.0}]},
]

# M = 2 - s has roots near s = 0.05 and 1.95; at amplitude_scale 1.05 the
# second root's field has norm past 2, where M < 0 and no real gamma exists.
NON_POSITIVE_RUNS = [
    {"name": f"non-positive-kernel-k{k}",
     "geometry": {"kind": "ball", "n": 2, "radius": 1.0},
     "k": k, "p": "inf", "q": 2.0, "kernel": "2 - s",
     "runs": [{"lambda": lam}]}
    for k, lam in ((1, 0.39), (2, 0.76))
]

# Argument errors (exit 2, usage on stderr) and --help (exit 0).
USAGE_ARGVS = (
    [], ["bogus"], ["analyze"], ["plot-data", "-c", "x.json", "--json"],
    ["analyze", "-c", "x.json", "-o", "x.csv"], ["selftest", "-c", "x.json"],
    ["--help"],
)

# Integrands that overflow to inf or nan, or underflow to 0, inside the
# quadrature of a norm: each such run ends in one domain error line and no
# RuntimeWarning.  Exterior q = 1000 once overflowed in the closed form too.
WARNING_RUNS = [
    {"schema_version": 1, "geometry": {"kind": "ball", "dim": 2, "radius": 1.0},
     "k": 1, "p": "inf", "q": 1e300, "lambda": 3.0, "kernel": "1"},
    {"schema_version": 1, "geometry": {"kind": "exterior", "dim": 3},
     "k": 1, "p": 1e300, "q": 1e300, "lambda": 3.0, "kernel": "1"},
    {"schema_version": 1, "geometry": {"kind": "exterior", "dim": 3},
     "k": 1, "p": 4.0, "q": 1000.0, "lambda": 1.0, "kernel": "1 + t"},
    {"schema_version": 1, "geometry": {"kind": "ball", "dim": 2, "radius": 0.01},
     "k": 1, "p": 70.0, "q": 2.0, "lambda": 1.0, "kernel": "1 + t"},
    {"schema_version": 1, "geometry": {"kind": "exterior", "dim": 3},
     "k": 1, "p": 600.0, "q": "inf", "lambda": 1.0, "kernel": "1 + s"},
]


def battery_configs(extra=True, scales=SCALES):
    """(label, config document) for every battery run, and with extra the
    runs of NARROW_WELL, ITEM3_RUNS, SCALE_RUNS and NON_POSITIVE_RUNS, at
    every scale of scales."""
    cases = json.loads(BATTERY.read_text())["cases"]
    if extra:
        cases += [NARROW_WELL, *ITEM3_RUNS, *SCALE_RUNS, *NON_POSITIVE_RUNS]
    for case in cases:
        lams = [run["lambda"] for run in case["runs"]]
        if "tangency" in case:
            lam_t = case["tangency"]["lambda_t"]
            lams += [lam_t * (1.0 + 1e-6), lam_t * (1.0 - 1e-6), lam_t * (1.0 - 1e-9),
                     lam_t * (1.0 - 1e-14)]
        geo = case["geometry"]
        gdoc = {"kind": geo["kind"], "dim": geo["n"]}
        if geo["kind"] == "ball":
            gdoc["radius"] = geo["radius"]
        if "center" in geo:
            gdoc["center"] = geo["center"]
        for lam in lams:
            for scale in scales:
                doc = {"schema_version": 1, "geometry": gdoc, "k": case["k"],
                       "p": case["p"], "q": case["q"], "lambda": lam,
                       "kernel": case["kernel"], "amplitude_scale": scale}
                yield f"{case['name']} lambda={lam!r} scale={scale}", doc


def corpus_configs():
    """(label, config document) for every corpus kernel on the geometries of
    test_corpus_kernels in tests/test_reduction.py."""
    lines = CORPUS.read_text().splitlines()
    kernels = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    for gdoc, p, q in (({"kind": "ball", "dim": 3, "radius": 1.2}, 2.0, 3.0),
                       ({"kind": "exterior", "dim": 3}, 4.0, 2.0)):
        for kernel in kernels:
            for lam in (0.3, 3.0):
                doc = {"schema_version": 1, "geometry": gdoc, "k": 1, "p": p,
                       "q": q, "lambda": lam, "kernel": kernel}
                yield f"corpus {gdoc['kind']} {kernel!r} lambda={lam}", doc


def workload_configs(seed: int):
    """(label, config document) of every instance of the benchmark workloads
    at seed, in run order."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCHMARKS))
    import workloads

    for name in workloads.WORKLOADS:
        for inst in workloads.generate(name, seed):
            yield f"{name} seed {seed} #{inst['id']}", inst["config"]


def operations(workdir: Path, extra_configs, workload_seeds=()):
    """(label, argv) of every operation; battery, corpus and workload configs
    are written to workdir."""
    paths = []    # (label, config path, commands, plot-data too)
    for i, (label, doc) in enumerate(battery_configs()):
        path = workdir / f"battery{i:03d}.json"
        path.write_text(json.dumps(doc))
        paths.append((label, str(path), COMMANDS, doc["amplitude_scale"] == 1.0))
    for i, (label, doc) in enumerate(battery_configs(False, EXTREME_SCALES)):
        path = workdir / f"extreme{i:03d}.json"
        path.write_text(json.dumps(doc))
        paths.append((label, str(path), ("verify",), False))
    for i, (label, doc) in enumerate(corpus_configs()):
        path = workdir / f"corpus{i:03d}.json"
        path.write_text(json.dumps(doc))
        paths.append((label, str(path), ("analyze",), False))
    for i, doc in enumerate(WARNING_RUNS):
        path = workdir / f"warning{i}.json"
        path.write_text(json.dumps(doc))
        paths.append((f"warning run {i}", str(path), COMMANDS, False))
    paths.extend((str(p), str(Path(p).resolve()), COMMANDS, True) for p in extra_configs)
    for seed in workload_seeds:
        for i, (label, doc) in enumerate(workload_configs(seed)):
            path = workdir / f"workload{seed}-{i:03d}.json"
            path.write_text(json.dumps(doc))
            paths.append((label, str(path), COMMANDS, True))
            path = workdir / f"workload{seed}-{i:03d}-scaled.json"
            path.write_text(json.dumps({**doc, "amplitude_scale": 1.05}))
            paths.append((f"{label} scale=1.05", str(path), ("verify",), False))
    ops = [("selftest", ["selftest"])]
    ops.extend((f"argv {argv}", argv) for argv in USAGE_ARGVS)
    for label, path, commands, plot in paths:
        for command in commands:
            for flags in ([], ["--json"]):
                ops.append((f"{command}{' --json' if flags else ''} [{label}]",
                            [command, "-c", path, *flags]))
        if plot:
            ops.append((f"plot-data [{label}]", ["plot-data", "-c", path]))
    return ops


def child(src: str, ops_file: str, out_dir: str) -> int:
    """Run every argv of ops_file through cli.main; write [code, out, err] of
    operation i to out_dir/i.json."""
    sys.path.insert(0, src)
    from odkirch import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "odkirch").resolve():
        print(f"imported odkirch from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for i, argv in enumerate(json.loads(Path(ops_file).read_text())):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        result = [code, out.getvalue(), err.getvalue()]
        (Path(out_dir) / f"{i}.json").write_text(json.dumps(result))
    return 0


def run_tree(src: str, ops_file: Path, out_dir: Path) -> subprocess.Popen:
    out_dir.mkdir()
    # -I: no PYTHONPATH, no user site, no script directory on sys.path.
    # -B: no bytecode left in the compared trees, which would speed up the
    # next process start from one of them and not the other.
    return subprocess.Popen([sys.executable, "-I", "-B", str(Path(__file__).resolve()),
                             "--child", str(Path(src).resolve()), str(ops_file),
                             str(out_dir)])


def drop_keys(obj, names):
    """obj, parsed JSON, without the keys names at any depth."""
    if isinstance(obj, dict):
        return {key: drop_keys(value, names) for key, value in obj.items()
                if key not in names}
    if isinstance(obj, list):
        return [drop_keys(value, names) for value in obj]
    return obj


def without_keys(old, new, names):
    """The results old and new, their stdout rewritten without the keys names
    when both parse as JSON."""
    if not names:
        return old, new
    try:
        docs = [json.loads(result[1]) for result in (old, new)]
    except ValueError:
        return old, new
    return tuple([result[0], json.dumps(drop_keys(doc, names), indent=2, sort_keys=True)
                  + "\n", result[2]] for result, doc in zip((old, new), docs))


def render(result) -> list:
    code, out, err = result
    return [f"exit {code}\n", "--- stdout\n", *out.splitlines(True),
            "--- stderr\n", *err.splitlines(True)]


# A float literal, digits with a decimal point or an exponent or a lone 0
# (a float 0 printed with %g), with the spaces that pad it to a column width.
FLOAT = re.compile(r" *[-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
                   r"|(?<![\w.])0(?![\w.]))")


def float_changes(old, new, path="", out=None):
    """{key path: largest relative change} of the floats that differ between
    two parsed JSON documents, or None when they differ in anything else."""
    out = {} if out is None else out
    # Floats print with 17 digits, so an integral one reads back as an int:
    # a pair with a float in it is a float change, a pair of ints is not.
    if (isinstance(old, float) or isinstance(new, float)) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        if old != new:
            rel = abs(new - old) / abs(old) if old else math.inf
            out[path] = max(out.get(path, 0.0), rel)
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            if float_changes(old[key], new[key], f"{path}.{key}" if path else key,
                             out) is None:
                return None
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            if float_changes(a, b, f"{path}[]", out) is None:
                return None
    elif type(old) is not type(new) or old != new:
        return None
    return out


CSV_HEADER = "s,g,target,is_root\n"


def csv_changes(old: str, new: str):
    """{plot-data column: largest relative change} of two plot-data outputs
    whose rows after the header differ only in s, g and target, or None."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    if len(old_rows) != len(new_rows):
        return None
    out = {}
    for a, b in zip(old_rows[1:], new_rows[1:]):
        a, b = a.split(","), b.split(",")
        if len(a) != 4 or len(b) != 4 or a[3] != b[3]:
            return None
        for name, x, y in zip(("s", "g", "target"), a, b):
            try:
                float_changes(float(x), float(y), f"plot-data.{name}", out)
            except ValueError:
                return None
    return out


def classify(old, new):
    """{key path: relative change} for a float-only difference ({} for text
    output or a stderr alone), None for a structural one."""
    if old[0] != new[0] or FLOAT.sub("#", old[2]) != FLOAT.sub("#", new[2]):
        return None
    if old[1].startswith(CSV_HEADER) and new[1].startswith(CSV_HEADER):
        return csv_changes(old[1], new[1])
    try:
        return float_changes(json.loads(old[1]), json.loads(new[1]))
    except ValueError:
        return {} if FLOAT.sub("#", old[1]) == FLOAT.sub("#", new[1]) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("configs", nargs="*", help="extra config files to run")
    parser.add_argument("--workload-seed", type=int, action="append", default=[],
                        metavar="N", help="also run the benchmark workload "
                        "configs of seed N (repeatable)")
    parser.add_argument("--drop-key", action="append", default=[], metavar="NAME",
                        help="delete the key NAME from both sides' JSON output "
                        "before comparing (repeatable)")
    args = parser.parse_args(argv)
    if args.child:
        return child(*args.child)
    if not (args.parent_src and args.change_src):
        parser.error("PARENT_SRC and CHANGE_SRC are required")

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        workdir = Path(tmp)
        ops = operations(workdir, args.configs, args.workload_seed)
        ops_file = workdir / "ops.json"
        ops_file.write_text(json.dumps([argv for _, argv in ops]))
        outs = [workdir / "parent", workdir / "change"]
        procs = [run_tree(src, ops_file, out)
                 for src, out in zip((args.parent_src, args.change_src), outs)]
        if any(proc.wait() != 0 for proc in procs):
            print("compare_outputs: a tree failed to run", file=sys.stderr)
            return 2

        differing = structural = 0
        paths = {}        # key path -> [outputs, largest relative change]
        for i, (label, _) in enumerate(ops):
            old, new = without_keys(*(json.loads((out / f"{i}.json").read_text())
                                      for out in outs), set(args.drop_key))
            if old == new:
                continue
            differing += 1
            sys.stdout.writelines(difflib.unified_diff(
                render(old), render(new), f"parent: {label}", f"change: {label}"))
            changes = classify(old, new)
            if changes is None:
                structural += 1
            for path, rel in (changes or {}).items():
                entry = paths.setdefault(path, [0, 0.0])
                entry[0] += 1
                entry[1] = max(entry[1], rel)
    print(f"{differing} of {len(ops)} outputs differ")
    print(f"{structural} structural, {differing - structural} float-only")
    for path, (count, rel) in sorted(paths.items()):
        print(f"  {path}: {count} outputs, largest relative change {rel:.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
