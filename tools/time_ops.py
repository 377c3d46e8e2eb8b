"""Time a benchmark workload's operations in process, on two odkirch trees.

    python3 tools/time_ops.py PARENT_SRC CHANGE_SRC --workload W [--seed N]
        [--pairs K] [CONFIG ...]

PARENT_SRC and CHANGE_SRC are directories holding the `odkirch` package (the
`src` directory of a checkout).  The operations are those that
`benchmarks/workloads.generate(W, N)` draws for one round of workload W at
seed N (default 1), each one call of `odkirch.cli.main([command, "-c", path,
"--json"])` with its output discarded, as the benchmark worker makes it, and
one `analyze` of each CONFIG given.  The workload module is imported from
this checkout, without writing bytecode under benchmarks/.

Each tree runs in its own interpreter, which imports odkirch from that
directory only, with the BLAS thread pools pinned to one thread.  It runs
every operation once as a warm-up, then REPEATS = 7 times: the workload's
round as one timed pass, and each CONFIG as one timed call.  Its figure is
the best of the 7, in ms per operation.  The trees alternate, parent first,
K times (default 3).  For the workload and for each CONFIG the script prints
each tree's best figure over the K runs, their ratio change / parent, and
the K ratios of the pairs.  The figure leaves out process start and the
benchmark's reference timings and calibration.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def workload_ops(workload: str, seed: int):
    """[command, config document] of every operation of one round."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCHMARKS))
    import workloads

    return [[inst["command"], inst["config"]]
            for inst in workloads.generate(workload, seed)]


def child(src: str, plan_file: str) -> int:
    """Print {"workload": ms per operation, "configs": [ms per call]}, each
    the best of REPEATS, for the plan's operations run through cli.main."""
    sys.path.insert(0, src)
    from odkirch import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "odkirch").resolve():
        print(f"imported odkirch from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    plan = json.loads(Path(plan_file).read_text())

    def run(ops):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            for command, path in ops:
                cli.main([command, "-c", path, "--json"])
            return time.perf_counter() - start

    groups = [plan["workload"]] + [[op] for op in plan["configs"]]
    for ops in groups:
        run(ops)                                    # warm-up
    best = [min(run(ops) for _ in range(REPEATS)) * 1e3 / len(ops)
            for ops in groups]
    print(json.dumps({"workload": best[0], "configs": best[1:]}))
    return 0


def run_tree(src: str, plan_file: Path) -> dict:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    # -I: no PYTHONPATH, no user site, no script directory on sys.path.
    # -B: no bytecode left in the timed trees.
    out = subprocess.run(
        [sys.executable, "-I", "-B", str(Path(__file__).resolve()), "--child",
         str(Path(src).resolve()), str(plan_file)],
        env=env, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"time_ops: {src} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("configs", nargs="*", help="config files to time analyze on")
    parser.add_argument("--workload", help="benchmark workload to draw operations from")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="alternating runs of each tree (default 3)")
    args = parser.parse_intermixed_args(argv)
    if args.child:
        return child(*args.child)
    if not (args.parent_src and args.change_src and args.workload):
        parser.error("PARENT_SRC, CHANGE_SRC and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    ops = workload_ops(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="time_ops_") as tmp:
        workdir = Path(tmp)
        paths = []
        for i, (_, doc) in enumerate(ops):
            paths.append(str(workdir / f"op{i:03d}.json"))
            Path(paths[-1]).write_text(json.dumps(doc))
        plan = {"workload": [[command, path] for (command, _), path in zip(ops, paths)],
                "configs": [["analyze", str(Path(c).resolve())] for c in args.configs]}
        plan_file = workdir / "plan.json"
        plan_file.write_text(json.dumps(plan))
        runs = {"parent": [], "change": []}
        for _ in range(args.pairs):
            for name, src in (("parent", args.parent_src), ("change", args.change_src)):
                result = run_tree(src, plan_file)
                runs[name].append([result["workload"], *result["configs"]])

    labels = [f"{args.workload} seed {args.seed} ({len(ops)} operations)",
              *(f"analyze {c}" for c in args.configs)]
    for j, label in enumerate(labels):
        parent = [run[j] for run in runs["parent"]]
        change = [run[j] for run in runs["change"]]
        pairs = " ".join(f"{c / p:.3f}" for p, c in zip(parent, change))
        print(f"{label}: parent {min(parent):.3f} ms, change {min(change):.3f} ms, "
              f"ratio {min(change) / min(parent):.3f} (pairs: {pairs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
