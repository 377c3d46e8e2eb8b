"""Runs one workload's operations in a process of its own and times them.

    python3 benchmarks/worker.py PLAN.json RESULT.json

The plan (written by run.py) lists the operations of one round, the source
directory to import odkirch from, the run length and whether to trace.  The
worker imports odkirch, numpy and the standard library only, so its peak RSS
is that of odkirch's workload; the oracle lives in the parent process.

One operation is one in-process call odkirch.cli.main([command, "-c", path,
"--json"]) with its stdout parsed.  Operations run as a closed loop with one
caller, in whole rounds, until the run length has passed and at least
`min_ops` operations were timed.  The reference computation is timed between
consecutive operations, so every operation has a reference timing right
before and right after it.

With tracing on, every operation runs twice in a row, untraced and then
traced, so that the tracing overhead is measured on the same inputs.
"""

import contextlib
import io
import json
import os
import sys
import time


def _summary(doc: dict) -> dict:
    """The fields of an analyze/verify document the oracle checks."""
    return {"count": doc["count"],
            "s": [r["s"] for r in doc["roots"]],
            "c": [r["c"] for r in doc["roots"]],
            "clusters": doc["system_check"]["cluster_count"],
            "verdict": doc.get("verdict")}


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, in MB.

    Not ru_maxrss: on Linux, exec carries the parent's RSS high-water mark
    into the child's maxrss, so it would count the parent's oracle.  VmHWM
    belongs to the address space made at exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_op(main, command: str, path: str):
    """One operation: (exit code or None, parsed stdout or error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "-c", path, "--json"])
        doc = json.loads(out.getvalue()) if out.getvalue() else None
    except (Exception, SystemExit) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    if doc is None:
        return rc, err.getvalue().strip() or "no output"
    return rc, doc


def _outcome(rc, doc) -> dict:
    if isinstance(doc, str):
        return {"rc": rc, "error": doc}
    try:
        return {"rc": rc, "summary": _summary(doc)}
    except (KeyError, TypeError) as exc:
        return {"rc": rc, "error": f"unexpected output: {exc!r}"}


def run_plan(plan: dict) -> dict:
    import refwork
    from odkirch import cli

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
    ops = plan["ops"]
    main = cli.main

    for op in ops[:3]:                      # warm-up, not timed
        run_op(main, op["command"], op["path"])

    records = []
    timed = 0
    start = time.perf_counter()
    ref_prev = refwork.reference_seconds()
    while timed < plan["min_ops"] or time.perf_counter() - start < plan["seconds"]:
        for op in ops:
            for traced in ((False, True) if tracer else (False,)):
                t0 = time.perf_counter()
                call = tracer.operation(len(records), main) if traced else main
                rc, doc = run_op(call, op["command"], op["path"])
                wall = time.perf_counter() - t0
                ref_next = refwork.reference_seconds()
                rec = {"id": op["id"], "traced": traced, "wall": wall,
                       "ref": [ref_prev, ref_next], **_outcome(rc, doc)}
                if traced:
                    rec["layers"] = tracer.last
                records.append(rec)
                ref_prev = ref_next
            timed += 1
    if tracer is not None:
        tracer.dump(plan["trace_file"])
    return {
        "odkirch": os.path.realpath(cli.__file__),
        "peak_rss_mb": peak_rss_mb(),
        "missing": tracer.missing if tracer else [],
        "records": records,
    }


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    result = run_plan(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
