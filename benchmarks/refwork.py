"""Reference computation that turns wall-clock times into calibrated times.

The CPU speed this benchmark sees can drift by a fifth between runs on a
shared machine, and neither wall-clock nor process CPU time can tell slow
code from a slow machine, because time stolen by the host is invisible to
the guest.  So
every timed operation is bracketed by two timings of a fixed computation
(`reference_work`), and its wall time is multiplied by

    REF_FIXED_S / mean(ref_before, ref_after)

where REF_FIXED_S is the reference's duration measured once on a calm
machine and frozen here.  A calibrated time therefore reads as the time the
operation would have taken at that calm speed.  The reference mixes the same
kinds of work odkirch does: a scalar Python loop (the kernel tree walk, the
maximize loop) and numpy calls on small and medium arrays (quadrature panels,
the root scan).

setup_s is calibrated the same way with a reference of its own kind.  An
interpreter start is mostly file reads, unmarshalling and module execution,
whose speed the compute reference does not track (measured: calibrating
import times with it left their spread unchanged).  So each timed start of
`import odkirch.cli` is bracketed by starts of an interpreter that imports a
fixed set of standard-library modules (SPAWN_REFERENCE), and scaled by
SPAWN_REF_FIXED_S / mean(before, after).

This module imports only numpy and the standard library, so the worker
process that runs odkirch can use it without inflating its memory.
"""

import math
import time

import numpy as np

# Duration of reference_work() between operations in the worker on a
# 2-core x86-64 virtual machine (Python 3.11, numpy 2.4) in its fast phase,
# where it read 0.36-0.41 ms (calibrate() alone reads about 0.33 ms there).
# Frozen: changing it rescales every timing the benchmark reports.
REF_FIXED_S = 0.0004

# A fresh interpreter importing these standard-library modules, and its
# median duration from start to the end of the imports on the same machine.
SPAWN_REFERENCE = ("import argparse, asyncio, csv, ctypes, dataclasses, decimal, "
                   "email.parser, fractions, http.client, inspect, json, logging, "
                   "sqlite3, statistics, tarfile, unittest, xml.etree.ElementTree, "
                   "zipfile")
SPAWN_REF_FIXED_S = 0.15

_PANEL = np.linspace(0.1, 2.0, 15)
_GRID = np.linspace(0.1, 2.0, 4096)


def reference_work() -> float:
    """Fixed mix of scalar Python and small- and medium-array numpy work."""
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(i + 0.5) * 0.25
    for _ in range(40):
        y = np.exp(-_PANEL) * _PANEL + np.sqrt(_PANEL)
        acc += float(y @ _PANEL)
    for _ in range(4):
        acc += float(np.sum(np.exp(-_GRID) * _GRID))
    return acc


def reference_seconds() -> float:
    """Wall time of one reference_work() call."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def calibration_factor(ref_before: float, ref_after: float,
                       fixed: float = REF_FIXED_S) -> float:
    """Multiplier from a wall time to a calibrated time."""
    return fixed / (0.5 * (ref_before + ref_after))


def calibrate() -> float:
    """Median reference duration over 2000 calls; used to set REF_FIXED_S."""
    times = sorted(reference_seconds() for _ in range(2000))
    return times[len(times) // 2]


if __name__ == "__main__":
    print(f"median reference_work: {calibrate() * 1e3:.4f} ms "
          f"(frozen REF_FIXED_S = {REF_FIXED_S * 1e3:.4f} ms)")
