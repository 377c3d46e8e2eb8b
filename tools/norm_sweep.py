"""Sweep the quadrature norms of the base fields against their closed forms.

    python3 tools/norm_sweep.py [--src SRC] [--compare PARENT_SRC]

SRC (by default the `src` directory of this checkout) and PARENT_SRC are
directories holding the `odkirch` package.  Each tree runs in its own
interpreter, which imports odkirch from that directory only.  For every norm
of the sweep it computes `norm_quadrature` of the base profile (U or |grad U|)
over the profile's domain [r_min, r_max], with the profile's sign changes as
breakpoints and the default rel_tol 1e-10, and the closed form `profile_norm`
of the same tree, and puts the norm in one class:

- right: the quadrature is within 1e-8 of the closed form, relative;
- typed error: `norm_quadrature` raised an `OdkirchError`;
- wrong: a value further off, or any other exception;
- no closed form: `profile_norm` itself raised, so nothing is compared.

The sweep holds 15,080 admissible norms:

- the exterior domain in R^n, n in {2, 3, 5, 10, 50, 100, 438}: for each field
  whose norm is finite (U from n = 3 on, grad U always), 400 exponents
  geomspace(1.01, 1e6) times the field's threshold n/(n-2) for U, n/(n-1)
  for grad U (2/3 in the plane), and for grad U 40 more, linspace(3e4,
  1.2e5);
- the ball in R^n, n in {2, 3, 10}, of radius 0.01, 1, 1.5 and 100: both
  fields at the 400 exponents geomspace(1.01, 1e6).

The summary gives the count of each class, how many right values are off by
more than 1e-10 and the worst relative error of a right value.  With
--compare the sweep runs on PARENT_SRC too, and every norm whose class
changed is listed with both classes and the error message or relative error
of each side, then the count of changes from each class to each.  The script
exits 1 when SRC has a wrong norm or, with --compare, any norm changed class,
and 0 otherwise.
"""

import argparse
import collections
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RIGHT_WITHIN = 1e-8
TIGHT = 1e-10
EXTERIOR_DIMS = (2, 3, 5, 10, 50, 100, 438)
BALL_DIMS = (2, 3, 10)
BALL_RADII = (0.01, 1.0, 1.5, 100.0)


def sweep():
    """(geometry document, field order, exponent) of every norm."""
    import numpy as np

    factors = np.geomspace(1.01, 1e6, 400)
    large_q = np.linspace(3e4, 1.2e5, 40)
    for n in EXTERIOR_DIMS:
        geom = {"kind": "exterior", "n": n}
        if n >= 3:
            for p in factors * (n / (n - 2.0)):
                yield geom, 0, float(p)
        for q in [*factors * (2.0 / 3.0 if n == 2 else n / (n - 1.0)), *large_q]:
            yield geom, 1, float(q)
    for n in BALL_DIMS:
        for radius in BALL_RADII:
            geom = {"kind": "ball", "n": n, "radius": radius}
            for order in (0, 1):
                for p in factors:
                    yield geom, order, float(p)


def label(geom: dict, order: int, p: float) -> str:
    where = (f"ball n={geom['n']} R={geom['radius']!r}" if geom["kind"] == "ball"
             else f"exterior n={geom['n']}")
    return f"{where} {('||U||', '||grad U||')[order]}_{p!r}"


def child(src: str) -> int:
    """Class every norm of the sweep with odkirch from src; print one JSON
    list of [label, class, relative error or message]."""
    sys.path.insert(0, src)
    from odkirch import base_solutions
    from odkirch.errors import OdkirchError

    if Path(base_solutions.__file__).resolve().parent != (Path(src) / "odkirch").resolve():
        print(f"imported odkirch from {base_solutions.__file__}, not {src}", file=sys.stderr)
        return 2
    geometries = {}
    rows = []
    for geom_doc, order, p in sweep():
        key = tuple(sorted(geom_doc.items()))
        if key not in geometries:
            args = {k: v for k, v in geom_doc.items() if k != "kind"}
            geometries[key] = (base_solutions.BallGeometry(**args) if geom_doc["kind"] == "ball"
                               else base_solutions.ExteriorGeometry(**args))
        geom = geometries[key]
        prof = geom.profile()
        name = label(geom_doc, order, p)
        try:
            closed = (geom.norm_u, geom.norm_grad)[order](p)
        except OdkirchError as exc:
            rows.append([name, "no closed form", f"{type(exc).__name__}: {exc}"])
            continue
        try:
            quad = base_solutions.norm_quadrature(
                (prof.phi, prof.dphi)[order], p, geom.n, prof.r_min, prof.r_max,
                breaks=prof.sign_changes(order))
        except OdkirchError as exc:
            rows.append([name, "typed error", f"{type(exc).__name__}: {exc}"])
            continue
        except Exception as exc:  # an untyped failure is a wrong answer
            rows.append([name, "wrong", f"raised {type(exc).__name__}: {exc}"])
            continue
        rel = abs(quad - closed) / closed
        rows.append([name, "right" if rel <= RIGHT_WITHIN else "wrong", rel])
    json.dump(rows, sys.stdout)
    return 0


def start(src: str) -> subprocess.Popen:
    # -I: no PYTHONPATH, no user site, no script directory on sys.path; -B:
    # no bytecode left in the swept tree.
    return subprocess.Popen([sys.executable, "-I", "-B", str(Path(__file__).resolve()),
                             "--child", str(Path(src).resolve())],
                            stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, src: str) -> list:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"the sweep of {src} exited {proc.returncode}")
    return json.loads(out)


def summary(rows: list) -> str:
    counts = collections.Counter(cls for _, cls, _ in rows)
    right = [detail for _, cls, detail in rows if cls == "right"]
    parts = [f"{counts[cls]:,} {cls}" for cls in
             ("right", "typed error", "wrong", "no closed form")]
    return (f"{len(rows):,} norms: {', '.join(parts)}; "
            f"{sum(rel > TIGHT for rel in right):,} right values beyond {TIGHT:g}, "
            f"worst {max(right, default=0.0):.3g}")


def describe(cls: str, detail) -> str:
    return f"{cls} ({detail:.3g})" if isinstance(detail, float) else f"{cls} ({detail})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--compare", metavar="PARENT_SRC")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    procs = [start(args.src)] + ([start(args.compare)] if args.compare else [])
    rows = collect(procs[0], args.src)
    failed = any(cls == "wrong" for _, cls, _ in rows)
    if args.compare:
        parent = collect(procs[1], args.compare)
        changes = collections.Counter()
        for (name, cls, detail), (_, old_cls, old_detail) in zip(rows, parent):
            if cls != old_cls:
                changes[old_cls, cls] += 1
                print(f"{name}: {describe(old_cls, old_detail)} -> {describe(cls, detail)}")
        print(f"parent: {summary(parent)}")
        for (old_cls, cls), count in sorted(changes.items()):
            print(f"{count:,} norms changed from {old_cls} to {cls}")
        print(f"{sum(changes.values()):,} of {len(rows):,} norms changed class")
        failed = failed or bool(changes)
    print(f"change: {summary(rows)}" if args.compare else summary(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
