"""Seeded workloads: odkirch configs together with their oracle answers.

Every workload is a fixed list of slots.  A slot fixes everything that sets
the cost of one operation: the command, the geometry kind and dimension, k,
which exponents are infinite, the kernel family and the number of roots.  The
seed draws only the continuous parameters inside narrow ranges (radius,
exponents, kernel coefficients, lambda), so one round of slots costs about
the same on every seed, while no seed repeats another's inputs.

lambda is placed from the oracle's fold values, never from odkirch: inside
an interval of constant root count, at least FOLD_MARGIN (relative) away from
each fold, so the count is well-posed.  A draw whose roots leave ROOT_RANGE
or whose amplitude exceeds MAX_AMPLITUDE is redrawn before odkirch ever sees
it; no instance is discarded after running odkirch.

The verify slots also keep the target lambda ||U||_p^k at or above
TARGET_MIN.  Below an absolute 1e-3, odkirch's tangency scan takes the
flat stretch of |g - target| at small s (g too small to change the last bit
of the target) for a run of local minima and refines every grid point of it:
one operation then costs seconds instead of tens of milliseconds, and
whether a seed's draw lands there would decide a run's figures.  That waste is
recorded in CHANGES.md; it is left out here so that a round costs the same
on every seed.
"""

import math

import numpy as np

import oracle

INF = math.inf
FOLD_MARGIN = 0.08
ROOT_RANGE = (1e-4, 1e2)
LAMBDA_RANGE = (1e-2, 1e3)
MAX_AMPLITUDE = 1e2
TARGET_MIN = 1e-2
ANALYZE_LAMBDA_SPAN = 20.0      # sweep from min fold / 20 to max fold * 20


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


# Kernel families: odkirch expression text and an independent numpy twin.
FAMILIES = {
    "well": ("(s - {a})^2 + {b}", lambda s, t, a, b: (s - a) ** 2 + b),
    "decay": ("{c} * exp(-s)", lambda s, t, c: c * np.exp(-s)),
    "grad": ("1 + {beta} * t", lambda s, t, beta: 1.0 + beta * t),
    "saturate": ("1 / (1 + {alpha} * s * t)",
                 lambda s, t, alpha: 1.0 / (1.0 + alpha * s * t)),
    "expgrad": ("exp(-s) + {beta} * t",
                lambda s, t, beta: np.exp(-s) + beta * t),
}


def _slot(kind, dim, k, p, q, family, count, radius=(0.8, 1.25), **params):
    return {"kind": kind, "dim": dim, "k": k, "p": p, "q": q,
            "family": family, "count": count, "radius": radius,
            "params": params}


_WELL = {"a": (1.6, 2.4), "b": (0.06, 0.14)}
_PLANE_WELL = {"a": (0.8, 1.2), "b": (0.03, 0.07)}
_DECAY = {"c": (1.5, 3.0)}
_GRAD = {"beta": (0.5, 2.0)}
_SAT = {"alpha": (0.5, 2.0)}

# p or q infinite; exterior slots have both infinite so that every norm
# goes through quadrature.maximize and none through tail integration.
# The costliest slot (3 roots on the planar exterior) is listed twice, so
# that the 90th percentile falls inside its group of times rather than on
# the gap below it; VERIFY_FINITE does the same.
VERIFY_SUP = [
    _slot("ball", 2, 1, INF, 2.0, "well", 3, **_WELL),
    _slot("ball", 2, 1, INF, 2.0, "well", 1, **_WELL),
    _slot("ball", 3, 1, INF, 3.0, "decay", 2, **_DECAY),
    _slot("ball", 3, 2, 2.0, INF, "grad", 1, radius=(1.0, 1.6), **_GRAD),
    _slot("ball", 4, 2, INF, INF, "well", 3, **_WELL),
    _slot("ball", 2, 1, 3.0, INF, "saturate", 2, **_SAT),
    _slot("ball", 5, 3, INF, 1.5, "grad", 1, **_GRAD),
    _slot("exterior", 3, 1, INF, INF, "expgrad", 1, **_GRAD),
    _slot("exterior", 4, 1, INF, INF, "decay", 2, **_DECAY),
    _slot("exterior", 2, 1, INF, INF, "well", 3, **_PLANE_WELL),
    _slot("exterior", 2, 1, INF, INF, "well", 3, **_PLANE_WELL),
    _slot("exterior", 5, 1, INF, INF, "saturate", 2, **_SAT),
    _slot("exterior", 2, 1, INF, INF, "well", 1, **_PLANE_WELL),
]

# Finite p and q only: norms through Gauss-Kronrod panels (integrate) on the
# ball and tail integration (integrate_decaying) outside, never maximize.
# Exterior exponents stay at least 1 above their integrability thresholds
# n/(n-2) and n/(n-1).
VERIFY_FINITE = [
    _slot("ball", 3, 2, (1.5, 3.0), (3.0, 5.0), "grad", 1, radius=(1.0, 2.0), **_GRAD),
    _slot("ball", 2, 1, (1.0, 4.0), (1.5, 4.0), "well", 3, **_WELL),
    _slot("ball", 2, 1, (1.0, 4.0), (1.5, 4.0), "well", 1, **_WELL),
    _slot("ball", 3, 1, (1.5, 3.0), (1.5, 3.0), "decay", 2, **_DECAY),
    _slot("ball", 4, 1, (1.5, 3.0), (1.5, 3.0), "saturate", 2, **_SAT),
    _slot("ball", 5, 3, (1.0, 2.5), (2.0, 4.0), "grad", 1, **_GRAD),
    _slot("exterior", 3, 1, (4.0, 6.0), (2.5, 3.5), "saturate", 2, **_SAT),
    _slot("exterior", 4, 1, (3.0, 5.0), (2.5, 3.5), "decay", 2, **_DECAY),
    _slot("exterior", 5, 1, (2.7, 4.0), (2.3, 3.3), "expgrad", 1, **_GRAD),
    _slot("exterior", 3, 1, (4.0, 6.0), (2.5, 3.5), "well", 3, **_WELL),
    _slot("exterior", 3, 1, (4.0, 6.0), (2.5, 3.5), "well", 3, **_WELL),
    _slot("exterior", 3, 1, (4.0, 6.0), (2.5, 3.5), "well", 1, **_WELL),
]

# The four battery families of tests/fixtures/battery.json that the sweep
# runs, copied here so that the workload does not move when the battery
# grows; a test checks they still match.
SWEEP_FAMILIES = [
    {"name": "ball-quadratic-well", "geometry": {"kind": "ball", "dim": 2, "radius": 1.0},
     "k": 1, "p": INF, "q": 2.0, "family": "well", "params": {"a": 2.0, "b": 0.1}},
    {"name": "ball-decaying", "geometry": {"kind": "ball", "dim": 2, "radius": 1.0},
     "k": 1, "p": INF, "q": 2.0, "family": "decay", "params": {"c": 2.0}},
    {"name": "exterior-saturating", "geometry": {"kind": "exterior", "dim": 3},
     "k": 1, "p": 4.0, "q": 2.0, "family": "saturate", "params": {"alpha": 1.0}},
    {"name": "exterior-plane-double-well", "geometry": {"kind": "exterior", "dim": 2},
     "k": 1, "p": INF, "q": 1.0, "family": "well", "params": {"a": 1.0, "b": 0.05}},
]
SWEEP_SLOTS_PER_FAMILY = 6

WORKLOADS = {"verify-sup": 1, "verify-finite": 2, "analyze-sweep": 3}


def _exponent_doc(x: float):
    return "inf" if math.isinf(x) else x


def kernel_text(family: str, params: dict) -> str:
    return FAMILIES[family][0].format(**{k: repr(v) for k, v in params.items()})


def kernel_numpy(family: str, params: dict):
    fun = FAMILIES[family][1]
    return lambda s, t: fun(s, t, **params)


def _count_intervals(folds, lam_lo, lam_hi, red):
    """[(lo, hi, lo_is_fold, hi_is_fold, count)] over [lam_lo, lam_hi]."""
    edges = [lam_lo] + [f for f in folds if lam_lo < f < lam_hi] + [lam_hi]
    out = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mid = math.sqrt(lo * hi)
        out.append((lo, hi, i > 0, i < len(edges) - 2, len(oracle.roots(red, mid))))
    return out


def _shrink(lo, hi, lo_is_fold, hi_is_fold):
    lo = lo * (1.0 + FOLD_MARGIN) if lo_is_fold else lo
    hi = hi / (1.0 + FOLD_MARGIN) if hi_is_fold else hi
    return lo, hi


def _expected(geometry, red, lam):
    roots = oracle.roots(red, lam)
    return {"count": len(roots), "roots": roots,
            "c": [oracle.boundary_gradient(geometry, red.norm_u, s) for s in roots]}


def _config(geometry, k, p, q, lam, kernel, seed):
    return {"schema_version": 1, "geometry": geometry, "k": k,
            "p": _exponent_doc(p), "q": _exponent_doc(q), "lambda": lam,
            "kernel": kernel, "seed": seed}


def _draw(rng, spec):
    if isinstance(spec, tuple):
        return _sig6(rng.uniform(*spec))
    return spec


def _verify_instance(rng, slot):
    """One verify instance of a slot; redraws until the oracle accepts it."""
    for _ in range(50):
        geometry = {"kind": slot["kind"], "dim": slot["dim"]}
        if slot["kind"] == "ball":
            geometry["radius"] = _draw(rng, slot["radius"])
        p, q = _draw(rng, slot["p"]), _draw(rng, slot["q"])
        params = {name: _draw(rng, rng_spec) for name, rng_spec in slot["params"].items()}
        red = oracle.reduced(geometry, slot["k"], p, q,
                             kernel_numpy(slot["family"], params))
        folds = oracle.fold_lambdas(red)
        lam_lo = max(LAMBDA_RANGE[0], TARGET_MIN / red.norm_u ** slot["k"])
        choices = [iv for iv in _count_intervals(folds, lam_lo, LAMBDA_RANGE[1], red)
                   if iv[4] == slot["count"]]
        if not choices:
            continue
        lo, hi = _shrink(*choices[int(rng.integers(len(choices)))][:4])
        if lo >= hi:
            continue
        lam = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        expect = _expected(geometry, red, lam)
        if (expect["count"] == slot["count"]
                and all(ROOT_RANGE[0] <= s <= ROOT_RANGE[1] for s in expect["roots"])
                and all(s / red.norm_u <= MAX_AMPLITUDE for s in expect["roots"])):
            return {"command": "verify",
                    "config": _config(geometry, slot["k"], p, q, lam,
                                      kernel_text(slot["family"], params),
                                      int(rng.integers(1000))),
                    "expect": expect}
    raise RuntimeError(f"no admissible draw for slot {slot}")


def _sweep_instances(rng, fam):
    red = oracle.reduced(fam["geometry"], fam["k"], fam["p"], fam["q"],
                         kernel_numpy(fam["family"], fam["params"]))
    folds = oracle.fold_lambdas(red)
    lam_lo = folds[0] / ANALYZE_LAMBDA_SPAN
    lam_hi = folds[-1] * ANALYZE_LAMBDA_SPAN
    intervals = _count_intervals(folds, lam_lo, lam_hi, red)
    per = SWEEP_SLOTS_PER_FAMILY // len(intervals)
    text = kernel_text(fam["family"], fam["params"])
    out = []
    for iv in intervals:
        lo, hi = _shrink(*iv[:4])
        width = math.log(hi / lo) / per
        for j in range(per):
            lam = float(math.exp(math.log(lo) + width * (j + rng.uniform())))
            out.append({"command": "analyze",
                        "config": _config(fam["geometry"], fam["k"], fam["p"],
                                          fam["q"], lam, text, 0),
                        "expect": _expected(fam["geometry"], red, lam)})
    return out


def generate(workload: str, seed: int) -> list:
    """The instances of one round of a workload, in run order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS[workload]])
    if workload == "analyze-sweep":
        out = []
        for fam in SWEEP_FAMILIES:
            out.extend(_sweep_instances(rng, fam))
    else:
        slots = VERIFY_SUP if workload == "verify-sup" else VERIFY_FINITE
        out = [_verify_instance(rng, slot) for slot in slots + slots]
    for i, inst in enumerate(out):
        inst["id"] = i
    return out
