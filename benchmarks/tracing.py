"""Per-layer tracing from outside odkirch.

odkirch's modules call each other through names bound at import time
(`from .reduction import solve_roots` puts `solve_roots` into the cli
module).  The tracer replaces such names with wrappers for the duration of a
traced operation and puts the originals back afterwards; odkirch's own files
are never changed.  Each wrapper records a span (name, start, end, parent
span, operation id) and its work counts.  The wrappers of maximize,
golden_max and integrate also wrap the callable they receive, which counts
function evaluations; integrate calls its integrand once per 15-node
Gauss-Kronrod panel, so there the count is the number of panels.

Spans stay in memory; `dump` writes them once, at the end of a run.  A name
that no longer exists (after a refactor) is listed in `missing` and skipped.
"""

import json
import sys
import time
from collections import Counter

import numpy as np

ROOT_SPAN = "cli.main"

# (module of odkirch, attribute in it, span name, extra counting)
WRAPPED = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "canonical_json", "cli.canonical_json", None),
    ("cli", "build_reduced", "reduction.build_reduced", None),
    ("cli", "solve_roots", "reduction.solve_roots", None),
    ("cli", "system_count_check", "reduction.system_count_check", None),
    ("cli", "roots_to_solutions", "reduction.roots_to_solutions", None),
    ("cli", "verify_ball", "verifier.verify", None),
    ("cli", "verify_exterior", "verifier.verify", None),
    ("cli", "gamma_scaling_check", "verifier.gamma_scaling_check", None),
    ("cli", "kelvin_checks", "verifier.kelvin_checks", None),
    ("cli", "norm_quadrature", "base_solutions.norm_quadrature", "calls"),
    ("reduction", "eval_kernel", "kernel.eval_kernel", "kernel"),
    ("reduction", "golden_max", "quadrature.golden_max", "f_evals"),
    ("verifier", "eval_kernel", "kernel.eval_kernel", "kernel"),
    ("verifier", "norm_quadrature", "base_solutions.norm_quadrature", "calls"),
    ("verifier", "k_hessian_radial", "hessian.k_hessian_radial", None),
    ("base_solutions", "maximize", "quadrature.maximize", "f_evals"),
    ("base_solutions", "integrate", "quadrature.integrate", "panels"),
    ("base_solutions", "integrate_decaying", "quadrature.integrate_decaying", None),
    # Calls inside the quadrature module: integrate_decaying -> integrate
    # and maximize -> golden_max go through these module globals.
    ("quadrature", "integrate", "quadrature.integrate", "panels"),
    ("quadrature", "golden_max", "quadrature.golden_max", "f_evals"),
)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans and counts of traced operations, kept in memory."""

    def __init__(self):
        self.names = []                  # span name table
        self._name_ids = {}
        self.spans = []                  # [name_id, start, end, parent, op]
        self._stack = []                 # indices of open spans
        self._open = Counter()           # open spans by name
        self.counts = Counter()          # counts of the current operation
        self.missing = []
        self._saved = []
        self._op = -1
        self.last = None                 # layer record of the latest operation

    # -- installing the wrappers ------------------------------------------
    def install(self):
        modules = {m: sys.modules.get(f"odkirch.{m}") for m, _, _, _ in WRAPPED}
        for mod_name, attr, span, extra in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                where = f"{mod_name}.{attr}"
                if where not in self.missing:
                    self.missing.append(where)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, extra))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int, name: str):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def _counting(self, fun, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fun(*args, **kwargs)

        return counted

    def _wrap(self, original, span, extra):
        tracer = self
        layer = _layer(span)

        def wrapper(*args, **kwargs):
            if tracer._open[span]:
                # Recursion (canonical_json calls itself): one span only.
                return original(*args, **kwargs)
            if extra == "kernel":
                tracer._count_kernel(args, kwargs)
            elif extra == "calls":
                tracer.counts[f"{span}.calls"] += 1
            elif extra is not None:
                fun = args[0] if args else kwargs.pop("f")
                args = (tracer._counting(fun, f"{span}.{extra}"), *args[1:])
            idx = tracer._enter(span)
            try:
                return original(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer._exit(idx, span)

        wrapper.__wrapped__ = original
        return wrapper

    def _count_kernel(self, args, kwargs):
        s = args[1] if len(args) > 1 else kwargs["s"]
        t = args[2] if len(args) > 2 else kwargs["t"]
        if np.ndim(s) == 0 and np.ndim(t) == 0:
            self.counts["kernel.eval_kernel.scalar_calls"] += 1
            self.counts["kernel.eval_kernel.points"] += 1
            if self._open["reduction.solve_roots"]:
                self.counts["reduction.solve_roots.kernel_scalar_calls"] += 1
        else:
            self.counts["kernel.eval_kernel.array_calls"] += 1
            self.counts["kernel.eval_kernel.points"] += int(np.broadcast(s, t).size)

    # -- one operation -----------------------------------------------------
    def operation(self, op_id: int, main):
        """`main` as one traced operation; its layer record lands in `last`."""
        def traced_main(argv):
            self._op = op_id
            self.counts = Counter()
            first = len(self.spans)
            self.install()
            idx = self._enter(ROOT_SPAN)
            try:
                return main(argv)
            except BaseException:
                self.counts["cli.errors"] += 1
                raise
            finally:
                self._exit(idx, ROOT_SPAN)
                self.uninstall()
                self._op = -1
                self.last = self._record(first)

        return traced_main

    def _record(self, first: int) -> dict:
        """Inclusive and self seconds by span name, and counts, of one operation."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans[1:]:
            child[span[3] - first] += span[2] - span[1]
        incl, own = Counter(), Counter()
        for i, (nid, start, end, _, _) in enumerate(spans):
            name = self.names[nid]
            incl[name] += end - start
            own[name] += (end - start) - child[i]
        return {"wall": spans[0][2] - spans[0][1], "incl": dict(incl),
                "self": dict(own), "counts": dict(self.counts)}

    def dump(self, path):
        """Write every span recorded so far as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "columns": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
