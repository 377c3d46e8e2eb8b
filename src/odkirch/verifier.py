"""Independent numerical verification of constructed solutions.

Nothing here trusts the closed-form norms or the root solver: Lebesgue norms
are recomputed by quadrature, boundary derivatives by finite differences of
the scalar field, and the PDE residual by the radial k-Hessian formula at
randomly sampled (but seeded) points.  A wrong closed form, a wrong root or a
corrupted amplitude all surface as residuals above tolerance.

The Kelvin suite exercises the inversion x -> x/|x|^2 that turns exterior
problems into punctured-ball ones: w(y) = |y|^(2-n) u(y/|y|^2) obeys
Delta w(y) = |y|^(-n-2) (Delta u)(y/|y|^2), the boundary sphere is fixed with
|grad w| = |grad u| there, and the singularity of w at the origin is removable
exactly when u stays appropriately bounded at infinity.  The image is
RadialProfile.kelvin; only image_pointwise evaluates the definition itself.
judge_kelvin reads the geometry's base field alone: its five checks and its
removability flag depend on n and the seed only, never on a root.

verify, gamma_scaling_check and judge_kelvin return their quantities under
the names that `odkirch verify --json` prints; THRESHOLDS and the judges turn
them into verdicts.  judge_run and judge_norms return the bodies of `odkirch
verify --json` and `norms --json`, so the command line only renders them.
"""

import math
import random

import numpy as np

from .base_solutions import ExteriorGeometry, norm_quadrature
from .config import exponent_doc
from .hessian import binomial, k_hessian_radial
from .kernel import eval_kernel
from .reduction import ProblemInstance

_INF = math.inf

# Pass/fail gates of `judge_solution`, `judge_kelvin` and `judge_norms`.
THRESHOLDS = {
    "interior_residual": 1e-6,
    "boundary_value": 1e-10,
    "boundary_gradient": 1e-8,
    "norm_consistency": 1e-8,
    "gamma_amplitude": 1e-6,
    "gamma_pde": 1e-6,
    "kelvin_identity": 1e-10,
    "kelvin_constant": 1e-8,
    "norm_agreement": 1e-8,
}


class _Draws(random.Random):
    """Seeded samples from the standard library's Mersenne Twister, which
    numpy imports anyway; numpy.random would import secrets, hmac and
    OpenSSL's hashlib besides, 5.7 MB resident."""

    def uniform(self, lo: float, hi: float, count: int) -> np.ndarray:
        """As numpy's Generator.uniform: 53-bit fractions from one getrandbits."""
        bits = self.getrandbits(64 * count).to_bytes(8 * count, "little")
        return lo + (hi - lo) * ((np.frombuffer(bits, "<u8") >> 11) * 2.0 ** -53)


def _unit_directions(rng: _Draws, count: int, n: int) -> np.ndarray:
    """count directions in R^n, normalized standard normals by Box-Muller;
    a zero vector would take two uniforms of exactly 0."""
    half = (count * n + 1) // 2
    u = rng.uniform(0.0, 1.0, 2 * half)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:half])), 2.0 * math.pi * u[half:]
    vecs = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    vecs = vecs[:count * n].reshape(count, n)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def draw_samples(geometry, seed: int, n_samples: int = 64) -> tuple:
    """n_samples seeded sample radii of the geometry, then as many unit
    directions: the draw `verify` and `judge_solution` take, its radii those
    of fewer samples first."""
    rng = _Draws(seed)
    return geometry.sample_radii(rng, n_samples), _unit_directions(rng, n_samples, geometry.n)


def _normal_derivative(u, x: np.ndarray, nu: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central difference of u along nu at x.

    x and nu are (m, n) arrays of points and unit directions, and u a field
    vectorized over points; the result holds the m derivatives.
    """
    return (-u(x + 2.0 * h * nu) + 8.0 * u(x + h * nu)
            - 8.0 * u(x - h * nu) + u(x - 2.0 * h * nu)) / (12.0 * h)


def _field(instance: ProblemInstance, root: dict, scale: float):
    """The radial profile of root's solution amplitude U, times scale; root's
    claims (s, c) stay, so any scale but 1.0 must fail verification."""
    prof = instance.geometry.profile().scale(root["amplitude"])
    return prof if scale == 1.0 else prof.scale(scale)


def verify(instance: ProblemInstance, root: dict, draws: tuple,
           scale: float = 1.0) -> dict:
    """Check that the field u = amplitude U of root, a record of `solve_roots`,
    times scale, solves on the instance's geometry the problem root claims.

    Interior: M(||u||_p, ||grad u||_q) S_k(D^2 u) = lambda w(|x - x0|) at
    seeded random radii, with both norms recomputed by quadrature and w the
    geometry's right-hand-side weight (1 on the ball, |x|^(-n-2) outside the
    unit ball, where k = 1).  Boundary: u = 0 and |normal derivative| = c at
    random points of the sphere of radius R about x0 (R = 1, x0 = 0 for the
    exterior domain), the derivative taken by finite differences of the
    scalar field; norm_consistency compares the quadrature ||u||_p with s.
    Keys are those of the per-root record of `odkirch verify --json`.  draws
    holds the sample radii and the boundary directions, as `draw_samples`
    returns them.
    """
    geom = instance.geometry
    n, radius = geom.n, geom.radius
    prof = _field(instance, root, scale)
    nu_q = norm_quadrature(prof.phi, instance.p, n, prof.r_min, prof.r_max,
                           breaks=prof.sign_changes(0))
    ng_q = norm_quadrature(prof.dphi, instance.q, n, prof.r_min, prof.r_max,
                           breaks=prof.sign_changes(1))
    m_val = eval_kernel(instance.kernel, nu_q, ng_q)

    radii, dirs = draws
    sk = k_hessian_radial(prof, radii, n, instance.k)
    interior = float(np.max(np.abs(m_val * sk - instance.lam * geom.rhs_weight(radii))))

    h = 1e-4 * max(1.0, radius, *map(abs, geom.center))
    u = prof.as_field(geom.center)
    x = np.asarray(geom.center) + radius * dirs
    dn = _normal_derivative(u, x, dirs, h)
    values = {
        "interior_residual": interior,
        "boundary_value": float(np.max(np.abs(u(x)))),
        "boundary_gradient": float(np.max(np.abs(np.abs(dn) - root["c"]))),
        "norm_consistency": abs(nu_q - root["s"]) / max(1.0, abs(root["s"])),
        "norm_u_quad": nu_q,
        "norm_grad_quad": ng_q,
        "kernel_value": float(m_val),
    }
    return values


def gamma_scaling_check(instance: ProblemInstance, root: dict, values: dict,
                        radii: np.ndarray, scale: float = 1.0) -> dict:
    """Rescale root's solution u, times scale as in `verify`, by
    gamma = (M C(N,k) / lambda)^(1/k) and test that v = gamma u satisfies the
    normalized equation of the base field: S_k(D^2 v) = C(N, k) on the ball,
    Delta v = n |x|^(-n-2) outside.

    M is `values["kernel_value"]`, the kernel at the quadrature-recomputed
    norms of u that `verify` found, so this closes the loop between solver,
    norms and scaling without shared code.  gamma_amplitude is |gamma *
    amplitude - 1|, and gamma_pde the deviation relative to C(N, k), the
    scale of the base equation's right side.  M > 0 at a true root, where
    M C(N, k) s^k = lambda ||U||_p^k > 0; for M <= 0 no real gamma exists,
    and all four values are nan, which fails both gamma checks.  radii are
    the sample radii of the PDE.
    """
    geom = instance.geometry
    n = geom.n
    m_val = values["kernel_value"]
    if m_val <= 0.0:
        return dict.fromkeys(("gamma", "recovered_amplitude", "gamma_amplitude",
                              "gamma_pde"), math.nan)
    coeff = binomial(n, instance.k)
    gamma = (m_val * coeff / instance.lam) ** (1.0 / instance.k)
    scaled = _field(instance, root, scale).scale(gamma)

    dev = float(np.max(np.abs(
        k_hessian_radial(scaled, radii, n, instance.k) - coeff * geom.rhs_weight(radii)
    )))
    recovered = float(gamma * (root["amplitude"] * scale))
    return {"gamma": float(gamma), "recovered_amplitude": recovered,
            "gamma_amplitude": abs(recovered - 1.0), "gamma_pde": dev / coeff}


def _check_table(values: dict) -> dict:
    """{name: (value, threshold)} -> {name: {value, threshold, pass}}."""
    return {name: {"value": v, "threshold": t, "pass": v <= t}
            for name, (v, t) in values.items()}


def judge_solution(instance: ProblemInstance, root: dict, draws: tuple,
                   scale: float = 1.0) -> dict:
    """Pass or fail root's solution, times scale: `verify` and the gamma
    check against THRESHOLDS.

    Returns the per-root record of `odkirch verify --json`: s, c and the
    amplitude of the field judged, the recomputed norms, kernel value and
    gamma, every check with its value, threshold and pass flag, and the
    overall "pass".  draws, those of `draw_samples`, go to `verify`, and the
    first 48 of their radii to the gamma check.
    """
    doc = verify(instance, root, draws, scale)
    doc.update(gamma_scaling_check(instance, root, doc, draws[0][:48], scale))
    checks = _check_table({name: (doc.pop(name), t)
                           for name, t in THRESHOLDS.items() if name in doc})
    return {"s": root["s"], "amplitude": root["amplitude"] * scale, "c": root["c"],
            **doc, "checks": checks,
            "pass": all(chk["pass"] for chk in checks.values())}


def judge_kelvin(geometry, seed: int = 0, n_samples: int = 48) -> dict | None:
    """Pass or fail the Kelvin-transform identity suite of an exterior
    geometry; None on a ball.

    Returns the "kelvin" record of `odkirch verify --json`.
    """
    if not isinstance(geometry, ExteriorGeometry):
        return None
    n = geometry.n
    base = geometry.profile()
    image = base.kelvin(n)

    # rho^(-n-2) <= 1e300, so the weight of the Laplacian identity stays finite.
    rng = _Draws(seed)
    rho = rng.uniform(max(0.05, 10.0 ** (-300.0 / (n + 2))), 0.999, n_samples)
    # The definition rho^(2-n) phi(1/rho) against the unit-ball base field.
    pointwise_dev = float(np.max(np.abs(rho ** (2.0 - n) * base.phi(1.0 / rho)
                                        - 0.5 * (rho ** 2 - 1.0))))
    lap_w = k_hessian_radial(image, rho, n, 1)
    lap_u = k_hessian_radial(base, 1.0 / rho, n, 1)
    # Both sides equal n, the identity's scale.
    identity_dev = float(np.max(np.abs(lap_w - rho ** (-n - 2.0) * lap_u))) / n
    constant_dev = float(np.max(np.abs(lap_w - n)))

    boundary_dev = abs(float(image.dphi(1.0)) ** 2 - float(base.dphi(1.0)) ** 2)

    # Kelvin is an involution; applying it twice must give back the profile
    # and both derivatives.
    twice = image.kelvin(n)
    back_r = rng.uniform(1.0, 4.0, n_samples)
    double_dev = max(
        float(np.max(np.abs(twice.phi(back_r) - base.phi(back_r)))),
        float(np.max(np.abs(twice.dphi(back_r) - base.dphi(back_r)))),
        float(np.max(np.abs(twice.d2phi(back_r) - base.d2phi(back_r)))),
    )

    # |w| against the fundamental solution at rho = 2^-4 .. 2^-20, in logs:
    # rho^(2-n) overflows there from n = 64 on.
    r = 2.0 ** -np.arange(4.0, 21.0)
    log_cmp = (2.0 - n) * np.log(r) if n >= 3 else np.log(np.log(1.0 / r))
    log_ratios = np.log(np.abs(image.phi(r))) - log_cmp
    monotone = bool(np.all(log_ratios[1:] < log_ratios[:-1]))

    identity, constant = THRESHOLDS["kelvin_identity"], THRESHOLDS["kelvin_constant"]
    checks = _check_table({
        "image_pointwise": (pointwise_dev, identity),
        "laplacian_identity": (identity_dev, identity),
        "laplacian_constant": (constant_dev, constant),
        "boundary_identity": (boundary_dev, constant),
        "double_transform": (double_dev, identity),
    })
    return {
        "checks": checks,
        "removability_monotone": monotone,
        # The shrink itself underflows to 0 from n = 70 on.
        "removability_log_shrink": float(log_ratios[-1] - log_ratios[0]),
        "pass": all(chk["pass"] for chk in checks.values()) and monotone,
    }


def judge_run(instance: ProblemInstance, analysis: dict, seed: int = 0,
              scale: float = 1.0) -> dict:
    """Pass or fail an analyze record: the body of `odkirch verify --json`,
    "pass" when its system check matched, every root's solution times scale
    passes `judge_solution` and the Kelvin suite, if any, passes."""
    draws = draw_samples(instance.geometry, seed)
    roots = [judge_solution(instance, root, draws, scale) for root in analysis["roots"]]
    kelvin = judge_kelvin(instance.geometry, seed=seed)
    system_check = analysis["system_check"]
    ok = (system_check["matched"] and all(doc["pass"] for doc in roots)
          and (kelvin is None or kelvin["pass"]))
    return {"amplitude_scale": scale, "count": analysis["count"],
            "system_check": system_check, "roots": roots, "kelvin": kelvin,
            "warnings": analysis["warnings"], "verdict": "pass" if ok else "fail"}


def judge_norms(instance: ProblemInstance) -> dict:
    """The closed-form norms of the base field against quadrature: the body of
    `odkirch norms --json`, one row per field and exponent (p and inf for u,
    q and inf for grad u, each once) and the verdict."""
    geom = instance.geometry
    prof = geom.profile()
    rows = []
    for order, exponent in dict.fromkeys(((0, instance.p), (0, _INF),
                                          (1, instance.q), (1, _INF))):
        cval = (geom.norm_u, geom.norm_grad)[order](exponent)
        qval = norm_quadrature((prof.phi, prof.dphi)[order], exponent, geom.n,
                               prof.r_min, prof.r_max, breaks=prof.sign_changes(order))
        rows.append({"field": ("u", "grad_u")[order], "exponent": exponent_doc(exponent),
                     "closed_form": cval, "quadrature": qval,
                     "rel_err": abs(cval - qval) / abs(cval)})
    threshold = THRESHOLDS["norm_agreement"]
    ok = all(row["rel_err"] <= threshold for row in rows)
    return {"rows": rows, "threshold": threshold, "verdict": "pass" if ok else "fail"}
