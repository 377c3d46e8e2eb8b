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

Every solution of a run is an explicit multiple amplitude U of the one base
field U, so verify and gamma_scaling_check judge a run's roots together, as
rows of one field: the profile scaled by the column of the amplitudes, whose
rows hold the bits of each root's field alone.  The residuals, boundary
stencils and gamma k-Hessians are (roots, samples) arrays reduced per row,
and a norm is one quadrature or maximization for all rows, each row reading
only its own samples; the kernel value stays one call per root.

verify, gamma_scaling_check and judge_kelvin return their quantities under
the names that `odkirch verify --json` prints, per root for the first two;
THRESHOLDS and the judges turn them into verdicts.  judge_run and judge_norms
return the bodies of `odkirch verify --json` and `norms --json`, so the
command line only renders them.
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

# Pass/fail gates of `judge_run`, `judge_kelvin` and `judge_norms`.
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
    directions: the draw `verify` takes, its radii those of fewer samples
    first."""
    rng = _Draws(seed)
    return geometry.sample_radii(rng, n_samples), _unit_directions(rng, n_samples, geometry.n)


def _normal_derivative(u, x: np.ndarray, nu: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central difference of u along nu at x.

    x and nu are (m, n) arrays of points and unit directions, and u a field
    vectorized over points; the result holds the m derivatives, in a row
    per field for a field of rows.
    """
    return (-u(x + 2.0 * h * nu) + 8.0 * u(x + h * nu)
            - 8.0 * u(x - h * nu) + u(x - 2.0 * h * nu)) / (12.0 * h)


def _field(instance: ProblemInstance, amplitude, scale: float):
    """The radial profile of amplitude U, times scale: one row per root for a
    column of amplitudes.  The roots' claims (s, c) stay, so any scale but 1.0
    must fail verification."""
    prof = instance.geometry.profile().scale(amplitude)
    return prof if scale == 1.0 else prof.scale(scale)


def _column(values: list) -> np.ndarray:
    return np.array(values, dtype=float)[:, None]


@np.errstate(all="ignore")  # a non-finite value fails its gate, unwarned
def verify(instance: ProblemInstance, roots: list, draws: tuple,
           scale: float = 1.0) -> list:
    """Check that the field u = amplitude U of each root, a record of
    `solve_roots`, times scale, solves on the instance's geometry the problem
    the root claims.

    Interior: M(||u||_p, ||grad u||_q) S_k(D^2 u) = lambda w(|x - x0|) at
    seeded random radii, with both norms recomputed by quadrature and w the
    geometry's right-hand-side weight (1 on the ball, |x|^(-n-2) outside the
    unit ball, where k = 1).  Boundary: u = 0 and |normal derivative| = c at
    random points of the sphere of radius R about x0 (R = 1, x0 = 0 for the
    exterior domain), the derivative taken by finite differences of the
    scalar field; norm_consistency compares the quadrature ||u||_p with s.
    The roots are rows of one field, the profile scaled by the column of
    their amplitudes, so each row holds the bits of its root's field alone.
    Returns per root a dict keyed as the per-root record of `odkirch verify
    --json`.  draws holds the sample radii and the boundary directions, as
    `draw_samples` returns them.
    """
    geom = instance.geometry
    n, radius = geom.n, geom.radius
    prof = _field(instance, _column([root["amplitude"] for root in roots]), scale)
    # One norm call per exponent for all rows; each root's held errors are
    # raised in its turn (U norm, gradient norm, kernel value), as alone.
    pairs = zip(*[norm_quadrature((prof.phi, prof.dphi)[order], exponent, n, prof.r_min,
                                  prof.r_max, breaks=prof.sign_changes(order))
                  for order, exponent in enumerate((instance.p, instance.q))])
    norms = []
    for pair in pairs:
        if errors := [value for value in pair if isinstance(value, Exception)]:
            raise errors[0]
        norms.append((*pair, eval_kernel(instance.kernel, *pair)))

    radii, dirs = draws
    sk = k_hessian_radial(prof, radii, n, instance.k)
    m_vals = _column([m_val for *_, m_val in norms])
    interior = np.max(np.abs(m_vals * sk - instance.lam * geom.rhs_weight(radii)), axis=1)

    h = 1e-4 * max(1.0, radius, *map(abs, geom.center))
    u = prof.as_field(geom.center)
    x = np.asarray(geom.center) + radius * dirs
    dn = _normal_derivative(u, x, dirs, h)
    boundary = np.max(np.abs(u(x)), axis=1)
    gradient = np.max(np.abs(np.abs(dn) - _column([root["c"] for root in roots])), axis=1)
    return [{
        "interior_residual": res,
        "boundary_value": bval,
        "boundary_gradient": bgrad,
        "norm_consistency": abs(nu_q - root["s"]) / max(1.0, abs(root["s"])),
        "norm_u_quad": nu_q,
        "norm_grad_quad": ng_q,
        "kernel_value": float(m_val),
    } for root, (nu_q, ng_q, m_val), res, bval, bgrad
        in zip(roots, norms, interior.tolist(), boundary.tolist(), gradient.tolist())]


@np.errstate(all="ignore")
def gamma_scaling_check(instance: ProblemInstance, roots: list, values: list,
                        radii: np.ndarray, scale: float = 1.0) -> list:
    """Rescale each root's solution u, times scale as in `verify`, by
    gamma = (M C(N,k) / lambda)^(1/k) and test that v = gamma u satisfies the
    normalized equation of the base field: S_k(D^2 v) = C(N, k) on the ball,
    Delta v = n |x|^(-n-2) outside.

    M is the root's `values["kernel_value"]`, the kernel at the
    quadrature-recomputed norms of u that `verify` found, so this closes the
    loop between solver, norms and scaling without shared code.
    gamma_amplitude is |gamma * amplitude - 1|, and gamma_pde the deviation
    relative to C(N, k), the scale of the base equation's right side.  M > 0
    at a true root, where M C(N, k) s^k = lambda ||U||_p^k > 0; for M <= 0 no
    real gamma exists, and all four values are nan, which fails both gamma
    checks.  The roots are rows of one field, scaled by the column of their
    gammas.  radii are the sample radii of the PDE.
    """
    geom = instance.geometry
    n = geom.n
    coeff = binomial(n, instance.k)
    m_vals = [doc["kernel_value"] for doc in values]
    gammas = [(m_val * coeff / instance.lam) ** (1.0 / instance.k) if m_val > 0.0
              else math.nan for m_val in m_vals]
    scaled = _field(instance, _column([root["amplitude"] for root in roots]),
                    scale).scale(_column(gammas))
    devs = np.max(np.abs(
        k_hessian_radial(scaled, radii, n, instance.k) - coeff * geom.rhs_weight(radii)
    ), axis=1).tolist()
    out = []
    for root, m_val, gamma, dev in zip(roots, m_vals, gammas, devs):
        if m_val <= 0.0:
            out.append(dict.fromkeys(("gamma", "recovered_amplitude", "gamma_amplitude",
                                      "gamma_pde"), math.nan))
            continue
        recovered = float(gamma * (root["amplitude"] * scale))
        out.append({"gamma": float(gamma), "recovered_amplitude": recovered,
                    "gamma_amplitude": abs(recovered - 1.0), "gamma_pde": dev / coeff})
    return out


def _check_table(values: dict) -> dict:
    """{name: (value, threshold)} -> {name: {value, threshold, pass}}."""
    return {name: {"value": v, "threshold": t, "pass": v <= t}
            for name, (v, t) in values.items()}


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
    passes `verify` and the gamma check against THRESHOLDS, and the Kelvin
    suite, if any, passes.

    The roots are judged together, as rows of one field, on one draw,
    `draw_samples(geometry, seed)`; the gamma check reads the first 48 of
    its radii.  Each record of "roots" holds s, c and the amplitude of the
    field judged, the recomputed norms, kernel value and gamma, every check
    with its value, threshold and pass flag, and the root's overall "pass".
    """
    draws = draw_samples(instance.geometry, seed)
    roots, docs = analysis["roots"], []
    values = verify(instance, roots, draws, scale)
    gammas = gamma_scaling_check(instance, roots, values, draws[0][:48], scale)
    for root, doc, gamma in zip(roots, values, gammas):
        doc.update(gamma)
        checks = _check_table({name: (doc.pop(name), t)
                               for name, t in THRESHOLDS.items() if name in doc})
        docs.append({"s": root["s"], "amplitude": root["amplitude"] * scale,
                     "c": root["c"], **doc, "checks": checks,
                     "pass": all(chk["pass"] for chk in checks.values())})
    kelvin = judge_kelvin(instance.geometry, seed=seed)
    system_check = analysis["system_check"]
    ok = (system_check["matched"] and all(doc["pass"] for doc in docs)
          and (kelvin is None or kelvin["pass"]))
    return {"amplitude_scale": scale, "count": analysis["count"],
            "system_check": system_check, "roots": docs, "kelvin": kelvin,
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
