"""Solution structure of overdetermined ball and exterior-domain problems
with Kirchhoff-type nonlocal coefficients.

The library reduces each problem to one scalar transcendental equation,
counts and refines its roots, reconstructs the explicit solutions and checks
them numerically end to end.  See the module docstrings for the mathematics;
the `odkirch` command exposes the same pipeline from the shell.
"""

from .base_solutions import (BallGeometry, ExteriorGeometry, RadialProfile,
                             norm_quadrature)
from .config import RunConfig, build_config, load_config
from .errors import (ConfigError, DomainError, KernelEvalError,
                     KernelSyntaxError, OdkirchError, QuadratureError)
from .hessian import (binomial, elementary_symmetric, hessian_fd,
                      k_hessian_field, k_hessian_radial, principal_minor_sum)
from .kernel import eval_kernel, kernel_to_string, parse_kernel
from .reduction import (ProblemInstance, ReducedEquation, ScanConfig,
                        build_reduced, solve_roots, system_count_check)
from .specialfun import log_gamma, log_incomplete_beta, sphere_area
from .verifier import (THRESHOLDS, gamma_scaling_check, judge_kelvin,
                       judge_norms, judge_run, judge_solution, verify)

__version__ = "0.1.0"
