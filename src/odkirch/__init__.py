"""Solution structure of overdetermined ball and exterior-domain problems
with Kirchhoff-type nonlocal coefficients.

The library reduces each problem to one scalar transcendental equation,
counts and refines its roots, reconstructs the explicit solutions and checks
them numerically end to end.  See the module docstrings for the mathematics;
the `odkirch` command exposes the same pipeline from the shell.
"""

__version__ = "0.1.0"
