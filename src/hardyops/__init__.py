"""Numerics for Hardy operators on the half-space.

Modules:
    specfun   -- DomainError and sin(pi x) with exact zeros.
    coupling  -- coupling constant C(p), sharp constant, exponent inversion.
    kernels   -- exact heat kernels (second-order case) and envelope formulas.
    discrete  -- graded-mesh 1D discretization and spectral calculus.
    verify    -- theorem-to-check harness producing verification reports.
    cli       -- command-line front end.
"""

from hardyops.specfun import DomainError

__all__ = ["DomainError"]
__version__ = "0.1.0"
