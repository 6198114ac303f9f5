"""Exact cocycle construction and verification for the principal series of
SU(2,1), with an independent floating-point oracle.

The exact side (scalars, lie, wigner, polynomials, cochains) never touches a
float; the oracle side (oracle) never touches the exact engine except to read
off generator matrices and operator coefficients for comparison.  Every name
is imported from the module that defines it, e.g. `su21coh.cochains`.
"""

__version__ = "0.1.0"
