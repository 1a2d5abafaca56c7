"""Algebraic structure of the nine-dimensional MICZ-Kepler problem.

Interbasis transformation matrices between the spherical, parabolic and
prolate spheroidal bases, the tridiagonal eigenproblem for the spheroidal
separation constant, and independent numeric oracles (Gauss quadrature,
brute-force sums, Clebsch-Gordan identities) that cross-verify every
closed form, exactly where possible.  The package exports only what the
command line and its callers need; everything else is reached through its
submodule (micz9.interbasis, micz9.spheroidal, ...).  Importing micz9 or
micz9.cli loads no numpy: the exact side is rational arithmetic, the float
modules import numpy inside the functions that use it, and so numpy, the
BACKEND, loads with the first command that needs an array.
"""

from .exactscalar import RadicalScalar
from .sector import enumerate_sectors, lambda_range, validate_sector

BACKEND = "numpy"
__version__ = "0.1.0"
