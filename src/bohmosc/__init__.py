"""Exact Madelung-Bohm wavefunctions for time-dependent harmonic oscillators.

Given a frequency profile Omega(t), the scale function solving the
Ermakov equation rho'' + Omega^2 rho = 1/rho^3 generates a closed-form
Gaussian wavefunction, its quadratic phase, and the accompanying Bohm
potential.  Two independent oracles check the construction: finite
difference residuals of the governing equations and a split-step spectral
propagator.
"""

# The package exports each module's __all__, where each name is listed once.
from . import ermakov, frequency, madelung, tdse, verify
from .frequency import *
from .ermakov import *
from .madelung import *
from .verify import *
from .tdse import *

__version__ = "0.1.0"

__all__ = ["__version__", *frequency.__all__, *ermakov.__all__, *madelung.__all__,
           *verify.__all__, *tdse.__all__]
