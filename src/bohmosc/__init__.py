"""Exact Madelung-Bohm wavefunctions for time-dependent harmonic oscillators.

Given a frequency profile Omega(t), the scale function solving the
Ermakov equation rho'' + Omega^2 rho = 1/rho^3 generates a closed-form
Gaussian wavefunction, its quadratic phase, and the accompanying Bohm
potential.  Two independent oracles check the construction: finite
difference residuals of the governing equations and a split-step spectral
propagator.
"""

from .frequency import (
    FrequencyProfile,
    Regime,
    classify_rational,
)
from .ermakov import (
    closed_form_critical,
    closed_form_subcritical,
    critical_solution,
    ermakov_residual,
    solve_numeric,
    subcritical_parameters,
    subcritical_solution,
)
from .madelung import (
    SpatialGrid,
    WavefunctionGrid,
    amplitude_gaussian,
    amplitude_gaussian_dt,
    amplitude_gaussian_dx,
    bohm_potential_critical,
    bohm_potential_from_amplitude,
    bohm_potential_gaussian,
    bohm_potential_subcritical,
    classical_potential,
    numeric_construction,
    rational_construction,
    wavefunction,
)
from .verify import (
    ResidualReport,
    build_residual_report,
    continuity_residual,
    qhje_residual,
    schrodinger_residual,
)
from .tdse import PropagatorConfig, fidelity, propagate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FrequencyProfile",
    "Regime",
    "classify_rational",
    "closed_form_critical",
    "closed_form_subcritical",
    "critical_solution",
    "ermakov_residual",
    "solve_numeric",
    "subcritical_parameters",
    "subcritical_solution",
    "SpatialGrid",
    "WavefunctionGrid",
    "amplitude_gaussian",
    "amplitude_gaussian_dt",
    "amplitude_gaussian_dx",
    "bohm_potential_critical",
    "bohm_potential_from_amplitude",
    "bohm_potential_gaussian",
    "bohm_potential_subcritical",
    "classical_potential",
    "numeric_construction",
    "rational_construction",
    "wavefunction",
    "ResidualReport",
    "build_residual_report",
    "continuity_residual",
    "qhje_residual",
    "schrodinger_residual",
    "PropagatorConfig",
    "fidelity",
    "propagate",
]
