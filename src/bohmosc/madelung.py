"""Madelung fields of the time-dependent harmonic oscillator.

Writing psi = A exp(iS) with real amplitude and phase, a quadratic phase

    S(x,t) = x^2 nu_dot(t)/2 + mu(t),      mu_dot = -exp(-2 nu)/2,

with mu the phase integral carried by the ErmakovSolution, together with
the dilated Gaussian amplitude

    A(x,t) = pi^(-1/4) exp(-x^2 exp(-2 nu)/2 - nu/2)

solves the Schrodinger equation for V(x,t) = Omega^2(t) x^2/2 exactly,
provided rho = exp(nu) obeys the Ermakov equation.  The quantum part of
the dynamics is the Bohm potential

    V_B(x,t) = -x^2 exp(-4 nu)/2 + exp(-2 nu)/2,

which this module evaluates three independent ways: from nu, from the
branch closed forms of the rational family, and from -A''/(2A) by finite
differences on sampled amplitudes.  Units: hbar = m = 1 throughout, as in
the construction and the split-step propagator.

All field evaluations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frequency import FrequencyProfile, Regime, classify_rational
from .ermakov import (
    ABS_TOL,
    REL_TOL,
    ErmakovSolution,
    critical_solution,
    solve_numeric,
    subcritical_parameters,
    subcritical_solution,
)

__all__ = [
    "SpatialGrid",
    "WavefunctionGrid",
    "Construction",
    "amplitude_gaussian",
    "amplitude_gaussian_dx",
    "amplitude_gaussian_dt",
    "wavefunction",
    "bohm_potential_gaussian",
    "bohm_potential_subcritical",
    "bohm_potential_critical",
    "bohm_potential_from_amplitude",
    "classical_potential",
    "rational_construction",
    "numeric_construction",
    "AMPLITUDE_FLOOR",
]

_PI_MQUARTER = np.pi**-0.25

# |A| below this is treated as a node: the Bohm potential genuinely diverges
# there and fabricated values would poison residual tests, so mask instead.
AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [x_min, x_max] with n samples, spacing h = span/(n-1).

    On a domain symmetric about 0, x is an exact mirror image:
    x[n-1-j] == -x[j] for every j.  The default covers [-8, 8] with 512
    points (a power of two, as the spectral propagator requires).
    """

    x_min: float = -8.0
    x_max: float = 8.0
    n: int = 512

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"need n >= 16 grid points, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")

    @cached_property
    def x(self) -> np.ndarray:
        n = self.n
        x = np.linspace(self.x_min, self.x_max, n)
        if self.x_min == -self.x_max:
            # np.linspace does not mirror its halves bit for bit, and an
            # even state must sample as even: the left half is the right
            # half negated, and an odd n's middle point is 0.
            x[:n // 2] = -x[::-1][:n // 2]
            if n % 2:
                x[n // 2] = 0.0
        x.setflags(write=False)
        return x

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def is_power_of_two(self) -> bool:
        return self.n > 0 and (self.n & (self.n - 1)) == 0


@dataclass(frozen=True)
class WavefunctionGrid:
    """Complex psi samples on a SpatialGrid at one or more times.

    psi has shape (len(times), grid.n); arrays are frozen read-only.
    """

    grid: SpatialGrid
    times: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        # private copies so later writes to caller arrays cannot leak in,
        # then frozen to honor the immutability contract
        times = np.atleast_1d(np.array(self.times, dtype=float))
        psi = np.atleast_2d(np.array(self.psi, dtype=complex))
        if psi.shape != (times.size, self.grid.n):
            raise ValueError(
                f"psi shape {psi.shape} does not match "
                f"({times.size}, {self.grid.n})"
            )
        times.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "psi", psi)

    def norms(self) -> np.ndarray:
        """Trapezoidal int |psi|^2 dx per stored time."""
        return np.trapezoid(np.abs(self.psi) ** 2, self.grid.x, axis=1)


@dataclass(frozen=True)
class Construction:
    """The solution of one frequency profile and the fields built from it.

    nu = ln(rho) and its derivatives nu' = rho'/rho and
    nu'' = (rho rho'' - rho'^2)/rho^2, with rho'' reconstructed through the
    ODE of the profile, give the quadratic phase
    S(x,t) = x^2 nu_dot(t)/2 + mu(t).  mu is the phase integral of the
    solution, pinned by mu_dot = -exp(-2 nu)/2 = -1/(2 rho^2); the
    integration constant mu(0) = 0 is a convention (a global phase is
    physically irrelevant but must be fixed for reproducibility).
    """

    profile: FrequencyProfile
    solution: ErmakovSolution

    # perfbench/jobs.py reads .scale; it goes with ROADMAP items 8 and 9.
    @property
    def scale(self) -> Construction:
        return self

    def nu(self, t):
        return np.log(self.solution.rho(t))

    def nu_dot(self, t):
        return self.solution.rho_dot(t) / self.solution.rho(t)

    def nu_ddot(self, t):
        rho = self.solution.rho(t)
        rho_dot = self.solution.rho_dot(t)
        rho_ddot = rho**-3 - np.square(self.profile.omega(t)) * rho
        return (rho * rho_ddot - rho_dot * rho_dot) / (rho * rho)

    def S(self, x, t):
        return (0.5 * np.asarray(x, dtype=float) ** 2 * self.nu_dot(t)
                + self.solution.mu(t))

    def S_x(self, x, t):
        return np.asarray(x, dtype=float) * self.nu_dot(t)

    def S_t(self, x, t):
        mu_dot = -0.5 * np.exp(-2.0 * self.nu(t))
        return 0.5 * np.asarray(x, dtype=float) ** 2 * self.nu_ddot(t) + mu_dot

    def psi(self, grid: SpatialGrid, times) -> WavefunctionGrid:
        """psi sampled on the grid at the given times, one row per time."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return WavefunctionGrid(grid=grid, times=times,
                                psi=wavefunction(grid.x, times[:, None], self))


# perfbench/spans.py wraps PhaseField.S; it goes with ROADMAP items 8 and 9.
PhaseField = Construction


def amplitude_gaussian(x, t, construction: Construction):
    """Dilated Gaussian amplitude pi^(-1/4) exp(-x^2 e^(-2nu)/2 - nu/2).

    At nu = 0 this is the initial condition A0(x) = pi^(-1/4) exp(-x^2/2);
    the L2 norm is 1 for every nu (the dilation is unitary).
    """
    x = np.asarray(x, dtype=float)
    nu = construction.nu(t)
    return _PI_MQUARTER * np.exp(-0.5 * x * x * np.exp(-2.0 * nu) - 0.5 * nu)


def amplitude_gaussian_dx(x, t, construction: Construction):
    """Spatial derivative A' = -x e^(-2nu) A of the Gaussian amplitude."""
    x = np.asarray(x, dtype=float)
    return (-x * np.exp(-2.0 * construction.nu(t))
            * amplitude_gaussian(x, t, construction))


def amplitude_gaussian_dt(x, t, construction: Construction):
    """Time derivative A_t = nu_dot (x^2 e^(-2nu) - 1/2) A of the Gaussian amplitude."""
    x = np.asarray(x, dtype=float)
    nu = construction.nu(t)
    return (
        construction.nu_dot(t)
        * (x * x * np.exp(-2.0 * nu) - 0.5)
        * amplitude_gaussian(x, t, construction)
    )


def wavefunction(x, t, construction: Construction) -> np.ndarray:
    """psi(x,t) = A(x,t) exp(i S(x,t)) on the broadcast of x and t."""
    return (amplitude_gaussian(x, t, construction)
            * np.exp(1j * construction.S(x, t)))


def bohm_potential_gaussian(x, t, construction: Construction):
    """V_B(x,t) = -x^2 e^(-4 nu)/2 + e^(-2 nu)/2 for the Gaussian amplitude.

    Zero crossings sit at |x| = e^(nu); V_B(0,0) = 1/2 when rho(0) = 1.
    """
    x = np.asarray(x, dtype=float)
    e2 = np.exp(-2.0 * construction.nu(t))
    return -0.5 * x * x * e2 * e2 + 0.5 * e2


def bohm_potential_subcritical(b: float, x, t):
    """Branch closed form: V_B = -(1-b^2/4) x^2 / (2(a+bt)^2) + sqrt(1-b^2/4)/(2(a+bt))."""
    a, _ = subcritical_parameters(b)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    denom = a + b * t
    if np.any(denom <= 0):
        raise ValueError(f"a + b*t must stay positive (a={a}, b={b})")
    disc = 1.0 - b * b / 4.0
    return -0.5 * disc * x * x / denom**2 + 0.5 * a / denom


def bohm_potential_critical(x, t):
    """Branch closed form at b=2, finite for all t >= 0:

    V_B = -x^2 / (2 (1+2t)^2 [1 + ln^2(1+2t)/4]^2) + 1 / (2 (1+2t) [1 + ln^2(1+2t)/4]).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    u = 1.0 + 2.0 * t
    if np.any(u <= 0):
        raise ValueError("critical Bohm potential requires 1 + 2t > 0")
    ell = np.log(u)
    w = 1.0 + 0.25 * ell * ell
    return -0.5 * x * x / (u * u * w * w) + 0.5 / (u * w)


def bohm_potential_from_amplitude(a, grid: SpatialGrid) -> np.ma.MaskedArray:
    """V_B = -A''/(2A) by second-order central differences on sampled A.

    Endpoints use one-sided second-order stencils.  Points where
    |A| <= AMPLITUDE_FLOOR are masked: the Bohm potential genuinely
    diverges at amplitude nodes.  The mask of the returned array is the
    machine-readable report of the excluded region.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n,):
        raise ValueError(f"amplitude must be sampled on the grid, shape {(grid.n,)}")
    h2 = grid.h * grid.h
    app = np.empty_like(a)
    app[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / h2
    app[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h2
    app[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h2

    mask = np.abs(a) <= AMPLITUDE_FLOOR
    safe = np.where(mask, 1.0, a)
    return np.ma.masked_array(-app / (2.0 * safe), mask=mask)


def classical_potential(profile: FrequencyProfile, x, t):
    """V(x,t) = Omega^2(t) x^2 / 2."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.square(profile.omega(t)) * x * x


def rational_construction(b: float) -> Construction:
    """Full construction for the rational family at slope b.

    Dispatches on the regime: subcritical closed forms for 0 <= b < 2
    (b = 0 is the static oscillator Omega = 1), critical closed forms at
    b = 2.  Raises for b > 2, where no real subcritical solution exists.
    """
    regime = classify_rational(b)
    if regime is Regime.UNSUPPORTED:
        raise ValueError(f"b={b} > 2 is outside the supported regimes")
    if regime is Regime.CRITICAL:
        return Construction(FrequencyProfile.rational(1.0, 2.0), critical_solution())
    a, _ = subcritical_parameters(b)
    return Construction(FrequencyProfile.rational(a, b), subcritical_solution(b))


def numeric_construction(
    profile: FrequencyProfile,
    window: tuple,
    rho0: float = 1.0,
    rho_dot0: float = 0.0,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
) -> Construction:
    """Full construction for an arbitrary profile via numeric integration."""
    solution = solve_numeric(profile, rho0, rho_dot0, window,
                             rel_tol=rel_tol, abs_tol=abs_tol)
    return Construction(profile, solution)
