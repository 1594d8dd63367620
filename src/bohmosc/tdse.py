"""Split-step spectral propagator: the brute-force oracle.

Propagates i psi_t = -psi_xx/(2m) + V(x,t) psi for the harmonic potential
V = Omega^2(t) x^2/2 by Strang splitting (Feit, Fleck & Steiger, J. Comput.
Phys. 47, 412, 1982),

    psi  <-  e^(-i V dt/2) F^-1 e^(-i k^2 dt/2) F e^(-i V dt/2) psi,

with the potential evaluated at the midpoint of each step.  The scheme is
second order in dt and exactly unitary in the discrete norm, so agreement
with the analytically constructed wavefunction is an independent check of
the whole construction, not a restatement of it.

The closing half-kick of one step and the opening half-kick of the next
are applied as one kick with the summed coefficients; the halves are kept
apart only around a sampled slice and after the last step.  Omega is
evaluated once per block of midpoints, and every midpoint of a block
passes the phase-wrap guard before any of its steps is taken.  Each
returned slice must keep its mass in the outer eighth of the domain (its
outer sixteenth at each end) below a fixed limit, so that wrap-around at
the periodic boundary cannot pass silently.

The discrete Fourier transform uses the standard wavenumber layout
k in [-pi/h, pi/h); no transform convention leaks into the API.
scipy.fft is imported on the first propagation, not with this module, so
the subcommands that never propagate do not load it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .frequency import FrequencyProfile
from .madelung import SpatialGrid, WavefunctionGrid

__all__ = ["PropagatorConfig", "propagate", "fidelity"]

_log = logging.getLogger(__name__)

# dt * max|V| beyond this risks phase wrapping within a single step.
_PHASE_WRAP_LIMIT = 0.5

# Momentum-space headroom: the grid cutoff pi/h must exceed this multiple
# of the wavepacket's momentum width.
_MOMENTUM_MARGIN = 6.0

_NORM_DRIFT_LIMIT = 1e-10

# Largest |psi|^2 h mass allowed at a returned slice in the outer eighth
# of the domain (its outer sixteenth at each end).  The acceptance and
# benchmark runs reach 2e-11 at most (the critical run on [-28, 28]).
_BOUNDARY_MASS_LIMIT = 1e-8

# Midpoints whose Omega is evaluated in one call; bounds the coefficient
# memory of a long run.
_COEFF_BLOCK = 4096


@dataclass(frozen=True)
class PropagatorConfig:
    """Grid, step size, and potential for a split-step run.

    The grid size must be a power of two; dt may be negative for
    backward propagation.
    """

    grid: SpatialGrid
    dt: float
    profile: FrequencyProfile

    def __post_init__(self):
        if not self.grid.is_power_of_two:
            raise ValueError(f"grid size must be a power of two, got n={self.grid.n}")
        if not (np.isfinite(self.dt) and self.dt != 0):
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")


def _momentum_width(psi: np.ndarray, k: np.ndarray) -> float:
    import scipy.fft

    spectrum = np.abs(scipy.fft.fft(psi)) ** 2
    total = spectrum.sum()
    if total == 0:
        return 0.0
    return float(np.sqrt((k * k * spectrum).sum() / total))


def propagate(psi0: WavefunctionGrid, config: PropagatorConfig,
              t_end: float, sample_times=None) -> WavefunctionGrid:
    """Propagate a single-time slice to t_end, optionally sampling on the way.

    The number of steps is (t_end - start)/dt rounded to the nearest
    integer, which must reproduce the span to within 1e-9; sample times
    must fall on step boundaries.  Returns a WavefunctionGrid holding the
    requested sample times, or the single final slice if none are given.
    Raises if a returned slice has more than 1e-8 of its mass in the outer
    eighth of the domain (its outer sixteenth at each end).  Logs one DEBUG
    record with the run's statistics on the ``bohmosc`` logger.
    """
    import scipy.fft

    if psi0.times.size != 1:
        raise ValueError("psi0 must be a single-time slice")
    if psi0.grid != config.grid:
        raise ValueError("psi0 and config use different grids")
    grid = config.grid
    x = grid.x
    h = grid.h
    t0 = float(psi0.times[0])
    span = t_end - t0
    if span == 0:
        raise ValueError("t_end coincides with the start time")
    if np.sign(span) != np.sign(config.dt):
        raise ValueError(f"dt={config.dt} points away from t_end={t_end}")

    n_steps = int(round(span / config.dt))
    if n_steps < 1 or abs(n_steps * config.dt - span) > 1e-9 * max(abs(span), 1.0):
        raise ValueError(
            f"(t_end - t0)={span:g} is not an integer multiple of dt={config.dt:g}"
        )
    dt = span / n_steps

    psi = psi0.psi[0].astype(complex)
    norm0 = np.trapezoid(np.abs(psi) ** 2, x)
    if not abs(norm0 - 1.0) <= 1e-8:  # NaN fails too
        raise ValueError(f"psi0 is not normalized: int |psi|^2 dx = {float(norm0)}")

    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=h)
    sigma_k = _momentum_width(psi, k)
    cutoff = np.pi / h
    if cutoff < _MOMENTUM_MARGIN * sigma_k:
        raise ValueError(
            f"momentum cutoff pi/h = {cutoff:.3g} is below "
            f"{_MOMENTUM_MARGIN:g} x packet width {sigma_k:.3g}; refine the grid"
        )

    step_of_sample = {}
    if sample_times is not None:
        for ts in np.atleast_1d(np.asarray(sample_times, dtype=float)):
            j = int(round((ts - t0) / dt))
            if not (1 <= j <= n_steps) or abs(t0 + j * dt - ts) > 1e-9:
                raise ValueError(f"sample time {ts} is not on a step boundary")
            step_of_sample[j] = ts
    else:
        step_of_sample[n_steps] = t_end

    x2 = x * x
    x2_max = max(grid.x_min**2, grid.x_max**2)
    exp_kinetic = np.exp(-0.5j * k * k * dt)
    l2_0 = float(np.linalg.norm(psi))
    phase = np.empty(grid.n)
    kick = np.empty(grid.n, dtype=complex)

    def apply_kick(psi, coeff_sum):
        # psi *= exp(-i dt/2 coeff_sum x^2), built without a complex exp
        np.multiply(x2, -0.5 * dt * coeff_sum, out=phase)
        np.cos(phase, out=kick.real)
        np.sin(phase, out=kick.imag)
        psi *= kick

    out_times, out_psi = [], []
    worst_wrap = 0.0
    pending = 0.0  # coefficient of the closing half-kick not yet applied
    for first in range(0, n_steps, _COEFF_BLOCK):
        t_mid = t0 + (np.arange(first, min(first + _COEFF_BLOCK, n_steps)) + 0.5) * dt
        coeffs = 0.5 * config.profile.omega(t_mid) ** 2
        wrap = abs(dt) * (coeffs * x2_max)
        wrapped = np.flatnonzero(wrap >= _PHASE_WRAP_LIMIT)
        if wrapped.size:
            j = wrapped[0]
            raise ValueError(
                f"dt * max|V| = {wrap[j]:.3g} >= {_PHASE_WRAP_LIMIT} "
                f"at t={t_mid[j]:.6g}; shrink dt or the domain"
            )
        worst_wrap = max(worst_wrap, float(wrap.max()))

        for step, coeff in enumerate(coeffs.tolist(), first + 1):
            apply_kick(psi, pending + coeff)
            psi = scipy.fft.fft(psi, overwrite_x=True)
            psi *= exp_kinetic
            psi = scipy.fft.ifft(psi, overwrite_x=True)
            ts = step_of_sample.get(step)
            if ts is None and step < n_steps:
                pending = coeff
                continue
            apply_kick(psi, coeff)
            pending = 0.0
            if ts is not None:
                out_times.append(ts)
                out_psi.append(psi.copy())

    drift = abs(float(np.linalg.norm(psi)) - l2_0) / l2_0
    if drift > _NORM_DRIFT_LIMIT:
        raise RuntimeError(f"propagation lost unitarity: norm drift {drift:.3e}")

    out_psi = np.array(out_psi)
    edge = grid.n // 16
    tails = np.abs(out_psi[:, np.r_[:edge, grid.n - edge:grid.n]]) ** 2
    edge_mass = h * tails.sum(axis=1)
    leaked = np.flatnonzero(edge_mass > _BOUNDARY_MASS_LIMIT)
    if leaked.size:
        j = leaked[0]
        raise RuntimeError(
            f"|psi|^2 mass {edge_mass[j]:.3g} in the outer eighth of the domain "
            f"exceeds {_BOUNDARY_MASS_LIMIT:g} at t={out_times[j]:.6g}; "
            f"widen the domain"
        )

    _log.debug(
        "propagate: %d steps, norm drift %.3e, phase-wrap ratio %.3g, "
        "momentum ratio %.3g, boundary mass %.3e",
        n_steps, drift, worst_wrap / _PHASE_WRAP_LIMIT,
        _MOMENTUM_MARGIN * sigma_k / cutoff, float(edge_mass.max()),
    )
    return WavefunctionGrid(grid, np.array(out_times), out_psi)


def fidelity(psi_a: WavefunctionGrid, psi_b: WavefunctionGrid):
    """|int psi_a* psi_b dx| / (||psi_a|| ||psi_b||), in [0, 1].

    Insensitive to global phase.  For multi-time grids with matching
    times, returns one value per time.
    """
    if psi_a.grid != psi_b.grid:
        raise ValueError("fidelity requires a common grid")
    if psi_a.psi.shape != psi_b.psi.shape:
        raise ValueError("fidelity requires matching time samples")
    x = psi_a.grid.x
    overlap = np.abs(np.trapezoid(np.conj(psi_a.psi) * psi_b.psi, x, axis=1))
    norms = np.sqrt(psi_a.norms() * psi_b.norms())
    values = overlap / norms
    return float(values[0]) if values.size == 1 else values
