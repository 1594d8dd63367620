"""Split-step spectral propagator: the brute-force oracle.

Propagates i psi_t = -psi_xx/(2m) + V(x,t) psi for the harmonic potential
V = Omega^2(t) x^2/2 by Strang splitting (Feit, Fleck & Steiger, J. Comput.
Phys. 47, 412, 1982),

    psi  <-  e^(-i V dt/2) F^-1 e^(-i k^2 dt/2) F e^(-i V dt/2) psi,

with the potential evaluated at the midpoint of each step.  The scheme is
second order in dt and exactly unitary in the discrete norm, so agreement
with the analytically constructed wavefunction is an independent check of
the whole construction, not a restatement of it.

Every constructed psi is even in x (its phase is quadratic in x and its
amplitude a Gaussian in x/rho), V is even, and the step keeps that parity,
so the right half of the grid holds the whole state.  propagate takes
even states only, refuses any other with one line before any transform,
and steps the right half alone.  The grid is symmetric about x = 0 with
no point on it, so the periodic DFT of a mirror-even sequence is, up to a
phase per k, the DCT-II of its right half, its Nyquist bin is zero, and
the kinetic multiplier is even in k: the kinetic step is a DCT-II, a
multiply by e^(-i kappa^2 dt/2) with kappa_k = pi k/((n/2) h) for
k < n/2, and a DCT-III scaled by 1/n, exact in exact arithmetic.

The closing half-kick of one step and the opening half-kick of the next
are applied as one kick with the summed coefficients; a sampled slice
is written to its row of the returned stack and takes its closing half
there, so sampling never changes the trajectory.  Omega is evaluated once
per block of midpoints, and every midpoint of a block passes the
phase-wrap guard before any of its steps is taken.  The kicks are built
on the right half for a sub-block of steps at once, from one outer
product and one tan of the half phases (exp(i phi) = (1 - t^2 + 2it) /
(1 + t^2) with t = tan(phi/2); the guard keeps |phi| < 1/2), and each is
one multiply.  The norm drift is read at the end of every block, so a
run that loses unitarity is refused as soon as a block ends past the
limit.  A returned slice is written to the full grid as its mirror
image beside it, so the stack and fidelity see the whole domain.  Each
returned slice must keep its mass in the outer eighth of the domain (its
outer sixteenth at each end) below a fixed limit, read as twice the mass
of the right half's outer sixteenth and checked as the slice is taken,
so that wrap-around at the periodic boundary cannot pass silently and a
leaking run stops at its first leaked slice.  Without sample times the
one slice is t_end, on the same schedule and checks as any other.

No transform convention leaks into the API.  Each transform is one call
of scipy's pocketfft binding (scipy.fft._pocketfft.pypocketfft.dct), in
place on the half seen as an (n/2, 2) float array, so that the real and
imaginary parts are transformed together, with the type and
normalisation codes that scipy.fft.dct and idct pass, so the bits are
theirs; scipy.fft's own per-call argument handling costs as much as an
n = 512 transform.  The binding is loaded from its extension file on the
first propagation, under its full dotted name but without importing
scipy.fft, which would also load scipy.special and the array-API layer
(85 scipy modules and about 21 MB with scipy 1.17); so no subcommand,
tdse-check included, loads a scipy module.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

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

# The one bound on a run's work: steps times max(n, 512) grid points, so
# 2**20 steps at n <= 512 and 2**17 at n = 4096, each about 8 s on a
# 2-core Xeon, in memory fixed by n.  It also keeps the rounding drift of
# every run it admits under _NORM_DRIFT_LIMIT.  That drift is a bias,
# linear in the steps: on the static ground state on [-8, 8] at dt = 1e-4
# it is 2.6e-17, 3.3e-17, 1.8e-18, 6.8e-17, 2.6e-17, 1.4e-17, 4.3e-17,
# 3.1e-17 and 5.1e-17 a step in size at n = 64, 128, ..., 16384.  At the
# cap that is at most 7.1e-11 (n = 512), 1.4 times under the limit, and
# at most 1.4e-11 past n = 512.  2**31 admitted 2**22 steps at n <= 512,
# and n = 512 passes the limit near 1.47 million.
_MAX_STEP_POINTS = 2**29

# Largest |psi|^2 h mass allowed at a returned slice in the outer eighth
# of the domain (its outer sixteenth at each end).  The acceptance and
# benchmark runs reach 2e-11 at most (the critical run on [-28, 28]).
_BOUNDARY_MASS_LIMIT = 1e-8

# Midpoints whose Omega is evaluated in one call; bounds the coefficient
# memory of a long run.
_COEFF_BLOCK = 4096

# Points of the (rows, n/2) buffer that holds the kicks of one sub-block of
# steps, and of each of the two float arrays that build them: 512 KB in
# all up to n = 2**15, and one row of n/2 points each past it.
_KICK_POINTS = 2**14

# The dotted name the file-loaded binding keeps, the one scipy.fft imports.
_BINDING = "scipy.fft._pocketfft.pypocketfft"


@functools.cache
def _pocketfft_dct():
    """scipy's pocketfft dct, loaded from the binding's extension file.

    find_spec locates scipy without importing it; the extension keeps its
    dotted name, so a later import of scipy.fft shares the same module.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = Path(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"pypocketfft{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_BINDING, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dct
    raise ImportError(f"no pocketfft binding (pypocketfft) in {folder}")


def _kick_rows(scale, x2, out, floats):
    """Row j of out = exp(i phi), phi = scale[j] x2, without a cos or a sin.

    With t = tan(phi/2), sin(phi) = 2t/(1 + t^2) and 1 - cos(phi) =
    t sin(phi), so each row takes one tan (numpy's SIMD loop, about a
    third of the cost of a sin or a cos) and a few multiplies, and the
    real part carries no cancellation.  For |phi| <= 1/2, as the
    phase-wrap guard keeps it, the real part is within 1 ulp of cos(phi),
    the imaginary part within 3 ulp of sin(phi) and |kick|^2 within 2e-16
    of 1, and phi = 0 gives exactly 1 + 0j.  Uses the first scale.size
    rows of out and of each of the two float arrays in floats; returns
    those rows of out.
    """
    rows = scale.size
    out = out[:rows]
    t, s = floats[0, :rows], floats[1, :rows]
    np.multiply.outer(0.5 * scale, x2, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=s)
    s += 1.0
    np.divide(2.0, s, out=s)
    s *= t
    out.imag = s
    t *= s
    np.subtract(1.0, t, out=out.real)
    return out


@dataclass(frozen=True)
class PropagatorConfig:
    """Grid, step size, and potential for a split-step run.

    The grid size must be a power of two and the domain symmetric about
    x = 0, as the half-grid step requires: the state is propagated on the
    right half of the grid, so propagate takes only states even in x.
    dt may be negative for backward propagation.
    """

    grid: SpatialGrid
    dt: float
    profile: FrequencyProfile

    def __post_init__(self):
        if not self.grid.is_power_of_two:
            raise ValueError(f"grid size must be a power of two, got n={self.grid.n}")
        if self.grid.x_min != -self.grid.x_max:
            raise ValueError(
                f"domain must be symmetric about x = 0, "
                f"got [{self.grid.x_min:g}, {self.grid.x_max:g}]"
            )
        if not (np.isfinite(self.dt) and self.dt != 0):
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")


def propagate(psi0: WavefunctionGrid, config: PropagatorConfig,
              t_end: float, sample_times=None) -> WavefunctionGrid:
    """Propagate an even single-time slice to t_end, optionally sampling on the way.

    psi0 must be even in x: a slice whose mirror image differs from it
    by more than 1e-12 of its peak is refused with one line before any
    transform.  The number of steps is (t_end - start)/dt rounded to the
    nearest integer, which must be at most 2**29 / max(n, 512) and
    reproduce the span; sample times must fall on step boundaries and
    strictly advance in the direction of dt; none given is [t_end].
    t_end and the sample times are read with one allowance: 1e-9 (of the
    span for t_end, where the span passes 1) plus 8 ulps of the run's
    largest |t|, the rounding of start + k dt past |t| = 4.5e6.  Every
    time is refused, with one line, before any transform.  Returns a
    WavefunctionGrid holding the sample times, each slice an exact mirror
    image about x = 0.  Raises, naming its time, as soon as a slice is
    taken with more than 1e-8 of its mass in the outer eighth of the
    domain (its outer sixteenth at each end).  Raises, naming the steps
    taken, as soon as the relative drift of the discrete norm passes
    1e-10 at the end of a block of 4096 steps or at the last step: the
    drift is read at each of those points, so a run whose drift passes
    the limit and comes back under it by the last step is refused too.

    Only the right half of the grid is propagated.  The potential kicks
    are built once per sub-block of steps on it, from one tan per point
    (see _kick_rows), and each is one multiply.  Logs one DEBUG record on
    the ``bohmosc`` logger: steps, norm drift, phase-wrap and momentum
    ratios, the largest boundary mass of a slice, and the seconds spent
    evaluating Omega, building kicks, and in the step loop (the transform
    pair, the multiplies and each sampled slice's closing half-kick,
    mirror and boundary check).
    The transform pair is a DCT-II, unscaled, and a DCT-III, scaled by
    1/n, in place through scipy's pocketfft binding, loaded from its
    extension file without importing scipy.fft.
    """
    dct = _pocketfft_dct()
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

    steps = span / config.dt  # inf where dt is subnormal
    max_steps = _MAX_STEP_POINTS // max(grid.n, 512)
    if not steps < max_steps + 0.5:
        raise ValueError(f"{steps:.6g} steps are more than the cap of {max_steps} "
                         f"at n = {grid.n}")
    n_steps = int(round(steps))
    # t_end and each sample time are read within 1e-9 (of a span past 1),
    # plus the rounding of t0 + k dt, which is coarser past |t| = 4.5e6.
    rounding = 8.0 * np.spacing(max(abs(t0), abs(float(t_end))))
    if (n_steps < 1
            or abs(n_steps * config.dt - span) > 1e-9 * max(abs(span), 1.0) + rounding):
        raise ValueError(
            f"(t_end - t0)={span:g} is not an integer multiple of dt={config.dt:g}"
        )
    dt = span / n_steps

    times = np.atleast_1d(np.asarray(
        [t_end] if sample_times is None else sample_times, dtype=float))
    if not times.size:
        raise ValueError("sample_times is empty")
    # A non-finite time is refused before the arithmetic, where inf - inf
    # would be an invalid operation.
    off = np.flatnonzero(~np.isfinite(times))
    if not off.size:
        # A time twice the span away is past every step, and clipping it
        # there keeps the division from overflowing on a huge time.
        reach = 2.0 * abs(span)
        at = np.rint(np.clip(times - t0, -reach, reach) / dt)
        off = np.flatnonzero(~((1 <= at) & (at <= n_steps)
                               & (np.abs(t0 + at * dt - times) <= 1e-9 + rounding)))
    if off.size:
        raise ValueError(f"sample time {times[off[0]]} is not on a step boundary")
    if np.any(np.diff(at) <= 0):
        raise ValueError(f"sample times must strictly advance in the "
                         f"direction of dt={dt:g}")

    norm0 = psi0.norms()[0]
    if not abs(norm0 - 1.0) <= 1e-8:  # NaN fails too
        raise ValueError(f"psi0 is not normalized: int |psi|^2 dx = {float(norm0)}")
    half = grid.n // 2
    full = psi0.psi[0]
    odd = float(np.max(np.abs(full[:half][::-1] - full[half:])))
    peak = float(np.max(np.abs(full)))
    if odd > 1e-12 * peak:
        raise ValueError(f"psi0 is not even in x: max|psi0(-x) - psi0(x)| = "
                         f"{odd:.3g} against a peak of {peak:.3g}")
    psi = full[half:].astype(complex)
    # The (n/2, 2) float view of the half that each transform takes in place:
    # dct(input, type, axes, inorm, out, threads).
    work = psi.view(float).reshape(half, 2)

    # Bins 0 .. n/2 - 1 of the full grid's wavenumbers.  The full DFT has
    # the DCT-II's modulus at k and at n - k, and zero at the Nyquist bin,
    # so bin 0 counts once and every other bin twice.
    kappa = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=h)[:half]
    spectrum = np.square(dct(work, 2, (0,), 0, None, 1)).sum(axis=1)
    spectrum[1:] *= 2.0
    sigma_k = float(np.sqrt((kappa * kappa * spectrum).sum() / spectrum.sum()))
    cutoff = np.pi / h
    if cutoff < _MOMENTUM_MARGIN * sigma_k:
        raise ValueError(
            f"momentum cutoff pi/h = {cutoff:.3g} is below "
            f"{_MOMENTUM_MARGIN:g} x packet width {sigma_k:.3g}; refine the grid"
        )

    # The step of each sampled slice, then one that never comes.
    due = [*at.astype(int).tolist(), 0]
    stack = np.empty((times.size, grid.n), dtype=complex)
    # The right half's share of the outer eighth: its outer sixteenth.
    edge = half - grid.n // 16

    x2 = x[half:] * x[half:]
    x2_max = grid.x_max**2
    exp_kinetic = np.exp(-0.5j * kappa * kappa * dt)
    l2_0 = float(np.linalg.norm(psi))
    rows = max(1, _KICK_POINTS // half)
    kicks = np.empty((rows, half), dtype=complex)
    floats = np.empty((2, rows, half))

    taken = 0
    worst_wrap = edge_mass = 0.0
    omega_s = build_s = loop_s = 0.0
    pending = 0.0  # the previous step's closing half-kick coefficient
    for first in range(0, n_steps, _COEFF_BLOCK):
        started = perf_counter()
        t_mid = t0 + (np.arange(first, min(first + _COEFF_BLOCK, n_steps)) + 0.5) * dt
        coeffs = 0.5 * config.profile.omega(t_mid) ** 2
        omega_s += perf_counter() - started
        wrap = abs(dt) * (coeffs * x2_max)
        wrapped = np.flatnonzero(wrap >= _PHASE_WRAP_LIMIT)
        if wrapped.size:
            j = wrapped[0]
            raise ValueError(
                f"dt * max|V| = {wrap[j]:.3g} >= {_PHASE_WRAP_LIMIT} "
                f"at t={t_mid[j]:.6g}; shrink dt or the domain"
            )
        worst_wrap = max(worst_wrap, float(wrap.max()))

        # sums[i] is the kick before step first + 1 + i: the previous step's
        # closing half fused with this step's opening half.  Each kick is
        # exp(i scale x^2) with scale = -dt/2 times its coefficient.
        sums = coeffs.copy()
        sums[1:] += coeffs[:-1]
        sums[0] += pending
        pending = float(coeffs[-1])
        sums *= -0.5 * dt

        for sub in range(0, coeffs.size, rows):
            started = perf_counter()
            sub_kicks = _kick_rows(sums[sub:sub + rows], x2, kicks, floats)
            built = perf_counter()
            build_s += built - started
            for step, row in enumerate(sub_kicks, first + sub + 1):
                psi *= row
                dct(work, 2, (0,), 0, work, 1)
                psi *= exp_kinetic
                dct(work, 3, (0,), 2, work, 1)
                if step == due[taken]:
                    j = step - first
                    sample = stack[taken, half:]
                    _kick_rows(-0.5 * dt * coeffs[j - 1:j], x2, sample[None],
                               floats)
                    sample *= psi
                    stack[taken, :half] = sample[::-1]
                    mass = 2.0 * h * float(np.sum(np.abs(sample[edge:]) ** 2))
                    if mass > _BOUNDARY_MASS_LIMIT:
                        raise RuntimeError(
                            f"|psi|^2 mass {mass:.3g} in the outer eighth of the domain "
                            f"exceeds {_BOUNDARY_MASS_LIMIT:g} at t={times[taken]:.6g}; "
                            f"widen the domain")
                    edge_mass = max(edge_mass, mass)
                    taken += 1
            loop_s += perf_counter() - built

        drift = abs(float(np.linalg.norm(psi)) - l2_0) / l2_0
        if drift > _NORM_DRIFT_LIMIT:
            raise RuntimeError(f"propagation lost unitarity: norm drift {drift:.3e} "
                               f"after {first + coeffs.size} steps")

    _log.debug(
        "propagate: %d steps, norm drift %.3e, phase-wrap ratio %.3g, "
        "momentum ratio %.3g, boundary mass %.3e, seconds in Omega %.3g, "
        "kick build %.3g, step loop %.3g",
        n_steps, drift, worst_wrap / _PHASE_WRAP_LIMIT,
        _MOMENTUM_MARGIN * sigma_k / cutoff, edge_mass,
        omega_s, build_s, loop_s,
    )
    return WavefunctionGrid(grid, times, stack)


def fidelity(psi_a: WavefunctionGrid, psi_b: WavefunctionGrid):
    """|int psi_a* psi_b dx| / (||psi_a|| ||psi_b||) per time, in [0, 1].

    Insensitive to global phase.  Returns an array with one value per
    time, a single-time pair included.
    """
    if psi_a.grid != psi_b.grid:
        raise ValueError("fidelity requires a common grid")
    if psi_a.psi.shape != psi_b.psi.shape:
        raise ValueError("fidelity requires matching time samples")
    x = psi_a.grid.x
    overlap = np.abs(np.trapezoid(np.conj(psi_a.psi) * psi_b.psi, x, axis=1))
    norms = np.sqrt(psi_a.norms() * psi_b.norms())
    return overlap / norms
