"""Solutions of the auxiliary Ermakov equation.

The whole construction hinges on one nonlinear ODE for the scale function
rho(t) > 0,

    rho'' + Omega^2(t) rho = 1/rho^3,

normalized so that rho(0) = 1.  For the rational family Omega = 1/(a+bt)
there are two closed forms:

  subcritical, 0 <= b < 2 (a forced to sqrt(1-b^2/4) by rho(0)=1):
      rho(t) = C sqrt(a + b t),   C = (1 - b^2/4)^(-1/4)
  critical, b = 2 (a forced to 1):
      rho(t) = sqrt(1+2t) sqrt(1 + ln^2(1+2t)/4)

Everything downstream consumes rho through nu = ln(rho) and its first two
derivatives, which madelung.Construction evaluates.  nu_ddot is always
reconstructed through the ODE itself (rho'' = 1/rho^3 - Omega^2 rho)
rather than by numerical differentiation.

Each solution also carries the phase integral mu(t) = -int_0^t ds/(2 rho^2),
in closed form on both rational branches:

  subcritical:  mu(t) = -(a/2b) ln((a+bt)/a)     (mu = -t/2 at b = 0)
  critical:     mu(t) = -arctan(ln(1+2t)/2)/2   (decreasing to -pi/4)

subcritical_solution(b) and critical_solution() write each branch once:
b is checked and (a, C) derived in the builder, and rho, rho', rho'' and
mu share one check of the branch's argument, so all four refuse a t
outside the domain with the same ValueError.

For arbitrary profiles solve_numeric takes Pinney's linear route: rho and
mu come from two solutions of the linear oscillator u'' + Omega^2 u = 0
(Pinney, Proc. AMS 1, 681, 1950; Lewis & Riesenfeld, J. Math. Phys. 10,
1458, 1969).  The linear oscillator is solved by Magnus steps for every
profile: the transfer matrix of a step does not depend on the state, so
every step is built at once as a sixth-order Magnus step with three
Gauss-Legendre nodes (Magnus, Comm. Pure Appl. Math. 7, 649, 1954; Blanes,
Casas & Ros, BIT 40, 434, 2000; Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151, 2009), and the steps are chained by prefix products by doubling.  A
smooth profile is one segment of the window, and a table (a profile with
knots, where Omega has kinks) is its knot segments.  Within each segment
the step ends equidistribute the monitor Omega + |Omega'|/Omega, and the
error estimate compares k with 2k steps per segment.  This is the only
route, and it is numpy only; a solve that would need more than 2**21
steps is refused.

A numeric solution evaluates its states once per times array, so
sampling rho, rho', rho'' and mu on one array costs one evaluation.
Each solve logs one DEBUG record on the ``bohmosc.ermakov`` logger.

Each Magnus step has determinant 1, so the Wronskian stays 1 to rounding,
and ermakov_residual, (W^2 - 1)/rho^3 for a numeric solution, reads
rounding only: it is no error estimate here.  The k-vs-2k difference in
the DEBUG record is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frequency import FrequencyProfile, Regime, classify_rational

__all__ = [
    "ErmakovSolution",
    "subcritical_parameters",
    "closed_form_subcritical",
    "closed_form_critical",
    "subcritical_solution",
    "critical_solution",
    "solve_numeric",
    "ermakov_residual",
    "RHO_FLOOR",
    "REL_TOL",
    "ABS_TOL",
]

_log = logging.getLogger(__name__)

# Below this the configuration is treated as singular and integration aborts.
RHO_FLOOR = 1e-8

# Default tolerances of solve_numeric, which numeric_construction and the
# CLI share.  At rel_tol 1e-10 the near-critical rho missed criterion 2:
# at 2 - b = 1e-4, rho is about 100 at t = 50, and the error, about
# 1.7 rel_tol relative, passed the absolute 1e-8 there.
REL_TOL = 3e-11
ABS_TOL = 1e-12
# The k-vs-2k gap cannot fall much below the rounding of the states it
# compares, so a smaller rel_tol can run k up to the step cap and be
# refused there: with abs_tol 1e-300, b = 2 - 1e-4 over [0, 50] meets
# 2.2e-14 in 4096 steps but not 1e-14 within 2**21.  At this floor, 100
# machine epsilons, and the default abs_tol the same window converges in
# 4096 steps with a rho error of 1.3e-12, and b = 1 in 512 with 1.5e-14.
_MIN_REL_TOL = 100 * np.finfo(float).eps

# The one bound on the work of a solve.  Steps grow with the phase of the
# oscillator, the integral of Omega: Magnus steps at the default rel_tol
# take tens per rad over long windows (409600 for a table of
# Omega = 30(1 + sin(t)/2) over 200, 6e3 rad, from rho = 1), and one per
# rad where a step is exact.  They keep the states of two grids, about 60
# bytes per step of the finer one, and are built in blocks, so that the
# transients of a block stay near 5 MB.  At the cap a solve takes up to
# about 2 s and 250 MB on a 2-core Xeon: from rho = 1 the smooth
# W(1 + sin(t)/2) meets its bound there at W = 100 over 190 (1.9e4 rad)
# in 1.5 s, and is refused there at W = 1000 over 200 after 1.6 s.
_MAGNUS_MAX_STEPS = 2**21
_MAGNUS_BLOCK = 2**14
# The step ends are read from the monitor at this many probe intervals over
# all knot segments, and at least one per segment.
_MONITOR_PROBES = 4096
# The Magnus route starts with steps of at most 1 rad of phase.  A longer
# step can overflow cosh in its exponential, and since a step is exact at
# constant Omega, the error control alone would accept steps of many turns
# there, more than the mu branch rule can read.
_MAGNUS_MAX_PHASE = 1.0


@dataclass(frozen=True)
class ErmakovSolution:
    """A positive solution rho(t) of the Ermakov equation.

    rho_ddot is an independent second derivative, so that
    ermakov_residual is a genuine consistency check and not a tautology:
    analytic for closed forms, and for numeric solutions W^2/rho^3 -
    Omega^2 rho, with W the Wronskian of solve_numeric's linear solutions.
    mu is the phase integral -int_0^t ds/(2 rho^2), with mu(0) = 0.

    Immutable value object; evaluation is reentrant and thread-safe (a
    numeric solution replaces its memo of the last times array whole).
    """

    rho: Callable
    rho_dot: Callable
    rho_ddot: Callable
    mu: Callable


def subcritical_parameters(b: float) -> tuple:
    """Return (a, C) for the subcritical closed form, with a = sqrt(1-b^2/4).

    The offset a is not free: rho(0) = C sqrt(a) = 1 forces it.  C
    diverges as b -> 2, so every slope that classify_rational does not
    call subcritical is refused, the critical band around 2 included.
    """
    if classify_rational(b) is not Regime.SUBCRITICAL:
        raise ValueError(
            f"b={b} is at or beyond the critical slope 2; "
            "use the critical closed form instead"
        )
    disc = 1.0 - b * b / 4.0
    return float(np.sqrt(disc)), float(disc ** -0.25)


def subcritical_solution(b: float) -> ErmakovSolution:
    """The subcritical closed form, with b checked and (a, C) derived once;
    rho, rho', rho'' and mu each refuse a t with a + bt <= 0."""
    a, C = subcritical_parameters(b)

    def branch(t):
        """t as an array and s = a + bt."""
        t = np.asarray(t, dtype=float)
        s = a + b * t
        if np.any(s <= 0):
            raise ValueError(f"a + b*t must stay positive (a={a}, b={b})")
        return t, s

    def rho(t):
        return C * np.sqrt(branch(t)[1])

    def rho_dot(t):
        return 0.5 * C * b / np.sqrt(branch(t)[1])

    def rho_ddot(t):
        return -0.25 * C * b * b * branch(t)[1] ** -1.5

    def mu(t):
        t, _ = branch(t)
        # b = 0 is the constant-frequency limit, which also serves subnormal
        # b, where a/(2b) overflows.
        if b < np.finfo(float).tiny:
            return -0.5 * t
        return -(a / (2.0 * b)) * np.log1p(b * t / a)

    return ErmakovSolution(rho=rho, rho_dot=rho_dot, rho_ddot=rho_ddot, mu=mu)


def critical_solution() -> ErmakovSolution:
    """The critical closed form; rho, rho', rho'' and mu each refuse a t
    with 1 + 2t <= 0."""

    def branch(t):
        """u = 1 + 2t, L = ln u and rho at t."""
        t = np.asarray(t, dtype=float)
        u = 1.0 + 2.0 * t
        if np.any(u <= 0):
            raise ValueError("critical closed form requires 1 + 2t > 0")
        ell = np.log(u)
        return u, ell, np.sqrt(u) * np.sqrt(1.0 + 0.25 * ell * ell)

    def rho(t):
        return branch(t)[2]

    def rho_dot(t):
        # From d(rho^2)/dt = 2 + L + L^2/2.
        _, ell, rho = branch(t)
        return (1.0 + 0.5 * ell + 0.25 * ell * ell) / rho

    def rho_ddot(t):
        u, ell, rho = branch(t)
        g = 1.0 + 0.5 * ell + 0.25 * ell * ell
        return (1.0 + ell) / (u * rho) - g * g / rho**3

    def mu(t):
        return -0.5 * np.arctan(0.5 * branch(t)[1])

    return ErmakovSolution(rho=rho, rho_dot=rho_dot, rho_ddot=rho_ddot, mu=mu)


# The benchmark harness imports these two.
def closed_form_subcritical(b: float, t):
    """rho(t) of subcritical_solution(b); rho(0) = 1 exactly."""
    return subcritical_solution(b).rho(t)


def closed_form_critical(t):
    """rho(t) of critical_solution()."""
    return critical_solution().rho(t)


def solve_numeric(
    profile: FrequencyProfile,
    rho0: float,
    rho_dot0: float,
    window: tuple,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
) -> ErmakovSolution:
    """Solve the Ermakov equation by Pinney's linear route.

    Solves u'' + Omega^2 u = 0 for u1 = rho0, u1' = rho_dot0 and u2 = 0,
    u2' = 1/rho0 at the window start, so that the Wronskian
    W = u1 u2' - u2 u1' is 1; rel_tol and abs_tol apply to (u1, u1', u2,
    u2'), and rel_tol below 100 machine epsilons (2.2e-14) raises
    ValueError.  The window is split at the knots of the
    profile (a table, whose Omega has a kink at each knot; a smooth
    profile has none) into segments, and each segment into k steps whose
    ends equidistribute the monitor Omega + |Omega'|/Omega; each step is
    a sixth-order Magnus transfer matrix, all built as one batch.  k
    doubles until the states at the step ends of k and 2k steps differ by
    at most rel_tol |Y| + abs_tol (|Y| the largest entry of the state
    there), from the least k at which no step spans more than 1 rad of
    phase; the 2k states are kept, and a sample t is reached by one
    partial step from the start of its step, taken in blocks of 2**14
    times, so that an evaluation holds its result and the transients of
    one block.  At any t,
    rho = sqrt(u1^2 + u2^2), rho' = (u1 u1' + u2 u2')/rho,
    rho'' = W^2/rho^3 - Omega^2 rho and mu = -angle(u1, u2)/2, with
    mu(window start) = 0 and its branch read
    from the angle unwrapped at the step ends, and at the midpoints of
    steps that may turn by pi/2 or more.  rho.x holds the step ends, knots
    included.  The states are evaluated once per times array: the
    solution remembers the last array it was given and its states, so
    rho, rho', rho'' and mu on one array cost one evaluation.

    Raises ValueError before any evaluation of Omega if rho_dot0 or an
    end of the window is not finite.  Raises RuntimeError if k reaches
    more than 2**21 steps over the window before the two meet their
    bound, the one bound on the work (up to about 2 s and 250 MB), and
    before any step if k and 2k steps from the least k exceed it; or if
    1/|u'|, which bounds rho from below and equals it at its minima,
    falls below RHO_FLOOR at a step end (a singular or invalid
    configuration).  Each step has determinant 1, so W stays 1 to
    rounding, and the k-vs-2k difference takes the place of a residual.
    Logs one DEBUG record with the knot segments, the steps, the Omega
    evaluations and that difference against its bound on the
    ``bohmosc.ermakov`` logger.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not (np.isfinite(rho0) and rho0 > 0):
        raise ValueError(f"rho0 must be positive, got {rho0}")
    if not np.all(np.isfinite([rho_dot0, t0, t1])):
        raise ValueError(f"rho_dot0 and the window must be finite, "
                         f"got {rho_dot0} and {window}")
    if not (t1 > t0):
        raise ValueError(f"window must have positive length, got {window}")
    if not rel_tol >= _MIN_REL_TOL:
        raise ValueError(f"rel_tol must be at least {_MIN_REL_TOL:.3g}, got {rel_tol:g}")
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")

    start = np.array([[float(rho0), 0.0], [float(rho_dot0), 1.0 / rho0]])
    knots = np.asarray(profile.knots, dtype=float)
    bounds = np.concatenate(([t0], knots[(knots > t0) & (knots < t1)], [t1]))
    ts, ys, dense, record = _magnus(profile, start, bounds, rel_tol, abs_tol)

    # rho can dip below the floor between step ends, where it is not sampled.
    # Since |u'|^2 = rho'^2 + 1/rho^2, 1/|u'| is at most rho and equals it at
    # each minimum of rho: the step ends read such a dip from |u'|.
    u1, v1, u2, v2 = ys
    low = np.flatnonzero(np.hypot(v1, v2) > 1.0 / RHO_FLOOR)
    if low.size:
        raise RuntimeError(f"Ermakov integration failed: rho reached the floor "
                           f"{RHO_FLOOR:g} near t={ts[low[0]]:.6g} "
                           "(singular or invalid configuration)")

    # The angle of (u1, u2) rises at the rate W/rho^2.  Unwrapped at the
    # sample times and interpolated, it picks the branch at any t, as long
    # as it turns by less than pi from one sample to the next.  Where rho is
    # squeezed a step can turn by nearly that: up to 3.13 rad for
    # u1 = 8 cos 16t, u2 = sin(16t)/128, where 15 of 128 steps are split,
    # and 3.14 rad in 21 of 8192 steps where Omega = 1 + sin(t)/2 pumps rho
    # over [0, 100].  So a step whose ends do not read a turn below pi/2 is
    # also sampled at its midpoint; that holds while a step turns by less
    # than 2 pi and each half by less than pi.  Under the 1 rad phase limit
    # a step at constant Omega = 1 with rel_tol = abs_tol = 1e-2 turns by
    # at most 0.3125 rad, and no step there is split.
    angle_ends = np.arctan2(u2, u1)
    split = np.flatnonzero(np.diff(angle_ends) % (2.0 * np.pi) >= 0.5 * np.pi)
    nodes, angle_nodes = ts, angle_ends
    if split.size:
        mids = 0.5 * (ts[split] + ts[split + 1])
        w1, _, w2, _ = dense(mids)
        nodes = np.insert(ts, split + 1, mids)
        angle_nodes = np.insert(angle_ends, split + 1, np.arctan2(w2, w1))
    angle_nodes = np.unwrap(angle_nodes)

    # The last times array and its states, kept read-only in one tuple so
    # that concurrent callers replace it whole.
    last = [(None, None)]

    def states(t):
        t = np.asarray(t, dtype=float)
        key, value = last[0]
        if key is None or not np.array_equal(key, t):
            value = dense(t.ravel()).reshape(4, *t.shape)
            value.flags.writeable = False
            last[0] = t.copy(), value
        return value

    def rho(t):
        u1, _, u2, _ = states(t)
        return np.hypot(u1, u2)

    def rho_dot(t):
        u1, v1, u2, v2 = states(t)
        return (u1 * v1 + u2 * v2) / np.hypot(u1, u2)

    def rho_ddot(t):
        u1, v1, u2, v2 = states(t)
        r = np.hypot(u1, u2)
        return (u1 * v2 - u2 * v1) ** 2 / r**3 - np.square(profile.omega(t)) * r

    def mu(t):
        u1, _, u2, _ = states(t)
        angle = np.arctan2(u2, u1)
        turns = np.round((np.interp(t, nodes, angle_nodes) - angle) / (2.0 * np.pi))
        return -0.5 * (angle + 2.0 * np.pi * turns)

    rho.x = ts
    # The segments are formatted in place, so that record.args stays (steps,
    # evaluations, gap, bound).
    _log.debug(f"solve_numeric: Magnus, {bounds.size - 1} knot segments, %d steps, "
               "%d evaluations, residual %.3e against bound %.3e", *record)
    return ErmakovSolution(rho=rho, rho_dot=rho_dot, rho_ddot=rho_ddot, mu=mu)


# The three Gauss-Legendre nodes on [0, 1].
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (np.sqrt(15.0) / 10.0)


def _bracket(x, y):
    """[x, y] of traceless 2 x 2 matrices [[p, q], [r, -p]] held as (p, q, r)."""
    (p, q, r), (s, u, v) = x, y
    return np.array([q * v - u * r, 2.0 * (p * u - q * s), 2.0 * (r * s - p * v)])


def _magnus_steps(profile, starts, widths):
    """Transfer matrices (2, 2, n) of u'' = -Omega^2 u over [s, s + h].

    The sixth-order Magnus exponent (Blanes, Casas & Ros, BIT 40, 434,
    2000) from A = [[0, 1], [-Omega^2, 0]] at the three Gauss-Legendre
    nodes: with alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1),
    alpha3 = (10 h/3)(A3 - 2 A2 + A1), C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1]/60, it is alpha1 + alpha3/12 +
    [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.  Every term is traceless,
    [[p, q], [r, -p]], and its square is (p^2 + q r) I, so its exponential
    is cos(theta) I + sinc(theta) times the exponent with theta^2 =
    -(p^2 + q r), or cosh and sinh(theta)/theta where p^2 + q r > 0.
    """
    h = widths
    w1, w2, w3 = np.square(profile.omega(starts + h * _GAUSS_NODES[:, None]))
    zero = np.zeros_like(h)
    alpha1 = np.array([zero, h, -h * w2])
    alpha2 = (np.sqrt(15.0) / 3.0) * h * np.array([zero, zero, w1 - w3])
    alpha3 = (10.0 / 3.0) * h * np.array([zero, zero, 2.0 * w2 - w1 - w3])
    c1 = _bracket(alpha1, alpha2)
    c2 = _bracket(alpha1, 2.0 * alpha3 + c1) / -60.0
    p, q, r = (alpha1 + alpha3 / 12.0
               + _bracket(c1 - 20.0 * alpha1 - alpha3, alpha2 + c2) / 240.0)
    square = p * p + q * r
    theta = np.sqrt(np.abs(square))
    even, odd = np.cos(theta), np.sinc(theta / np.pi)
    grows = square > 0
    if np.any(grows):
        even[grows] = np.cosh(theta[grows])
        odd[grows] = np.sinh(theta[grows]) / theta[grows]
    return np.array([[even + odd * p, odd * q], [odd * r, even - odd * p]])


def _product(left, right):
    """Matrix products of two stacks of 2 x 2 matrices, (2, 2, ...) each."""
    return np.einsum("ij...,jk...->ik...", left, right)


def _grading(profile, bounds):
    """Step ends at k steps per knot segment, as a function of k, and the
    largest integral of the monitor over a segment.

    The ends of a segment sit at s = j/k of its cumulative monitor
    Omega + |Omega'|/Omega, normalised to [0, 1] and read by the
    trapezoid rule at evenly spaced probes, _MONITOR_PROBES intervals
    over all segments and at least one per segment, with Omega' by
    differences.  The second term is read as
    |Omega'|/(Omega + |Omega'| d), with d the probe spacing: the same
    away from the zeros of Omega, at most 1/d near them, and never a
    division by zero.  A segment where Omega vanishes at every probe is
    split evenly.  s = j/k is the float s = 2j/2k, so the ends at 2k
    steps contain those at k.
    """
    lengths = np.diff(bounds)[:, None]
    n = max(_MONITOR_PROBES // lengths.size, 1)
    spacing = lengths / n
    t = bounds[:-1, None] + lengths * (np.arange(n + 1) / n)
    t[:, -1] = bounds[1:]
    omega = profile.omega(t)
    rate = np.abs(np.gradient(omega, axis=1)) / spacing
    monitor = omega + np.divide(rate, omega + rate * spacing,
                                out=np.zeros_like(rate), where=rate > 0)
    cumulative = np.zeros_like(t)
    np.cumsum(0.5 * spacing * (monitor[:, 1:] + monitor[:, :-1]), axis=1,
              out=cumulative[:, 1:])
    total = cumulative[:, -1:]
    share = np.divide(cumulative, total, where=total > 0,
                      out=np.broadcast_to(np.arange(n + 1) / n, t.shape).copy())
    # Row i of the shares runs from i to i + 1, so that one interpolation
    # inverts every segment at once.
    share += np.arange(lengths.size)[:, None]

    def ends(k):
        found = np.interp((np.arange(lengths.size)[:, None] + np.arange(k) / k).ravel(),
                          share.ravel(), t.ravel())
        found[::k] = bounds[:-1]
        return np.append(found, bounds[-1])

    return ends, float(np.max(total))


def _magnus(profile, start, bounds, rel_tol, abs_tol):
    """Step ends, states (u1, u1', u2, u2') there, dense evaluator and
    (steps, Omega evaluations, error estimate, bound) of the Magnus route
    over the knot segments between bounds, from the state matrix start.
    Raises RuntimeError if that takes more than _MAGNUS_MAX_STEPS steps,
    before any step if the first comparison does."""
    ends_at, largest = _grading(profile, bounds)
    segments = bounds.size - 1
    evaluations = 0

    def states(k):
        """Step ends and state matrices there, at k steps per segment."""
        nonlocal evaluations
        ends = ends_at(k)
        evaluations += _GAUSS_NODES.size * (ends.size - 1)
        found = np.empty((2, 2, ends.size))
        found[..., 0] = start
        for lo in range(0, ends.size - 1, _MAGNUS_BLOCK):
            hi = min(lo + _MAGNUS_BLOCK, ends.size - 1)
            steps = _magnus_steps(profile, ends[lo:hi], np.diff(ends[lo:hi + 1]))
            # Prefix products by doubling: after the pass with span s, entry
            # i holds the product of steps i down to max(0, i - 2s + 1), with
            # the state at the block start folded into its first step.
            steps[..., 0] = steps[..., 0] @ found[..., lo]
            span = 1
            while span < hi - lo:
                steps[..., span:] = _product(steps[..., span:], steps[..., :-span])
                span *= 2
            found[..., lo + 1:hi + 1] = steps
        return ends, found

    # Each pass compares k with 2k steps per segment.  A step spans 1/k of
    # its segment's monitor, which is at least Omega, so k first doubles
    # without a step until no step spans more than 1 rad.  A monitor
    # integral that is too large, infinite or NaN never lets it stop, and
    # runs it to the cap before any step.
    k, fine = 1, None
    while 2 * segments * k <= _MAGNUS_MAX_STEPS:
        if not k * _MAGNUS_MAX_PHASE >= largest:
            k *= 2
            continue
        coarse = states(k)[1] if fine is None else fine
        ends, fine = states(2 * k)
        at_coarse_ends = fine[..., ::2]
        gaps = np.max(np.abs(at_coarse_ends - coarse), axis=(0, 1))
        limits = rel_tol * np.max(np.abs(at_coarse_ends), axis=(0, 1)) + abs_tol
        worst = np.argmax(gaps / limits)
        gap, bound = gaps[worst], limits[worst]
        if gap <= bound:
            break
        k *= 2
    else:
        raise RuntimeError(f"Ermakov integration refused: the window needs more "
                           f"than the cap of {_MAGNUS_MAX_STEPS} Magnus steps")

    def dense(t):
        i = np.clip(np.searchsorted(ends, t, side="right") - 1, 0, ends.size - 2)
        # A partial step's transients hold about 40 doubles per time.
        found = np.empty((2, 2, t.size))
        for lo in range(0, t.size, _MAGNUS_BLOCK):
            block = slice(lo, lo + _MAGNUS_BLOCK)
            j = i[block]
            step = _magnus_steps(profile, ends[j], t[block] - ends[j])
            found[..., block] = _product(step, fine[..., j]).transpose(1, 0, 2)
        return found.reshape(4, t.size)

    (u1, u2), (v1, v2) = fine
    return ends, (u1, v1, u2, v2), dense, (ends.size - 1, evaluations, gap, bound)


def ermakov_residual(solution: ErmakovSolution, profile: FrequencyProfile, t):
    """rho'' + Omega^2 rho - 1/rho^3, with rho'' independent of the ODE.

    For closed forms rho'' is analytic; for numeric solutions it is
    W^2/rho^3 - Omega^2 rho, so the residual is the Wronskian drift
    (W^2 - 1)/rho^3.  Magnus steps keep that drift zero to rounding by
    construction, so it does not measure the error there.
    """
    t = np.asarray(t, dtype=float)
    rho = solution.rho(t)
    return solution.rho_ddot(t) + profile.omega(t) ** 2 * rho - rho**-3
