"""Time-dependent oscillator frequency profiles.

The driving frequency enters everything downstream only through the map
t -> Omega(t), which sets the harmonic potential V(x,t) = Omega^2(t) x^2/2
and the coefficient of the auxiliary (Ermakov) equation.  One type,
FrequencyProfile, holds every such map: the rational profile

    Omega(t) = 1 / (a + b t),      a > 0,  b >= 0,

a constant, a table of samples, or any callable.  Whatever the source,
FrequencyProfile.omega checks each value it returns to be finite and
>= 0.  The rational family's auxiliary equation has two distinct
closed-form regimes: subcritical (0 <= b < 2) and critical (b = 2).  For
b > 2 the subcritical closed form turns complex, so those slopes are
rejected outright.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Regime",
    "FrequencyProfile",
    "classify_rational",
    "CRITICAL_SLOPE",
    "CRITICAL_SLOPE_TOL",
]

# The two branches use different closed forms; classification must never
# silently mix them, hence an explicit absolute tolerance on |b - 2|.
CRITICAL_SLOPE = 2.0
CRITICAL_SLOPE_TOL = 1e-12


class Regime(enum.Enum):
    """Regime of the rational frequency family."""

    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    UNSUPPORTED = "unsupported"


def classify_rational(b: float) -> Regime:
    """Classify the slope b of Omega(t)=1/(a+bt).

    b in [0, 2) is subcritical (b=0 is the constant-frequency limit),
    b = 2 within 1e-12 is critical, and b > 2 is unsupported.
    """
    if not np.isfinite(b) or b < 0:
        raise ValueError(f"slope must be finite and >= 0, got {b}")
    if abs(b - CRITICAL_SLOPE) <= CRITICAL_SLOPE_TOL:
        return Regime.CRITICAL
    if b < CRITICAL_SLOPE:
        return Regime.SUBCRITICAL
    return Regime.UNSUPPORTED


@dataclass(frozen=True)
class FrequencyProfile:
    """Wraps an arbitrary evaluator t -> Omega(t).

    Immutable after construction; safe to share across threads.  The
    evaluator is given a float array, 0-d for a scalar t: omega has one
    path, and returns a 0-d result as an np.float64.  The one contract on
    Omega is that it is finite and >= 0 wherever it is evaluated; omega
    checks every value it returns against it.  knots holds the times
    where Omega has a kink, the sample times of a table, between which
    Omega is linear; it is empty for every other profile.  The Ermakov
    solver restarts its steps at the knots.
    """

    evaluator: Callable
    label: str = field(default="custom", compare=False)
    knots: tuple = field(default=(), repr=False, compare=False)

    def omega(self, t):
        """Evaluate Omega(t), checked against the contract: raises a
        one-line ValueError, naming the label and the first such t, where
        Omega is negative or not finite.

        t is evaluated as a float array, so numpy's semantics hold (1/0 is
        inf, and then an error), and the values are broadcast to its shape,
        so that an evaluator may return one value for all of t.  A scalar
        t gives a 0-d result, returned as an np.float64.
        """
        t = np.asarray(t, dtype=float)
        value = np.broadcast_to(np.asarray(self.evaluator(t), dtype=float), t.shape)
        valid = np.isfinite(value) & (value >= 0)
        if not np.all(valid):
            raise self._breach(t[~valid][0])
        return value[()]

    __call__ = omega

    def _breach(self, t) -> ValueError:
        return ValueError(
            f"frequency profile '{self.label}' negative or not finite at t={t:g}")

    @classmethod
    def constant(cls, value: float) -> "FrequencyProfile":
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"constant frequency must be >= 0, got {value}")
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), value),
                   label=f"constant({value})")

    @classmethod
    def rational(cls, a: float, b: float) -> "FrequencyProfile":
        """Omega(t) = 1/(a + b t) with a > 0, b >= 0.  Where a + b t <= 0,
        Omega is inf or negative, so omega raises there."""
        if not (np.isfinite(a) and a > 0):
            raise ValueError(f"require a > 0, got a={a}")
        if not (np.isfinite(b) and b >= 0):
            raise ValueError(f"require b >= 0, got b={b}")
        return cls(lambda t: 1.0 / (a + b * t), label=f"rational(a={a}, b={b})")

    @classmethod
    def from_table(cls, t_samples, omega_samples) -> "FrequencyProfile":
        """Piecewise-linear profile through (t, Omega) samples.

        Samples must be strictly increasing in t; they become the knots.
        Outside the tabulated range the profile is NaN, so omega raises
        there.
        """
        ts = np.asarray(t_samples, dtype=float)
        om = np.asarray(omega_samples, dtype=float)
        if ts.ndim != 1 or ts.shape != om.shape or ts.size < 2:
            raise ValueError("table needs two 1-d columns of equal length >= 2")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("table times must be strictly increasing")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(om))):
            raise ValueError("table entries must be finite")
        if np.any(om < 0):
            raise ValueError("tabulated frequencies must be >= 0")
        return cls(lambda t: np.interp(t, ts, om, left=np.nan, right=np.nan),
                   label=f"table on [{ts[0]:g}, {ts[-1]:g}]",
                   knots=tuple(ts.tolist()))
