"""Finite-difference residual checks of the governing equations.

Independent of how the fields were constructed, this module asks whether
sampled psi, A, S actually satisfy, in units hbar = m = 1,

    Schrodinger:   i psi_t + psi_xx/2 - V psi          = 0
    continuity:    (2 A_x S_x + A S_xx)/2 + A_t        = 0
    QHJE:          S_x^2/2 + V_B + V + S_t             = 0

using central differences in t and x.  Stencils are second order by
default with an optional fourth-order spatial variant for convergence
studies.  Residuals are evaluated on the interior only (two points
skipped per side: one-sided stencils degrade the order, and the domain is
truncation-padded anyway), and max norms are restricted to the region
where the amplitude exceeds 1e-10 of its peak, since relative residuals
in the exponentially small tail are noise.

All functions are pure; field families are (n_times, n_x) arrays sampled
at uniformly spaced times.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .madelung import (
    Construction,
    SpatialGrid,
    WavefunctionGrid,
    amplitude_gaussian,
    bohm_potential_gaussian,
    classical_potential,
)

__all__ = [
    "ResidualReport",
    "schrodinger_residual",
    "continuity_residual",
    "qhje_residual",
    "normalization",
    "build_residual_report",
]

_TAIL_MASK_REL = 1e-10
_BOUNDARY_SKIP = 2


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms for one grid/time-step configuration."""

    se_residual_l2: float
    se_residual_max: float
    continuity_residual_max: float
    qhje_residual_max: float
    normalization_error: float
    h: float
    dt: float
    n_x: int
    n_t: int

    def __post_init__(self):
        for name in ("se_residual_l2", "se_residual_max",
                     "continuity_residual_max", "qhje_residual_max",
                     "normalization_error"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


def _interior(n: int) -> slice:
    return slice(_BOUNDARY_SKIP, n - _BOUNDARY_SKIP)


def _dx1(f: np.ndarray, h: float, order: int) -> np.ndarray:
    """First x-derivative of (..., n_x) rows on the interior slice."""
    if order == 2:
        return (f[..., 3:-1] - f[..., 1:-3]) / (2.0 * h)
    if order == 4:
        return (-f[..., 4:] + 8.0 * f[..., 3:-1]
                - 8.0 * f[..., 1:-3] + f[..., :-4]) / (12.0 * h)
    raise ValueError(f"stencil order must be 2 or 4, got {order}")


def _dx2(f: np.ndarray, h: float, order: int) -> np.ndarray:
    """Second x-derivative of (..., n_x) rows on the interior slice."""
    if order == 2:
        return (f[..., 3:-1] - 2.0 * f[..., 2:-2] + f[..., 1:-3]) / (h * h)
    if order == 4:
        return (-f[..., 4:] + 16.0 * f[..., 3:-1] - 30.0 * f[..., 2:-2]
                + 16.0 * f[..., 1:-3] - f[..., :-4]) / (12.0 * h * h)
    raise ValueError(f"stencil order must be 2 or 4, got {order}")


def _dt1(f: np.ndarray, dt: float) -> np.ndarray:
    """Central time derivative at interior time rows of an (n_t, n_x) family."""
    return (f[2:] - f[:-2]) / (2.0 * dt)


def _as_family(f, n_t: int, n_x: int, name: str) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim == 1 and f.shape[0] == n_x:
        f = np.broadcast_to(f, (n_t, n_x))
    if f.shape != (n_t, n_x):
        raise ValueError(f"{name} must have shape ({n_t}, {n_x}), got {f.shape}")
    return f


def _check_times(n_t: int, dt: float):
    if n_t < 3:
        raise ValueError(f"need at least 3 time samples, got {n_t}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need dt > 0, got {dt}")


def schrodinger_residual(psi, v, x, dt: float, space_order: int = 2) -> tuple:
    """L2 and max norms of i psi_t + psi_xx/2 - V psi.

    psi: (n_t, n_x) complex family at uniform dt; v: potential samples,
    (n_t, n_x) or (n_x,).  Returns (l2, max), each maximized over the
    interior time rows.  The residual is linear in psi; no normalization
    is applied.
    """
    psi = np.asarray(psi, dtype=complex)
    x = np.asarray(x, dtype=float)
    n_t, n_x = psi.shape
    _check_times(n_t, dt)
    v = _as_family(v, n_t, n_x, "v")
    h = x[1] - x[0]
    ix = _interior(n_x)

    psi_t = _dt1(psi, dt)[:, ix]
    psi_xx = _dx2(psi[1:-1], h, space_order)
    residual = 1j * psi_t + psi_xx / 2.0 - v[1:-1, ix] * psi[1:-1, ix]

    keep = np.abs(psi[1:-1, ix]) > _TAIL_MASK_REL * np.max(np.abs(psi))
    l2_worst = 0.0
    max_worst = 0.0
    for row, keep_row in zip(residual, keep):
        kept = row[keep_row]
        if kept.size == 0:
            continue
        l2_worst = max(l2_worst, float(np.sqrt(h * np.sum(np.abs(kept) ** 2))))
        max_worst = max(max_worst, float(np.max(np.abs(kept))))
    return l2_worst, max_worst


def continuity_residual(a, s, x, dt: float, space_order: int = 2,
                        a_t=None, a_x=None, s_x=None, s_xx=None) -> float:
    """Max norm of (2 A_x S_x + A S_xx)/2 + A_t.

    Derivatives are central differences unless the corresponding analytic
    family (same (n_t, n_x) sampling) is supplied.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    n_t, n_x = a.shape
    _check_times(n_t, dt)
    if s.shape != a.shape:
        raise ValueError("A and S families must share a shape")
    h = x[1] - x[0]
    ix = _interior(n_x)

    a_t_i = (_dt1(a, dt)[:, ix] if a_t is None
             else _as_family(a_t, n_t, n_x, "a_t")[1:-1, ix])
    a_x_i = (_dx1(a[1:-1], h, space_order) if a_x is None
             else _as_family(a_x, n_t, n_x, "a_x")[1:-1, ix])
    s_x_i = (_dx1(s[1:-1], h, space_order) if s_x is None
             else _as_family(s_x, n_t, n_x, "s_x")[1:-1, ix])
    s_xx_i = (_dx2(s[1:-1], h, space_order) if s_xx is None
              else _as_family(s_xx, n_t, n_x, "s_xx")[1:-1, ix])

    residual = (2.0 * a_x_i * s_x_i + a[1:-1, ix] * s_xx_i) / 2.0 + a_t_i
    keep = np.abs(a[1:-1, ix]) > _TAIL_MASK_REL * np.max(np.abs(a))
    if not np.any(keep):
        return 0.0
    return float(np.max(np.abs(residual[keep])))


def qhje_residual(s, v_b, v, x, dt: float, s_t=None, s_x=None, mask=None) -> float:
    """Max norm of S_x^2/2 + V_B + V + S_t.

    V_B and V are taken as given field samples (they carry no derivatives
    here).  mask, if supplied, restricts the max norm to a region of
    interest with the same (n_t, n_x) sampling.
    """
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    n_t, n_x = s.shape
    _check_times(n_t, dt)
    v_b = _as_family(v_b, n_t, n_x, "v_b")
    v = _as_family(v, n_t, n_x, "v")
    h = x[1] - x[0]
    ix = _interior(n_x)

    s_t_i = (_dt1(s, dt)[:, ix] if s_t is None
             else _as_family(s_t, n_t, n_x, "s_t")[1:-1, ix])
    s_x_i = (_dx1(s[1:-1], h, 2) if s_x is None
             else _as_family(s_x, n_t, n_x, "s_x")[1:-1, ix])

    residual = s_x_i**2 / 2.0 + v_b[1:-1, ix] + v[1:-1, ix] + s_t_i
    if mask is not None:
        keep = _as_family(mask, n_t, n_x, "mask")[1:-1, ix].astype(bool)
        if not np.any(keep):
            return 0.0
        residual = residual[keep]
    return float(np.max(np.abs(residual)))


def normalization(psi, x=None):
    """Trapezoidal int |psi|^2 dx; accepts a WavefunctionGrid or samples + x."""
    if isinstance(psi, WavefunctionGrid):
        norms = psi.norms()
        return float(norms[0]) if norms.size == 1 else norms
    if x is None:
        raise ValueError("x samples required when psi is a plain array")
    psi = np.asarray(psi)
    return np.trapezoid(np.abs(psi) ** 2, np.asarray(x, dtype=float), axis=-1)


def build_residual_report(construction: Construction, grid: SpatialGrid,
                          t: float, dt: float, space_order: int = 2) -> ResidualReport:
    """Sample the constructed fields at (t-dt, t, t+dt) and run every check."""
    times = np.array([t - dt, t, t + dt])
    x = grid.x
    scale, field, profile = construction.scale, construction.field, construction.profile

    column = times[:, None]
    a = amplitude_gaussian(x, column, scale)
    s = field.S(x, column)
    psi = a * np.exp(1j * s)
    v = classical_potential(profile, x, column)
    v_b = bohm_potential_gaussian(x, column, scale)

    se_l2, se_max = schrodinger_residual(psi, v, x, dt, space_order=space_order)
    cont_max = continuity_residual(a, s, x, dt, space_order=space_order)
    tail_mask = np.abs(psi) > _TAIL_MASK_REL * np.max(np.abs(psi))
    qhje_max = qhje_residual(s, v_b, v, x, dt, mask=tail_mask)
    norm_error = abs(float(normalization(psi[1], x)) - 1.0)

    return ResidualReport(
        se_residual_l2=se_l2,
        se_residual_max=se_max,
        continuity_residual_max=cont_max,
        qhje_residual_max=qhje_max,
        normalization_error=norm_error,
        h=grid.h,
        dt=dt,
        n_x=grid.n,
        n_t=3,
    )
