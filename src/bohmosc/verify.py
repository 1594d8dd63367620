"""Finite-difference residual checks of the governing equations.

Independent of how the fields were constructed, this module asks whether
sampled psi, A, S actually satisfy, in units hbar = m = 1,

    Schrodinger:   i psi_t + psi_xx/2 - V psi          = 0
    continuity:    (2 A_x S_x + A (S_x)_x)/2 + A_t    = 0
    QHJE:          S_x^2/2 + V_B + V + S_t             = 0

using central differences in t and x.  Stencils are second order by
default with an optional fourth-order spatial variant for convergence
studies.  Residuals are evaluated on the interior only (two points
skipped per side: one-sided stencils degrade the order, and the domain is
truncation-padded anyway), and norms are restricted to the region
where the amplitude A exceeds 1e-10 of its peak, since relative residuals
in the exponentially small tail are noise.  Each check reduces its
residual by one masked max over all its cells, with no copy of the kept
ones; the Schrodinger L2 adds one sum per time row.

All functions are pure.  Field families are (..., n_t, n_x) arrays
sampled at uniformly spaced times; a leading axis stacks families (one
per probe time), each masked by its own amplitude peak, and a residual is
the worst over them.  A residual report is the worst over its probe
times, sampled in blocks of bounded size; it reads the tail mask from
the A it samples, and shares it between all three checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict
from time import perf_counter

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
    "build_residual_report",
]

_log = logging.getLogger(__name__)

_TAIL_MASK_REL = 1e-10
_BOUNDARY_SKIP = 2
# Points in one block of a report's (p, 3, n_x) probe stack: a complex
# temporary of 2**14 points is 256 KiB, so a block stays cache-sized and
# the report's peak memory does not grow with the probe count.
_BLOCK_POINTS = 2**14


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
    """Central time derivative at interior time rows of (..., n_t, n_x) families."""
    return (f[..., 2:, :] - f[..., :-2, :]) / (2.0 * dt)


def _as_family(f, shape: tuple, name: str) -> np.ndarray:
    f = np.asarray(f)
    try:
        return np.broadcast_to(f, shape)
    except ValueError:
        raise ValueError(f"{name} must broadcast to shape {shape}, got {f.shape}") from None


def _families(f, x, dt: float, dtype=float) -> tuple:
    """The prologue of every check: f as (..., n_t, n_x) families of dtype,
    the spacing h of the positions x and the interior slice of a row.
    Refuses fewer than 3 time samples and a dt that is not positive."""
    f = np.asarray(f, dtype=dtype)
    *_, n_t, n_x = f.shape
    if n_t < 3:
        raise ValueError(f"need at least 3 time samples, got {n_t}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need dt > 0, got {dt}")
    x = np.asarray(x, dtype=float)
    return f, x[1] - x[0], slice(_BOUNDARY_SKIP, n_x - _BOUNDARY_SKIP)


def _tail_mask(magnitude: np.ndarray) -> np.ndarray:
    """Where |f| exceeds _TAIL_MASK_REL of its peak over each (n_t, n_x) family."""
    peak = np.max(magnitude, axis=(-2, -1), keepdims=True)
    return magnitude > _TAIL_MASK_REL * peak


def schrodinger_residual(psi, v, x, dt: float, space_order: int = 2,
                         mask=None) -> tuple:
    """L2 and max norms of i psi_t + psi_xx/2 - V psi.

    psi: (..., n_t, n_x) complex families at uniform dt; v: potential
    samples broadcastable to psi.  Returns (l2, max), each the worst over
    the interior time rows of every family.  mask, if supplied, is the
    tail mask of |psi| (build_residual_report passes that of A, which it
    shares with the continuity and QHJE checks); by default it is
    computed from |psi|.
    The residual is linear in psi; no normalization is applied.
    """
    psi, h, ix = _families(psi, x, dt, complex)
    v = _as_family(v, psi.shape, "v")

    psi_t = _dt1(psi, dt)[..., ix]
    psi_xx = _dx2(psi[..., 1:-1, :], h, space_order)
    residual = 1j * psi_t + psi_xx / 2.0 - v[..., 1:-1, ix] * psi[..., 1:-1, ix]

    if mask is None:
        mask = _tail_mask(np.abs(psi))
    keep = _as_family(mask, psi.shape, "mask")[..., 1:-1, ix]
    # Zeroed, not multiplied by the mask, so that a NaN outside it stays out.
    magnitude = np.abs(residual)
    np.copyto(magnitude, 0.0, where=~keep)
    worst = float(np.max(magnitude, initial=0.0))
    np.square(magnitude, out=magnitude)
    return float(np.sqrt(h * np.max(np.sum(magnitude, axis=-1), initial=0.0))), worst


def continuity_residual(a, s, x, dt: float, space_order: int = 2,
                        mask=None) -> float:
    """Max norm of (2 A_x S_x + A (S_x)_x)/2 + A_t, by central differences.

    a, s: (..., n_t, n_x) families at uniform dt; the max is the worst
    over every family, each masked by the tail of its own amplitude.
    mask, if supplied, is that tail mask (build_residual_report passes
    the one it shares with the other checks); by default it is computed
    from |A|.
    """
    a, h, ix = _families(a, x, dt)
    s = np.asarray(s, dtype=float)
    if s.shape != a.shape:
        raise ValueError("A and S families must share a shape")

    a_t = _dt1(a, dt)[..., ix]
    a_x = _dx1(a[..., 1:-1, :], h, space_order)
    s_x = _dx1(s[..., 1:-1, :], h, space_order)
    s_xx = _dx2(s[..., 1:-1, :], h, space_order)

    residual = (2.0 * a_x * s_x + a[..., 1:-1, ix] * s_xx) / 2.0 + a_t
    if mask is None:
        mask = _tail_mask(np.abs(a))
    keep = _as_family(mask, a.shape, "mask")[..., 1:-1, ix]
    return float(np.max(np.abs(residual), where=keep, initial=0.0))


def qhje_residual(s, v_b, v, x, dt: float, mask=None) -> float:
    """Max norm of S_x^2/2 + V_B + V + S_t, by central differences.

    s: (..., n_t, n_x) families at uniform dt; the max is the worst over
    every family.  V_B and V are taken as given field samples,
    broadcastable to s (they carry no derivatives here).  mask, if
    supplied, restricts the max norm to a region of interest with the
    same sampling.
    """
    s, h, ix = _families(s, x, dt)
    v_b = _as_family(v_b, s.shape, "v_b")
    v = _as_family(v, s.shape, "v")

    s_t = _dt1(s, dt)[..., ix]
    s_x = _dx1(s[..., 1:-1, :], h, 2)

    residual = s_x**2 / 2.0 + v_b[..., 1:-1, ix] + v[..., 1:-1, ix] + s_t
    keep = True if mask is None else (
        _as_family(mask, s.shape, "mask")[..., 1:-1, ix].astype(bool))
    return float(np.max(np.abs(residual), where=keep, initial=0.0))


def build_residual_report(construction: Construction, grid: SpatialGrid,
                          t, dt: float, space_order: int = 2) -> ResidualReport:
    """Sample the constructed fields at (t-dt, t, t+dt) and run every check.

    t is one probe time or a 1-d array of them; each field of the report
    is the worst over the probes.  Probes are sampled in blocks whose
    (p, 3, n_x) stacks hold at most _BLOCK_POINTS points (one probe where
    its three rows alone hold more): A and S on the three rows, V and V_B
    on the middle row, the only one the checks read.  Logs one DEBUG
    record on the ``bohmosc`` logger: the probe times, the grid points,
    the probe blocks and the seconds taken.
    """
    started = perf_counter()
    probes = np.asarray(t, dtype=float)
    if probes.ndim > 1 or probes.size == 0:
        raise ValueError("need one probe time or a 1-d array of them, "
                         f"got shape {probes.shape}")
    probes = probes.reshape(-1)
    x = grid.x

    per_block = max(1, _BLOCK_POINTS // (3 * grid.n))
    worst = np.zeros(5)
    starts = range(0, probes.size, per_block)
    for start in starts:
        block = probes[start:start + per_block, None, None]
        column = np.concatenate([block - dt, block, block + dt], axis=1)
        a = amplitude_gaussian(x, column, construction)
        s = construction.S(x, column)
        psi = 1j * s
        np.exp(psi, out=psi)
        psi *= a
        v = classical_potential(construction.profile, x, block)
        v_b = bohm_potential_gaussian(x, block, construction)

        tail_mask = _tail_mask(a)
        se_l2, se_max = schrodinger_residual(psi, v, x, dt, space_order=space_order,
                                             mask=tail_mask)
        cont_max = continuity_residual(a, s, x, dt, space_order=space_order,
                                       mask=tail_mask)
        qhje_max = qhje_residual(s, v_b, v, x, dt, mask=tail_mask)
        norms = WavefunctionGrid(grid, block.ravel(), psi[:, 1]).norms()
        norm_error = np.max(np.abs(norms - 1.0))
        np.maximum(worst, (se_l2, se_max, cont_max, qhje_max, norm_error), out=worst)

    se_l2, se_max, cont_max, qhje_max, norm_error = map(float, worst)
    _log.debug("residual report: %d probe times, %d grid points, %d probe blocks, "
               "%.3f s", probes.size, grid.n, len(starts),
               perf_counter() - started)
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
