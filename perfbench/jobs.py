"""Seeded job lists for the benchmark workloads, and the oracle for each job.

A job is one `bohmosc` CLI invocation plus the check its output must pass.
The seed picks slopes and the table profile only: the number of jobs and
every grid size are fixed per workload.  Tolerances are those of the
acceptance criteria in tests/test_acceptance.py (criterion numbers below)
or, for the tabulated profile, of the CLI table test in tests/test_cli.py.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from bohmosc.ermakov import closed_form_critical, closed_form_subcritical
from bohmosc.madelung import (
    bohm_potential_critical,
    bohm_potential_gaussian,
    bohm_potential_subcritical,
    rational_construction,
)

WORKLOADS = ("propagate", "surface", "check")

MIN_FIDELITY = 1.0 - 1e-6  # criterion 5
RHO_TOL = 1e-8  # criterion 2
ANALYTIC_TOL = 1e-12  # criterion 3: two analytic forms of one field
RESIDUAL_THRESHOLD = 1e-6  # criterion 4
ORDER_TOL = 0.4  # criterion 4: observed orders within 0.4 of 2
TABLE_RHO_TOL = 1e-3  # linear interpolation of a tabulated rational profile

# Failures known to the program, each a fragment of the reason a job
# reports (ROADMAP item 3 is their fix).  Any other failure is a defect.
SELF_CHECK = "failed the residual self-check"  # solve_numeric exits 2
RHO_MISS = "rho deviation from the closed form"

TABLE_FILE = "omega_table.csv"
_TABLE_STEP = 0.04
_TABLE_T_MAX = 12.0
_PI_MHALF = math.pi ** -0.5


@dataclass(frozen=True)
class Job:
    """One CLI run; `steps` is the number of split steps it takes, and
    `known` the fragments of the failure reasons known for it."""

    name: str
    argv: tuple
    check: Callable[[str], Optional[str]]
    steps: int = 0
    known: tuple = ()

    def is_known(self, failure: str) -> bool:
        return any(fragment in failure for fragment in self.known)

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


def _slope_args(b):
    return ("--critical",) if b == 2.0 else ("--b", repr(b))


def _subcritical_a(b):
    return math.sqrt(1.0 - b * b / 4.0)


def _closed_rho(b, t):
    return closed_form_critical(t) if b == 2.0 else closed_form_subcritical(b, t)


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _worst(label, deviation, tol):
    if not np.isfinite(deviation) or deviation > tol:
        return f"{label} {deviation:.3e} > {tol:.0e}"
    return None


# ---------------------------------------------------------------- checks

def _check_fidelity(path):
    fid = _read_csv(path)[:, 1]
    worst = float(np.min(fid))
    if not worst >= MIN_FIDELITY:
        return f"fidelity {worst:.12f} < 1-1e-6"
    return None


def _check_rho(b, tol):
    def check(path):
        data = _read_csv(path)
        dev = float(np.max(np.abs(data[:, 1] - _closed_rho(b, data[:, 0]))))
        return _worst("rho deviation from the closed form", dev, tol)
    return check


def _check_branch_bohm(b):
    """bohm writes V_B from nu; compare with the branch closed form."""
    def check(path):
        data = _read_csv(path)
        t, x, v_b = data[:, 0], data[:, 1], data[:, 2]
        if b == 2.0:
            exact = bohm_potential_critical(x, t)
        else:
            exact = bohm_potential_subcritical(b, x, t)
        return _worst("V_B vs branch closed form",
                      float(np.max(np.abs(v_b - exact))), ANALYTIC_TOL)
    return check


def _check_figure(b):
    """fig1/fig2 write the branch closed form; compare with V_B from nu."""
    def check(path):
        data = _read_csv(path)
        scale = rational_construction(b).scale
        dev = 0.0
        for t in np.unique(data[:, 0]):
            rows = data[:, 0] == t
            exact = bohm_potential_gaussian(data[rows, 1], t, scale)
            dev = max(dev, float(np.max(np.abs(data[rows, 2] - exact))))
        return _worst("V_B vs Gaussian form of nu", dev, ANALYTIC_TOL)
    return check


def _check_transition(path):
    data = _read_csv(path)
    dev = 0.0
    for b, v_b in data:
        scale = rational_construction(float(b)).scale
        dev = max(dev, abs(v_b - float(bohm_potential_gaussian(0.0, 1.0, scale))))
    return _worst("V_B vs Gaussian form of nu", dev, ANALYTIC_TOL)


def _blocks(path):
    """Rows of a (t, x, ...) surface as an (n_t, n_x, columns) array."""
    data = _read_csv(path)
    n_x = int(np.count_nonzero(data[:, 0] == data[0, 0]))
    return data.reshape(-1, n_x, data.shape[1])


def _pinney_rho(b, t):
    """rho(t) for Omega = 1/(a + b t) from rho(0) = 1, rho'(0) = 0, the
    start the CLI takes for a table: Pinney's rho^2 = y1^2 + y2^2, where
    y1, y2 solve y'' + Omega^2 y = 0 with y1(0) = y2'(0) = 1 and
    y1'(0) = y2(0) = 0.  With s = a + b t, the linear solutions are
    sqrt(s) times the cosine and sine of kappa ln s."""
    a = _subcritical_a(b)
    kappa = math.sqrt(4.0 - b * b) / (2.0 * b)
    s = (a + b * np.asarray(t, dtype=float)) / a
    root, phase = np.sqrt(s), kappa * np.log(s)
    y2 = root * np.sin(phase) * a / (b * kappa)
    y1 = root * np.cos(phase) - root * np.sin(phase) / (2.0 * kappa)
    return np.sqrt(y1 * y1 + y2 * y2)


def _rho_from_origin(blocks, density):
    """rho(t), recovered from |A(0, t)|^2 = pi^-1/2 / rho of the dilated
    Gaussian; the default grids hold x = 0 exactly."""
    origin = np.flatnonzero(blocks[0, :, 1] == 0.0)
    if origin.size != 1:
        raise ValueError("grid has no x = 0 column")
    return (_PI_MHALF / density[:, origin[0]])[:, None]


def _table_rho(blocks, density, b):
    """rho(t) that a table run's x = 0 column implies, and the verdict on
    it against the Pinney form for the table's slope."""
    rho = _rho_from_origin(blocks, density)
    dev = float(np.max(np.abs(rho[:, 0] - _pinney_rho(b, blocks[:, 0, 0]))))
    return rho, _worst("rho at x = 0 vs Pinney form", dev, TABLE_RHO_TOL)


def _check_wavefunction(b, table=False):
    """|psi|^2 must be the dilated Gaussian of the closed-form rho(t).  For
    a table at slope b, the rho(t) its x = 0 value implies must match the
    Pinney form, and |psi|^2 the dilated Gaussian of that rho(t)."""
    def check(path):
        blocks = _blocks(path)
        t, x, re, im, abs2 = np.moveaxis(blocks, 2, 0)
        if table:
            rho, miss = _table_rho(blocks, abs2, b)
            if miss:
                return miss
        else:
            rho = _closed_rho(b, t)
        gaussian = _PI_MHALF * np.exp(-(x / rho) ** 2) / rho
        dev = max(float(np.max(np.abs(abs2 - gaussian))),
                  float(np.max(np.abs(abs2 - (re * re + im * im)))))
        return _worst("|psi|^2 vs dilated Gaussian", dev, ANALYTIC_TOL)
    return check


def _check_table_bohm(b):
    """The rho(t) that the A column implies at x = 0 must match the Pinney
    form for the table's slope b, and V_B the Gaussian form of that rho(t)."""
    def check(path):
        blocks = _blocks(path)
        x, v_b, amp = blocks[:, :, 1], blocks[:, :, 2], blocks[:, :, 4]
        rho, miss = _table_rho(blocks, amp * amp, b)
        if miss:
            return miss
        e2 = rho ** -2
        exact = -0.5 * x * x * e2 * e2 + 0.5 * e2
        return _worst("V_B vs Gaussian form of A",
                      float(np.max(np.abs(v_b - exact))), ANALYTIC_TOL)
    return check


def _check_verify(path):
    with open(path) as handle:
        document = json.load(handle)
    finest = document["levels"][-1]
    worst = max(finest["se_residual_max"], finest["continuity_residual_max"],
                finest["qhje_residual_max"])
    if not worst <= RESIDUAL_THRESHOLD:
        return f"finest residual {worst:.3e} > 1e-6"
    for key, orders in document["observed_orders"].items():
        for order in orders:
            if order is None or abs(order - 2.0) > ORDER_TOL:
                return f"{key} observed order {order} not within 0.4 of 2"
    return None


# ------------------------------------------------------------- workloads

def _job(name, argv, check, steps=0, ext=".csv", known=()):
    return Job(name, (*argv, "--out", name + ext), check, steps, known)


def _closed_rho_dot0(b):
    """rho'(0) = C b / (2 sqrt(a)) of the subcritical closed form."""
    return 0.5 * b * (1.0 - b * b / 4.0) ** -0.25 / math.sqrt(_subcritical_a(b))


def _tdse(name, b, n, x_max, t_max):
    argv = ("tdse-check", *_slope_args(b), "--n", str(n), "--dt", "1e-4",
            "--t-max", repr(t_max), "--min-fidelity", "0.999999")
    if x_max is not None:
        argv += ("--x-max", repr(x_max))
    return _job(name, argv, _check_fidelity, steps=int(round(t_max / 1e-4)))


def propagate_jobs(rng):
    # The first two are the acceptance gate's split-step runs.  Above
    # b ~ 1.9 the default dt trips the phase-wrap guard on the n = 4096 grid.
    return [
        _tdse("tdse-b1-n512", 1.0, 512, 16.0, 5.0),
        _tdse("tdse-critical-n512", 2.0, 512, 28.0, 5.0),
        _tdse("tdse-seeded-n4096", rng.uniform(0.0, 1.8), 4096, None, 1.0),
    ]


def _table(rng):
    """Omega = 1/(a + b t) tabulated at a seeded slope, as (slope, CSV text).

    The slope stays near 0.6: the solve's cost through the table's kinks
    grows with b, and so does the interpolation error, which must stay
    well below TABLE_RHO_TOL."""
    b = rng.uniform(0.55, 0.65)
    a = _subcritical_a(b)
    times = np.arange(0.0, _TABLE_T_MAX + _TABLE_STEP / 2, _TABLE_STEP)
    return b, "".join(f"{float(t)!r},{1.0 / (a + b * float(t))!r}\n" for t in times)


def surface_jobs(rng, table_slope):
    jobs = []
    for command, checker in (("bohm", _check_branch_bohm),
                             ("wavefunction", _check_wavefunction)):
        for label, b in (("seeded", rng.uniform(0.0, 1.9)), ("critical", 2.0)):
            jobs.append(_job(f"{command}-{label}", (command, *_slope_args(b)),
                             checker(b)))
    table = ("--omega-table", TABLE_FILE)
    b = rng.uniform(0.0, 1.9)
    return jobs + [
        _job("fig1", ("fig1",), _check_figure(1.0)),
        _job("fig2", ("fig2",), _check_figure(2.0)),
        # On some seeded tables the numeric solve fails its self-check.
        _job("bohm-table", ("bohm", *table), _check_table_bohm(table_slope),
             known=(SELF_CHECK,)),
        _job("wavefunction-table", ("wavefunction", *table),
             _check_wavefunction(table_slope, table=True), known=(SELF_CHECK,)),
        _job("bohm-large", ("bohm", "--b", repr(b), "--nt", "301", "--nx", "1001"),
             _check_branch_bohm(b)),
    ]


def check_jobs(rng, table_slope):
    # One slope near the middle of each sixth of [0, 2 - 1e-2], so that every
    # seed covers the range alike: the solver's cost varies by up to 2x with
    # b, and wider draws would make run time depend on the seed.  A quarter
    # of the slopes sit in the near-critical band 2 - b in [1e-4, 1e-2], one
    # per decade, where solve_numeric is known to fail: by its self-check
    # for 2 - b below about 1.5e-3, by missing the tolerance above.
    slopes = [(i + 0.4 + 0.2 * rng.random()) * (2.0 - 1e-2) / 6 for i in range(6)]
    near_critical = [2.0 - 10.0 ** -(4 - i - rng.random()) for i in range(2)]
    jobs = [_job(f"ermakov-numeric-{i}",
                 ("ermakov", "--numeric", "--b", repr(b), "--t-max", "50"),
                 _check_rho(b, RHO_TOL),
                 known=(SELF_CHECK, RHO_MISS) if b in near_critical else ())
            for i, b in enumerate(slopes + near_critical)]
    jobs.append(_job("ermakov-table",
                     ("ermakov", "--omega-table", TABLE_FILE,
                      "--rho-dot0", repr(_closed_rho_dot0(table_slope))),
                     _check_rho(table_slope, TABLE_RHO_TOL)))
    # --a/--b forces the generic numeric path; a and rho'(0) are those of
    # the closed form so criterion 2 applies.
    b = rng.uniform(0.2, 1.5)
    jobs.append(_job("ermakov-ab",
                     ("ermakov", "--a", repr(_subcritical_a(b)), "--b", repr(b),
                      "--rho-dot0", repr(_closed_rho_dot0(b))),
                     _check_rho(b, RHO_TOL)))
    # Below b ~ 0.6 the fourth-order stencil reaches its roundoff floor
    # (orders lose meaning); above b ~ 1.65 the dt^2 truncation at the
    # default --dt exceeds 1e-6.  Both bound the oracle, not the program.
    b = rng.uniform(0.8, 1.5)
    for label, slope in (("seeded", b), ("critical", 2.0)):
        for order in ("2", "4"):
            jobs.append(_job(f"verify-{label}-o{order}",
                             ("verify", *_slope_args(slope), "--refine", "5",
                              "--nt", "16", "--order", order, "--threshold", "1e-6"),
                             _check_verify, ext=".json"))
    jobs.append(_job("transition", ("transition",), _check_transition))
    return jobs


def build(workload, seed):
    """Jobs of one workload for one seed, and the input files they read
    (name -> text)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "propagate":
        return propagate_jobs(rng), {}
    table_slope, table = _table(rng)
    if workload == "surface":
        return surface_jobs(rng, table_slope), {TABLE_FILE: table}
    return check_jobs(rng, table_slope), {TABLE_FILE: table}
