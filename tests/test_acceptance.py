"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The whole module runs at desk scale; the split-step runs in criterion 5
dominate (tens of seconds).
"""

import numpy as np
import pytest

from bohmosc import (
    PropagatorConfig,
    SpatialGrid,
    amplitude_gaussian,
    bohm_potential_critical,
    bohm_potential_from_amplitude,
    bohm_potential_gaussian,
    bohm_potential_subcritical,
    build_residual_report,
    closed_form_critical,
    closed_form_subcritical,
    ermakov_residual,
    fidelity,
    propagate,
    rational_construction,
    solve_numeric,
    subcritical_parameters,
)
from bohmosc.cli import main


def report(number: int, description: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def tdse_runs():
    """Propagate b=1 and b=2 on [0,5] at dt=1e-4, n=512 (criteria 5 and 9).

    Domains are sized so the Gaussian truncation stays below 1e-12 even
    for the widest state reached (rho(5) ~ 2.6 subcritical, ~5.2 critical).
    """
    runs = {}
    samples = 0.5 * np.arange(1, 11)
    for label, b, half_width in (("b=1", 1.0, 16.0), ("b=2", 2.0, 28.0)):
        construction = rational_construction(b)
        grid = SpatialGrid(-half_width, half_width, 512)
        psi0 = construction.psi(grid, 0.0)
        config = PropagatorConfig(grid=grid, dt=1e-4,
                                  profile=construction.profile)
        propagated = propagate(psi0, config, 5.0, sample_times=samples)
        reference = construction.psi(grid, samples)
        runs[label] = (psi0, propagated, reference)
    return runs


@pytest.fixture(scope="module")
def static_run():
    """Ground state propagated through T=pi (criteria 6 and 9)."""
    construction = rational_construction(0.0)
    grid = SpatialGrid(-8.0, 8.0, 512)
    psi0 = construction.psi(grid, 0.0)
    steps = round(np.pi / 1e-4)
    config = PropagatorConfig(grid=grid, dt=np.pi / steps,
                              profile=construction.profile)
    final = propagate(psi0, config, np.pi)
    return psi0, final


def test_criterion_1_closed_form_residuals():
    t = np.linspace(0.0, 10.0, 1000)
    worst = 0.0
    for b in (0.5, 1.0, 1.5, 2.0):
        construction = rational_construction(b)
        residual = ermakov_residual(construction.solution,
                                    construction.profile, t)
        worst = max(worst, float(np.max(np.abs(residual))))
    report(1, "closed-form Ermakov residual < 1e-10 on [0,10]",
           worst < 1e-10, f"max {worst:.3e}")


def test_criterion_2_numeric_matches_closed_forms():
    t = np.linspace(0.0, 10.0, 1001)
    a, _ = subcritical_parameters(1.0)
    sub = solve_numeric(rational_construction(1.0).profile, 1.0,
                        1.0 / (2.0 * a), (0.0, 10.0), rel_tol=1e-10)
    dev_sub = float(np.max(np.abs(sub.rho(t) - closed_form_subcritical(1.0, t))))
    crit = solve_numeric(rational_construction(2.0).profile, 1.0, 1.0,
                         (0.0, 10.0), rel_tol=1e-10)
    dev_crit = float(np.max(np.abs(crit.rho(t) - closed_form_critical(t))))
    worst = max(dev_sub, dev_crit)
    report(2, "numeric solver within 1e-8 of both closed forms",
           worst < 1e-8, f"subcritical {dev_sub:.3e}, critical {dev_crit:.3e}")


def test_criterion_3_bohm_potential_consistency_triangle():
    x = np.linspace(-5.0, 5.0, 201)
    times = np.linspace(0.0, 6.0, 121)

    sub = rational_construction(1.0)
    dev_sub = max(
        float(np.max(np.abs(bohm_potential_subcritical(1.0, x, t)
                            - bohm_potential_gaussian(x, t, sub))))
        for t in times)
    crit = rational_construction(2.0)
    dev_crit = max(
        float(np.max(np.abs(bohm_potential_critical(x, t)
                            - bohm_potential_gaussian(x, t, crit))))
        for t in times)

    errors = []
    for n in (257, 513, 1025):
        grid = SpatialGrid(-8.0, 8.0, n)
        amplitude = amplitude_gaussian(grid.x, 1.0, sub)
        fd = bohm_potential_from_amplitude(amplitude, grid)
        exact = bohm_potential_gaussian(grid.x, 1.0, sub)
        inner = slice(1, -1)
        errors.append(float(np.max(np.abs(fd[inner] - exact[inner]))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]

    closed_ok = max(dev_sub, dev_crit) <= 1e-12
    order_ok = all(abs(r - 4.0) <= 0.5 for r in ratios)
    report(3, "V_B closed forms agree to 1e-12 and the finite-difference "
              "route converges at O(h^2)",
           closed_ok and order_ok,
           f"branch dev {max(dev_sub, dev_crit):.2e}, "
           f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_criterion_4_governing_equation_residuals():
    construction = rational_construction(1.0)
    probe = 1.5

    # second-order decrease under simultaneous (h, dt) refinement
    maxima = {"se": [], "continuity": [], "qhje": []}
    for level in range(3):
        n = 129 * 2**level - (2**level - 1)  # h = (1/8)/2^level
        grid = SpatialGrid(-8.0, 8.0, n)
        entry = build_residual_report(construction, grid, probe,
                                      8e-3 / 2**level, space_order=2)
        maxima["se"].append(entry.se_residual_max)
        maxima["continuity"].append(entry.continuity_residual_max)
        maxima["qhje"].append(entry.qhje_residual_max)
    orders = {key: [np.log2(v[i] / v[i + 1]) for i in range(2)]
              for key, v in maxima.items()}
    order_ok = all(abs(o - 2.0) <= 0.4 for pair in orders.values()
                   for o in pair)

    # absolute thresholds at h=1/32, dt=1e-3 need the fourth-order
    # spatial stencil; the second-order truncation floor sits near 1e-5
    fine = build_residual_report(construction, SpatialGrid(-8.0, 8.0, 513),
                                 probe, 1e-3, space_order=4)
    threshold_ok = (fine.se_residual_max < 1e-6
                    and fine.continuity_residual_max < 1e-6
                    and fine.qhje_residual_max < 1e-6)

    report(4, "Schrodinger/continuity/QHJE residuals: O(h^2)+O(dt^2) "
              "decrease and < 1e-6 at h=1/32, dt=1e-3",
           order_ok and threshold_ok,
           f"orders {[f'{o:.2f}' for pair in orders.values() for o in pair]}, "
           f"finest ({fine.se_residual_max:.2e}, "
           f"{fine.continuity_residual_max:.2e}, "
           f"{fine.qhje_residual_max:.2e})")


def test_criterion_5_tdse_oracle(tdse_runs):
    detail = []
    passed = True
    for label, (_, propagated, reference) in tdse_runs.items():
        worst = float(np.min(fidelity(reference, propagated)))
        detail.append(f"{label} min fidelity {worst:.9f}")
        passed = passed and worst >= 1.0 - 1e-6
    report(5, "split-step fidelity >= 1 - 1e-6 on [0,5] for both branches",
           passed, "; ".join(detail))


def test_criterion_6_static_regression(static_run):
    psi0, final = static_run
    value = float(fidelity(psi0, final)[0])
    overlap = np.trapezoid(np.conj(psi0.psi[0]) * final.psi[0],
                           psi0.grid.x)
    phase_error = abs(float(np.angle(overlap)) - (-np.pi / 2.0))
    passed = value >= 1.0 - 1e-8 and phase_error < 1e-6
    report(6, "static oscillator: stationary ground state with phase -T/2",
           passed, f"fidelity {value:.12f}, phase error {phase_error:.2e}")


def test_criterion_7_phase_transition_scan(tmp_path):
    out = tmp_path / "transition.csv"
    assert main(["transition", "--t-probe", "1.0", "--x-probe", "0.0",
                 "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    near_critical = data[data[:, 0] == 2.0 - 1e-6, 1][0]
    critical_row = data[-1, 1]
    # direct evaluation of the critical closed form, not a quoted number
    direct = 1.0 / (2.0 * 3.0 * (1.0 + 0.25 * np.log(3.0) ** 2))
    passed = (near_critical < 1e-3
              and abs(critical_row - direct) <= 1e-5
              and critical_row - near_critical > 0.1)
    report(7, "subcritical V_B(0,1) -> 0 as b -> 2- while the critical "
              "value stays finite",
           passed, f"b=2-1e-6 gives {near_critical:.3e}, critical "
                   f"{critical_row:.6f} vs direct {direct:.6f}")


def test_criterion_8_figure_surfaces(tmp_path):
    passed = True
    details = []
    for command in ("fig1", "fig2"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        surface = data[:, 2].reshape(121, 201)
        x_index = np.argmax(surface, axis=1)
        origin_exact = data[100, 2] == 0.5      # row (t=0, x=0)
        ridge = np.all(x_index == 100)          # single ridge at x=0
        decay = np.all(np.diff(surface[:, 100]) < 0.0)
        finite = bool(np.all(np.isfinite(surface)))
        peak_at_origin = np.argmax(data[:, 2]) == 100
        ok = origin_exact and ridge and decay and finite and peak_at_origin
        passed = passed and ok
        details.append(f"{command} ok={ok}")
    report(8, "figure surfaces: V_B(0,0)=0.5, single decaying ridge, "
              "no singularities", passed, "; ".join(details))


def test_criterion_9_normalization_everywhere(tdse_runs, static_run):
    worst = 0.0
    for _, propagated, reference in tdse_runs.values():
        worst = max(worst, float(np.max(np.abs(propagated.norms() - 1.0))))
        worst = max(worst, float(np.max(np.abs(reference.norms() - 1.0))))
    psi0, final = static_run
    worst = max(worst, abs(float(psi0.norms()[0]) - 1.0))
    worst = max(worst, abs(float(final.norms()[0]) - 1.0))
    # the residual-study configuration of criterion 4
    entry = build_residual_report(rational_construction(1.0),
                                  SpatialGrid(-8.0, 8.0, 513), 1.5, 1e-3)
    worst = max(worst, entry.normalization_error)
    report(9, "int |psi|^2 dx = 1 +/- 1e-10 at every sampled time",
           worst < 1e-10, f"worst error {worst:.3e}")
