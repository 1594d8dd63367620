import logging
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from bohmosc import (
    FrequencyProfile,
    Regime,
    bohm_potential_subcritical,
    classify_rational,
    closed_form_critical,
    closed_form_subcritical,
    critical_solution,
    ermakov_residual,
    numeric_construction,
    solve_numeric,
    subcritical_parameters,
    subcritical_solution,
)
from bohmosc import ermakov
from bohmosc.cli import main
from bohmosc.madelung import Construction


def tabulated_rational_profile():
    """Omega = 1/(a + b t) sampled every 0.04 on [0, 12], the table of
    test_tabulated_rational_profile."""
    b = 0.6056646784075957
    a = np.sqrt(1.0 - b * b / 4.0)
    samples = np.arange(0.0, 12.02, 0.04)
    return FrequencyProfile.from_table(samples, 1.0 / (a + b * samples))


def uneven_table():
    """Omega ramps from 20 to 40 over [0, 10], then stays at 40 for 127
    samples 0.05 apart.  Every knot segment takes the same number of Magnus
    steps, so the one long segment sets them for all 128: from rho = 1 at
    the default rel_tol that is 2**20 steps."""
    t = np.concatenate(([0.0], 10.0 + 0.05 * np.arange(128)))
    return FrequencyProfile.from_table(t, np.concatenate(([20.0], np.full(128, 40.0))))


def write_uneven_table(path):
    """Write uneven_table as an --omega-table file at path."""
    knots = np.asarray(uneven_table().knots)
    np.savetxt(path, np.column_stack([knots, uneven_table().omega(knots)]),
               delimiter=",", fmt="%.17g")


def family_profile(b):
    if b == 2.0:
        return FrequencyProfile.rational(1.0, 2.0)
    a, _ = subcritical_parameters(b)
    return FrequencyProfile.rational(a, b)


class TestClosedForms:
    def test_subcritical_starts_at_one(self):
        assert closed_form_subcritical(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_subcritical_b1_t1(self):
        # frozen from numeric integration of the Ermakov equation with
        # rho(0)=1, rho'(0)=b/(2a); closed form C*sqrt(a+b) agrees to 9e-14
        assert closed_form_subcritical(1.0, 1.0) == pytest.approx(
            1.4678898250138706, abs=1e-12)

    def test_constant_frequency_limit(self):
        # b=0 collapses to Omega=1 and rho identically 1
        t = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(closed_form_subcritical(0.0, t), 1.0, atol=1e-15)

    def test_near_critical_guard(self):
        with pytest.raises(ValueError):
            closed_form_subcritical(2.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_subcritical(3.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_subcritical(2.0 - 1e-15, 1.0)  # 1-b^2/4 at rounding level
        # near-critical but representable slopes stay on this branch
        assert np.isfinite(closed_form_subcritical(2.0 - 1e-6, 1.0))

    @pytest.mark.parametrize("build", [
        lambda b: closed_form_subcritical(b, 1.0),
        subcritical_solution,
        lambda b: bohm_potential_subcritical(b, 0.0, 1.0),
    ], ids=["closed_form", "solution", "bohm_potential"])
    def test_critical_band_is_refused(self, build):
        # classify_rational calls 2 - 5e-13 critical; the subcritical forms
        # must not take it (C would be 1189 and rho(1) 1682)
        assert classify_rational(2.0 - 5e-13) is Regime.CRITICAL
        with pytest.raises(ValueError, match="critical slope"):
            build(2.0 - 5e-13)

    def test_critical_starts_at_one(self):
        assert closed_form_critical(0.0) == pytest.approx(1.0, abs=0)

    def test_critical_log_two_point(self):
        # ln(1+2t) = 2 makes the second factor sqrt(2) and the first e
        t = (np.e**2 - 1.0) / 2.0
        assert closed_form_critical(t) == pytest.approx(np.e * np.sqrt(2.0), rel=1e-15)

    def test_critical_t1(self):
        # frozen from numeric integration with rho(0)=1, rho'(0)=1;
        # equals sqrt(3)*sqrt(1 + ln(3)^2/4)
        assert closed_form_critical(1.0) == pytest.approx(
            1.9761608539310345, abs=1e-12)

    def test_critical_domain_error(self):
        with pytest.raises(ValueError):
            closed_form_critical(-0.6)

    def test_b_to_zero_continuity(self):
        # C -> 1 and a -> 1 continuously as b -> 0
        t = np.linspace(0.0, 10.0, 33)
        for b in [1e-4, 1e-6, 1e-8]:
            drift = np.max(np.abs(closed_form_subcritical(b, t)
                                  - np.sqrt(1.0 + b * t)))
            assert drift < 10 * b


CALLABLES = ["rho", "rho_dot", "rho_ddot", "mu"]


class TestBranchBuilders:
    @pytest.mark.parametrize("name", CALLABLES)
    @pytest.mark.parametrize("build, t, message", [
        (lambda: subcritical_solution(1.0), -5.0,
         "a + b*t must stay positive (a=0.8660254037844386, b=1.0)"),
        (critical_solution, -1.0, "critical closed form requires 1 + 2t > 0"),
    ], ids=["subcritical", "critical"])
    def test_every_callable_refuses_past_the_domain(self, build, t, message, name):
        # a NaN or a RuntimeWarning past the domain fails this
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                getattr(build(), name)(np.array([0.0, t]))
        assert str(refused.value) == message

    def test_subcritical_constants_are_derived_once(self, monkeypatch):
        t = np.linspace(0.0, 10.0, 101)
        solution = subcritical_solution(1.0)
        before = [getattr(solution, name)(t) for name in CALLABLES]
        monkeypatch.setattr(ermakov, "subcritical_parameters", no_call)
        monkeypatch.setattr(ermakov, "classify_rational", no_call)
        for name, expected in zip(CALLABLES, before):
            assert getattr(solution, name)(t).tobytes() == expected.tobytes()

    def test_closed_forms_are_the_builders_rho(self):
        t = np.linspace(0.0, 50.0, 1001)
        for b in [0.0, 0.5, 1.0, 2.0 - 1e-6]:
            assert (closed_form_subcritical(b, t).tobytes()
                    == subcritical_solution(b).rho(t).tobytes())
        t = np.linspace(-0.4, 50.0, 1001)
        assert closed_form_critical(t).tobytes() == critical_solution().rho(t).tobytes()


def no_call(*_args, **_kwargs):
    raise AssertionError("called after the build")


class TestResidual:
    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_subcritical_solves_the_equation(self, b):
        solution = subcritical_solution(b)
        t = np.linspace(0.0, 10.0, 1000)
        residual = ermakov_residual(solution, family_profile(b), t)
        assert np.max(np.abs(residual)) < 1e-12

    def test_critical_solves_the_equation(self):
        solution = critical_solution()
        t = np.linspace(0.0, 10.0, 1000)
        residual = ermakov_residual(solution, family_profile(2.0), t)
        assert np.max(np.abs(residual)) < 1e-12

    def test_equilibrium(self):
        # rho = 1 with Omega = 1: residual 0 + 1 - 1
        solution = subcritical_solution(0.0)
        residual = ermakov_residual(solution, FrequencyProfile.constant(1.0), 3.0)
        assert abs(residual) < 1e-15

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_curvature_matches_finite_differences(self, b):
        # rho'' reconstructed from the equation agrees with the second
        # difference of rho at second order (ratio ~4 per h halving)
        solution = subcritical_solution(b)
        profile = family_profile(b)
        t = np.linspace(0.5, 8.0, 7)
        errors = []
        for h in (1e-2, 5e-3):
            fd = (solution.rho(t + h) - 2 * solution.rho(t)
                  + solution.rho(t - h)) / h**2
            ode = 1.0 / solution.rho(t) ** 3 - profile.omega(t) ** 2 * solution.rho(t)
            errors.append(np.max(np.abs(fd - ode)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)


class TestNumericSolver:
    def test_equilibrium_is_preserved(self):
        profile = FrequencyProfile.constant(1.0)
        solution = solve_numeric(profile, 1.0, 0.0, (0.0, 10.0))
        t = np.linspace(0.0, 10.0, 257)
        assert np.max(np.abs(solution.rho(t) - 1.0)) < 1e-9

    def test_callable_returning_one_value(self):
        # omega broadcasts it to the shape of t, which the step ends need
        t = np.linspace(0.0, 5.0, 51)
        one = solve_numeric(FrequencyProfile(lambda _: 2.0), 2.0**-0.5, 0.0, (0.0, 5.0))
        full = solve_numeric(FrequencyProfile.constant(2.0), 2.0**-0.5, 0.0, (0.0, 5.0))
        np.testing.assert_array_equal(one.rho(t), full.rho(t))
        np.testing.assert_array_equal(one.mu(t), full.mu(t))

    def test_matches_subcritical_closed_form(self):
        b = 1.0
        a, _ = subcritical_parameters(b)
        solution = solve_numeric(family_profile(b), 1.0, b / (2 * a), (0.0, 10.0))
        t = np.linspace(0.0, 10.0, 1001)
        assert np.max(np.abs(solution.rho(t) - closed_form_subcritical(b, t))) < 1e-8

    def test_matches_critical_closed_form(self):
        solution = solve_numeric(family_profile(2.0), 1.0, 1.0, (0.0, 10.0))
        t = np.linspace(0.0, 10.0, 1001)
        assert np.max(np.abs(solution.rho(t) - closed_form_critical(t))) < 1e-8

    @pytest.mark.parametrize("b", [1.999, 1.9999])
    def test_matches_near_critical_closed_form(self, b):
        a, _ = subcritical_parameters(b)
        solution = solve_numeric(family_profile(b), 1.0, b / (2 * a), (0.0, 10.0))
        t = np.linspace(0.0, 10.0, 1001)
        rho = closed_form_subcritical(b, t)
        assert np.max(np.abs(solution.rho(t) - rho) / rho) < 1e-8
        assert np.max(np.abs(solution.mu(t) - subcritical_solution(b).mu(t))) < 1e-9

    def test_tabulated_rational_profile(self):
        # Omega = 1/(a + b t) sampled every 0.04 on [0, 12], at a slope
        # where the table's kinks used to fail the self-check
        b = 0.6056646784075957
        a = np.sqrt(1.0 - b * b / 4.0)
        samples = np.arange(0.0, 12.02, 0.04)
        table = FrequencyProfile.from_table(samples, 1.0 / (a + b * samples))
        construction = numeric_construction(table, (0.0, 6.0))
        exact = solve_numeric(FrequencyProfile.rational(a, b), 1.0, 0.0, (0.0, 6.0))
        t = np.linspace(0.0, 6.0, 601)
        assert np.max(np.abs(construction.solution.rho(t) - exact.rho(t))) < 1e-3

    def test_near_critical_matches_closed_form_over_long_window(self):
        # RK45 missed by 4.1e-8 here; rho grows to about 40 by t = 50
        b = 2.0 - 10.0 ** -2.5
        a, _ = subcritical_parameters(b)
        solution = solve_numeric(family_profile(b), 1.0, b / (2 * a), (0.0, 50.0))
        t = np.linspace(0.0, 50.0, 5001)
        assert np.max(np.abs(solution.rho(t) - closed_form_subcritical(b, t))) < 1e-8

    def test_equilibrium_is_preserved_over_long_window(self):
        # u1 and u2 oscillate although rho = 1 is stationary; RK45 drifted
        # to 2.4e-9 by t = 200
        solution = solve_numeric(FrequencyProfile.constant(1.0), 1.0, 0.0, (0.0, 200.0))
        t = np.linspace(0.0, 200.0, 4001)
        assert np.max(np.abs(solution.rho(t) - 1.0)) < 1e-9

    def test_table_step_ends_contain_every_knot_in_the_window(self):
        table = tabulated_rational_profile()
        solution = solve_numeric(table, 1.0, 0.0, (0.1, 6.02))
        knots = np.asarray(table.knots)
        inside = knots[(knots > 0.1) & (knots < 6.02)]
        assert inside.size == 148
        assert np.all(np.isin(inside, solution.rho.x))
        assert solution.rho.x[0] == 0.1 and solution.rho.x[-1] == 6.02

    def test_table_solve_restarts_at_knots(self, caplog):
        # A table takes the Magnus route: each of its 250 knot segments in
        # [0, 10] gets the same number of steps, and the k-vs-2k estimate
        # meets its bound (one DOP853 run over the kinks took 28583 RHS
        # evaluations, and one restarted at each knot 8000)
        table = tabulated_rational_profile()
        caplog.set_level(logging.DEBUG, logger="bohmosc.ermakov")
        solve_numeric(table, 1.0, 0.0, (0.0, 10.0))
        (record,) = caplog.records
        steps, _, residual, bound = record.args
        assert re.search(r"\bMagnus, 250 knot segments\b", record.getMessage())
        assert steps % 250 == 0 and steps <= 8000
        assert residual <= bound

    def test_smooth_profile_is_one_segment(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bohmosc.ermakov")
        solve_numeric(family_profile(1.0), 1.0, 1.0 / np.sqrt(3.0), (0.0, 10.0))
        (record,) = caplog.records
        assert re.search(r"\bMagnus, 1 knot segments\b", record.getMessage())

    @pytest.mark.parametrize("b", [1.0, 2.0 - 1e-4])
    def test_smooth_profile_matches_the_closed_form_over_long_window(self, b):
        # DOP853 missed by 4.7e-9 at 2 - b = 1.5e-4, where rho grows to
        # about 100 by t = 50
        a, _ = subcritical_parameters(b)
        solution = solve_numeric(family_profile(b), 1.0, b / (2 * a), (0.0, 50.0))
        t = np.linspace(0.0, 50.0, 1001)
        assert np.max(np.abs(solution.rho(t) - closed_form_subcritical(b, t))) < 1e-9

    def test_parametric_resonance(self):
        # Omega = 1 + sin(t)/2 pumps rho up to about 2859 by t = 100; DOP853
        # at the default rel_tol was off by 1.6e-8 relative there
        profile = FrequencyProfile(lambda t: 1.0 + np.sin(t) / 2.0)
        t = np.linspace(0.0, 100.0, 2001)
        u1, _, u2, _ = dop853_restarted_at_knots(profile, (0.0, 100.0), t)
        rho = np.hypot(u1, u2)
        solution = solve_numeric(profile, 1.0, 0.0, (0.0, 100.0))
        assert np.max(np.abs(solution.rho(t) - rho) / rho) < 1e-9
        assert np.max(np.abs(solution.mu(t) + 0.5 * np.unwrap(np.arctan2(u2, u1)))) < 1e-9

    def test_phase_branch_with_long_steps(self):
        # u1 = 8 cos 16t, u2 = sin(16t)/128: the angle of (u1, u2) turns by
        # up to 3.13 rad within one step here, where rho is squeezed; a
        # wrong branch puts mu off by pi
        solution = solve_numeric(FrequencyProfile.constant(16.0), 8.0, 0.0, (0.0, 3.0))
        t = np.linspace(0.0, 3.0, 3001)
        expected = -0.5 * np.unwrap(np.arctan2(np.sin(16 * t) / 128, 8 * np.cos(16 * t)))
        assert np.max(np.abs(solution.mu(t) - expected)) < 1e-6

    @pytest.mark.parametrize("omega", [1.0, 4.0, 16.0])
    def test_phase_branch_at_loose_tolerances(self, omega):
        # From the equilibrium rho = omega^(-1/2), mu = -omega t/2.  Under
        # the limit of 1 rad of phase per step a step turns (u1, u2) by at
        # most 0.3125 rad here, and no step takes a midpoint
        solution = solve_numeric(FrequencyProfile.constant(omega), omega**-0.5, 0.0,
                                 (0.0, 20.0), rel_tol=1e-2, abs_tol=1e-2)
        t = np.linspace(0.0, 20.0, 2001)
        assert np.max(np.abs(solution.mu(t) + 0.5 * omega * t)) < 0.1

    def test_tightening_tolerances_is_monotone(self):
        b = 1.0
        a, _ = subcritical_parameters(b)
        t = np.linspace(0.0, 10.0, 501)
        deviations = []
        for rel in (1e-6, 1e-8, 1e-10):
            solution = solve_numeric(family_profile(b), 1.0, b / (2 * a),
                                     (0.0, 10.0), rel_tol=rel, abs_tol=rel * 1e-2)
            deviations.append(
                np.max(np.abs(solution.rho(t) - closed_form_subcritical(b, t))))
        assert deviations[0] > deviations[1] > deviations[2]

    def test_phase_quadrature_rides_along(self):
        solution = solve_numeric(family_profile(2.0), 1.0, 1.0, (0.0, 10.0))
        # mu = -arctan(ln(1+2t)/2)/2 for the critical branch
        t = np.linspace(0.0, 10.0, 101)
        expected = -0.5 * np.arctan(0.5 * np.log(1.0 + 2.0 * t))
        assert np.max(np.abs(solution.mu(t) - expected)) < 1e-9

    def test_interpolant_self_check_residual(self):
        solution = solve_numeric(family_profile(1.0), 1.0,
                                 1.0 / np.sqrt(3.0), (0.0, 10.0))
        t = np.linspace(0.01, 9.99, 733)
        residual = ermakov_residual(solution, family_profile(1.0), t)
        assert np.max(np.abs(residual)) < 1e-6

    def test_rho_floor_aborts(self):
        # a huge constant frequency squeezes rho to ~1/Omega < the floor
        profile = FrequencyProfile.constant(1e9)
        with pytest.raises(RuntimeError, match="floor"):
            solve_numeric(profile, 1.0, 0.0, (0.0, 1e-8))

    def test_invalid_arguments(self):
        profile = FrequencyProfile.constant(1.0)
        with pytest.raises(ValueError):
            solve_numeric(profile, -1.0, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            solve_numeric(profile, 1.0, 0.0, (1.0, 1.0))
        for rel_tol in (0.0, 1e-15):
            with pytest.raises(ValueError):
                solve_numeric(profile, 1.0, 0.0, (0.0, 1.0), rel_tol=rel_tol)


def dop853_restarted_at_knots(table, window, t):
    """(u1, u1', u2, u2') on t from rho = 1, rho' = 0, by DOP853 at rtol
    1e-13, restarted at each knot of a table: the oracle of the Magnus
    route."""
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        omega2 = table.omega(s) ** 2
        return (y[1], -omega2 * y[0], y[3], -omega2 * y[2])

    knots = np.asarray(table.knots)
    bounds = np.concatenate(([window[0]], knots[(knots > window[0]) & (knots < window[1])],
                             [window[1]]))
    y, states = np.array([1.0, 0.0, 0.0, 1.0]), np.empty((4, t.size))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        run = solve_ivp(rhs, (start, stop), y, method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        inside = (t >= start) & (t <= stop)
        states[:, inside] = run.sol(t[inside])
        y = run.y[:, -1]
    return states


class TestMagnusRoute:
    """Every profile is solved by batched sixth-order Magnus steps whose
    ends are graded within each knot segment."""

    T = np.linspace(0.0, 10.0, 1001)

    @pytest.fixture(scope="class")
    def reference(self):
        u1, v1, u2, v2 = dop853_restarted_at_knots(tabulated_rational_profile(),
                                                   (0.0, 10.0), self.T)
        rho = np.hypot(u1, u2)
        return rho, (u1 * v1 + u2 * v2) / rho, -0.5 * np.unwrap(np.arctan2(u2, u1))

    def test_agrees_with_dop853_restarted_at_knots(self, reference):
        solution = solve_numeric(tabulated_rational_profile(), 1.0, 0.0, (0.0, 10.0))
        rho, rho_dot, mu = reference
        assert np.max(np.abs(solution.rho(self.T) - rho)) < 1e-11
        assert np.max(np.abs(solution.rho_dot(self.T) - rho_dot)) < 1e-11
        assert np.max(np.abs(solution.mu(self.T) - mu)) < 1e-11

    def test_error_falls_sixtyfourfold_per_halved_step(self, caplog):
        # Sixth order: halving the steps divides the error by about 2^6
        caplog.set_level(logging.DEBUG, logger="bohmosc.ermakov")
        b = 1.0
        a, _ = subcritical_parameters(b)
        t, errors = np.linspace(0.0, 50.0, 1001), []
        for rel_tol in (1e-5, 1e-7, 1e-9):
            solution = solve_numeric(family_profile(b), 1.0, b / (2 * a), (0.0, 50.0),
                                     rel_tol=rel_tol)
            errors.append(np.max(np.abs(solution.rho(t) - closed_form_subcritical(b, t))))
        steps = [record.args[0] for record in caplog.records]
        assert steps == [32, 64, 128]
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 48) & (ratios < 80)), ratios

    def test_mu_on_a_fast_constant_table(self):
        # Magnus steps are exact at constant Omega, so only the limit of
        # 1 rad of phase per step keeps them short enough for the mu branch:
        # the angle of u1 = 8 cos 16t, u2 = sin(16t)/128 turns by nearly pi
        # close to each zero of u1
        table = FrequencyProfile.from_table([0.0, 3.0], [16.0, 16.0])
        solution = solve_numeric(table, 8.0, 0.0, (0.0, 3.0))
        t = np.linspace(0.0, 3.0, 3001)
        expected = -0.5 * np.unwrap(np.arctan2(np.sin(16 * t) / 128, 8 * np.cos(16 * t)))
        assert np.max(np.abs(solution.mu(t) - expected)) < 1e-6

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_times(self, shape):
        solution = solve_numeric(tabulated_rational_profile(), 1.0, 0.0, (0.0, 10.0))
        t = np.empty(shape)
        for name in ("rho", "rho_dot", "rho_ddot", "mu"):
            assert getattr(solution, name)(t).shape == shape

    @pytest.fixture(scope="class")
    def uneven(self):
        """The uneven table over [0, 16.35], 2001 times and the oracle's
        rho and mu there."""
        s = np.linspace(0.0, 16.35, 2001)
        u1, _, u2, _ = dop853_restarted_at_knots(uneven_table(), (0.0, 16.35), s)
        return s, np.hypot(u1, u2), -0.5 * np.unwrap(np.arctan2(u2, u1))

    def test_uneven_table_from_rho_one(self, uneven, caplog):
        # From rho = 1 Omega squeezes rho to 0.035, where 1/rho^3 magnifies
        # any Wronskian drift; Magnus steps keep W = 1 and meet their bound
        # at 2**20 steps, 1.1e-11 off in rho
        caplog.set_level(logging.DEBUG, logger="bohmosc.ermakov")
        solution = solve_numeric(uneven_table(), 1.0, 0.0, (0.0, 16.35))
        (record,) = caplog.records
        assert re.search(r"\bMagnus, 128 knot segments, 1048576 steps\b",
                         record.getMessage())
        s, rho, mu = uneven
        assert np.max(np.abs(solution.rho(s) - rho)) < 1e-8
        assert np.max(np.abs(solution.mu(s) - mu)) < 1e-7

    def test_cli_solves_the_uneven_table_from_rho_one(self, uneven, tmp_path):
        table, out = tmp_path / "table.csv", tmp_path / "out.csv"
        write_uneven_table(table)
        s, rho, _ = uneven
        assert main(["ermakov", "--omega-table", str(table), "--t-max", "16.35",
                     "--samples", str(s.size), "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], s)
        assert np.max(np.abs(data[:, 1] - rho)) < 1e-8

    def test_past_the_step_cap_is_refused(self, monkeypatch, tmp_path, capsys):
        # The ramp alone starts at 512 steps per segment, 65536 in all
        monkeypatch.setattr(ermakov, "_MAGNUS_MAX_STEPS", 2**12)
        with pytest.raises(RuntimeError, match=r"\bcap of 4096 Magnus steps\b"):
            solve_numeric(uneven_table(), 1.0, 0.0, (0.0, 16.35))
        table, out = tmp_path / "table.csv", tmp_path / "out.csv"
        write_uneven_table(table)
        assert main(["ermakov", "--omega-table", str(table), "--t-max", "16.35",
                     "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "cap of 4096 Magnus steps" in line
        assert not out.exists()

    def test_table_with_zero_omega_solves(self, tmp_path):
        # Omega vanishes at one sample and on a whole segment; the step ends
        # read |Omega'|/Omega there, and the CLI raises on a division by zero
        table = tmp_path / "table.csv"
        table.write_text("0,1\n1,0\n2,1\n3,0\n4,0\n5,1\n")
        out = tmp_path / "out.csv"
        assert main(["ermakov", "--omega-table", str(table), "--t-max", "5",
                     "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data)) and np.all(data[:, 1] > 0)


class TestWorkBound:
    """The step cap is the one bound on the work of a solve, and a window
    that cannot fit its first comparison under it is refused before any
    step."""

    @staticmethod
    def no_steps(*args):
        raise AssertionError("a Magnus step was built")

    def test_refused_before_any_step(self, monkeypatch):
        # Omega = 1e6 over [0, 10], as `ermakov --a 1e-6 --b 0` asks: 1e7 rad
        # needs 2**24 steps of at most 1 rad.  Only the monitor's probes are
        # evaluated, and a second evaluation fails the test at once
        monkeypatch.setattr(ermakov, "_magnus_steps", self.no_steps)
        constant, calls = FrequencyProfile.constant(1e6), []

        def omega(t):
            assert not calls, "Omega evaluated past the monitor's probes"
            calls.append(np.size(t))
            return constant.omega(t)

        with pytest.raises(RuntimeError, match=r"\bcap of 2097152 Magnus steps\b"):
            solve_numeric(SimpleNamespace(omega=omega, knots=()), 1e-3, 0.0, (0.0, 10.0))
        assert calls == [ermakov._MONITOR_PROBES + 1]

    def test_equilibrium_table_of_1e5_rad_solves(self):
        # At rho = Omega^(-1/2) the table sits at equilibrium, so rho stays
        # 1e-2 and mu = -Omega t/2 runs over about 1.6e4 turns
        table = FrequencyProfile.from_table([0.0, 10.0], [1e4, 1e4])
        solution = solve_numeric(table, 1e-2, 0.0, (0.0, 10.0))
        t = np.linspace(0.0, 10.0, 1001)
        assert np.max(np.abs(solution.rho(t) / 1e-2 - 1.0)) < 1e-10
        assert np.max(np.abs(solution.mu(t) + 5e3 * t)) < 1e-9

    def test_infinite_monitor_integral_is_refused_at_the_cap(self, tmp_path, capsys):
        # Omega = 1e308 over [0, 10] integrates to inf: one line, not the
        # OverflowError of doubling k past any float.  The CLI raises on
        # the overflow itself, which is its one line
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"\bcap of 2097152 Magnus steps\b"):
                solve_numeric(FrequencyProfile.constant(1e308), 1.0, 0.0, (0.0, 10.0))
        out = tmp_path / "out.csv"
        assert main(["ermakov", "--a", "1e-308", "--b", "0", "--t-max", "10",
                     "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("bohmosc ermakov: ") and "overflow" in line
        assert not out.exists()

    def test_first_comparison_past_the_cap_builds_no_step(self, monkeypatch):
        # 3000 rad start at 4096 steps, and their comparison with 8192
        # cannot fit under a cap of 4096
        monkeypatch.setattr(ermakov, "_MAGNUS_MAX_STEPS", 2**12)
        monkeypatch.setattr(ermakov, "_magnus_steps", self.no_steps)
        with pytest.raises(RuntimeError, match=r"\bcap of 4096 Magnus steps\b"):
            solve_numeric(FrequencyProfile.constant(1.0), 1.0, 0.0, (0.0, 3000.0))

    @pytest.mark.parametrize("rho_dot0, window", [
        (np.nan, (0.0, 1.0)), (np.inf, (0.0, 1.0)),
        (0.0, (0.0, np.inf)), (0.0, (-np.inf, 1.0)), (0.0, (0.0, np.nan))])
    def test_non_finite_start_is_refused_before_omega(self, rho_dot0, window):
        def omega(t):
            raise AssertionError("Omega evaluated")

        with pytest.raises(ValueError, match="must be finite"):
            solve_numeric(SimpleNamespace(omega=omega, knots=()), 1.0, rho_dot0, window)

    def test_cli_solves_1e5_rad_at_equilibrium(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["ermakov", "--a", "1", "--b", "0", "--t-max", "100000",
                     "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1] - 1.0)) < 1e-10


class TestNumericSampling:
    """A numeric solution evaluates its dense output once per times array."""

    @staticmethod
    def solve():
        return solve_numeric(family_profile(2.0), 1.0, 1.0, (0.0, 10.0))

    @staticmethod
    def sample(solution, t):
        return [solution.rho(t), solution.rho_dot(t), solution.rho_ddot(t),
                solution.mu(t)]

    def test_mutated_times_give_new_values(self):
        solution, reference = self.solve(), self.solve()
        t = np.linspace(0.0, 10.0, 101)
        self.sample(solution, t)
        t *= 0.5
        for got, want in zip(self.sample(solution, t), self.sample(reference, t.copy())):
            np.testing.assert_array_equal(got, want)

    def test_writing_into_a_result_leaves_the_next_call_unchanged(self):
        solution = self.solve()
        t = np.linspace(0.0, 10.0, 101)
        first = [f.copy() for f in self.sample(solution, t)]
        for values in self.sample(solution, t):
            values[:] = -1.0
        for got, want in zip(self.sample(solution, t), first):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(), (7,), (5, 1), (3, 4), (0,)])
    def test_matches_a_fresh_solution_on_a_copy(self, shape):
        solution, reference = self.solve(), self.solve()
        t = np.linspace(0.5, 9.5, int(np.prod(shape))).reshape(shape)
        self.sample(solution, np.linspace(0.0, 10.0, 11))
        got = self.sample(solution, t)
        got_again = self.sample(solution, t)
        for a, b, c in zip(got, got_again, self.sample(reference, t.copy())):
            assert np.shape(a) == shape
            np.testing.assert_array_equal(a, c)
            np.testing.assert_array_equal(b, c)

    def test_one_dense_output_call_per_times_array(self, monkeypatch):
        # A sample is reached by one partial Magnus step from the step end
        # below it, all samples of an array in one batch, also when the
        # construction samples nu, its derivatives and S
        solution = self.solve()
        calls = []
        steps = ermakov._magnus_steps
        monkeypatch.setattr(ermakov, "_magnus_steps",
                            lambda *args: calls.append(1) or steps(*args))
        profile, t = family_profile(2.0), np.linspace(0.0, 10.0, 101)
        construction = Construction(profile, solution)
        self.sample(solution, t)
        for field in (construction.nu, construction.nu_dot, construction.nu_ddot):
            field(t)
        construction.S(0.5, t)
        ermakov_residual(solution, profile, t)
        assert len(calls) == 1
        self.sample(solution, t[::2])
        assert len(calls) == 2

    def test_blocks_of_times_give_the_same_bits(self, monkeypatch):
        # The block size is patched after the solve, so that the states at
        # the step ends are those of the real block size.
        solution = self.solve()
        t = np.linspace(0.05, 9.95, 100)
        want = self.sample(solution, t)
        calls = []
        steps = ermakov._magnus_steps
        monkeypatch.setattr(ermakov, "_magnus_steps",
                            lambda *args: calls.append(1) or steps(*args))
        monkeypatch.setattr(ermakov, "_MAGNUS_BLOCK", 7)
        self.sample(solution, np.linspace(0.0, 10.0, 11))
        calls.clear()
        got = self.sample(solution, t)
        assert len(calls) == 15
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestLogScale:
    """nu = ln(rho) and its derivatives, as a Construction evaluates them."""

    def test_static_case_vanishes(self):
        c = Construction(family_profile(0.0), subcritical_solution(0.0))
        t = np.linspace(0.0, 10.0, 65)
        assert np.max(np.abs(c.nu(t))) < 1e-15
        assert np.max(np.abs(c.nu_dot(t))) < 1e-15
        assert np.max(np.abs(c.nu_ddot(t))) < 1e-15

    def test_initial_slope_b1(self):
        c = Construction(family_profile(1.0), subcritical_solution(1.0))
        assert c.nu(0.0) == pytest.approx(0.0, abs=1e-15)
        assert c.nu_dot(0.0) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-14)

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_matches_expanded_log_form(self, b):
        # nu(t) = -ln(1-b^2/4)/4 + ln(sqrt(1-b^2/4) + b t)/2
        c = Construction(family_profile(b), subcritical_solution(b))
        t = np.linspace(0.0, 10.0, 257)
        disc = 1.0 - b * b / 4.0
        reference = -0.25 * np.log(disc) + 0.5 * np.log(np.sqrt(disc) + b * t)
        assert np.max(np.abs(c.nu(t) - reference)) < 1e-12

    def test_nu_dot_consistency_with_finite_differences(self):
        c = Construction(family_profile(2.0), critical_solution())
        t = np.linspace(0.2, 8.0, 29)
        h = 1e-6
        fd = (c.nu(t + h) - c.nu(t - h)) / (2 * h)
        assert np.max(np.abs(fd - c.nu_dot(t))) < 1e-9

    def test_nu_ddot_consistency_with_finite_differences(self):
        c = Construction(family_profile(2.0), critical_solution())
        t = np.linspace(0.2, 8.0, 29)
        h = 1e-4
        fd = (c.nu(t + h) - 2 * c.nu(t) + c.nu(t - h)) / h**2
        assert np.max(np.abs(fd - c.nu_ddot(t))) < 1e-7
