import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bohmosc import (
    FrequencyProfile,
    SpatialGrid,
    amplitude_gaussian,
    amplitude_gaussian_dt,
    amplitude_gaussian_dx,
    bohm_potential_critical,
    bohm_potential_from_amplitude,
    bohm_potential_gaussian,
    bohm_potential_subcritical,
    classical_potential,
    critical_solution,
    ermakov_residual,
    numeric_construction,
    rational_construction,
    subcritical_solution,
)

PI_MQUARTER = np.pi**-0.25


@pytest.fixture(scope="module")
def sub1():
    return rational_construction(1.0)


@pytest.fixture(scope="module")
def crit():
    return rational_construction(2.0)


@pytest.fixture(scope="module")
def static():
    return rational_construction(0.0)


class TestSpatialGrid:
    def test_defaults(self):
        grid = SpatialGrid()
        assert grid.n == 512 and grid.is_power_of_two
        assert grid.h == pytest.approx(16.0 / 511.0)
        assert grid.x[0] == -8.0 and grid.x[-1] == 8.0

    def test_symmetric_domain_is_an_exact_mirror(self):
        # np.linspace alone misses its mirror image in the last bits at
        # n = 512 and 4096, and on [-16, 16] at n = 99 in its middle point
        for half_width in (15.0, 16.0, 28.0, 29.0, 45.0, 78.0):
            for n in (512, 4096, 513, 99):
                x = SpatialGrid(-half_width, half_width, n).x
                assert np.array_equal(x[::-1], -x), (half_width, n)
                assert (x[0], x[-1]) == (-half_width, half_width)
                right = slice((n + 1) // 2, None)
                assert np.array_equal(x[right],
                                      np.linspace(-half_width, half_width, n)[right])

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialGrid(-1.0, 1.0, 8)
        with pytest.raises(ValueError):
            SpatialGrid(1.0, -1.0, 64)


class TestGaussianAmplitude:
    def test_peak_value_at_start(self, sub1):
        assert amplitude_gaussian(0.0, 0.0, sub1) == pytest.approx(
            PI_MQUARTER, rel=1e-15)

    def test_reduces_to_initial_profile_at_nu_zero(self, static):
        x = np.linspace(-6, 6, 101)
        expected = PI_MQUARTER * np.exp(-0.5 * x * x)
        np.testing.assert_allclose(
            amplitude_gaussian(x, 3.0, static), expected, atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_unit_mass_for_any_dilation(self, sub1, t):
        grid = SpatialGrid(-24.0, 24.0, 2048)
        a = amplitude_gaussian(grid.x, t, sub1)
        assert np.trapezoid(a * a, grid.x) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_space_derivative(self, sub1):
        x = np.linspace(-4, 4, 41)
        h = 1e-6
        fd = (amplitude_gaussian(x + h, 1.0, sub1)
              - amplitude_gaussian(x - h, 1.0, sub1)) / (2 * h)
        np.testing.assert_allclose(
            amplitude_gaussian_dx(x, 1.0, sub1), fd, atol=1e-9)

    def test_analytic_time_derivative(self, sub1):
        x = np.linspace(-4, 4, 41)
        h = 1e-6
        fd = (amplitude_gaussian(x, 1.0 + h, sub1)
              - amplitude_gaussian(x, 1.0 - h, sub1)) / (2 * h)
        np.testing.assert_allclose(
            amplitude_gaussian_dt(x, 1.0, sub1), fd, atol=1e-9)


class TestPhase:
    def test_mu_zero_at_start(self):
        assert subcritical_solution(1.0).mu(0.0) == 0.0
        assert critical_solution().mu(0.0) == 0.0

    def test_mu_subcritical_value(self):
        # frozen from adaptive quadrature of -1/(2 rho^2), b=1
        assert subcritical_solution(1.0).mu(1.0) == pytest.approx(
            -0.33240295950162324, abs=1e-13)

    def test_mu_critical_value(self):
        # frozen from adaptive quadrature of -1/(2 rho^2), critical branch
        assert critical_solution().mu(1.0) == pytest.approx(
            -0.25115517208457794, abs=1e-13)

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_mu_subcritical_slope_is_minus_half_inverse_rho_squared(self, b):
        construction = rational_construction(b)
        t = np.linspace(0.1, 9.0, 23)
        h = 1e-5
        mu = subcritical_solution(b).mu
        fd = (mu(t + h) - mu(t - h)) / (2 * h)
        expected = -0.5 / construction.solution.rho(t) ** 2
        assert np.max(np.abs(fd - expected)) < 1e-9

    def test_mu_critical_slope_is_minus_half_inverse_rho_squared(self, crit):
        t = np.linspace(0.1, 9.0, 23)
        h = 1e-5
        mu = critical_solution().mu
        fd = (mu(t + h) - mu(t - h)) / (2 * h)
        expected = -0.5 / crit.solution.rho(t) ** 2
        assert np.max(np.abs(fd - expected)) < 1e-9

    def test_mu_critical_limit(self):
        # monotone approach to -pi/4 at the arctan rate 1/ln(1+2t)
        t = np.logspace(0, 12, 49)
        values = critical_solution().mu(t)
        assert np.all(np.diff(values) < 0)
        assert np.all(values > -np.pi / 4)
        gap = values + np.pi / 4
        assert np.all(gap < 1.01 / np.log(1.0 + 2.0 * t))

    def test_static_phase_is_minus_half_t(self, static):
        t = np.linspace(0.0, 10.0, 33)
        np.testing.assert_allclose(static.S(0.0, t), -0.5 * t, atol=1e-15)
        assert static.S(2.0, 1.0) == pytest.approx(-0.5)

    def test_initial_phase_curvature_b1(self, sub1):
        # S(x,0) = x^2/(2 sqrt(3)) since nu_dot(0) = 1/sqrt(3)
        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(
            sub1.S(x, 0.0), x * x / (2 * np.sqrt(3.0)), atol=1e-14)

    def test_phase_at_origin_starts_at_zero(self, sub1):
        assert sub1.S(0.0, 0.0) == 0.0


class TestWavefunction:
    def test_static_ground_state(self, static):
        grid = SpatialGrid()
        for t in (0.0, 1.0, np.pi):
            psi = static.psi(grid, t).psi[0]
            expected = (PI_MQUARTER * np.exp(-0.5 * grid.x**2)
                        * np.exp(-0.5j * t))
            np.testing.assert_allclose(psi, expected, atol=1e-14)

    def test_initial_slice_any_branch(self, sub1):
        grid = SpatialGrid()
        psi = sub1.psi(grid, 0.0).psi[0]
        nu_dot0 = 1.0 / np.sqrt(3.0)
        expected = (PI_MQUARTER * np.exp(-0.5 * grid.x**2)
                    * np.exp(0.5j * nu_dot0 * grid.x**2))
        np.testing.assert_allclose(psi, expected, atol=1e-14)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_normalization(self, sub1, t):
        grid = SpatialGrid(-20.0, 20.0, 2048)
        assert abs(sub1.psi(grid, t).norms()[0] - 1.0) < 1e-10

    def test_normalization_drift_across_window(self, crit):
        grid = SpatialGrid(-32.0, 32.0, 4096)
        times = np.linspace(0.0, 5.0, 11)
        norms = crit.psi(grid, times).norms()
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_truncated_domain_loses_tail_mass(self, static):
        # cutting the grid at |x|=2 loses the known Gaussian tail
        from scipy.special import erfc
        grid = SpatialGrid(-2.0, 2.0, 512)
        value = static.psi(grid, 0.0).norms()[0]
        assert value == pytest.approx(1.0 - erfc(2.0), abs=1e-6)
        assert value < 1.0


class TestBohmPotential:
    def test_value_at_origin_start(self, sub1, crit):
        assert bohm_potential_gaussian(0.0, 0.0, sub1) == pytest.approx(0.5)
        assert bohm_potential_subcritical(1.0, 0.0, 0.0) == 0.5
        assert bohm_potential_critical(0.0, 0.0) == 0.5

    def test_zero_crossing_at_exp_nu(self, sub1):
        for t in (0.0, 1.0, 4.0):
            root = np.exp(sub1.nu(t))
            assert abs(bohm_potential_gaussian(root, t, sub1)) < 1e-14
            assert abs(bohm_potential_gaussian(-root, t, sub1)) < 1e-14

    def test_subcritical_closed_form_matches_general(self, sub1):
        x = np.linspace(-5, 5, 201)
        for t in np.linspace(0.0, 6.0, 25):
            np.testing.assert_allclose(
                bohm_potential_subcritical(1.0, x, t),
                bohm_potential_gaussian(x, t, sub1), atol=1e-12)

    def test_critical_closed_form_matches_general(self, crit):
        x = np.linspace(-5, 5, 201)
        for t in np.linspace(0.0, 6.0, 25):
            np.testing.assert_allclose(
                bohm_potential_critical(x, t),
                bohm_potential_gaussian(x, t, crit), atol=1e-12)

    def test_critical_value_log_two_point(self):
        # ln(1+2t) = 2 at t=(e^2-1)/2: V_B(0) = 1/(2 e^2 * 2)
        t = (np.e**2 - 1.0) / 2.0
        assert bohm_potential_critical(0.0, t) == pytest.approx(
            1.0 / (4.0 * np.e**2), rel=1e-14)

    def test_subcritical_limit_vanishes_toward_critical_slope(self):
        # V_B(0, 1) -> 0 as b -> 2^- while the critical value stays finite
        values = [bohm_potential_subcritical(2.0 - 10.0**-k, 0.0, 1.0)
                  for k in range(2, 7)]
        assert np.all(np.diff(values) < 0)
        assert values[-1] < 1e-3
        assert bohm_potential_critical(0.0, 1.0) == pytest.approx(
            0.12803403138459582, abs=1e-14)

    def test_finite_difference_route_matches_closed_form(self, static):
        # central second differences converge at second order: error
        # ratio ~4 per h halving over three levels
        errors = []
        for n in (257, 513, 1025):
            grid = SpatialGrid(-8.0, 8.0, n)
            a = amplitude_gaussian(grid.x, 0.0, static)
            vb = bohm_potential_from_amplitude(a, grid)
            exact = bohm_potential_gaussian(grid.x, 0.0, static)
            inner = slice(1, -1)
            diff = np.abs(vb[inner] - exact[inner])
            errors.append(float(diff.max()))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)

    def test_constant_amplitude_gives_zero(self):
        grid = SpatialGrid(-1.0, 1.0, 64)
        vb = bohm_potential_from_amplitude(np.ones(grid.n), grid)
        assert not np.any(vb.mask)
        np.testing.assert_allclose(vb.filled(np.nan), 0.0, atol=1e-12)

    def test_cosine_amplitude_near_origin(self):
        grid = SpatialGrid(-0.5, 0.5, 128)
        vb = bohm_potential_from_amplitude(np.cos(grid.x), grid)
        center = grid.n // 2
        assert vb[center] == pytest.approx(0.5, abs=1e-4)

    def test_nodes_are_masked(self, static):
        grid = SpatialGrid(-12.0, 12.0, 513)
        a = amplitude_gaussian(grid.x, 0.0, static)
        vb = bohm_potential_from_amplitude(a, grid)
        # Gaussian tails below 1e-12 at |x| ~ 7.4 must be masked out
        assert vb.mask[0] and vb.mask[-1]
        assert not vb.mask[grid.n // 2]

    def test_qhje_closure_pointwise(self, sub1):
        # S_x^2/2 + V_B + V + S_t = 0 with S_t by finite differences
        x = np.linspace(-8.0, 8.0, 257)
        delta = 1e-5
        for t in (0.5, 1.0, 3.0):
            s_t = (sub1.S(x, t + delta)
                   - sub1.S(x, t - delta)) / (2 * delta)
            closure = (0.5 * sub1.S_x(x, t) ** 2
                       + bohm_potential_gaussian(x, t, sub1)
                       + classical_potential(sub1.profile, x, t)
                       + s_t)
            assert np.max(np.abs(closure)) < 1e-9


class TestClassicalPotential:
    def test_static(self):
        profile = FrequencyProfile.constant(1.0)
        assert classical_potential(profile, 1.0, 7.0) == pytest.approx(0.5)

    def test_critical_family_start(self, crit):
        assert classical_potential(crit.profile, 1.0, 0.0) == pytest.approx(0.5)

    def test_subcritical_family_start(self, sub1):
        assert classical_potential(sub1.profile, 1.0, 0.0) == pytest.approx(
            2.0 / 3.0, rel=1e-14)


class TestConstructions:
    def test_unsupported_slope_rejected(self):
        with pytest.raises(ValueError):
            rational_construction(3.0)

    def test_numeric_construction_matches_closed_form(self, crit):
        profile = FrequencyProfile.rational(1.0, 2.0)
        numeric = numeric_construction(profile, (0.0, 10.0), rho0=1.0,
                                       rho_dot0=1.0)
        grid = SpatialGrid(-12.0, 12.0, 512)
        t = 4.0
        psi_closed = crit.psi(grid, t).psi[0]
        psi_numeric = numeric.psi(grid, t).psi[0]
        assert np.max(np.abs(psi_closed - psi_numeric)) < 1e-8

    def test_wavefunction_grid_shape(self, sub1):
        grid = SpatialGrid()
        wf = sub1.psi(grid, [0.0, 1.0, 2.0])
        assert wf.psi.shape == (3, 512)
        assert wf.times.tolist() == [0.0, 1.0, 2.0]


class TestConstructionProperties:
    """Invariants of rational_construction over the whole supported range."""

    @given(st.floats(0.0, 2.0, exclude_max=True))
    @example(2.0)
    def test_rational_construction_invariants(self, b):
        c = rational_construction(b)
        assert c.solution.rho(0.0) == pytest.approx(1.0, abs=1e-15)
        assert c.S(0.0, 0.0) == 0.0

        # the Gaussian widens with rho, up to ~1e3 near b = 2, so size the
        # grid per time
        for t in (0.0, 1.0):
            half_width = 12.0 * float(c.solution.rho(t))
            grid = SpatialGrid(-half_width, half_width, 1024)
            assert c.psi(grid, t).norms()[0] == pytest.approx(1.0, abs=1e-12)

        # the residual's terms grow like (2-b)^-3/2 near b = 2, so bound it
        # against their size: 1e-10 where they are of order one
        t = np.linspace(0.0, 5.0, 101)
        rho = c.solution.rho(t)
        terms = (np.abs(c.solution.rho_ddot(t)) + c.profile.omega(t) ** 2 * rho
                 + rho**-3)
        residual = ermakov_residual(c.solution, c.profile, t)
        assert np.all(np.abs(residual) <= 1e-10 * terms)

        # from t = 0.1: at t = 0 the truncation error grows like 1/a^2
        t = np.linspace(0.1, 5.0, 50)
        h = 1e-5
        fd = (c.solution.mu(t + h) - c.solution.mu(t - h)) / (2 * h)
        expected = -0.5 / c.solution.rho(t) ** 2
        np.testing.assert_allclose(fd, expected, rtol=1e-8)
