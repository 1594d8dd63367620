import logging
from time import perf_counter

import numpy as np
import pytest

from bohmosc import (
    FrequencyProfile,
    PropagatorConfig,
    SpatialGrid,
    WavefunctionGrid,
    fidelity,
    propagate,
    rational_construction,
)
from bohmosc import tdse
from bohmosc.tdse import _COEFF_BLOCK, _KICK_POINTS

# Steps per kick sub-block on the 128-point grid of TestFusedLoop.
_KICK_ROWS = _KICK_POINTS // 64


@pytest.fixture(scope="module")
def static():
    return rational_construction(0.0)


@pytest.fixture(scope="module")
def sub1():
    return rational_construction(1.0)


def ground_state(grid):
    psi = np.pi**-0.25 * np.exp(-0.5 * grid.x**2) + 0j
    return WavefunctionGrid(grid, np.array([0.0]), psi[None, :])


def single_slice(grid, psi):
    """psi, normalized on the grid, as a single slice at t = 0."""
    psi = psi / np.sqrt(np.trapezoid(np.abs(psi) ** 2, grid.x)) + 0j
    return WavefunctionGrid(grid, np.array([0.0]), psi[None, :])


class TestTransform:
    @pytest.mark.parametrize("n", [2**p for p in range(1, 15)])
    def test_binding_gives_scipy_fft_bits(self, n):
        # propagate transforms the right half of every power-of-two grid up
        # to 2^14 (the CLI's default 512 and the benchmark's 4096 among
        # them) through the pocketfft binding loaded from its extension
        # file: in place on the (n/2, 2) float view of the complex half, and
        # psi0's spectrum into a new array, by positional arguments
        import scipy.fft

        dct = tdse._pocketfft_dct()
        m = n // 2
        rng = np.random.default_rng(n)
        half = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for kind, inorm, reference in [(2, 0, scipy.fft.dct), (3, 2, scipy.fft.idct)]:
            expected = reference(half, type=2)
            new = dct(half.view(float).reshape(m, 2), kind, (0,), inorm, None, 1)
            np.testing.assert_array_equal(new.view(complex).ravel(), expected)
            work = half.copy()
            view = work.view(float).reshape(m, 2)
            dct(view, kind, (0,), inorm, view, 1)
            np.testing.assert_array_equal(work, expected)

    def test_missing_binding_names_its_folder(self, monkeypatch):
        monkeypatch.setattr("importlib.machinery.EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"^no pocketfft binding \(pypocketfft\) "
                                              r"in .*fft[/\\]_pocketfft$"):
            tdse._pocketfft_dct.__wrapped__()


class TestPropagatorConfig:
    def test_power_of_two_required(self, static):
        grid = SpatialGrid(-8.0, 8.0, 500)
        with pytest.raises(ValueError, match="power of two"):
            PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)

    def test_dt_must_be_nonzero(self, static):
        with pytest.raises(ValueError):
            PropagatorConfig(grid=SpatialGrid(), dt=0.0, profile=static.profile)

    def test_asymmetric_domain_rejected(self, static):
        grid = SpatialGrid(-8.0, 16.0, 512)
        with pytest.raises(ValueError, match="symmetric") as raised:
            PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        assert len(str(raised.value).splitlines()) == 1


class TestStationaryState:
    def test_ground_state_returns_with_pure_phase(self, static):
        grid = SpatialGrid()
        psi0 = ground_state(grid)
        T = np.pi
        steps = round(T / 1e-4)
        config = PropagatorConfig(grid=grid, dt=T / steps, profile=static.profile)
        out = propagate(psi0, config, T)
        assert fidelity(psi0, out) >= 1.0 - 1e-8
        overlap = np.trapezoid(np.conj(psi0.psi[0]) * out.psi[0], grid.x)
        assert abs(np.angle(overlap) - (-T / 2)) < 1e-6

    def test_phase_error_is_second_order_in_dt(self, static):
        # the splitting's leading error shows up as a global phase drift
        grid = SpatialGrid()
        psi0 = ground_state(grid)
        T = np.pi
        errors = []
        for target_dt in (1e-2, 5e-3, 2.5e-3):
            steps = round(T / target_dt)
            config = PropagatorConfig(grid=grid, dt=T / steps,
                                      profile=static.profile)
            out = propagate(psi0, config, T)
            overlap = np.trapezoid(np.conj(psi0.psi[0]) * out.psi[0], grid.x)
            errors.append(abs(np.angle(overlap) + T / 2))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)


class TestOracleAgreement:
    def test_subcritical_short_window(self, sub1):
        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
        out = propagate(sub1.psi(grid, 0.0), config, 1.0)
        assert fidelity(sub1.psi(grid, 1.0), out) >= 1.0 - 1e-9

    def test_critical_short_window(self):
        crit = rational_construction(2.0)
        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=crit.profile)
        out = propagate(crit.psi(grid, 0.0), config, 1.0)
        assert fidelity(crit.psi(grid, 1.0), out) >= 1.0 - 1e-9

    def test_fidelity_defect_contracts_under_dt_halving(self, sub1):
        # second-order splitting: at least ~4x per halving (observed ~16x:
        # for quadratic Hamiltonians the leading error is a global phase,
        # which the fidelity modulus discards)
        grid = SpatialGrid(-16.0, 16.0, 512)
        defects = []
        for dt in (2.5e-3, 1.25e-3):
            config = PropagatorConfig(grid=grid, dt=dt, profile=sub1.profile)
            out = propagate(sub1.psi(grid, 0.0), config, 1.0)
            defects.append(1.0 - fidelity(sub1.psi(grid, 1.0), out)[0])
        assert defects[0] > 0
        assert defects[0] / max(defects[1], 1e-16) > 3.5

    def test_norm_conserved(self, sub1):
        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
        samples = np.linspace(0.5, 3.0, 6)
        out = propagate(sub1.psi(grid, 0.0), config, 3.0, sample_times=samples)
        assert np.max(np.abs(out.norms() - 1.0)) < 1e-10

    def test_time_reversal(self, sub1):
        grid = SpatialGrid(-16.0, 16.0, 512)
        psi0 = sub1.psi(grid, 0.0)
        forward = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
        backward = PropagatorConfig(grid=grid, dt=-1e-3, profile=sub1.profile)
        at_end = propagate(psi0, forward, 1.0)
        returned = propagate(at_end, backward, 0.0)
        assert fidelity(psi0, returned) >= 1.0 - 1e-8


class TestFidelity:
    def test_self_is_one(self, static):
        grid = SpatialGrid()
        psi = ground_state(grid)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_global_phase_invariance(self, static):
        grid = SpatialGrid()
        psi = ground_state(grid)
        rotated = WavefunctionGrid(grid, psi.times,
                                   np.exp(1.234j) * psi.psi)
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_parity_states(self):
        grid = SpatialGrid()
        even = ground_state(grid)
        odd_raw = grid.x * np.exp(-0.5 * grid.x**2)
        odd_raw = odd_raw / np.sqrt(np.trapezoid(odd_raw**2, grid.x))
        odd = WavefunctionGrid(grid, np.array([0.0]), odd_raw[None, :] + 0j)
        assert fidelity(even, odd) < 1e-12

    def test_one_value_per_time(self, sub1):
        grid = SpatialGrid()
        for times in ([1.0], [0.0, 1.0, 2.0]):
            values = fidelity(sub1.psi(grid, times), sub1.psi(grid, times))
            assert isinstance(values, np.ndarray) and values.shape == (len(times),)

    def test_requires_common_grid(self, static):
        a = ground_state(SpatialGrid())
        b = ground_state(SpatialGrid(-8.0, 8.0, 256))
        with pytest.raises(ValueError):
            fidelity(a, b)


class TestGuards:
    def test_phase_wrap_guard(self, sub1):
        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=0.05, profile=sub1.profile)
        with pytest.raises(ValueError, match="max"):
            propagate(sub1.psi(grid, 0.0), config, 1.0)

    def test_momentum_cutoff_guard(self, static):
        # an even packet of momenta +-20: pi/h = 100 is below 6 x 20
        grid = SpatialGrid()
        psi0 = single_slice(grid, np.exp(-0.5 * grid.x**2) * np.cos(20.0 * grid.x))
        config = PropagatorConfig(grid=grid, dt=1e-4, profile=static.profile)
        with pytest.raises(ValueError, match="cutoff"):
            propagate(psi0, config, 0.1)

    def test_unnormalized_input_rejected(self, static):
        grid = SpatialGrid()
        psi0 = ground_state(grid)
        doubled = WavefunctionGrid(grid, psi0.times, 2.0 * psi0.psi)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        with pytest.raises(ValueError, match="normalized") as raised:
            propagate(doubled, config, 1.0)
        message = str(raised.value)
        assert "np.float64" not in message
        assert float(message.rsplit("= ", 1)[1]) == pytest.approx(4.0)

    def test_direction_mismatch_rejected(self, static):
        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=-1e-3, profile=static.profile)
        with pytest.raises(ValueError, match="points away"):
            propagate(ground_state(grid), config, 1.0)

    def test_non_commensurate_span_rejected(self, static):
        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=3e-3, profile=static.profile)
        with pytest.raises(ValueError, match="integer multiple"):
            propagate(ground_state(grid), config, 1.0)

    def test_sample_times_must_hit_steps(self, static):
        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        with pytest.raises(ValueError, match="step boundary"):
            propagate(ground_state(grid), config, 1.0,
                      sample_times=[0.12345e-1 + 1e-5])

    @pytest.mark.parametrize("sample_times, match", [
        ([0.5, 0.25], "strictly advance"),
        ([0.25, 0.25], "strictly advance"),
        ([], "empty"),
        ([0.25, np.nan], "sample time nan is not on a step boundary"),
        ([0.25, np.inf], "sample time inf is not on a step boundary"),
        ([-np.inf, 0.25], "sample time -inf is not on a step boundary"),
        ([1e306], r"sample time 1e\+306 is not on a step boundary"),
        ([0.0123], "sample time 0.0123 is not on a step boundary"),
    ])
    def test_sample_times_must_advance(self, static, monkeypatch, sample_times,
                                       match):
        # each is refused before any transform; under the error state
        # cli.main runs in, inf - inf, or a huge time divided by dt, would
        # raise FloatingPointError instead of the one-line refusal
        def no_transform(*_args):
            raise AssertionError("a transform ran before the sample times were read")

        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        monkeypatch.setattr(tdse, "_pocketfft_dct", lambda: no_transform)
        with pytest.raises(ValueError, match=match) as raised, np.errstate(all="raise"):
            propagate(ground_state(grid), config, 0.5, sample_times=sample_times)
        assert len(str(raised.value).splitlines()) == 1

    def test_t_end_is_on_a_step_where_rounding_passes_1e9(self):
        # The ground state of Omega = 1e-6 for 570 steps to t = 10000000.1,
        # where 570 (t/570) misses t by an ulp, 1.9e-9; t_end alone is
        # sampled, as given or by default, and the state only turns its phase
        omega = 1e-6
        grid = SpatialGrid(-6000.0, 6000.0, 64)
        psi0 = single_slice(grid, np.exp(-0.5 * omega * grid.x**2))
        t_end = 10000000.1
        config = PropagatorConfig(grid=grid, dt=t_end / 570,
                                  profile=FrequencyProfile.constant(omega))
        assert 570 * config.dt != t_end
        alone = propagate(psi0, config, t_end)
        given = propagate(psi0, config, t_end, sample_times=[t_end])
        np.testing.assert_array_equal(alone.times, [t_end])
        assert np.array_equal(alone.psi, given.psi)
        assert fidelity(alone, psi0)[0] > 1 - 1e-9

    def test_span_from_a_large_start_is_read_within_its_rounding(self, static):
        # From t0 = 1e8, t_end - t0 is rounded at ulp(1e8) = 1.5e-8, past
        # 1e-9 of a span under 1: each span of 37 to 73 steps of 0.01 is
        # taken, and a span half a step off is still refused
        grid = SpatialGrid(-8.0, 8.0, 64)
        t0 = 1e8
        psi0 = WavefunctionGrid(grid, np.array([t0]), ground_state(grid).psi)
        config = PropagatorConfig(grid=grid, dt=0.01, profile=static.profile)
        for k in range(37, 74, 3):
            out = propagate(psi0, config, t0 + k * 0.01)
            assert fidelity(out, psi0)[0] > 1 - 1e-10
        with pytest.raises(ValueError, match="not an integer multiple of dt=0.01$"):
            propagate(psi0, config, t0 + 0.375)

    def test_sampling_returns_requested_times(self, static):
        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        out = propagate(ground_state(grid), config, 0.5,
                        sample_times=[0.1, 0.3, 0.5])
        np.testing.assert_allclose(out.times, [0.1, 0.3, 0.5])
        assert out.psi.shape == (3, 512)

    @staticmethod
    def free_packets(speed):
        """exp(-x^2/2) cos(speed x) on the default grid, and a config of dt
        1e-3 at Omega = 0 whose every evaluation of Omega is counted."""
        calls = []

        def free(t):
            calls.append(np.size(t))
            return np.zeros_like(t)

        grid = SpatialGrid()
        psi0 = single_slice(grid, np.exp(-0.5 * grid.x**2) * np.cos(speed * grid.x))
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=FrequencyProfile(free))
        return psi0, config, calls

    def test_boundary_mass_guard(self):
        # two free packets moving at speeds -3 and 3 reach x = -7.5 and 7.5
        # of [-8, 8] at t = 2.5
        psi0, config, _ = self.free_packets(3.0)
        with pytest.raises(RuntimeError, match=r"outer eighth .* at t=2\.5;") as raised:
            propagate(psi0, config, 2.5)
        assert len(str(raised.value).splitlines()) == 1

    def test_boundary_mass_guard_stops_at_the_first_leaked_slice(self):
        # one free packet spreads past the limit by the second of 100
        # slices, and is refused there, in the first block of Omega, not
        # after the 25 blocks of the run
        psi0, config, calls = self.free_packets(0.0)
        with pytest.raises(RuntimeError, match=r"mass 9\.18e-06 in the outer eighth "
                                               r".* at t=2;") as raised:
            propagate(psi0, config, 100.0, sample_times=np.arange(1.0, 101.0))
        assert len(str(raised.value).splitlines()) == 1
        assert calls == [_COEFF_BLOCK]

    def test_phase_wrap_names_first_offending_time(self):
        calls = []

        def stepped(t):
            calls.append(np.size(t))
            return np.where(t < 0.3, 1.0, 10.0)

        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=1e-3,
                                  profile=FrequencyProfile(stepped))
        with pytest.raises(ValueError, match=r"at t=0\.3005;"):
            propagate(ground_state(grid), config, 1.0)
        assert calls == [1000]  # one block of midpoints, no step taken

    def test_past_the_step_cap_is_refused_before_any_transform(
            self, static, monkeypatch):
        # the cap is on steps times max(n, 512) grid points
        def no_transform(*_args):
            raise AssertionError("a transform ran past the cap")

        for n, cap in [(256, 999), (512, 999), (1024, 499)]:
            grid = SpatialGrid(-8.0, 8.0, n)
            config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
            with monkeypatch.context() as patch:
                patch.setattr(tdse, "_MAX_STEP_POINTS", 1000 * max(n, 512))
                assert propagate(ground_state(grid), config, 1.0).times[0] == 1.0
                patch.setattr(tdse, "_MAX_STEP_POINTS", 999 * 512)
                patch.setattr(tdse, "_pocketfft_dct", lambda: no_transform)
                with pytest.raises(ValueError,
                                   match=f"^1000 steps .* the cap of {cap} at n = {n}$"):
                    propagate(ground_state(grid), config, 1.0)

    def test_state_that_is_not_even_is_refused_before_any_transform(
            self, static, monkeypatch):
        # the half-grid step holds only even states: a boosted packet and a
        # displaced one are each refused with one line
        def no_transform(*_args):
            raise AssertionError("a transform ran on a state that is not even")

        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        monkeypatch.setattr(tdse, "_pocketfft_dct", lambda: no_transform)
        for psi in (np.exp(-0.5 * grid.x**2) * np.exp(20j * grid.x),
                    np.exp(-0.5 * (grid.x - 1.0) ** 2)):
            with pytest.raises(ValueError, match="^psi0 is not even in x: ") as raised:
                propagate(single_slice(grid, psi), config, 0.1)
            assert len(str(raised.value).splitlines()) == 1

    def test_norm_drift_is_checked_at_the_end_of_each_block(self, static,
                                                             monkeypatch):
        # a run whose drift passes the limit is refused at the end of the
        # first block of steps, not after the last one
        dct = tdse._pocketfft_dct()
        calls = []

        def counted(*args):
            calls.append(args[1])
            return dct(*args)

        grid = SpatialGrid(-8.0, 8.0, 64)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=static.profile)
        monkeypatch.setattr(tdse, "_NORM_DRIFT_LIMIT", -1.0)
        monkeypatch.setattr(tdse, "_pocketfft_dct", lambda: counted)
        with pytest.raises(RuntimeError, match=f"^propagation lost unitarity: norm "
                                               f"drift .* after {_COEFF_BLOCK} steps$"):
            propagate(ground_state(grid), config, 3 * _COEFF_BLOCK * 1e-3)
        assert calls == [2] + [2, 3] * _COEFF_BLOCK  # psi0's spectrum, one block

    def test_table_ending_early_raises_before_any_step(self):
        table = FrequencyProfile.from_table([0.0, 0.5], [1.0, 1.0])
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return table.evaluator(t)

        grid = SpatialGrid()
        config = PropagatorConfig(grid=grid, dt=1e-3,
                                  profile=FrequencyProfile(counted, table.label))
        with pytest.raises(ValueError, match=r"not finite at t=0\.5005"):
            propagate(ground_state(grid), config, 1.0)
        assert calls == [1000]


class TestKickRows:
    def test_matches_the_exponential_to_an_ulp_scale(self):
        # the kick build against long-double cos and sin, over the phases
        # the phase-wrap guard admits and at the smallest magnitudes
        tiny = [1e-300, 5e-324, 0.0]
        phases = np.concatenate([np.linspace(-0.5, 0.5, 100_001), tiny,
                                 np.negative(tiny)])
        out = np.full((3, phases.size), np.nan + 0j)
        kicks = tdse._kick_rows(np.array([1.0, -1.0]), phases, out,
                                np.empty((2, 3, phases.size)))
        assert kicks.shape == (2, phases.size)
        assert np.isnan(out[2]).all()  # the rows past scale.size are untouched
        wide = np.array([phases, -phases], dtype=np.longdouble)
        error = np.hypot(kicks.real - np.cos(wide), kicks.imag - np.sin(wide))
        assert float(error.max()) <= 1e-15
        assert np.abs(np.abs(kicks) - 1.0).max() <= 1e-15
        zero = kicks[:, phases == 0.0]
        assert (zero.real == 1.0).all() and (zero.imag == 0.0).all()


class TestHalfGrid:
    def test_every_slice_is_an_exact_mirror(self, sub1):
        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
        out = propagate(sub1.psi(grid, 0.0), config, 1.0,
                        sample_times=[0.001, 0.5, 1.0])
        assert np.array_equal(out.psi, out.psi[:, ::-1])

    def test_momentum_width_of_the_full_spectrum(self, sub1, caplog):
        # the guard reads the DCT-II spectrum of the right half; the full
        # grid's DFT gives the same width
        grid = SpatialGrid(-16.0, 16.0, 512)
        x = grid.x
        caplog.set_level(logging.DEBUG, logger="bohmosc")
        for psi0 in (ground_state(grid), sub1.psi(grid, 0.0),
                     rational_construction(2.0).psi(grid, 0.0),
                     single_slice(grid, np.exp(-0.5 * x**2) * np.cos(5.0 * x))):
            caplog.clear()
            config = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
            propagate(psi0, config, 1e-3)
            momentum = caplog.records[0].args[3]
            k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
            spectrum = np.abs(np.fft.fft(psi0.psi[0])) ** 2
            sigma_k = np.sqrt((k * k * spectrum).sum() / spectrum.sum())
            expected = tdse._MOMENTUM_MARGIN * sigma_k / (np.pi / grid.h)
            assert momentum == pytest.approx(expected, rel=1e-12)


def strang_reference(psi0, config, t_end, sample_steps):
    """The unfused Strang loop: two half-kicks and one FFT pair per step."""
    grid, x = config.grid, config.grid.x
    t0 = float(psi0.times[0])
    n_steps = int(round((t_end - t0) / config.dt))
    dt = (t_end - t0) / n_steps
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    psi = psi0.psi[0].astype(complex)
    out = []
    for step in range(1, n_steps + 1):
        t_mid = t0 + (step - 0.5) * dt
        coeff = 0.5 * float(config.profile.omega(t_mid)) ** 2
        half_v = np.exp(-0.5j * dt * coeff * x * x)
        psi = half_v * np.fft.ifft(np.exp(-0.5j * k * k * dt)
                                   * np.fft.fft(half_v * psi))
        if step in sample_steps:
            out.append(psi.copy())
    return np.array(out)


class TestFusedLoop:
    @pytest.mark.parametrize("t_start, dt, t_end, sample_steps", [
        (0.0, 1e-3, 0.05, [2, 3, 50]),            # consecutive and last
        (0.5, -1e-3, 0.45, [10, 50]),             # backward
        (0.0, 1e-3, 1e-3, [1]),                   # a single step
        (0.0, 1e-3, (_COEFF_BLOCK + 3) * 1e-3,    # more than one block
         [_COEFF_BLOCK, _COEFF_BLOCK + 1, _COEFF_BLOCK + 3]),
        (0.0, 1e-3, (2 * _KICK_ROWS + 5) * 1e-3,  # three kick sub-blocks,
         [_KICK_ROWS, _KICK_ROWS + 1, 2 * _KICK_ROWS + 5]),  # both sides of an edge
        (0.7, -1e-3, 0.7 - (_KICK_ROWS + 10) * 1e-3,  # backward across an edge
         [_KICK_ROWS - 1, _KICK_ROWS + 1, _KICK_ROWS + 10]),
    ])
    def test_matches_unfused_strang(self, sub1, t_start, dt, t_end, sample_steps):
        grid = SpatialGrid(-16.0, 16.0, 128)
        psi0 = sub1.psi(grid, t_start)
        before = psi0.psi.copy()
        config = PropagatorConfig(grid=grid, dt=dt, profile=sub1.profile)
        sample_times = [t_start + j * dt for j in sample_steps]
        out = propagate(psi0, config, t_end, sample_times=sample_times)
        expected = strang_reference(psi0, config, t_end, sample_steps)
        assert np.max(np.abs(out.psi - expected)) <= 1e-12
        np.testing.assert_array_equal(psi0.psi, before)

    @pytest.mark.parametrize("t_start, dt, sample_steps", [
        (0.0, 1e-3, [2, 3, 50]),                     # consecutive
        (0.5, -1e-3, [57, 60, 73]),                  # backward
        (1.0, -1e-3, [_KICK_ROWS - 1, _KICK_ROWS,   # backward across a
                      _KICK_ROWS + 1]),              # kick sub-block edge
        (0.0, 1e-3, [_COEFF_BLOCK - 1, _COEFF_BLOCK,  # across an Omega
                     _COEFF_BLOCK + 3]),              # block edge
        (0.0, 1e-3, [50]),                           # t_end alone, the default
    ])
    def test_sampling_leaves_the_trajectory_unchanged(self, sub1, t_start, dt,
                                                      sample_steps):
        # each sampled slice is the final slice of the run that ends there,
        # bit for bit, so a slice's value does not depend on the others
        grid = SpatialGrid(-16.0, 16.0, 128)
        psi0 = sub1.psi(grid, t_start)
        config = PropagatorConfig(grid=grid, dt=dt, profile=sub1.profile)
        sample_times = [t_start + j * dt for j in sample_steps]
        out = propagate(psi0, config, sample_times[-1], sample_times=sample_times)
        for j, t, sampled in zip(sample_steps, sample_times, out.psi):
            assert (t - t_start) / j == dt  # the shorter run takes the same steps
            alone = propagate(psi0, config, t)
            np.testing.assert_array_equal(alone.times, [t])
            assert np.array_equal(sampled, alone.psi[0])

    def test_final_slice_without_samples(self, sub1):
        grid = SpatialGrid(-16.0, 16.0, 128)
        psi0 = sub1.psi(grid, 0.0)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
        out = propagate(psi0, config, 0.2)
        np.testing.assert_array_equal(out.times, [0.2])
        expected = strang_reference(psi0, config, 0.2, [200])
        assert np.max(np.abs(out.psi - expected)) <= 1e-12


class TestStatistics:
    def test_one_debug_record_per_call(self, sub1, caplog):
        grid = SpatialGrid(-16.0, 16.0, 512)
        config = PropagatorConfig(grid=grid, dt=1e-3, profile=sub1.profile)
        caplog.set_level(logging.DEBUG, logger="bohmosc")
        psi0 = sub1.psi(grid, 0.0)
        started = perf_counter()
        propagate(psi0, config, 0.5, sample_times=[0.25, 0.5])
        wall = perf_counter() - started
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.name.split(".")[0] == "bohmosc"
        (steps, drift, wrap, momentum, edge_mass,
         omega_s, build_s, loop_s) = record.args
        assert steps == 500
        assert 0 <= drift <= 1e-10
        assert 0 < wrap < 1 and 0 < momentum < 1
        assert 0 <= edge_mass <= 1e-8
        assert "500 steps" in record.getMessage()
        assert min(omega_s, build_s, loop_s) >= 0
        assert omega_s + build_s + loop_s <= wall
