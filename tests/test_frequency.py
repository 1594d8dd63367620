import numpy as np
import pytest

from bohmosc import (
    FrequencyProfile,
    Regime,
    classify_rational,
)


class TestRationalProfile:
    def test_critical_family_at_zero(self):
        # Omega(t) = 1/(1+2t) starts at 1
        assert FrequencyProfile.rational(1.0, 2.0).omega(0.0) == 1.0

    def test_half_time(self):
        assert FrequencyProfile.rational(1.0, 2.0).omega(0.5) == pytest.approx(0.5, abs=0)

    def test_forced_offset_b1(self):
        # a = sqrt(3)/2 forced by rho(0)=1 gives Omega(0) = 2/sqrt(3)
        freq = FrequencyProfile.rational(np.sqrt(3.0) / 2.0, 1.0)
        assert freq.omega(0.0) == pytest.approx(1.1547005383792517, abs=1e-15)

    def test_domain_error(self):
        freq = FrequencyProfile.rational(1.0, 1.0)
        with pytest.raises(ValueError):
            freq.omega(-2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrequencyProfile.rational(0.0, 1.0)
        with pytest.raises(ValueError):
            FrequencyProfile.rational(1.0, -0.5)

    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 1.9, 2.0, 3.0])
    def test_strictly_decreasing_for_positive_slope(self, b):
        freq = FrequencyProfile.rational(1.0, b)
        t = np.linspace(0.0, 10.0, 257)
        assert np.all(np.diff(freq.omega(t)) < 0)

    def test_vectorized(self):
        freq = FrequencyProfile.rational(1.0, 2.0)
        t = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(freq.omega(t), [1.0, 0.5, 0.2])


class TestClassify:
    def test_subcritical(self):
        assert classify_rational(1.0) is Regime.SUBCRITICAL

    def test_constant_limit_is_subcritical(self):
        assert classify_rational(0.0) is Regime.SUBCRITICAL

    def test_critical(self):
        assert classify_rational(2.0) is Regime.CRITICAL

    def test_critical_within_tolerance(self):
        assert classify_rational(2.0 - 1e-13) is Regime.CRITICAL
        assert classify_rational(2.0 + 1e-13) is Regime.CRITICAL

    def test_unsupported(self):
        assert classify_rational(3.0) is Regime.UNSUPPORTED

    def test_near_critical_stays_subcritical(self):
        assert classify_rational(2.0 - 1e-6) is Regime.SUBCRITICAL

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_rational(-1.0)

    @pytest.mark.parametrize("b", [0.0, 0.3, 0.5, 1.0, 1.5, 1.99])
    def test_subcritical_amplitude_is_real(self, b):
        # consistency: every subcritical slope has a real C = (1-b^2/4)^(-1/4)
        assert classify_rational(b) is Regime.SUBCRITICAL
        assert np.isfinite((1.0 - b * b / 4.0) ** -0.25)


class TestFrequencyProfile:
    def test_constant(self):
        profile = FrequencyProfile.constant(1.0)
        np.testing.assert_array_equal(profile.omega([0.0, 3.0, 7.0]), [1, 1, 1])

    def test_rational_factory(self):
        profile = FrequencyProfile.rational(1.0, 2.0)
        assert profile.omega(0.5) == pytest.approx(0.5)

    def test_from_table_linear_interpolation(self):
        profile = FrequencyProfile.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        assert profile.omega(0.5) == pytest.approx(0.75)
        assert profile.omega(1.5) == pytest.approx(0.375)

    def test_from_table_raises_outside_its_range(self):
        profile = FrequencyProfile.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        assert profile.omega(2.0) == 0.25
        with pytest.raises(ValueError, match=r"table on \[0, 2\].* at t=2.5$"):
            profile.omega(2.5)
        with pytest.raises(ValueError, match="at t=-1$"):
            profile.omega([0.5, -1.0, 3.0])

    def test_from_table_keeps_sample_times_as_knots(self):
        profile = FrequencyProfile.from_table(np.array([0.0, 0.3, 2.0]), [1.0, 0.5, 0.25])
        assert profile.knots == (0.0, 0.3, 2.0)
        assert FrequencyProfile.constant(1.0).knots == ()
        assert FrequencyProfile.rational(1.0, 2.0).knots == ()
        assert FrequencyProfile(lambda t: 1.0 + 0.0 * t).knots == ()

    def test_from_table_validation(self):
        with pytest.raises(ValueError):
            FrequencyProfile.from_table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            FrequencyProfile.from_table([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            FrequencyProfile.from_table([0.0], [1.0])

    def test_custom_callable(self):
        profile = FrequencyProfile(lambda t: 1.0 / (1.0 + t * t))
        assert profile.omega(1.0) == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        profile = FrequencyProfile(lambda t: 1.0 / t)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError):
                profile.omega(0.0)

    def test_negative_rejected_on_both_paths(self):
        profile = FrequencyProfile(lambda t: -1.0 + 0.0 * t, label="sink")
        for t, first in ((0.5, "0.5"), (np.float64(0.5), "0.5"), ([0.25, 0.5], "0.25")):
            with pytest.raises(ValueError, match=f"^frequency profile 'sink' "
                               f"negative or not finite at t={first}$"):
                profile.omega(t)


def _table_profile():
    t = np.linspace(0.0, 12.0, 301)
    return FrequencyProfile.from_table(t, 1.0 / (1.0 + 0.6 * t))


SCALAR_CASES = {
    "table": _table_profile(),
    "rational": FrequencyProfile.rational(0.8, 1.2),
    "constant": FrequencyProfile.constant(2.5),
    "custom": FrequencyProfile(lambda t: 1.0 / (1.0 + t * t)),
}


class TestScalarPath:
    """A float or np.float64 t gives the array path's bits."""

    @pytest.mark.parametrize("name", SCALAR_CASES)
    def test_bits_equal_the_array_path(self, name):
        profile = SCALAR_CASES[name]
        times = np.concatenate([np.linspace(0.0, 12.0, 1201),
                                np.random.default_rng(5).uniform(0.0, 12.0, 200)])
        expected = np.asarray(profile.omega(times)).tobytes()
        as_float = np.array([profile.omega(float(t)) for t in times])
        as_float64 = np.array([profile.omega(t) for t in times])
        assert as_float.tobytes() == expected
        assert as_float64.tobytes() == expected

    @pytest.mark.parametrize("name", SCALAR_CASES)
    def test_returns_a_float64(self, name):
        profile = SCALAR_CASES[name]
        assert type(profile.omega(0.5)) is np.float64
        assert type(profile.omega(np.float64(0.5))) is np.float64

    def test_raises_past_the_table(self):
        profile = _table_profile()
        for t in (12.5, np.float64(-0.5)):
            with pytest.raises(ValueError, match=r"table on \[0, 12\].* not finite"):
                profile.omega(t)

    @pytest.mark.parametrize("t", [-1.0, -2.0, np.float64(-1.0)])
    def test_raises_where_the_denominator_is_not_positive(self, t):
        # at a + b*t = 0 the division gives inf, with numpy's divide warning
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError,
                               match=rf"'rational\(a=1\.0, b=1\.0\)' .* at t={t:g}$"):
                FrequencyProfile.rational(1.0, 1.0).omega(t)

    def test_division_by_zero_raises(self):
        profile = FrequencyProfile(lambda t: 1.0 / t)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="not finite at t=0$"):
                profile.omega(0.0)
