import numpy as np
import pytest

from bohmosc import verify
from bohmosc import (
    SpatialGrid,
    ResidualReport,
    WavefunctionGrid,
    amplitude_gaussian,
    amplitude_gaussian_dt,
    amplitude_gaussian_dx,
    bohm_potential_gaussian,
    build_residual_report,
    classical_potential,
    continuity_residual,
    qhje_residual,
    rational_construction,
    schrodinger_residual,
)


def sample_families(construction, x, t, dt):
    """psi, A, S, V, V_B sampled at (t-dt, t, t+dt)."""
    times = np.array([t - dt, t, t + dt])
    a = np.stack([amplitude_gaussian(x, tj, construction) for tj in times])
    s = np.stack([construction.S(x, tj) for tj in times])
    psi = a * np.exp(1j * s)
    v = np.stack([classical_potential(construction.profile, x, tj)
                  for tj in times])
    v_b = np.stack([bohm_potential_gaussian(x, tj, construction) for tj in times])
    return psi, a, s, v, v_b


def worst_of(reports):
    """The field-wise max of ResidualReport dicts."""
    entries = [report.to_dict() for report in reports]
    return {key: max(entry[key] for entry in entries) for key in entries[0]}


@pytest.fixture(scope="module")
def sub1():
    return rational_construction(1.0)


@pytest.fixture(scope="module")
def static():
    return rational_construction(0.0)


class TestSchrodingerResidual:
    def test_static_ground_state_threshold(self, static):
        # fourth-order spatial stencil at h=1/32, dt=1e-3
        x = np.linspace(-8.0, 8.0, 513)
        psi, _, _, v, _ = sample_families(static, x, 1.0, 1e-3)
        l2, max_ = schrodinger_residual(psi, v, x, 1e-3, space_order=4)
        assert max_ < 1e-6
        assert l2 < 1e-6

    def test_second_order_decrease_under_refinement(self, sub1):
        maxima = []
        for h, dt in ((1 / 8, 8e-3), (1 / 16, 4e-3), (1 / 32, 2e-3)):
            x = np.arange(-8.0, 8.0 + h / 2, h)
            psi, _, _, v, _ = sample_families(sub1, x, 2.0, dt)
            maxima.append(schrodinger_residual(psi, v, x, dt)[1])
        assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.2)
        assert maxima[1] / maxima[2] == pytest.approx(4.0, rel=0.2)

    def test_linearity_in_psi(self, sub1):
        x = np.linspace(-8.0, 8.0, 257)
        psi, _, _, v, _ = sample_families(sub1, x, 1.0, 1e-3)
        l2_1, max_1 = schrodinger_residual(psi, v, x, 1e-3)
        l2_2, max_2 = schrodinger_residual(2.0 * psi, v, x, 1e-3)
        assert l2_2 == pytest.approx(2.0 * l2_1, rel=1e-12)
        assert max_2 == pytest.approx(2.0 * max_1, rel=1e-12)

    def test_requires_three_time_samples(self, sub1):
        x = np.linspace(-8.0, 8.0, 64)
        psi, _, _, v, _ = sample_families(sub1, x, 1.0, 1e-3)
        with pytest.raises(ValueError):
            schrodinger_residual(psi[:2], v[:2], x, 1e-3)


class TestContinuityResidual:
    def test_analytic_derivatives_close_exactly(self, sub1):
        # the continuity expression from the analytic derivatives, on the
        # middle row and interior points that continuity_residual checks,
        # masked by the same tail rule
        x = np.linspace(-8.0, 8.0, 513)
        t, dt = 1.0, 1e-3
        _, a, _, _, _ = sample_families(sub1, x, t, dt)
        keep = (a > 1e-10 * a.max())[1, 2:-2]
        x, a = x[2:-2], a[1, 2:-2]
        residual = ((2.0 * amplitude_gaussian_dx(x, t, sub1) * sub1.S_x(x, t)
                     + a * sub1.nu_dot(t)) / 2.0
                    + amplitude_gaussian_dt(x, t, sub1))
        assert np.max(np.abs(residual[keep])) < 1e-8

    def test_static_fields_vanish(self, static):
        x = np.linspace(-8.0, 8.0, 257)
        _, a, s, _, _ = sample_families(static, x, 1.0, 1e-3)
        assert continuity_residual(a, s, x, 1e-3) < 1e-14

    def test_second_order_decrease_under_refinement(self, sub1):
        values = []
        for h, dt in ((1 / 8, 8e-3), (1 / 16, 4e-3)):
            x = np.arange(-8.0, 8.0 + h / 2, h)
            _, a, s, _, _ = sample_families(sub1, x, 2.0, dt)
            values.append(continuity_residual(a, s, x, dt))
        assert values[0] / values[1] == pytest.approx(4.0, rel=0.2)

    def test_detects_perturbed_amplitude(self, sub1):
        x = np.linspace(-8.0, 8.0, 513)
        _, a, s, _, _ = sample_families(sub1, x, 1.0, 1e-3)
        rng = np.random.default_rng(0)
        a = a + 1e-2 * rng.standard_normal(a.shape)
        assert continuity_residual(a, s, x, 1e-3) > 1e-3

    def test_linearity_in_amplitude(self, sub1):
        x = np.linspace(-8.0, 8.0, 257)
        _, a, s, _, _ = sample_families(sub1, x, 1.0, 1e-3)
        one = continuity_residual(a, s, x, 1e-3)
        two = continuity_residual(2.0 * a, s, x, 1e-3)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestQhjeResidual:
    def test_analytic_derivatives_close_exactly(self, sub1):
        # the QHJE expression from the analytic derivatives, on the middle
        # row and interior points that qhje_residual checks
        x = np.linspace(-8.0, 8.0, 513)[2:-2]
        t = 1.0
        residual = (sub1.S_x(x, t) ** 2 / 2.0
                    + bohm_potential_gaussian(x, t, sub1)
                    + classical_potential(sub1.profile, x, t) + sub1.S_t(x, t))
        assert np.max(np.abs(residual)) < 1e-9

    def test_static_case_closes(self, static):
        x = np.linspace(-8.0, 8.0, 257)
        _, _, s, v, v_b = sample_families(static, x, 1.0, 1e-3)
        assert qhje_residual(s, v_b, v, x, 1e-3) < 1e-10

    def test_wrong_branch_mix_is_detected(self, sub1):
        # subcritical S and V_B against the critical potential
        critical = rational_construction(2.0)
        x = np.linspace(-8.0, 8.0, 257)
        t, dt = 1.0, 1e-3
        times = np.array([t - dt, t, t + dt])
        _, _, s, _, v_b = sample_families(sub1, x, t, dt)
        v_wrong = np.stack([classical_potential(critical.profile, x, tj)
                            for tj in times])
        assert qhje_residual(s, v_b, v_wrong, x, dt) > 1e-2

    def test_finite_difference_time_derivative_converges(self, sub1):
        values = []
        for dt in (8e-3, 4e-3):
            x = np.linspace(-8.0, 8.0, 129)
            _, _, s, v, v_b = sample_families(sub1, x, 2.0, dt)
            values.append(qhje_residual(s, v_b, v, x, dt))
        assert values[0] / values[1] == pytest.approx(4.0, rel=0.2)


class TestNormalization:
    def test_zero_state(self):
        grid = SpatialGrid(-8.0, 8.0, 129)
        assert WavefunctionGrid(grid, 0.0, np.zeros(grid.n)).norms()[0] == 0.0


class TestResidualReport:
    def test_report_fields_and_convergence(self, sub1):
        reports = []
        for level in range(3):
            n = 129 * 2**level - (2**level - 1)  # h = (1/8)/2^level
            grid = SpatialGrid(-8.0, 8.0, n)
            reports.append(build_residual_report(sub1, grid, 1.5,
                                                 8e-3 / 2**level))
        for key in ("se_residual_max", "continuity_residual_max",
                    "qhje_residual_max"):
            first = getattr(reports[0], key)
            second = getattr(reports[1], key)
            third = getattr(reports[2], key)
            assert first / second == pytest.approx(4.0, rel=0.25)
            assert second / third == pytest.approx(4.0, rel=0.25)
        assert reports[0].normalization_error < 1e-10
        entry = reports[0].to_dict()
        assert set(entry) == {"se_residual_l2", "se_residual_max",
                              "continuity_residual_max", "qhje_residual_max",
                              "normalization_error", "h", "dt", "n_x", "n_t"}

    def test_rejects_nonfinite_fields(self):
        with pytest.raises(ValueError):
            ResidualReport(se_residual_l2=-1.0, se_residual_max=0.0,
                           continuity_residual_max=0.0, qhje_residual_max=0.0,
                           normalization_error=0.0, h=0.1, dt=0.1, n_x=64, n_t=3)

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_report_equals_one_assembled_from_the_public_parts(self, sub1, space_order):
        # psi from Construction.psi, A and S sampled on the same (3, 1)
        # time column: the report must hold exactly these numbers.
        grid, t, dt = SpatialGrid(-8.0, 8.0, 257), 1.5, 1e-3
        times = np.array([t - dt, t, t + dt])
        x, column = grid.x, times[:, None]
        wf = sub1.psi(grid, times)
        psi = wf.psi
        a = amplitude_gaussian(x, column, sub1)
        s = sub1.S(x, column)
        v = classical_potential(sub1.profile, x, column)
        v_b = bohm_potential_gaussian(x, column, sub1)
        se_l2, se_max = schrodinger_residual(psi, v, x, dt, space_order=space_order)
        expected = ResidualReport(
            se_residual_l2=se_l2,
            se_residual_max=se_max,
            continuity_residual_max=continuity_residual(
                a, s, x, dt, space_order=space_order),
            qhje_residual_max=qhje_residual(
                s, v_b, v, x, dt, mask=np.abs(psi) > 1e-10 * np.max(np.abs(psi))),
            normalization_error=abs(float(wf.norms()[1]) - 1.0),
            h=grid.h, dt=dt, n_x=grid.n, n_t=3)
        report = build_residual_report(sub1, grid, t, dt, space_order=space_order)
        assert report.to_dict() == expected.to_dict()


class TestProbeStacks:
    """A (p, 3, n) stack of probe families gives the worst of the per-probe
    (3, n) calls, bit for bit."""

    @pytest.fixture(scope="class", params=[1.0, 2.0], ids=["subcritical", "critical"])
    def stack(self, request):
        construction = rational_construction(request.param)
        x, dt = np.linspace(-8.0, 8.0, 257), 1e-3
        families = [sample_families(construction, x, t, dt)
                    for t in (0.25, 0.9, 1.5, 2.75, 4.0)]
        return x, dt, families, [np.stack(f) for f in zip(*families)]

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_schrodinger(self, stack, space_order):
        x, dt, families, (psi, _, _, v, _) = stack
        singles = [schrodinger_residual(f[0], f[3], x, dt, space_order=space_order)
                   for f in families]
        expected = tuple(max(values) for values in zip(*singles))
        assert schrodinger_residual(psi, v, x, dt, space_order=space_order) == expected
        # V on the middle row only, broadcast over the three rows
        assert schrodinger_residual(psi, v[:, 1:2], x, dt,
                                    space_order=space_order) == expected

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_continuity(self, stack, space_order):
        x, dt, families, (_, a, s, _, _) = stack
        expected = max(continuity_residual(f[1], f[2], x, dt, space_order=space_order)
                       for f in families)
        assert continuity_residual(a, s, x, dt, space_order=space_order) == expected

    def test_qhje(self, stack):
        x, dt, families, (psi, _, s, v, v_b) = stack

        def tail(f):
            return np.abs(f) > 1e-10 * np.max(np.abs(f))

        for mask in (False, True):
            expected = max(qhje_residual(f[2], f[4], f[3], x, dt,
                                         mask=tail(f[0]) if mask else None)
                           for f in families)
            stacked_mask = np.stack([tail(f[0]) for f in families]) if mask else None
            assert qhje_residual(s, v_b, v, x, dt, mask=stacked_mask) == expected
            assert qhje_residual(s, v_b[:, 1:2], v[:, 1:2], x, dt,
                                 mask=stacked_mask) == expected

    def test_each_probe_masks_its_tail_by_its_own_peak(self, stack):
        # A constant family 1e12 times the peak of the first has a residual
        # of exactly 0; measured against its peak, the first family would
        # lie wholly in the tail and its residuals would drop out.
        x, dt, families, _ = stack
        psi, a, s, v, _ = families[0]
        flat = np.full_like(a, 1e12)
        assert schrodinger_residual(np.stack([psi, flat]), np.stack([v, 0 * v]), x,
                                    dt) == schrodinger_residual(psi, v, x, dt)
        assert continuity_residual(np.stack([a, flat]), np.stack([s, 0 * s]), x,
                                   dt) == continuity_residual(a, s, x, dt)

    def test_shapes_that_do_not_broadcast_are_rejected(self, stack):
        x, dt, _, (psi, _, s, v, v_b) = stack
        with pytest.raises(ValueError, match="v must broadcast"):
            schrodinger_residual(psi, v[:2], x, dt)
        with pytest.raises(ValueError, match="mask must broadcast"):
            qhje_residual(s, v_b, v, x, dt, mask=np.ones(x.size - 1, dtype=bool))


class TestMaskedReductions:
    """Each check reduces its residual where the mask holds as a per-row copy
    of the kept cells would, on fields whose residual is known exactly."""

    @staticmethod
    def per_row(residual, keep, h):
        """(l2, max) over the rows of the kept cells, each row copied out."""
        l2, top = 0.0, 0.0
        for row, keep_row in zip(residual.reshape(-1, residual.shape[-1]),
                                 keep.reshape(-1, keep.shape[-1])):
            kept = np.abs(row[keep_row])
            if kept.size:
                l2 = max(l2, float(np.sqrt(h * np.sum(kept**2))))
                top = max(top, float(np.max(kept)))
        return l2, top

    def test_equal_a_per_row_copy(self):
        # Five (3, n) families, random masks, no kept cell in the middle row
        # of family 2 and a NaN in family 0 that the masks leave out.  With
        # psi = 1 the Schrodinger residual is -V, with S = 0 the QHJE
        # residual is V_B + V and the continuity residual is A_t.
        rng = np.random.default_rng(28)
        x, dt = np.linspace(-8.0, 8.0, 257), 1e-3
        h, shape, nan_at, middle = x[1] - x[0], (5, 3, x.size), 100, np.s_[:, 1:2, 2:-2]
        mask = rng.random(shape) < 0.5
        mask[2] = False
        mask[0, 1, nan_at - 1:nan_at + 2] = False
        v, v_b = rng.normal(size=shape), rng.normal(size=shape)
        v[0, 1, nan_at] = v_b[0, 1, nan_at] = np.nan

        l2, top = schrodinger_residual(np.ones(shape, dtype=complex), v, x, dt,
                                       mask=mask)
        want_l2, want_top = self.per_row(v[middle], mask[middle], h)
        assert top == want_top
        assert l2 == pytest.approx(want_l2, rel=4 * np.finfo(float).eps, abs=0.0)

        s = np.zeros(shape)
        assert qhje_residual(s, v_b, v, x, dt, mask=mask) == self.per_row(
            (v_b + v)[middle], mask[middle], h)[1]

        # A is zero where the masks leave a cell out, so its tail mask is
        # the random one; the NaN in S reaches the three cells around it.
        a = rng.uniform(0.5, 1.5, size=shape)
        a[:, 1][~mask[:, 1]] = 0.0
        a[0, :, nan_at - 1:nan_at + 2] = 0.0
        s[0, 1, nan_at] = np.nan
        a_t = (a[:, 2:3, 2:-2] - a[:, 0:1, 2:-2]) / (2.0 * dt)
        assert continuity_residual(a, s, x, dt) == self.per_row(
            a_t, a[middle] > 0.0, h)[1]

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_continuity_mask_of_a_is_its_default(self, space_order):
        # build_residual_report passes the tail mask of A, never negative, to
        # the continuity check; on a report-like (p, 3, n) stack that must
        # give the residual of the mask the check computes from |A|.
        construction = rational_construction(1.0)
        x, dt = np.linspace(-24.0, 24.0, 1025), 1e-3
        probes = np.array([0.0, 0.7, 3.0])[:, None, None]
        column = np.concatenate([probes - dt, probes, probes + dt], axis=1)
        a = amplitude_gaussian(x, column, construction)
        s = construction.S(x, column)
        mask = verify._tail_mask(a)
        assert a.shape == (3, 3, x.size) and not mask.all()
        assert continuity_residual(a, s, x, dt, space_order, mask=mask) == (
            continuity_residual(a, s, x, dt, space_order))


class TestProbeReport:
    """A report on an array of probes equals the field-wise max of the
    scalar-t reports, however the probes split into blocks."""

    @pytest.mark.parametrize("b", [1.0, 2.0], ids=["subcritical", "critical"])
    @pytest.mark.parametrize("space_order", [2, 4])
    @pytest.mark.parametrize("per_block", [None, 1, 2], ids=["default", "one", "two"])
    def test_equals_the_worst_of_scalar_reports(self, monkeypatch, b, space_order,
                                                per_block):
        construction = rational_construction(b)
        grid, dt = SpatialGrid(-8.0, 8.0, 257), 2e-3
        probes = np.linspace(0.4, 2.0, 5)
        if per_block is not None:
            # 5 probes split 1+1+1+1+1 or 2+2+1
            monkeypatch.setattr(verify, "_BLOCK_POINTS", per_block * 3 * grid.n)
        singles = [build_residual_report(construction, grid, float(t), dt,
                                         space_order=space_order) for t in probes]
        report = build_residual_report(construction, grid, probes, dt,
                                       space_order=space_order)
        assert report.to_dict() == worst_of(singles)

    def test_one_probe_past_the_block_bound(self, monkeypatch, sub1):
        # A bound below one probe's three rows still takes a probe per block.
        grid, probes = SpatialGrid(-8.0, 8.0, 129), np.array([0.5, 1.5, 2.5])
        monkeypatch.setattr(verify, "_BLOCK_POINTS", grid.n)
        singles = [build_residual_report(sub1, grid, float(t), 1e-3) for t in probes]
        assert build_residual_report(sub1, grid, probes, 1e-3).to_dict() == worst_of(singles)

    @pytest.mark.parametrize("t", [np.array([]), np.ones((2, 2))], ids=["empty", "2-d"])
    def test_probe_times_must_be_one_or_a_1d_array(self, sub1, t):
        with pytest.raises(ValueError, match="probe time"):
            build_residual_report(sub1, SpatialGrid(-8.0, 8.0, 129), t, 1e-3)
