import contextlib
import functools
import hashlib
import io
import json
import logging
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bohmosc import (
    FrequencyProfile,
    SpatialGrid,
    amplitude_gaussian,
    bohm_potential_gaussian,
    classical_potential,
    numeric_construction,
    rational_construction,
    wavefunction,
)
from bohmosc import cli, floatfmt, tdse
from bohmosc.cli import _write_csv, build_parser, main


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def header_of(path):
    with open(path) as handle:
        return handle.readline().strip().split(",")


def no_work(*_args, **_kwargs):
    raise AssertionError("work started past the cap")


class TestErmakovCommand:
    def test_closed_form_table(self, tmp_path):
        out = tmp_path / "ermakov.csv"
        assert main(["ermakov", "--b", "1", "--t-max", "10",
                     "--samples", "101", "--out", str(out)]) == 0
        assert header_of(out) == ["t", "rho", "rho_dot", "nu", "nu_dot",
                                  "nu_ddot", "residual"]
        data = read_csv(out)
        assert data.shape == (101, 7)
        assert data[0, 1] == pytest.approx(1.0, abs=1e-15)  # rho(0)=1
        assert np.max(np.abs(data[:, 6])) < 1e-12           # residual column

    def test_samples_past_the_cap_are_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_TABLE_POINTS", 11)
        at_cap, past = tmp_path / "at_cap.csv", tmp_path / "past.csv"
        assert main(["ermakov", "--b", "1", "--samples", "11",
                     "--out", str(at_cap)]) == 0
        assert read_csv(at_cap).shape == (11, 7)
        monkeypatch.setattr(cli, "_construction_from_args", no_work)
        monkeypatch.setattr(np, "linspace", no_work)
        assert main(["ermakov", "--b", "1", "--samples", "12",
                     "--out", str(past)]) == 2
        assert not past.exists()
        assert capsys.readouterr().err.splitlines() == [
            "bohmosc ermakov: --samples 12 is more than the cap of 11"]

    def test_numeric_flag_matches_closed_form(self, tmp_path):
        closed, numeric = tmp_path / "closed.csv", tmp_path / "numeric.csv"
        base = ["ermakov", "--b", "1", "--t-max", "5", "--samples", "41"]
        assert main(base + ["--out", str(closed)]) == 0
        assert main(base + ["--numeric", "--out", str(numeric)]) == 0
        rho_closed = read_csv(closed)[:, 1]
        rho_numeric = read_csv(numeric)[:, 1]
        assert np.max(np.abs(rho_closed - rho_numeric)) < 1e-8

    def test_omega_table_profile(self, tmp_path):
        table = tmp_path / "omega.csv"
        t = np.linspace(0.0, 5.0, 501)
        np.savetxt(table, np.column_stack([t, 1.0 / (1.0 + 2.0 * t)]),
                   delimiter=",")
        out = tmp_path / "ermakov.csv"
        assert main(["ermakov", "--omega-table", str(table), "--t-max", "5",
                     "--samples", "11", "--rho0", "1.0", "--rho-dot0", "1.0",
                     "--out", str(out)]) == 0
        numeric = tmp_path / "numeric.csv"
        assert main(["ermakov", "--omega-table", str(table), "--t-max", "5",
                     "--samples", "11", "--rho0", "1.0", "--rho-dot0", "1.0",
                     "--numeric", "--out", str(numeric)]) == 0
        assert numeric.read_bytes() == out.read_bytes()
        data = read_csv(out)
        # linear interpolation of the table keeps it close to the critical form
        expected = np.sqrt(1 + 2 * data[:, 0]) * np.sqrt(
            1 + 0.25 * np.log(1 + 2 * data[:, 0]) ** 2)
        assert np.max(np.abs(data[:, 1] - expected)) < 1e-3

    def test_unsupported_slope_exits_2(self, tmp_path):
        assert main(["ermakov", "--b", "3", "--out",
                     str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--b", "1", "--t-max", "-5"],
         "a + b*t must stay positive (a=0.8660254037844386, b=1.0)"),
        (["--b", "2", "--t-max", "-1"], "critical closed form requires 1 + 2t > 0"),
    ], ids=["subcritical", "critical"])
    def test_time_past_the_branch_domain_exits_2(self, tmp_path, capsys, flags,
                                                 message):
        out = tmp_path / "x.csv"
        assert main(["ermakov", *flags, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"bohmosc ermakov: {message}"]

    def test_missing_profile_exits_2(self, tmp_path):
        assert main(["ermakov", "--out", str(tmp_path / "x.csv")]) == 2

    def test_debug_log_leaves_csv_unchanged(self, tmp_path, caplog):
        argv = ["ermakov", "--numeric", "--b", "1"]
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        assert main(argv + ["--out", str(quiet)]) == 0
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="bohmosc")
        assert main(argv + ["--out", str(loud)]) == 0
        record, written = caplog.records
        assert (record.name, record.levelno) == ("bohmosc.ermakov", logging.DEBUG)
        assert (written.name, written.levelno) == ("bohmosc.cli", logging.DEBUG)
        steps, rhs_evaluations, residual, bound = record.args
        assert 0 < steps < rhs_evaluations
        assert residual <= bound
        assert loud.read_bytes() == quiet.read_bytes()


def assert_surface_matches_scalar(tmp_path, flags, construction):
    """bohm over a 3x11 grid writes t-major rows whose every V_B, V, A, S
    cell equals the library evaluated at that row's scalar (t, x)."""
    out = tmp_path / "bohm.csv"
    assert main(["bohm", *flags, "--x-min", "-5", "--x-max", "5",
                 "--nx", "11", "--t-max", "2", "--nt", "3",
                 "--out", str(out)]) == 0
    assert header_of(out) == ["t", "x", "V_B", "V", "A", "S"]
    data = read_csv(out)
    assert data.shape == (33, 6)
    np.testing.assert_array_equal(data[:, 0], np.repeat([0.0, 1.0, 2.0], 11))
    np.testing.assert_array_equal(data[:, 1], np.tile(np.linspace(-5.0, 5.0, 11), 3))
    expected = [[bohm_potential_gaussian(x, t, construction),
                 classical_potential(construction.profile, x, t),
                 amplitude_gaussian(x, t, construction),
                 construction.S(x, t)] for t, x in data[:, :2]]
    np.testing.assert_array_equal(data[:, 2:], np.array(expected))
    origin = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0)][0]
    assert origin[2] == pytest.approx(0.5)            # V_B(0,0)
    assert origin[4] == pytest.approx(np.pi**-0.25)   # A(0,0)
    assert origin[5] == 0.0                           # S(0,0)


class TestBohmCommand:
    def test_surface_values(self, tmp_path):
        assert_surface_matches_scalar(tmp_path, ["--b", "1"],
                                      rational_construction(1.0))

    def test_omega_table_surface_values(self, tmp_path):
        # a 2-D time column goes through np.interp and the dense ODE output
        table = tmp_path / "omega.csv"
        t = np.linspace(0.0, 2.0, 21)
        omega = 1.0 / (1.0 + 0.5 * t)
        np.savetxt(table, np.column_stack([t, omega]), delimiter=",")
        construction = numeric_construction(FrequencyProfile.from_table(t, omega),
                                            (0.0, 2.0))
        assert_surface_matches_scalar(tmp_path, ["--omega-table", str(table)],
                                      construction)

    def test_omega_table_past_last_sample_exits_2(self, tmp_path, capsys):
        table = tmp_path / "omega.csv"
        t = np.linspace(0.0, 2.0, 21)
        np.savetxt(table, np.column_stack([t, 1.0 / (1.0 + 0.5 * t)]), delimiter=",")
        out = tmp_path / "bohm.csv"
        assert main(["bohm", "--omega-table", str(table), "--t-max", "3",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["bohm", "wavefunction"])
    def test_cells_past_the_cap_are_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_MAX_TABLE_POINTS", 33)
        at_cap, past = tmp_path / "at_cap.csv", tmp_path / "past.csv"
        assert main([command, "--b", "1", "--nt", "3", "--nx", "11",
                     "--out", str(at_cap)]) == 0
        assert read_csv(at_cap).shape[0] == 33
        monkeypatch.setattr(cli, "_construction_from_args", no_work)
        monkeypatch.setattr(np, "linspace", no_work)
        assert main([command, "--b", "1", "--nt", "3", "--nx", "12",
                     "--out", str(past)]) == 2
        assert not past.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"bohmosc {command}: --nt 3 by --nx 12 gives more than 33 cells"]

    def test_critical_flag(self, tmp_path):
        out = tmp_path / "bohm.csv"
        assert main(["bohm", "--critical", "--nx", "5", "--nt", "2",
                     "--t-max", "1", "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape == (10, 6)

    def test_conflicting_branch_flags_exit_2(self, tmp_path):
        assert main(["bohm", "--b", "1", "--critical",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestWavefunctionCommand:
    def test_probability_column(self, tmp_path):
        out = tmp_path / "psi.csv"
        assert main(["wavefunction", "--b", "1", "--x-min", "-10",
                     "--x-max", "10", "--nx", "401", "--t-max", "1",
                     "--nt", "2", "--out", str(out)]) == 0
        assert header_of(out) == ["t", "x", "re_psi", "im_psi", "abs2_psi"]
        data = read_csv(out)
        np.testing.assert_allclose(data[:, 2] ** 2 + data[:, 3] ** 2,
                                   data[:, 4], atol=1e-14)
        slice0 = data[data[:, 0] == 0.0]
        norm = np.trapezoid(slice0[:, 4], slice0[:, 1])
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_psi_columns_equal_the_construction(self, tmp_path):
        # "%.17g" round-trips doubles, so the columns read back exactly.  A
        # sweep's positions are np.linspace's; on [-8, 8] at 512 points the
        # mirror-image SpatialGrid().x differs from them in the last bits.
        out = tmp_path / "psi.csv"
        assert main(["wavefunction", "--b", "1", "--x-min", "-8", "--x-max", "8",
                     "--nx", "512", "--nt", "3", "--out", str(out)]) == 0
        data = read_csv(out)
        times = np.linspace(0.0, 6.0, 3)
        x = np.linspace(-8.0, 8.0, 512)
        np.testing.assert_array_equal(data[:, 1], np.tile(x, 3))
        psi = wavefunction(x, times[:, None], rational_construction(1.0))
        np.testing.assert_array_equal(data[:, 2], psi.real.ravel())
        np.testing.assert_array_equal(data[:, 3], psi.imag.ravel())


class TestVerifyCommand:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--b", "1", "--t-max", "1.5", "--nx", "129",
                     "--dt", "8e-3", "--refine", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["levels"]) == 2
        level0 = report["levels"][0]
        for key in ("se_residual_l2", "se_residual_max",
                    "continuity_residual_max", "qhje_residual_max",
                    "normalization_error", "h", "dt", "n_x", "n_t"):
            assert key in level0
        orders = report["observed_orders"]["se_residual_max"]
        assert orders[0] == pytest.approx(2.0, abs=0.4)

    def test_threshold_pass_and_fail(self, tmp_path):
        base = ["verify", "--b", "1", "--t-max", "1.5", "--nx", "257",
                "--dt", "1e-3", "--refine", "1"]
        assert main(base + ["--threshold", "1.0",
                            "--out", str(tmp_path / "a.json")]) == 0
        assert main(base + ["--threshold", "1e-12",
                            "--out", str(tmp_path / "b.json")]) == 3

    def test_report_without_out_goes_to_stdout(self, tmp_path, capsys):
        argv = ["verify", "--b", "1", "--nx", "65", "--nt", "2", "--refine", "2"]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert main(argv) == 0
        assert capsys.readouterr() == (out.read_text(), "")

    def test_debug_log_leaves_report_unchanged(self, tmp_path, caplog):
        # one record per level's residual report
        argv = ["verify", "--b", "1", "--refine", "2"]
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        assert main(argv + ["--out", str(quiet)]) == 0
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="bohmosc")
        assert main(argv + ["--out", str(loud)]) == 0
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("bohmosc.verify", logging.DEBUG)] * 2
        assert [r.args[:3] for r in caplog.records] == [(1, 513, 1), (1, 1025, 1)]
        assert loud.read_bytes() == quiet.read_bytes()

    def test_finest_level_past_the_cap_is_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        # from --nx 65, level l has 64 * 2**l + 1 points: level 2 is at a
        # cap of 257, level 3 past it
        monkeypatch.setattr(cli, "_MAX_LEVEL_POINTS", 257)
        at_cap, past = tmp_path / "at_cap.json", tmp_path / "past.json"
        assert main(["verify", "--b", "1", "--nx", "65", "--refine", "3",
                     "--out", str(at_cap)]) == 0
        assert json.loads(at_cap.read_text())["levels"][-1]["n_x"] == 257
        monkeypatch.setattr(cli, "_construction_from_args", no_work)
        monkeypatch.setattr(cli, "build_residual_report", no_work)
        assert main(["verify", "--b", "1", "--nx", "65", "--refine", "4",
                     "--out", str(past)]) == 2
        assert not past.exists()
        assert capsys.readouterr().err.splitlines() == [
            "bohmosc verify: --refine 4 from --nx 65 gives the finest level "
            "more than 257 points"]

    def test_probe_points_past_the_cap_are_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        # from --nx 65, two levels have 65 + 129 points: three probes are
        # at a cap of 582, four past it
        monkeypatch.setattr(cli, "_MAX_PROBE_POINTS", 582)
        at_cap, past = tmp_path / "at_cap.json", tmp_path / "past.json"
        assert main(["verify", "--b", "1", "--nx", "65", "--refine", "2", "--nt", "3",
                     "--out", str(at_cap)]) == 0
        assert len(json.loads(at_cap.read_text())["t_probes"]) == 3
        monkeypatch.setattr(cli, "_construction_from_args", no_work)
        monkeypatch.setattr(cli, "build_residual_report", no_work)
        monkeypatch.setattr(np, "linspace", no_work)
        assert main(["verify", "--b", "1", "--nx", "65", "--refine", "2", "--nt", "4",
                     "--out", str(past)]) == 2
        assert not past.exists()
        assert capsys.readouterr().err.splitlines() == [
            "bohmosc verify: --nt 4 on --refine 2 from --nx 65 gives more than "
            "582 probe points"]

    def test_report_past_the_file_size_limit_leaves_no_file(self, tmp_path):
        # the report of three levels from --nx 65 is about 1.4 KiB, past a
        # 1 KiB RLIMIT_FSIZE, under which a write raises "File too large"
        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "bohmosc", "verify", "--b", "1", "--nx", "65",
             "--refine", "3", "--nt", "4", "--out", "report.json"],
            cwd=tmp_path, preexec_fn=limit, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
        assert done.returncode == 2, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("bohmosc verify: ") and "File too large" in line
        assert not (tmp_path / "report.json").exists()

    def test_failed_threshold_still_prints_the_report(self, capsys):
        assert main(["verify", "--b", "1", "--nx", "65", "--threshold", "1e-12"]) == 3
        printed, err = capsys.readouterr()
        assert len(json.loads(printed)["levels"]) == 1
        (line,) = err.splitlines()
        assert line.startswith("verification failed: max residual ")


class TestTdseCheckCommand:
    def test_short_run(self, tmp_path):
        out = tmp_path / "tdse.csv"
        assert main(["tdse-check", "--b", "1", "--t-max", "0.5",
                     "--dt", "1e-3", "--samples", "3",
                     "--out", str(out)]) == 0
        assert header_of(out) == ["t", "fidelity", "norm_error"]
        data = read_csv(out)
        assert data.shape == (3, 3)
        assert np.all(data[:, 1] >= 1.0 - 1e-8)
        assert np.all(data[:, 2] < 1e-10)

    def test_min_fidelity_gate(self, tmp_path):
        base = ["tdse-check", "--b", "1", "--t-max", "0.2", "--dt", "1e-3",
                "--samples", "2", "--out", str(tmp_path / "t.csv")]
        assert main(base + ["--min-fidelity", "0.5"]) == 0
        # an unreachable bar must trip the threshold exit code
        assert main(base + ["--min-fidelity", "1.1"]) == 3

    def test_last_row_does_not_depend_on_samples(self, tmp_path):
        rows = set()
        for samples in ["2", "3", "11"]:
            out = tmp_path / f"samples{samples}.csv"
            assert main(["tdse-check", "--b", "1", "--t-max", "0.2", "--dt", "1e-3",
                         "--samples", samples, "--out", str(out)]) == 0
            rows.add(out.read_bytes().splitlines()[-1])
        assert len(rows) == 1

    @pytest.mark.parametrize("dt, steps", [("1e-3", "100"), ("1e-320", "inf")])
    def test_past_the_step_cap_exits_2(self, tmp_path, capsys, monkeypatch,
                                       dt, steps):
        monkeypatch.setattr(tdse, "_MAX_STEP_POINTS", 99 * 512)
        out = tmp_path / "t.csv"
        assert main(["tdse-check", "--b", "1", "--t-max", "0.1", "--dt", dt,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"bohmosc tdse-check: {steps} steps are more than the cap of 99 at n = 512"]

    def test_cells_past_the_cap_are_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_TDSE_CELLS", 3 * 512)
        at_cap, past = tmp_path / "at_cap.csv", tmp_path / "past.csv"
        argv = ["tdse-check", "--b", "1", "--t-max", "0.2", "--dt", "1e-3"]
        assert main(argv + ["--samples", "3", "--out", str(at_cap)]) == 0
        assert read_csv(at_cap).shape == (3, 3)
        monkeypatch.setattr(cli, "_construction_from_args", no_work)
        monkeypatch.setattr(cli, "SpatialGrid", no_work)
        assert main(argv + ["--samples", "4", "--out", str(past)]) == 2
        assert not past.exists()
        assert capsys.readouterr().err.splitlines() == [
            "bohmosc tdse-check: --samples 4 at --n 512 give more than 1536 cells"]

    @pytest.mark.parametrize("b, cutoff, width", [("1.99999", "17.8", "10.2"),
                                                  ("1.999999", "10.3", "5.7")])
    def test_even_state_near_b_2_meets_the_momentum_guard(self, tmp_path, capsys,
                                                          b, cutoff, width):
        # psi0 is even; on a grid that is not an exact mirror image it
        # differed from its mirror by 1e-12 of its peak and was refused as
        # "not even"
        out = tmp_path / "t.csv"
        assert main(["tdse-check", "--b", b, "--t-max", "0.1", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"bohmosc tdse-check: momentum cutoff pi/h = {cutoff} is below 6 x "
            f"packet width {width}; refine the grid"]

    def test_debug_log_leaves_csv_unchanged(self, tmp_path, caplog):
        argv = ["tdse-check", "--b", "1", "--t-max", "0.1", "--dt", "1e-3",
                "--samples", "3"]
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        assert main(argv + ["--out", str(quiet)]) == 0
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="bohmosc")
        assert main(argv + ["--out", str(loud)]) == 0
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("bohmosc.tdse", logging.DEBUG), ("bohmosc.cli", logging.DEBUG)]
        assert loud.read_bytes() == quiet.read_bytes()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(_grid):
            raise MemoryError()

        monkeypatch.setattr(SpatialGrid, "x", property(no_memory))
        out = tmp_path / "t.csv"
        assert main(["tdse-check", "--b", "1", "--t-max", "0.1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "bohmosc tdse-check: out of memory"]


class TestFigureCommands:
    def test_fig1_surface(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape == (121 * 201, 3)
        origin = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0)][0]
        assert origin[2] == 0.5
        # global maximum of the surface sits at (t=0, x=0)
        assert np.argmax(data[:, 2]) == 100
        assert np.all(np.isfinite(data[:, 2]))
        # the t=0 slice changes sign at |x| = e^nu = rho(0) = 1
        x0, v0 = data[:201, 1], data[:201, 2]
        assert np.all(v0[np.abs(x0) <= 0.9] > 0)
        assert np.all(v0[np.abs(x0) >= 1.1] < 0)

    def test_fig2_surface(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape == (121 * 201, 3)
        origin = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0)][0]
        assert origin[2] == 0.5
        assert np.all(np.isfinite(data[:, 2]))

    def test_fig1_deterministic_and_thread_invariant(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig1", "--out", str(a)])
        main(["fig1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTransitionCommand:
    def test_scan_values(self, tmp_path):
        out = tmp_path / "transition.csv"
        assert main(["transition", "--out", str(out)]) == 0
        data = read_csv(out)
        assert header_of(out) == ["b", "V_B"]
        assert data.shape == (6, 2)
        # subcritical values collapse toward zero as b -> 2^-
        assert np.all(np.diff(data[:-1, 1]) < 0)
        assert data[-2, 0] == pytest.approx(2.0 - 1e-6)
        assert data[-2, 1] < 1e-3
        # final row: the critical branch stays finite
        assert data[-1, 0] == 2.0
        assert data[-1, 1] == pytest.approx(0.12803403138459582, abs=1e-14)
        assert data[-1, 1] - data[-2, 1] > 0.1

    def test_custom_b_values(self, tmp_path):
        out = tmp_path / "transition.csv"
        assert main(["transition", "--b-values", "1.0,1.5",
                     "--out", str(out)]) == 0
        assert read_csv(out).shape == (3, 2)

    def test_non_subcritical_values_rejected(self, tmp_path):
        assert main(["transition", "--b-values", "2.5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_b_values_rejected(self, tmp_path, capsys):
        # an empty list is refused, not read as the default slopes
        out = tmp_path / "x.csv"
        assert main(["transition", "--b-values", "", "--out", str(out)]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert "--b-values is empty" in line


# One run of each subcommand at exit 0, and of verify and tdse-check past
# their threshold (exit 3), with flags the manifest must record.
MANIFEST_RUNS = [
    pytest.param(["ermakov", "--b", "1", "--samples", "11"], 0,
                 {"b": 1.0, "samples": 11, "numeric": False}, id="ermakov"),
    pytest.param(["bohm", "--b", "1", "--nx", "11", "--nt", "3"], 0,
                 {"b": 1.0, "nx": 11, "nt": 3, "omega_table": None}, id="bohm"),
    pytest.param(["wavefunction", "--critical", "--nx", "11", "--nt", "3"], 0,
                 {"b": None, "critical": True, "nx": 11}, id="wavefunction"),
    pytest.param(["verify", "--b", "1", "--nx", "65", "--nt", "2"], 0,
                 {"nx": 65, "nt": 2, "threshold": None}, id="verify"),
    pytest.param(["verify", "--b", "1", "--nx", "65", "--threshold", "1e-12"], 3,
                 {"nx": 65, "threshold": 1e-12}, id="verify-threshold"),
    pytest.param(["tdse-check", "--b", "1", "--t-max", "0.2", "--dt", "1e-3",
                  "--samples", "2"], 0, {"t_max": 0.2, "min_fidelity": None},
                 id="tdse-check"),
    pytest.param(["tdse-check", "--b", "1", "--t-max", "0.2", "--dt", "1e-3",
                  "--samples", "2", "--min-fidelity", "1.1"], 3,
                 {"t_max": 0.2, "min_fidelity": 1.1}, id="tdse-check-min-fidelity"),
    pytest.param(["fig1"], 0, {}, id="fig1"),
    pytest.param(["fig2"], 0, {}, id="fig2"),
    pytest.param(["transition", "--b-values", "1.0,1.5"], 0,
                 {"b_values": "1.0,1.5", "t_probe": 1.0}, id="transition"),
]


class TestManifest:
    @pytest.mark.parametrize("argv, code, flags", MANIFEST_RUNS)
    def test_records_the_output_and_flags(self, tmp_path, argv, code, flags):
        out, manifest_path = tmp_path / "out.dat", tmp_path / "manifest.json"
        assert main(argv + ["--out", str(out), "--manifest", str(manifest_path)]) == code
        manifest = json.loads(manifest_path.read_text())
        assert manifest["tool"] == "bohmosc"
        assert manifest["subcommand"] == argv[0]
        blob = out.read_bytes()
        assert manifest["outputs"] == [{"path": str(out), "bytes": len(blob),
                                        "sha256": hashlib.sha256(blob).hexdigest()}]
        # every flag of the subcommand but --manifest, with its parsed value
        parameters = manifest["parameters"]
        parsed = vars(build_parser().parse_args(argv + ["--out", str(out)]))
        assert set(parameters) == set(parsed) - {"command", "func", "manifest"}
        assert parameters["out"] == str(out)
        assert {key: parameters[key] for key in flags} == flags

    @pytest.mark.parametrize("argv, code, flags", MANIFEST_RUNS)
    def test_failed_run_writes_no_manifest(self, tmp_path, capsys, argv, code, flags):
        manifest_path = tmp_path / "manifest.json"
        assert main(argv + ["--out", str(tmp_path / "missing" / "out.dat"),
                            "--manifest", str(manifest_path)]) == 2
        assert not manifest_path.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    # runs that would exit 0 and 3
    @pytest.mark.parametrize("argv", [
        ["fig1"], ["verify", "--b", "1", "--nx", "65", "--threshold", "1e-12"],
    ], ids=["exit-0", "exit-3"])
    def test_failed_manifest_write_removes_the_output(self, tmp_path, capsys, monkeypatch,
                                                     argv):
        # the record fails only when main writes it, after the run
        def fail(*_args, **_kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli.json, "dump", fail)
        out, manifest = tmp_path / "a.csv", tmp_path / "m.json"
        assert main(argv + ["--out", str(out), "--manifest", str(manifest)]) == 2
        assert not out.exists()
        assert not manifest.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"bohmosc {argv[0]}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["fig1"], ["verify", "--b", "1", "--nx", "65", "--threshold", "1e-12"],
    ], ids=["exit-0", "exit-3"])
    def test_failed_manifest_write_leaves_a_device_where_it_is(self, tmp_path, capsys,
                                                              argv):
        # links to the devices, so that a removal takes a link, not a device
        out, manifest = tmp_path / "null", tmp_path / "full"
        out.symlink_to("/dev/null")
        manifest.symlink_to("/dev/full")
        assert main(argv + ["--out", str(out), "--manifest", str(manifest)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"bohmosc {argv[0]}: ") and "No space left on device" in line
        assert out.is_symlink() and manifest.is_symlink()

    def test_output_larger_than_a_hash_chunk_keeps_its_digest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_HASH_CHUNK", 4099)
        out, manifest = tmp_path / "fig1.csv", tmp_path / "m.json"
        assert main(["fig1", "--out", str(out), "--manifest", str(manifest)]) == 0
        blob = out.read_bytes()
        assert len(blob) > 100 * 4099
        assert json.loads(manifest.read_text())["outputs"] == [
            {"path": str(out), "bytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}]

    # at 7 cells a block, the 11 x 3 sweep is written in 3 blocks, whose
    # counts the record must sum
    @pytest.mark.parametrize("cells", [cli._BLOCK_CELLS, 7], ids=["default", "7"])
    def test_debug_record_leaves_output_and_manifest_unchanged(self, tmp_path, monkeypatch,
                                                              caplog, cells):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
        argv = ["bohm", "--b", "1", "--nx", "11", "--nt", "3",
                "--out", "out.csv", "--manifest", "m.json"]
        for run in ("quiet", "loud"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            if run == "loud":
                assert not caplog.records
                caplog.set_level(logging.DEBUG, logger="bohmosc")
            assert main(argv) == 0
        for name in ("out.csv", "m.json"):
            assert (tmp_path / "loud" / name).read_bytes() == \
                (tmp_path / "quiet" / name).read_bytes()
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("bohmosc.cli", logging.DEBUG)
        rows, size, fallbacks, seconds = record.args
        assert (rows, size, fallbacks) == (33, (tmp_path / "loud" / "out.csv").stat().st_size, 0)
        assert seconds >= 0

    def test_manifest_without_out_exits_2(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        assert main(["verify", "--b", "1", "--manifest", str(manifest_path)]) == 2
        # refused before the report is built or printed
        assert capsys.readouterr() == ("", "bohmosc verify: --manifest needs --out\n")
        assert not manifest_path.exists()

    @pytest.mark.parametrize("manifest", ["same.csv", "sub/../same.csv", "link.csv"])
    def test_manifest_naming_the_output_exits_2(self, tmp_path, capsys, monkeypatch,
                                                manifest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to("same.csv")
        (tmp_path / "same.csv").write_text("kept\n")
        assert main(["fig1", "--out", "same.csv", "--manifest", manifest]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert (tmp_path / "same.csv").read_text() == "kept\n"


class TestCliPlumbing:
    def test_float_format_round_trips(self, tmp_path):
        out = tmp_path / "ermakov.csv"
        main(["ermakov", "--b", "1", "--samples", "7", "--out", str(out)])
        from bohmosc import closed_form_subcritical
        data = read_csv(out)
        for t, rho in zip(data[:, 0], data[:, 1]):
            assert rho == closed_form_subcritical(1.0, t)

    def test_missing_subcommand_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["bohm", "--b", "1", "--nt", "abc", "--out", "x.csv"],
        ["tdse-check", "--b", "1", "--dt", "-1e-4", "--out", "x.csv"],
        ["bohm", "--b", "1"],
        ["verify", "--order", "3"],
        [],
    ], ids=["invalid-int", "negative-value-as-option", "missing-out", "invalid-choice",
            "missing-subcommand"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert (out, line.startswith("bohmosc")) == ("", True)
        assert list(tmp_path.iterdir()) == []

    def test_help_prints_the_usage_to_stdout(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bohm", "--help"])
        assert raised.value.code == 0
        out, err = capsys.readouterr()
        assert (out.startswith("usage: bohmosc bohm"), "--nt" in out, err) == (True, True, "")

    @pytest.mark.parametrize("command", ["bohm", "wavefunction"])
    def test_failed_run_writes_no_file(self, tmp_path, command):
        out = tmp_path / "x.csv"
        assert main([command, "--b", "3", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bohm", "wavefunction"])
    def test_flag_error_leaves_an_existing_file_alone(self, tmp_path, command):
        out = tmp_path / "x.csv"
        out.write_bytes(b"kept\n")
        assert main([command, "--b", "3", "--out", str(out)]) == 2
        assert out.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("argv, cells", [
        *[(argv, cells) for argv in (
            ["bohm", "--b", "1", "--nt", "5", "--nx", "9"],
            ["wavefunction", "--critical", "--nt", "5", "--nx", "9"],
            ["ermakov", "--numeric", "--b", "1", "--samples", "50"],
            ["ermakov", "--omega-table", "table.csv", "--t-max", "5",
             "--samples", "50"],
        ) for cells in (1, 7, 40)],
        # fig1's 24321 rows one line a chunk take 5 s; at 7 they are cut
        # into the same one-time blocks
        (["fig1"], 7), (["fig1"], 40),
    ], ids=[f"{name}-{cells}" for name in ("bohm", "wavefunction", "ermakov-numeric",
                                           "ermakov-table") for cells in (1, 7, 40)]
        + ["fig1-7", "fig1-40"])
    def test_block_size_leaves_the_bytes_unchanged(self, tmp_path, monkeypatch,
                                                   argv, cells):
        # blocks of 1 to 50 times, rows of 9 or 201 cells and chunks of 1
        # to 13 lines: block and chunk ends fall at every offset of a time
        # slice and of the x row
        t = np.linspace(0.0, 5.0, 21)
        np.savetxt(tmp_path / "table.csv",
                   np.column_stack([t, 1.0 / (1.0 + t)]), delimiter=",")
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "default.csv"]) == 0
        monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
        assert main(argv + ["--out", "small.csv"]) == 0
        assert (tmp_path / "small.csv").read_bytes() == (
            tmp_path / "default.csv").read_bytes()

    @pytest.mark.parametrize("flags, reason", [
        (["--out", "nodir/x.out"], "no such directory"),
        (["--out", "x.out", "--manifest", "nodir/m.json"], "no such directory"),
        (["--out", "."], "is a directory"),
        (["--out", "x.out", "--manifest", "."], "is a directory"),
    ], ids=["out", "manifest", "out-directory", "manifest-directory"])
    @pytest.mark.parametrize("argv, work", [
        (["tdse-check", "--b", "1"], "propagate"),
        (["verify", "--b", "1"], "build_residual_report"),
    ], ids=["tdse-check", "verify"])
    def test_path_in_a_missing_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, flags, reason, argv, work):
        def refuse(*_args, **_kwargs):
            raise AssertionError(f"{work} called")

        monkeypatch.setattr(cli, work, refuse)
        monkeypatch.chdir(tmp_path)
        assert main(argv + flags) == 2
        assert list(tmp_path.iterdir()) == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"bohmosc {argv[0]}: {flags[-2]} {flags[-1]}: {reason}"

    def test_one_parser_gives_independent_namespaces(self, tmp_path):
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["ermakov", "--numeric", "--b", "1", "--out", "a.csv"])
        kept = dict(vars(first))
        second = parser.parse_args(["verify", "--critical"])
        assert vars(first) == kept
        assert (second.command, second.b, second.critical, second.out) == (
            "verify", None, True, None)
        assert not {"numeric", "samples", "rho0"} & set(vars(second))
        first.b, first.numeric = 7.0, False
        again = parser.parse_args(["ermakov", "--b", "2", "--out", "b.csv"])
        assert (again.b, again.numeric, again.out) == (2.0, False, "b.csv")
        assert (first.b, first.out) == (7.0, "a.csv")

    @pytest.mark.parametrize("command", ["ermakov", "bohm", "wavefunction", "verify",
                                         "tdse-check"])
    def test_missing_profile_names_the_profile_flags(self, tmp_path, capsys, command):
        out = tmp_path / "x.out"
        parsed = vars(build_parser().parse_args([command, "--out", str(out)]))
        defined = {"--" + key.replace("_", "-") for key in parsed} & {
            "--b", "--a", "--critical", "--omega-table"}
        assert main([command, "--out", str(out)]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"bohmosc {command}: give ")
        assert set(re.findall(r"--[a-z-]+", line)) == defined

    @pytest.mark.parametrize("argv", [
        ["bohm", "--b", "1", "--nt", "0"],
        ["wavefunction", "--b", "1", "--nx", "0"],
        ["ermakov", "--b", "1", "--samples", "0"],
        ["verify", "--b", "1", "--nt", "0"],
        ["verify", "--b", "1", "--refine", "0"],
        ["verify", "--b", "1", "--nx", "1"],
        # numeric-solve flags that the closed-form family path would ignore
        ["ermakov", "--b", "1", "--rho0", "2", "--rel-tol", "1e-3"],
        ["ermakov", "--b", "1", "--rho-dot0", "0.5"],
        ["ermakov", "--b", "1", "--rel-tol", "1e-3"],
        ["ermakov", "--b", "2", "--abs-tol", "1e-6"],
        ["verify", "--b", "1", "--x-min", "0", "--x-max", "0"],
        # below 100 machine epsilons, where the k-vs-2k gap nears rounding
        ["ermakov", "--numeric", "--b", "1", "--t-max", "5", "--rel-tol", "1e-15"],
    ])
    def test_empty_sweep_or_zero_spacing_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--b", "1.5"],
        ["bohm", "--critical"],
        ["ermakov", "--b", "1"],
        ["ermakov", "--a", "3", "--b", "1"],
        ["bohm", "--b", "0"],
        ["bohm", "--b", "-0.0"],
        ["ermakov", "--b", "0"],
        ["ermakov", "--a", "0", "--b", "0"],
    ])
    def test_omega_table_with_a_profile_flag_exits_2(self, tmp_path, capsys, argv):
        table = tmp_path / "omega.csv"
        t = np.linspace(0.0, 10.0, 101)
        np.savetxt(table, np.column_stack([t, 1.0 / (1.0 + 0.5 * t)]), delimiter=",")
        out = tmp_path / "x.out"
        assert main(argv + ["--omega-table", str(table), "--out", str(out)]) == 2
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["", "\n", "# t, omega\n"],
                             ids=["empty", "newline", "comment"])
    @pytest.mark.parametrize("command", ["bohm", "ermakov"])
    def test_omega_table_without_samples_exits_2(self, tmp_path, capsys, command, text):
        # numpy's loadtxt warns on such a file; that warning would print two
        # more lines to stderr, so here it would raise
        table = tmp_path / "omega.csv"
        table.write_text(text)
        out = tmp_path / "x.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--omega-table", str(table), "--out", str(out)]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert "holds no samples" in line

    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--critical", "--t-max", "inf"],
        ["transition", "--t-probe", "nan"],
        ["transition", "--x-probe", "nan"],
        ["bohm", "--b", "1", "--t-max", "nan"],
        ["verify", "--b", "1", "--dt", "nan"],
        ["tdse-check", "--b", "1", "--t-max", "0.01", "--x-max", "0"],
        ["tdse-check", "--b", "1", "--t-max", "0.01", "--x-max", "-4"],
        # psi0 is NaN on so coarse a grid
        ["tdse-check", "--critical", "--t-max", "0.01", "--x-max", "1e300"],
        # x^2 overflows
        ["bohm", "--b", "1", "--x-max", "1e300", "--nx", "3", "--nt", "2"],
        ["wavefunction", "--b", "1", "--x-max", "1e300", "--nx", "3", "--nt", "2"],
        # Omega = 1e6 over the window: refused before any step
        ["ermakov", "--a", "1e-6", "--b", "0"],
    ])
    def test_non_finite_float_or_empty_domain_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1


def naive_csv(header, columns):
    """Reference writer: every cell formatted on its own with "%.17g"."""
    columns = [np.atleast_2d(column) for column in np.broadcast_arrays(*columns)]
    n_rows, width = columns[0].shape
    lines = [",".join(header)]
    for i in range(n_rows):
        for k in range(width):
            lines.append(",".join("%.17g" % column[i, k] for column in columns))
    return ("\n".join(lines) + "\n").encode()


CSV_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.5e-310,
                     1e300, -1e-300, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def csv_columns(draw):
    """Columns of one table: 1-d ones, or an (n, m) table built from time
    columns (n, 1), position rows (1, m), cells (n, m) and constants."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        shapes = [(m,), (1,), ()]
    else:
        shapes = [(n, 1), (1, m), (n, m), (1, 1), ()]
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(shapes))
        if len(shape) == 2 and 1 in shape and draw(st.booleans()):
            # t[:, None] and x[None, :] have stride 0 along their new axis
            column = draw(arrays(np.float64, max(shape), elements=CSV_VALUES))
            columns.append(column[:, None] if shape[1] == 1 else column[None, :])
        else:
            columns.append(draw(arrays(np.float64, shape, elements=CSV_VALUES)))
    return columns


class TestWriteCsv:
    @given(csv_columns())
    @example([np.linspace(0.0, 1.0, 3)[:, None], np.linspace(-1.0, 1.0, 4)[None, :],
              np.full((3, 4), -0.0), np.full((1, 4), 5e-324)])
    @example([np.array([[np.nan]]), np.array([[np.inf], [-np.inf]])])
    @example([np.linspace(0.0, 1.0, 3)[:, None], np.float64(-0.0)])
    def test_matches_a_writer_that_formats_every_cell(self, columns):
        header = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "table.csv")
            _write_csv(path, header, [columns])
            with open(path, "rb") as handle:
                written = handle.read()
        assert written == naive_csv(header, columns)

    @pytest.mark.parametrize("cells", [1, 7, 40, 2**15])
    def test_blocks_may_split_slices(self, tmp_path, monkeypatch, cells):
        # blocks of 1, 1, 6 and all 45 rows: the time column's slices of 9
        # rows and the position row's 9 cells are cut at every offset
        monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
        t = np.linspace(0.0, 1.0, 5)[:, None]
        x = np.linspace(-2.0, 2.0, 9)[None, :]
        columns = [t, x, np.exp(-x**2) * (t - 0.5), np.float64(-0.0), 1e-300 * x + t]
        header = ["t", "x", "f", "z", "g"]
        path = tmp_path / "table.csv"
        _write_csv(str(path), header, [columns])
        assert path.read_bytes() == naive_csv(header, columns)

    @given(csv_columns(), st.sets(st.integers(1, 3), max_size=3))
    def test_blocks_of_rows_match_the_whole_table(self, columns, cuts):
        # columns that vary along the leading axis are cut at the drawn
        # rows; the others, broadcast along it, go whole into every block
        shape = np.broadcast_shapes(*(np.shape(column) for column in columns))
        n = shape[0] if shape else 1
        bounds = [0, *sorted(cut for cut in cuts if cut < n), n]
        blocks = [[column[lo:hi] if np.ndim(column) == len(shape) > 0
                   and np.shape(column)[0] == n else column for column in columns]
                  for lo, hi in zip(bounds, bounds[1:])]
        header = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "table.csv")
            _write_csv(path, header, blocks)
            with open(path, "rb") as handle:
                written = handle.read()
        assert written == naive_csv(header, columns)

    def test_a_row_changed_between_blocks_is_written_as_it_is(self, tmp_path):
        # the same (1, 2) row object in both blocks of two times, scaled in
        # place after the first was written
        x = np.array([[1.0, 2.0]])
        held = []

        def blocks():
            for t in ([[0.0], [0.5]], [[1.0], [1.5]]):
                block = [np.array(t), x]
                held.append([column.copy() for column in block])
                yield block
                x[:] *= 10.0

        path = tmp_path / "table.csv"
        _write_csv(str(path), ["t", "x"], blocks())
        lines = [line for block in held
                 for line in naive_csv(["t", "x"], block).splitlines()[1:]]
        assert path.read_bytes() == b"\n".join([b"t,x", *lines, b""])
        assert b"\n1,10\n1,20\n" in path.read_bytes()

    def test_a_block_that_raises_leaves_no_file(self, tmp_path):
        def blocks():
            yield [np.linspace(0.0, 1.0, 3)]
            raise FloatingPointError("overflow encountered in multiply")

        path = tmp_path / "table.csv"
        with pytest.raises(FloatingPointError):
            _write_csv(str(path), ["t"], blocks())
        assert not path.exists()

    def test_a_first_block_that_raises_leaves_the_file_as_it_was(self, tmp_path):
        def blocks():
            raise FloatingPointError("overflow encountered in multiply")
            yield

        path = tmp_path / "table.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(FloatingPointError):
            _write_csv(str(path), ["t"], blocks())
        assert path.read_bytes() == b"kept\n"


def float_corpus():
    """Values that test "%.17g", each also negated: random bit patterns
    over every exponent, subnormals, infinities and NaNs included; every
    power of ten from 1e-320 to 1e308 with both neighbours; the %g switch
    points with theirs; +-0; dyadic and decimal fractions; exact ties at
    the 17th digit; integers up to 1e17; short decimals of every digit
    count at each exponent from -7 to 18, which reach every layout of the
    kernel; and the longest texts."""
    rng = np.random.default_rng(20261019)
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99999999999999955e-5,
                         9.9999999999999995e16, 5e-324, 2.2250738585072014e-308])
    k = np.arange(1, 2**14)
    parts = [
        rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
        [0.0, np.inf, np.nan, 1.7976931348623157e308],
        k / 2.0**14, k / 1000.0, k * 0.1, k / 3.0,
        (4e15 + 2 * np.arange(1000) + 1) / 4,  # ...25 and ...75: ties to even
        rng.integers(0, 10**17, 50_000).astype(np.float64),
        np.arange(2.0**15),
        [float(f"{lead * 10**(count - 1) + last}e{x - count + 1}") for x in range(-7, 19)
         for count in range(1, 18) for lead in (1, 2)
         for last in (range(1, 10) if count > 1 else [0])],
        [1.2345678901234567e-308, 1234567890123456.7],
    ]
    values = np.concatenate([np.asarray(part, np.float64) for part in parts])
    return np.concatenate([values, -values])


def formatted(values, sep=b","):
    """The kernel's text of values and its count of "%.17g" fallbacks."""
    canvas = np.empty((values.size, floatfmt.CELL_WORDS), np.uint64)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        fallbacks = floatfmt.format_into(canvas, values, sep)
    return canvas.tobytes().translate(None, b"\0"), fallbacks


def assert_percent_g(text, values):
    cells = text.split(b",")
    assert cells.pop() == b""
    wrong = [(v, cell) for v, cell in zip(values.tolist(), cells) if cell != b"%.17g" % v]
    assert (len(cells), wrong[:5]) == (values.size, [])


class TestFloatText:
    def test_matches_percent_g_on_a_corpus(self, monkeypatch):
        # a table of scales built from nothing, grown at both ends by blocks
        # in shuffled order
        monkeypatch.setattr(floatfmt, "_scales", functools.cache(floatfmt._Scales))
        values = float_corpus()
        assert values.size > 10**5
        shuffled = np.random.default_rng(7).permutation(values)
        texts, fallbacks = zip(*(formatted(block) for block in np.array_split(shuffled, 97)))
        assert_percent_g(b"".join(texts), shuffled)
        # the listed ties, NaNs and infinities, and the random patterns of
        # 1e11 to 1e16, whose few fraction bits often end in an exact tie
        ties = 2 * 1000
        special = 2 * np.count_nonzero(~np.isfinite(values[:values.size // 2]))
        assert ties + special <= sum(fallbacks) < values.size // 100

    def test_every_value_through_the_fallback(self, monkeypatch):
        monkeypatch.setattr(floatfmt, "TIE_MARGIN", 1.0)
        values = float_corpus()[::97]
        text, fallbacks = formatted(values)
        assert fallbacks == values.size
        assert_percent_g(text, values)

    def test_every_layout_fits_its_cell(self):
        # The corpus reaches every (sign, %g form, digit count) layout, read
        # from the "%.16e" text.  For each layout, and each count of
        # exponent digits, a row of CELL_WORDS words holds the "%.17g" text
        # of one value and its separator, the longest texts among them.
        values = float_corpus()
        finite = values[np.isfinite(values)]
        magnitudes, inverse = np.unique(np.abs(finite), return_inverse=True)
        text = np.array(["%.16e" % a for a in magnitudes.tolist()], "S23")
        text = text.view(np.uint8).reshape(-1, 23).astype(np.int16)
        count = np.max(np.where(text[:, [0, *range(2, 18)]] > 48, np.arange(1, 18), 1), axis=1)
        x = 10 * text[:, 20] + text[:, 21] - 11 * 48
        x = np.where(text[:, 22] > 0, 10 * x + text[:, 22] - 48, x) * (44 - text[:, 19])
        form = np.where((x >= -4) & (x <= 16), x + 4, 21)
        layout = (np.signbit(finite) * 22 + form[inverse]) * 17 + count[inverse] - 1
        kinds, first = np.unique(2 * layout + (text[inverse, 22] > 0), return_index=True)
        assert np.unique(kinds // 2).size == 2 * 22 * 17
        longest = [-1.2345678901234567e-308, -1234567890123456.7]
        assert np.isin(longest, values).all()
        sample = np.concatenate([finite[first], longest, [np.nan, -np.inf]])
        canvas = np.empty((sample.size, floatfmt.CELL_WORDS), np.uint64)
        floatfmt.format_into(canvas, sample, b",")
        cells = [b"%.17g," % v for v in sample.tolist()]
        assert [row.tobytes().translate(None, b"\0") for row in canvas] == cells
        assert max(map(len, cells)) == 25 <= 8 * floatfmt.CELL_WORDS
        assert {b"-1.2345678901234567e-308,", b"-1234567890123456.8,"} <= set(cells)

    def test_importing_the_cli_builds_no_table(self):
        # the CLI loads the kernel on its first write; loaded, it has built
        # no table and holds no array
        probe = (
            "import json, sys, numpy as np, bohmosc.cli as cli\n"
            "loaded = 'bohmosc.floatfmt' in sys.modules\n"
            "import bohmosc.floatfmt as f\n"
            "built = [g.cache_info().currsize\n"
            "         for g in (f._digit_tables, f._layouts, f._tails, f._scales)]\n"
            "arrays = [name for module in (f, cli) for name, value in vars(module).items()\n"
            "          if isinstance(value, np.ndarray)]\n"
            "print(json.dumps([loaded, built, arrays]))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [False, [0, 0, 0, 0], []]


# The CLI contract: any argv the flag grammar allows ends in exit 0, 2 or 3
# with at most one line on stderr, never in an exception.  Grid sizes,
# refinement levels and the tdse-check window are bounded so that no run
# allocates a large grid or takes long; so are the ermakov window and --a,
# since Omega = 1/a needs about t-max/a steps.
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, -1e-300,
                                  1e300, -1e300, np.nan, np.inf, -np.inf])


def floats(low=-10.0, high=10.0):
    return st.one_of(st.floats(low, high), SPECIAL_FLOATS)


def sizes(high=64, usual=()):
    return st.one_of(st.integers(-1, high), st.sampled_from(usual or [high]))


def value(flag, values):
    """One --flag=value token; = keeps values such as -inf off the option list."""
    return values.map(lambda v: [f"{flag}={v!r}" if isinstance(v, float)
                                 else f"{flag}={v}"])


def switch(flag):
    return st.just([flag])


def sum_lists(lists):
    return [token for tokens in lists for token in tokens]


def either(*choices):
    """Tokens of one of the choices, each drawn as often as it is listed.
    st.one_of would drop a repeated strategy, and so could not weight."""
    return st.sampled_from(choices).flatmap(lambda tokens: tokens)


SLOPES = st.one_of(st.floats(0.0, 2.5), SPECIAL_FLOATS)
TABLES = st.sampled_from(["table.csv"] * 4 + ["one_column.csv", "decreasing.csv",
                                              "text.csv", "missing.csv"])
# table.csv covers [0, 20], the widest window the grammar draws (ermakov's
# --t-max, and its default 10), so that a drawn table solve can complete.
TABLE_FILES = {
    "table.csv": "\n".join(f"{t:g},{1.0 / (1.0 + t):g}"
                           for t in np.arange(0.0, 20.05, 0.1)),
    "one_column.csv": "0\n1\n2",
    "decreasing.csv": "1,1\n0,1",
    "text.csv": "t,omega\nzero,one",
}

# Each entry of a grammar is a strategy for its tokens; an entry named in
# REQUIRED is always drawn, any other a third of the time.
OUT = {"out": value("--out", st.sampled_from(["out.csv"] * 5 + ["missing/out.csv"])),
       "manifest": value("--manifest", st.just("manifest.json"))}
# One branch flag is drawn four times as often as none or both.
BRANCH = {"branch": st.one_of(value("--b", SLOPES), switch("--critical"),
                              value("--b", SLOPES), switch("--critical"), st.just([]),
                              value("--b", SLOPES).map(["--critical"].__add__))}
# bohm and wavefunction take their profile from a branch flag or a table:
# one entry draws a branch flag, a table (twice as often), a table beside a
# branch flag (refused before the table is read) or neither.  Drawn apart,
# a branch flag came with nearly every table and the table was never read.
TABLE = value("--omega-table", TABLES)
PROFILE = {"profile": either(
    value("--b", SLOPES), switch("--critical"), TABLE, TABLE, st.just([]),
    st.tuples(TABLE, st.one_of(value("--b", SLOPES), switch("--critical"))).map(
        sum_lists))}
# ermakov takes its profile from a table, --a with --b, or the family --b:
# one entry draws one of these (a table twice as often), none, or a table
# beside --b or --a.
A_VALUE = value("--a", st.one_of(SPECIAL_FLOATS, st.floats(0.05, 4.0)))
ERMAKOV_PROFILE = {"profile": either(
    TABLE, TABLE, st.tuples(A_VALUE, value("--b", SLOPES)).map(sum_lists),
    value("--b", SLOPES), st.just([]),
    st.tuples(TABLE, st.one_of(value("--b", SLOPES), A_VALUE)).map(sum_lists))}
FIELD_GRID = {"x-min": value("--x-min", floats()), "x-max": value("--x-max", floats()),
              "nx": value("--nx", sizes(usual=[2, 11])),
              "t-max": value("--t-max", st.one_of(floats(), st.floats(0.0, 2.0))),
              "nt": value("--nt", sizes(usual=[1, 5]))}
GRAMMAR = {
    "ermakov": {**ERMAKOV_PROFILE,
                "t-max": value("--t-max", st.floats(-1.0, 20.0)),
                "samples": value("--samples", sizes()), "numeric": switch("--numeric"),
                "rho0": value("--rho0", floats()),
                "rho-dot0": value("--rho-dot0", floats()),
                "rel-tol": value("--rel-tol", floats()),
                "abs-tol": value("--abs-tol", floats()), **OUT},
    "bohm": {**PROFILE, **FIELD_GRID, **OUT},
    "wavefunction": {**PROFILE, **FIELD_GRID, **OUT},
    "verify": {**BRANCH,
               "x-min": value("--x-min", st.floats(-20.0, 20.0)),
               "x-max": value("--x-max", st.floats(-20.0, 20.0)),
               "t-max": value("--t-max", floats()),
               "nt": value("--nt", sizes(usual=[1, 3])),
               "nx": value("--nx", sizes(usual=[2, 17])),
               "dt": value("--dt", floats()), "refine": value("--refine", sizes(2)),
               "order": value("--order", st.sampled_from([2, 4])),
               "threshold": value("--threshold", floats()), **OUT},
    "tdse-check": {**BRANCH,
                   "t-max": value("--t-max", st.one_of(st.floats(-0.01, 0.01),
                                                       st.sampled_from([0.01, 0.005]))),
                   "dt": value("--dt", st.one_of(st.sampled_from([0.0, -1e-3, np.nan]),
                                                 st.sampled_from([1e-4, 1e-3, 2.5e-3]),
                                                 st.floats(1e-4, 1.0))),
                   "n": value("--n", sizes(usual=[16, 32, 64])),
                   "x-max": value("--x-max", floats(-10.0, 50.0)),
                   "samples": value("--samples", sizes(usual=[2, 3])),
                   "min-fidelity": value("--min-fidelity", floats()), **OUT},
    "fig1": OUT,
    "fig2": OUT,
    "transition": {"t-probe": value("--t-probe", floats()),
                   "x-probe": value("--x-probe", floats()),
                   "b-values": value("--b-values", st.one_of(
                       st.lists(floats(-1.0, 3.0), min_size=1, max_size=4).map(
                           lambda bs: ",".join(map(repr, bs))),
                       st.sampled_from(["", "one", "1,,2"]))),
                   **OUT},
}
REQUIRED = {"out", "branch", "profile", "tdse-check t-max"}
PATH_FLAGS = ("--out=", "--manifest=", "--omega-table=")


@st.composite
def cli_argv(draw, command):
    argv = [command]
    for name, tokens in GRAMMAR[command].items():
        if {name, f"{command} {name}"} & REQUIRED or draw(st.integers(0, 2)) == 0:
            argv += draw(tokens)
    return argv


class TestCliContract:
    @settings(max_examples=150)
    @given(st.sampled_from(sorted(GRAMMAR)).flatmap(cli_argv))
    def test_random_argv_exits_with_at_most_one_line(self, argv):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            for name, text in TABLE_FILES.items():
                with open(os.path.join(directory, name), "w") as handle:
                    handle.write(text + "\n")
            argv = [arg.replace("=", "=" + directory + os.sep, 1)
                    if arg.startswith(PATH_FLAGS) else arg for arg in argv]
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        assert code in (0, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
