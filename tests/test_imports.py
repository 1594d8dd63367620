"""That no CLI path loads a scipy module, checked in fresh processes.

The closed-form subcommands only evaluate formulas.  tdse-check loads
the pocketfft binding (scipy.fft._pocketfft.pypocketfft) from its
extension file on its first propagation, not through scipy.fft.  Every
numeric solve takes Magnus steps in numpy: ermakov --numeric, ermakov
--a/--b, ermakov and bohm --omega-table, a table of 2**20 steps
included.  So importing the package and running any subcommand must
leave no scipy or scipy.* module loaded.  Each case needs a fresh
interpreter, because the test process has long since imported scipy.  So
does the stderr of a failing run: under pytest, numpy warnings are
recorded, not printed.

The package's own names are checked here too: it exports each module's
__all__ and nothing else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bohmosc
from bohmosc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package, then runs each argv (a JSON list of lists) through
# cli.main in turn, printing its exit code and the scipy modules loaded so far.
_RUNS = """
import json, sys
import bohmosc, bohmosc.cli
for argv in json.loads(sys.argv[1]):
    code = bohmosc.cli.main(argv)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps([code, loaded]))
"""


def _python(args, cwd):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def _loaded_after_each(runs, cwd):
    """[(exit code, scipy modules loaded by then)] per argv, in one fresh process."""
    done = _python(["-c", _RUNS, json.dumps(runs)], cwd)
    assert done.returncode == 0, done.stderr
    return [(code, set(loaded)) for code, loaded in map(json.loads, done.stdout.splitlines())]


def test_no_subcommand_loads_scipy(tmp_path):
    runs = [["fig1"], ["fig2"], ["bohm", "--b", "1"], ["wavefunction", "--critical"],
            ["verify", "--b", "1"], ["transition"], ["ermakov", "--b", "1"],
            ["tdse-check", "--b", "1", "--t-max", "0.01"]]
    runs = [argv + ["--out", f"{argv[0]}.out"] for argv in runs]
    assert _loaded_after_each(runs, tmp_path) == [(0, set())] * len(runs)


def test_long_table_solve_loads_no_scipy(tmp_path):
    # Omega ramps from 20 to 40 over [0, 10], then stays at 40 for 127
    # samples 0.05 apart: from rho = 1 that takes 2**20 Magnus steps
    t = np.concatenate(([0.0], 10.0 + 0.05 * np.arange(128)))
    omega = np.concatenate(([20.0], np.full(128, 40.0)))
    (tmp_path / "table.csv").write_text(
        "".join(f"{s:.17g},{w:.17g}\n" for s, w in zip(t, omega)))
    assert _loaded_after_each(
        [["ermakov", "--omega-table", "table.csv", "--t-max", "16.35",
          "--out", "ermakov.csv"]], tmp_path) == [(0, set())]


def test_smooth_numeric_solves_load_no_integrator(tmp_path):
    runs = _loaded_after_each(
        [["ermakov", "--numeric", "--b", "1", "--t-max", "50", "--out", "numeric.csv"],
         ["ermakov", "--a", "0.8", "--b", "1.2", "--t-max", "5", "--out", "ab.csv"]],
        tmp_path)
    assert runs == [(0, set())] * 2


def test_table_solve_loads_no_integrator(tmp_path):
    (tmp_path / "table.csv").write_text(
        "".join(f"{t:.17g},{1.0 / (1.0 + t):.17g}\n" for t in np.arange(0.0, 6.05, 0.1)))
    assert _loaded_after_each(
        [["bohm", "--omega-table", "table.csv", "--out", "bohm.csv"]], tmp_path) == [(0, set())]


def test_python_m_bohmosc_writes_what_main_writes(tmp_path):
    done = _python(["-m", "bohmosc", "fig1", "--out", "module.csv"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert main(["fig1", "--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_floating_point_error_prints_one_line(tmp_path):
    done = _python(["-m", "bohmosc", "tdse-check", "--critical", "--t-max", "0.01",
                    "--x-max", "1e300", "--out", "tdse.csv"], tmp_path)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert not (tmp_path / "tdse.csv").exists()


def test_the_package_exports_each_modules_names_once():
    # __version__, then each module's __all__: every name once, bound to
    # the module's own object, so a module lists only what the package exports
    modules = [bohmosc.frequency, bohmosc.ermakov, bohmosc.madelung, bohmosc.verify,
               bohmosc.tdse]
    listed = [name for module in modules for name in module.__all__]
    assert bohmosc.__all__ == ["__version__", *listed]
    assert len(set(bohmosc.__all__)) == len(bohmosc.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(bohmosc, name) is getattr(module, name), name
