"""The names of bohmosc that the benchmark harness under perfbench/ reads.

The harness wraps methods through their owner's __dict__ and calls a few
library functions itself.  Its modules are loaded here by path, as they
are, so that renaming or deleting a name it reads fails this suite and not
only the harness's own self-test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bohmosc.cli  # the harness wraps names of bohmosc.cli too

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def load(monkeypatch):
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module
    return load


def test_every_wrapped_name_is_in_its_owners_dict(load):
    spans = load("spans")
    points = spans._patch_points(bohmosc)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in points if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("b", [1.0, 2.0])
def test_gaussian_bohm_potential_of_the_harness_scale(load, b):
    jobs = load("jobs")
    x = np.linspace(-5.0, 5.0, 101)[None, :]
    t = np.linspace(0.0, 6.0, 61)[:, None]
    v_b = jobs.bohm_potential_gaussian(x, t, jobs.rational_construction(b).scale)
    if b == 2.0:
        exact = jobs.bohm_potential_critical(x, t)
    else:
        exact = jobs.bohm_potential_subcritical(b, x, t)
    assert np.max(np.abs(v_b - exact)) < 1e-12
