"""Outside-in spans around the public names the bohmosc CLI calls into.

While a traced pass runs, the tracer replaces attributes of the package's
modules and classes with timing wrappers and puts the originals back when
the pass ends, so no source file changes and an untraced pass runs the
original code.  Jobs run on one thread, so spans nest on a single stack;
a span's self time is its duration minus the durations of its direct
children.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

# Computed (not measured) traffic of one Strang step: the complex128 state
# streams through five array passes (kick, FFT, kinetic multiply, inverse
# FFT, kick), each reading and writing n values of 16 bytes.
_BYTES_PER_POINT_STEP = 5 * 2 * 16
# Two transforms per step, plus one for the momentum-width check per call.
_FFTS_PER_STEP = 2

LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("frequency.omega.calls", "count"),
    ("frequency.omega.points", "count"),
    ("frequency.omega.self_s", "s"),
    ("ermakov.solve.calls", "count"),
    ("ermakov.solve.self_s", "s"),
    ("ermakov.solve.omega_calls", "count"),
    ("ermakov.nodes", "count"),
    ("madelung.construction.self_s", "s"),
    ("madelung.psi.calls", "count"),
    ("madelung.psi.cells", "count"),
    ("madelung.psi.self_s", "s"),
    ("madelung.fields.calls", "count"),
    ("madelung.fields.self_s", "s"),
    ("verify.report.calls", "count"),
    ("verify.report.self_s", "s"),
    ("tdse.propagate.self_s", "s"),
    ("tdse.steps", "count"),
    ("tdse.step_us.n512", "us"),
    ("tdse.step_us.n4096", "us"),
    ("tdse.fidelity.self_s", "s"),
    ("tdse.fft_calls.computed", "count"),
    ("tdse.bytes_per_step.computed", "B"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span and count accumulator for one traced pass over a workload."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # open spans as [name, seconds covered by children]
        self._open = defaultdict(int)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; return (result, seconds)."""
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self._open[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        return result, elapsed

    def _wrapper(self, name, fn, before=None, after=None, parent=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if parent is not None and tracer._stack[-1][0] != parent:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, *args, **kwargs)
            result, elapsed = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, elapsed, result, *args, **kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hooks in _patch_points(package):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_cli(self, main, argv):
        """Run one CLI invocation as the root span "cli"."""
        return self.span("cli", main, argv)[0]

    def layer_metrics(self) -> dict:
        """Per-layer values of this pass; cli.csv_bytes and the overhead
        come from the runner."""
        c, s, n = self.counts, self.self_s, self.calls
        steps = c["tdse.steps"]

        def per_step_us(grid_n):
            taken = c[f"tdse.steps.n{grid_n}"]
            return 1e6 * c[f"tdse.seconds.n{grid_n}"] / taken if taken else 0.0

        return {
            "cli.self_s": s["cli"],
            "frequency.omega.calls": n["frequency.omega"],
            "frequency.omega.points": c["frequency.omega.points"],
            "frequency.omega.self_s": s["frequency.omega"],
            "ermakov.solve.calls": n["ermakov.solve"],
            "ermakov.solve.self_s": s["ermakov.solve"],
            "ermakov.solve.omega_calls": c["ermakov.solve.omega_calls"],
            "ermakov.nodes": c["ermakov.nodes"],
            "madelung.construction.self_s": s["madelung.construction"],
            "madelung.psi.calls": n["madelung.psi"],
            "madelung.psi.cells": c["madelung.psi.cells"],
            "madelung.psi.self_s": s["madelung.psi"],
            "madelung.fields.calls": n["madelung.fields"],
            "madelung.fields.self_s": s["madelung.fields"],
            "verify.report.calls": n["verify.report"],
            "verify.report.self_s": s["verify.report"],
            "tdse.propagate.self_s": s["tdse.propagate"],
            "tdse.steps": steps,
            "tdse.step_us.n512": per_step_us(512),
            "tdse.step_us.n4096": per_step_us(4096),
            "tdse.fidelity.self_s": s["tdse.fidelity"],
            "tdse.fft_calls.computed": c["tdse.fft_calls"],
            "tdse.bytes_per_step.computed": c["tdse.bytes"] / steps if steps else 0.0,
        }


# ------------------------------------------------------------------ hooks

def _count_omega(tracer, _profile, t):
    tracer.counts["frequency.omega.points"] += np.size(t)
    if tracer._open["ermakov.solve"]:
        tracer.counts["ermakov.solve.omega_calls"] += 1


def _count_nodes(tracer, _elapsed, solution, *_args, **_kwargs):
    tracer.counts["ermakov.nodes"] += solution.rho.x.size


def _count_cells(tracer, _construction, grid, times):
    tracer.counts["madelung.psi.cells"] += np.size(times) * grid.n


def _count_steps(tracer, elapsed, _result, psi0, config, t_end, **_kwargs):
    n = config.grid.n
    steps = int(round((t_end - float(psi0.times[0])) / config.dt))
    c = tracer.counts
    c["tdse.steps"] += steps
    c[f"tdse.steps.n{n}"] += steps
    c[f"tdse.seconds.n{n}"] += elapsed
    c["tdse.fft_calls"] += _FFTS_PER_STEP * steps + 1
    c["tdse.bytes"] += _BYTES_PER_POINT_STEP * n * steps


def _patch_points(package):
    """(owner, attribute, span name, hooks) for every wrapped public name.

    Names are wrapped where the CLI looks them up.  solve_numeric is also
    wrapped in madelung, whose numeric_construction calls it.  Field
    functions count only when the CLI calls them directly; evaluations
    inside Construction.psi or a residual report belong to that span.
    """
    cli, madelung = package.cli, package.madelung
    fields = dict(parent="cli")
    points = [
        (package.frequency.FrequencyProfile, "omega", "frequency.omega",
         dict(before=_count_omega)),
        (package.frequency.FrequencyProfile, "__call__", "frequency.omega",
         dict(before=_count_omega)),
        (cli, "solve_numeric", "ermakov.solve", dict(after=_count_nodes)),
        (madelung, "solve_numeric", "ermakov.solve", dict(after=_count_nodes)),
        (cli, "rational_construction", "madelung.construction", {}),
        (cli, "numeric_construction", "madelung.construction", {}),
        (madelung.Construction, "psi", "madelung.psi", dict(before=_count_cells)),
        (madelung.PhaseField, "S", "madelung.fields", fields),
        (cli, "build_residual_report", "verify.report", {}),
        (cli, "propagate", "tdse.propagate", dict(after=_count_steps)),
        (cli, "fidelity", "tdse.fidelity", {}),
    ]
    for field in ("amplitude_gaussian", "bohm_potential_gaussian",
                  "bohm_potential_subcritical", "bohm_potential_critical",
                  "classical_potential"):
        points.append((cli, field, "madelung.fields", fields))
    return points
