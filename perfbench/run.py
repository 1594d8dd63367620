#!/usr/bin/env python3
"""Benchmark of the bohmosc command line, end to end and per layer.

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's src/ directory.  One process acts as a single
closed-loop client: it calls `bohmosc.cli.main(argv)` for each job of the
workload in turn, each job starting when the previous one has finished,
and repeats whole passes over the job list for about --seconds seconds.
Every job's output is checked against its oracle (see jobs.py).

Each job is timed in seconds and, to cancel the host's speed swings, in
units of a fixed reference kernel timed around and during it; the import
that sets up a run is scaled by a Python kernel the same way (speed.py).
With --trace 0 the last line holds the end-to-end metrics of untraced
passes.  With --trace 1 the run alternates untraced and traced passes and
the last line holds the per-layer metrics of the traced ones (spans.py).
A run record with the environment, every job and its output digests is
written under perfbench/out/records/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_REPS, SpeedProbe, reference_seconds, timed_import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
_IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                 "from speed import timed_import; print(*timed_import('bohmosc.cli'))")

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "job_ref.p50": "ref",
             "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("propagate", "surface", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """Import bohmosc.cli from the checkout; return (package, setup sample),
    a sample being (import seconds, the same scaled by the Python kernel)."""
    if not (SRC / "bohmosc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no bohmosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sample = timed_import("bohmosc.cli")
    import bohmosc
    if Path(bohmosc.__file__).resolve().parent != SRC / "bohmosc":
        raise SystemExit(f"perfbench: imported bohmosc from {bohmosc.__file__}, "
                         f"not from {SRC}")
    return bohmosc, sample


def setup_in_fresh_process():
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return tuple(float(v) for v in done.stdout.split()[-2:])


# ---------------------------------------------------------------- passes

@contextlib.contextmanager
def workdir(name, inputs):
    """Work inside a fresh directory under perfbench/out that holds the
    input files (name -> text); remove it afterwards."""
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for filename, text in inputs.items():
            Path(filename).write_text(text)
        yield
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


class Outcome:
    """One job of one pass: time, time in reference units, exit code,
    oracle verdict, whether that failure is a known one, output digest."""

    def __init__(self, job, seconds, reference, code, stderr):
        self.job = job
        self.seconds = seconds
        self.reference = reference
        self.ref = seconds / reference
        self.code = code
        self.failure = None
        self.sha256 = None
        self.rows = 0
        self.csv_bytes = 0
        if code != 0:
            lines = stderr.strip().splitlines()
            self.failure = f"exit {code}: {lines[-1] if lines else ''}"
            return
        try:
            blob = Path(job.out).read_bytes()
            self.sha256 = hashlib.sha256(blob).hexdigest()
            if job.out.endswith(".csv"):
                self.rows = blob.count(b"\n") - 1
                self.csv_bytes = len(blob)
            self.failure = job.check(job.out)
        except (OSError, ValueError, KeyError, IndexError) as error:
            self.failure = f"unreadable output: {error}"

    @property
    def known(self):
        return self.failure is not None and self.job.is_known(self.failure)


def _call(main, argv, tracer):
    """Run one CLI invocation; return its exit code and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = tracer.run_cli(main, argv) if tracer else main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception as error:  # a traceback is a failed job
            stderr.write(f"{type(error).__name__}: {error}")
            code = "traceback"
    return code, stderr.getvalue()


def run_pass(package, jobs, tracer=None):
    """Run every job once, in order.  Returns (job, seconds, reference,
    exit code, stderr) per job.

    `reference` is the kernel time at the job's mean host speed: the mean
    of the kernel runs before and after the job and, in an untraced pass,
    of the SpeedProbe samples taken during it, whose time `seconds`
    excludes.  Traced passes take no samples, which would fall inside
    spans.  Oracles run later, after the wrappers are removed, so they add
    no spans either."""
    main = package.cli.main
    timed = []
    with tracer.installed(package) if tracer else contextlib.nullcontext():
        before = reference_seconds() / REFERENCE_REPS
        for job in jobs:
            Path(job.out).unlink(missing_ok=True)
            probe = SpeedProbe()
            if not tracer:
                probe.start()
            start = perf_counter()
            try:
                code, stderr = _call(main, list(job.argv), tracer)
            finally:
                if not tracer:
                    probe.stop()
            seconds = perf_counter() - start - probe.spent
            after = reference_seconds() / REFERENCE_REPS
            reference = REFERENCE_REPS * statistics.mean([before, *probe.per_rep, after])
            before = after
            timed.append((job, seconds, reference, code, stderr))
    return timed


def checked(timed):
    return [Outcome(*entry) for entry in timed]


def measure(package, jobs, seconds, traced_too, new_tracer):
    """Whole passes until `seconds` have elapsed, or until the next pass,
    if it took as long as the last, would end after 1.2 x `seconds`.  With
    `traced_too`, each untraced pass is followed by a traced one.

    Returns the untraced passes, the traced (pass, tracer) pairs, and the
    process's peak RSS in kB after the first pass's jobs, before any
    oracle has read an output."""
    untraced, traced, peak_kb = [], [], None
    reference_seconds()  # first call pays for numpy's FFT set-up
    start = perf_counter()
    while True:
        began = perf_counter()
        timed = run_pass(package, jobs)
        if peak_kb is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        untraced.append(checked(timed))
        if traced_too:
            tracer = new_tracer()
            traced.append((checked(run_pass(package, jobs, tracer)), tracer))
        now = perf_counter()
        if now - start >= seconds or 2 * now - start - began > 1.2 * seconds:
            return untraced, traced, peak_kb


# --------------------------------------------------------------- metrics

def tail_percentile(samples):
    """Highest of p99/p90 with at least ten samples above it, or None."""
    ordered = sorted(samples)
    for pct in (99, 90):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(ordered, n=100)[pct - 1]
    return None


def end_to_end(passes, setup_samples, peak_kb):
    """The gated metrics: defined, and never zero, on every workload."""
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "wall_ref": statistics.median(sum(o.ref for o in p) for p in passes),
        # The median job, each job taken at its median over the passes: a
        # job of several seconds can span a speed change, and its cost in
        # one pass is then off by up to 15%.
        "job_ref.p50": statistics.median(
            statistics.median(p[i].ref for p in passes) for i in range(len(passes[0]))),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def printed_lines(jobs, passes, setup_samples, attempted, failed):
    """Metrics printed but not gated: wall-clock times, which follow the
    host's speed swings, and metrics that exist only on some workloads."""
    samples = [o.seconds for p in passes for o in p]
    wall = statistics.median(sum(o.seconds for o in p) for p in passes)
    tail = tail_percentile(samples)
    imports = statistics.median(seconds for seconds, _ in setup_samples)
    lines = [f"import_s {imports:.6g} s (median import time, not scaled)",
             f"wall_s {wall:.6g} s",
             f"job_s.p50 {statistics.median(samples):.6g} s "
             f"(over {len(samples)} job samples"
             + (f"; job_s.p{tail[0]} {tail[1]:.6g} s)" if tail else ")"),
             f"reference_ms {1e3 * statistics.median(o.reference for p in passes for o in p):.6g}"
             " ms (median time of the reference kernel)"]
    rows = statistics.median(sum(o.rows for o in p) for p in passes)
    lines.append(f"rows_per_s {rows / wall:.6g} 1/s ({rows:g} CSV rows per pass)")
    steps = sum(job.steps for job in jobs)
    if steps:
        lines.append(f"steps_per_s {steps / wall:.6g} 1/s "
                     f"({steps} split steps per pass)")
    lines.append(f"fail_ratio {failed / attempted:.6g} fraction "
                 f"({failed}/{attempted} jobs)")
    return lines


def per_layer(untraced, traced):
    layers = [tracer.layer_metrics() for _, tracer in traced]
    metrics = {name: statistics.median(values[name] for values in layers)
               for name in layers[0]}
    metrics["cli.csv_bytes"] = statistics.median(
        sum(o.csv_bytes for o in p) for p, _ in traced)
    # Pass costs in reference units, so that the host's speed swings between
    # the two passes cancel, converted back to seconds at the median speed.
    cost = statistics.median(sum(o.ref for o in p) for p, _ in traced) \
        - statistics.median(sum(o.ref for o in p) for p in untraced)
    metrics["trace.overhead_s"] = cost * statistics.median(
        o.reference for p in untraced for o in p)
    return metrics


# ----------------------------------------------------------- environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "bohmosc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    args = parse_args(argv)
    package, own_import = import_package()
    setup_samples = [own_import]
    if not args.trace:
        setup_samples += [setup_in_fresh_process() for _ in range(SETUP_SAMPLES - 1)]

    import jobs as workloads
    from spans import LAYER_METRICS, Tracer

    jobs, inputs = workloads.build(args.workload, args.seed)
    with workdir(f"work-{os.getpid()}", inputs):
        untraced, traced, peak_kb = measure(package, jobs, args.seconds,
                                            bool(args.trace), Tracer)

    every = [o for p in untraced for o in p] + [o for p, _ in traced for o in p]
    failed = [o for o in every if o.failure]
    unknown = any(not o.known for o in failed)
    digests = {}
    for o in every:
        if o.sha256:
            digests.setdefault(o.job.name, set()).add(o.sha256)
    unstable = sorted(name for name, seen in digests.items() if len(seen) > 1)

    if args.trace:
        units = dict(LAYER_METRICS)
        layers = per_layer(untraced, traced)
        metrics = {name: layers[name] for name in units}
    else:
        metrics = end_to_end(untraced, setup_samples, peak_kb)
        units = E2E_UNITS

    env = environment(args.seed)
    print(f"workload {args.workload}: {len(jobs)} jobs, {len(untraced)} untraced "
          f"and {len(traced)} traced passes, one closed-loop client")
    for o in untraced[0]:
        print(f"  job {o.job.name:<22} {o.seconds:9.4f} s  "
              f"{'FAIL ' + o.failure if o.failure else 'ok'}")
    for name in sorted({o.job.name for o in failed}):
        reasons = sorted({o.failure + ("" if o.known else " [not a known failure]")
                          for o in failed if o.job.name == name})
        print(f"FAIL {name}: {'; '.join(reasons)}")
    for name in unstable:
        print(f"NONDETERMINISTIC {name}: passes wrote different bytes")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        for line in printed_lines(jobs, untraced, setup_samples, len(every),
                                  len(failed)):
            print(line)
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_samples": [{"import_s": raw, "scaled_s": scaled}
                          for raw, scaled in setup_samples],
        "metrics": metrics,
        "jobs": [{"name": job.name, "argv": list(job.argv),
                  "seconds": [p[i].seconds for p in untraced],
                  "ref": [p[i].ref for p in untraced],
                  "failure": untraced[0][i].failure,
                  "known_failure": untraced[0][i].known,
                  "sha256": untraced[0][i].sha256} for i, job in enumerate(jobs)],
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not unstable and not unknown,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
