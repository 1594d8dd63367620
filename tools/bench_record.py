#!/usr/bin/env python3
"""Write a BENCH_<tag>.json record of one checkout's speed, end to end and per layer.

    python3 tools/bench_record.py --tag after
    python3 tools/bench_record.py --tag before --root ../other-checkout

The record holds:

- the JSON result line of `perfbench/run.py --seconds 25 --trace 0` for
  each workload, and the per-layer metrics of one `--trace 1` run of
  `propagate`, each run as a subprocess at a fixed seed;
- each CLI subcommand's wall time, peak RSS and minor page faults at its
  default flags (`--b 1` where a branch must be given), and those of bohm
  and wavefunction at the 2^21-cell cap (--nt 2048 --nx 1024) and of
  ermakov --numeric at the 2^21-sample cap, in a fresh interpreter, 5
  times in turn with the medians, with its exit code and the byte count
  and SHA-256 of its output, and whether every run wrote the same bytes.
  The peak and the faults are the child's own ru_maxrss and ru_minflt
  from os.wait4, not RUSAGE_CHILDREN, which sums or takes the largest
  over every child so far.
  Linux carries the spawning process's peak into the child's across the
  exec, so this script keeps its own small: it hashes each output in
  chunks and never holds one whole;
- the wall time and the outcome counts (passed, failed, ...) of the
  Tier-1 suite and of tests/test_acceptance.py, each in a fresh pytest
  process, 3 times in turn with the median;
- the benchmark's `env` line: nproc, the CPU model, the Python, numpy and
  scipy versions and the git commit;
- `tree_clean`: whether src/, tests/ and tools/ of the checkout match its
  git commit (null outside a git checkout).  A record taken from an
  uncommitted tree names the commit it was changed from, not the code it
  measured.

--root names the checkout to measure (default: the one holding this
script); its perfbench/, src/ and tests/ are the ones run, and the record
is written at the root of the checkout holding this script.  It imports
no bohmosc or perfbench name: every number comes from a subprocess.  Two
records are comparable only when taken side by side on the same host: its
speed drifts by up to 2x (see perfbench/README.md).  It takes about 5
minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parents[1]

WORKLOADS = ("propagate", "surface", "check")
SEED = 1
SECONDS = 25
# Fresh-process runs of each subcommand: one 0.2 s run moves by up to 50%
# with the host.
REPEATS = 5
HASH_CHUNK = 2**20
# Fresh pytest runs of each test selection, taken in turn.
TEST_REPEATS = 3

# The Tier-1 suite, as ROADMAP.md runs it, and the acceptance module, by
# name: the paths given to pytest.
TESTS = {"tier1": (), "acceptance": ("tests/test_acceptance.py",)}

# Each subcommand at its default flags, the two surface sweeps at their
# cell cap and the numeric Ermakov table at its sample cap, by name; --out
# is added.
SUBCOMMANDS = {
    "ermakov": ("ermakov", "--b", "1"),
    "bohm": ("bohm", "--b", "1"),
    "wavefunction": ("wavefunction", "--b", "1"),
    "verify": ("verify", "--b", "1"),
    "tdse-check": ("tdse-check", "--b", "1"),
    "fig1": ("fig1",),
    "fig2": ("fig2",),
    "transition": ("transition",),
    "bohm-cap": ("bohm", "--b", "1", "--nt", "2048", "--nx", "1024"),
    "wavefunction-cap": ("wavefunction", "--b", "1", "--nt", "2048", "--nx", "1024"),
    "ermakov-cap": ("ermakov", "--numeric", "--b", "1", "--samples", "2097152"),
}


def perfbench(root, workload, trace):
    """The env line and the JSON result line of one benchmark run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n"
                           f"{done.stderr}")
    lines = done.stdout.splitlines()
    env = next(line for line in lines if line.startswith("env "))
    return json.loads(env[4:]), json.loads(lines[-1])


def subcommand(root, argv, folder):
    """One fresh-process run: wall time, peak RSS in MB, minor page faults,
    exit code, and the output's byte count and SHA-256."""
    out = Path(folder, argv[0] + ".out")
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src")))
    started = perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "bohmosc", *argv, "--out", str(out)],
                             cwd=folder, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = perf_counter() - started
    # reaped here, so that Popen does not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    digest, size = hashlib.sha256(), 0
    if out.is_file():
        with out.open("rb") as handle:
            for chunk in iter(lambda: handle.read(HASH_CHUNK), b""):
                digest.update(chunk)
                size += len(chunk)
        out.unlink()
    return (wall, usage.ru_maxrss / 1024, usage.ru_minflt, child.returncode,
            (size, digest.hexdigest()))


def cli_record(root, folder):
    """Every subcommand's runs, taken in turn so that host drift spreads evenly."""
    runs = {name: [] for name in SUBCOMMANDS}
    for _ in range(REPEATS):
        for name, argv in SUBCOMMANDS.items():
            runs[name].append(subcommand(root, argv, folder))
    record = {}
    for name, seen in runs.items():
        walls = [round(wall, 4) for wall, _, _, _, _ in seen]
        peaks = [round(peak, 1) for _, peak, _, _, _ in seen]
        faults = [count for _, _, count, _, _ in seen]
        size, sha256 = seen[0][4]
        record[name] = {
            "argv": list(SUBCOMMANDS[name]), "wall_s": walls,
            "wall_s_median": statistics.median(walls), "peak_rss_mb": peaks,
            "peak_rss_mb_median": statistics.median(peaks), "minor_faults": faults,
            "minor_faults_median": statistics.median(faults),
            "exit": sorted({code for _, _, _, code, _ in seen}),
            "bytes": size, "sha256": sha256,
            "same_bytes": all(out == (size, sha256) for *_, out in seen)}
    return record


def test_record(root):
    """Each test selection's wall times, their median, and the outcome
    counts of pytest's summary line in every run."""
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src")))
    runs = {name: [] for name in TESTS}
    for _ in range(TEST_REPEATS):
        for name, paths in TESTS.items():
            argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors", *paths]
            started = perf_counter()
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
            wall = perf_counter() - started
            summary = done.stdout.splitlines()[-1] if done.stdout else ""
            counts = {kind: int(count) for count, kind in re.findall(
                r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
            runs[name].append((round(wall, 3), counts))
    return {name: {"argv": ["pytest", *TESTS[name]],
                   "wall_s": [wall for wall, _ in seen],
                   "wall_s_median": statistics.median(wall for wall, _ in seen),
                   "outcomes": [counts for _, counts in seen]}
            for name, seen in runs.items()}


def tree_clean(root):
    """True if `git status` lists no change under src, tests or tools of
    root, False if it does, None if root is not a git checkout."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests", "tools"],
                          cwd=root, capture_output=True, text=True)
    return None if done.returncode else not done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="the record is BENCH_<tag>.json")
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    record = {"tag": args.tag, "seed": SEED, "seconds": SECONDS,
              "tree_clean": tree_clean(root), "workloads": {}}
    for workload in WORKLOADS:
        env, record["workloads"][workload] = perfbench(root, workload, 0)
        print(f"{workload}: {record['workloads'][workload]['metrics']}", flush=True)
    record["environment"] = env
    _, traced = perfbench(root, "propagate", 1)
    record["layers"] = {"propagate": traced["metrics"]}
    with tempfile.TemporaryDirectory() as folder:
        record["cli"] = cli_record(root, folder)
    record["tests"] = test_record(root)
    for name, tests in record["tests"].items():
        print(f"{name}: {tests['wall_s_median']} s, {tests['outcomes'][-1]}", flush=True)
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
