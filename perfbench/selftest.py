#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, for every workload:

1. tracing changes nothing: an untraced and a traced pass of one seed run
   the same jobs, exit alike and write byte-identical outputs;
2. the seed changes values only: seeds 1 and 2 give the same job names,
   the same number of jobs and the same grid sizes (every size-setting flag
   and the size of every input file).

Prints one line per problem and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import os
import sys

import run

SEED = 1
SIZE_FLAGS = ("--n", "--nt", "--nx", "--t-max", "--dt", "--refine", "--samples",
              "--x-min", "--x-max")


def shape(jobs, inputs):
    """Everything about a job list that a seed must not change."""
    def sizes(argv):
        return [(flag, argv[i + 1]) for i, flag in enumerate(argv) if flag in SIZE_FLAGS]

    return ([(job.name, job.argv[0], sizes(job.argv)) for job in jobs],
            {name: text.count("\n") for name, text in inputs.items()})


def main() -> int:
    package, _ = run.import_package()
    import jobs as workloads
    from spans import Tracer

    problems = []
    for workload in workloads.WORKLOADS:
        jobs, inputs = workloads.build(workload, SEED)
        if shape(jobs, inputs) != shape(*workloads.build(workload, SEED + 1)):
            problems.append(f"{workload}: seeds {SEED} and {SEED + 1} "
                            "give different jobs or sizes")

        with run.workdir(f"selftest-{os.getpid()}", inputs):
            tracer = Tracer()
            plain = run.checked(run.run_pass(package, jobs))
            traced = run.checked(run.run_pass(package, jobs, tracer))

        if tracer.calls["cli"] != len(jobs):
            problems.append(f"{workload}: traced pass recorded "
                            f"{tracer.calls['cli']} of {len(jobs)} jobs")
        differ = [(a, b) for a, b in zip(plain, traced)
                  if (a.code, a.sha256) != (b.code, b.sha256)]
        for a, b in differ:
            problems.append(f"{workload}/{a.job.name}: traced run differs "
                            f"(exit {a.code} vs {b.code}, "
                            f"sha256 {a.sha256} vs {b.sha256})")
        print(f"{workload}: {len(jobs)} jobs, untraced and traced outputs "
              f"{'DIFFER' if differ else 'identical'}")

    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
