#!/usr/bin/env python3
"""Reruns a seeded gtest property suite across extra seed blocks.

A seeded suite covers one block of random configurations per run; its
seed-offset environment variable shifts the whole block, so each offset
exercises a fresh set without a recompile. Run under ctest this sweeps
offsets 1..N over the full property set.

Defaults fit the scheduler suite (64 random fleet configurations per block,
`BKUP_SCHED_SEED_OFFSET`, filter SchedulerPropertyTest.*); the recovery
chaos soak reuses the tool with --filter/--env:

  seed_sweep.py /path/to/scheduler_test [num_offsets]
  seed_sweep.py /path/to/scheduler_test --offset=3
  seed_sweep.py /path/to/recovery_chaos_test 2 \\
      --filter=RecoveryChaosTest.KilledRestoresConvergeEverywhere \\
      --env=BKUP_RECOVERY_SEED_OFFSET

--offset=K runs the single block K instead of blocks 1..N, so a build
system can register each block as its own test and run them in parallel.

--threads crosses the sweep with a worker-thread matrix for suites that
honor BKUP_SIM_THREADS (the sharded-simulator determinism stress): each
seed offset is run once per thread count, so every seed block is checked
at every parallelism level.

  seed_sweep.py /path/to/shard_test 2 --threads=1,2,4 \\
      --filter=ShardStressTest.* --env=BKUP_SIM_SEED_OFFSET
"""

import os
import subprocess
import sys


def main():
    args = sys.argv[1:]
    gtest_filter = "SchedulerPropertyTest.*"
    env_var = "BKUP_SCHED_SEED_OFFSET"
    threads_matrix = [None]  # None = leave BKUP_SIM_THREADS untouched
    only_offset = None
    positional = []
    for arg in args:
        if arg.startswith("--filter="):
            gtest_filter = arg[len("--filter="):]
        elif arg.startswith("--env="):
            env_var = arg[len("--env="):]
        elif arg.startswith("--offset="):
            only_offset = int(arg[len("--offset="):])
            if only_offset < 1:
                print("FAIL: --offset must be 1 or more")
                return 2
        elif arg.startswith("--threads="):
            threads_matrix = [int(t) for t in
                              arg[len("--threads="):].split(",") if t]
            if not threads_matrix:
                print("FAIL: --threads needs a comma-separated list")
                return 2
        else:
            positional.append(arg)
    if not positional:
        print("usage: seed_sweep.py /path/to/test_binary"
              " [num_offsets | --offset=K]"
              " [--filter=PATTERN] [--env=SEED_OFFSET_VAR]"
              " [--threads=1,2,4]")
        return 2
    binary = positional[0]
    num_offsets = int(positional[1]) if len(positional) > 1 else 8
    if only_offset is not None:
        if len(positional) > 1:
            print("FAIL: give num_offsets or --offset, not both")
            return 2
        offsets = [only_offset]
    else:
        offsets = list(range(1, num_offsets + 1))
    if not os.path.exists(binary):
        print("FAIL: test binary %r not found" % binary)
        return 1

    failures = []
    for offset in offsets:
        for threads in threads_matrix:
            env = dict(os.environ)
            env[env_var] = str(offset)
            tag = ""
            if threads is not None:
                env["BKUP_SIM_THREADS"] = str(threads)
                tag = ", %d thread(s)" % threads
            print("=== seed offset %d (%s%s) ===" % (offset, env_var, tag),
                  flush=True)
            proc = subprocess.run(
                [binary, "--gtest_filter=" + gtest_filter],
                env=env,
            )
            if proc.returncode != 0:
                failures.append((offset, threads))

    if failures:
        print("FAIL: property suite failed at (offset, threads) %s"
              % failures)
        return 1
    print("seed sweep: offsets %s of %s OK (threads matrix: %s)" % (
        ",".join(str(o) for o in offsets), gtest_filter,
        ",".join("env" if t is None else str(t) for t in threads_matrix)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
