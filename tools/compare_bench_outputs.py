#!/usr/bin/env python3
"""Checks that two builds produce byte-identical simulated bench output.

Runs every simulated bench binary from two build trees and compares what
they print and, for the benches that take --json, the BENCH_*.json report
they write. The simulation is seeded and single-threaded, so a refactor
that claims "outputs unchanged" must pass this with the parent commit's
build as <build_a> and the change's build as <build_b>.

Skipped: bench_micro and bench_simcore, whose numbers are host time.
Ignored: the "wrote <path> (N bytes)" line, whose path differs per build
(the byte count is still checked, through the JSON file itself).

Each bench runs in its own scratch directory, once per build, with the two
builds' runs side by side (two processes at a time).

Usage: compare_bench_outputs.py <build_a> <build_b>
Exit status: 0 when every output matches, 1 on any difference or failure.
"""

import os
import re
import subprocess
import sys
import tempfile

SIMULATED_BENCHES = [
    "bench_allocation_policy",
    "bench_concurrent_volumes",
    "bench_corruption",
    "bench_dedup",
    "bench_fault_rates",
    "bench_fragmentation",
    "bench_incremental",
    "bench_interference",
    "bench_network",
    "bench_nvram_ablation",
    "bench_restore_resume",
    "bench_scaling",
    "bench_scheduler",
    "bench_table1_blockstates",
    "bench_table2_basic",
    "bench_table3_stages",
    "bench_table4_parallel2",
    "bench_table5_parallel4",
]

JSON_BENCHES = {
    "bench_dedup",
    "bench_fault_rates",
    "bench_interference",
    "bench_network",
    "bench_restore_resume",
    "bench_scheduler",
    "bench_table2_basic",
}

WROTE_LINE = re.compile(rb"^wrote .*\n?", re.MULTILINE)


def start(build, name, workdir):
    binary = os.path.join(os.path.abspath(build), "bench", name)
    if not os.access(binary, os.X_OK):
        return None, "missing binary %s" % binary
    cmd = [binary]
    json_path = None
    if name in JSON_BENCHES:
        json_path = os.path.join(workdir, name + ".json")
        cmd.append("--json=" + json_path)
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    return (proc, json_path), None


def finish(started):
    proc, json_path = started
    out, _ = proc.communicate()
    report = None
    if json_path is not None and os.path.exists(json_path):
        with open(json_path, "rb") as f:
            report = f.read()
    return proc.returncode, WROTE_LINE.sub(b"", out), report


def first_difference(a, b):
    """Where two byte strings first differ, with a little context (the JSON
    reports are one long line, so a line number alone says little)."""
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
              min(len(a), len(b)))
    line = a.count(b"\n", 0, at) + 1
    lo = max(0, at - 40)
    return "byte %d (line %d): %r != %r" % (at, line, a[lo:at + 40],
                                           b[lo:at + 40])


def compare(name, build_a, build_b, scratch):
    runs = []
    for tag, build in (("a", build_a), ("b", build_b)):
        workdir = os.path.join(scratch, name + "." + tag)
        os.mkdir(workdir)
        started, error = start(build, name, workdir)
        if error is not None:
            return [error]
        runs.append(started)
    (rc_a, out_a, json_a), (rc_b, out_b, json_b) = [finish(r) for r in runs]
    problems = []
    if rc_a != rc_b:
        problems.append("exit status %d != %d" % (rc_a, rc_b))
    if out_a != out_b:
        problems.append("stdout differs, " + first_difference(out_a, out_b))
    if name in JSON_BENCHES:
        if json_a is None or json_b is None:
            problems.append("no JSON report written")
        elif json_a != json_b:
            problems.append("JSON differs, " + first_difference(json_a, json_b))
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-2])
        return 2
    build_a, build_b = argv[1], argv[2]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_compare.") as scratch:
        for name in SIMULATED_BENCHES:
            problems = compare(name, build_a, build_b, scratch)
            print("%-26s %s" % (name, "same" if not problems else "DIFFERS"))
            for p in problems:
                print("    " + p)
            failed += bool(problems)
    print("%d of %d benches differ" % (failed, len(SIMULATED_BENCHES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
