#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
program's libraries and the benchmark binary (CMake, RelWithDebInfo) into
the build directory: $CARGO_TARGET_DIR when set, else .bench_build. Later
runs only rebuild what changed. Build output goes to build.log there; on a
failed build the script prints its tail to stderr and exits non-zero
without printing a result. The binary's stdout, whose last line is the
JSON result, is passed through, and so is its exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
        # A generated tree reconfigures itself when a CMakeLists.txt changes;
        # configure only when no build system was generated yet.
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("Makefile", "build.ninja")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return None
    return os.path.join(out, "perfbench")


def main():
    binary = build(build_dir())
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
