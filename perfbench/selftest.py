#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, trace neutrality, a held-out seed.

    python3 perfbench/selftest.py

Run from the root of a checkout; it builds like run.py. For every workload:
  1. the default seed, untraced, twice: the two sim digests must be equal;
  2. the default seed, traced: its digest must equal the untraced one, it
     must print every per-layer metric of BENCHMARK.json, and its host spans
     must cover at least 90% of its repetitions' wall time;
  3. a held-out seed, untraced: every restore check must pass.
Every run must end with a JSON result that has correct == true and
failed == 0, and exactly the metrics BENCHMARK.json declares for its mode,
each finite and in its declared unit. Exits 1 on any failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
import run  # noqa: E402

DEFAULT_SEED = 1999
HELD_OUT_SEED = 7331
SECONDS = "1"
MIN_SPAN_COVERAGE_PCT = 90.0


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")),
                  None)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return out.returncode, digest, result, out.stdout + out.stderr


def main():
    spec = load_spec()
    binary = run.build(run.build_dir())
    if binary is None:
        return 2
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check_run(label, code, result, trace, text):
        if code != 0 or result is None:
            problems.append("%s: exit %d, output:\n%s" % (label, code, text))
            return False
        if not result.get("correct") or result.get("failed") != 0:
            problems.append("%s: correct=%s failed=%s" % (
                label, result.get("correct"), result.get("failed")))
        metrics = result.get("metrics", {})
        if set(metrics) != set(declared[trace]):
            problems.append("%s: metrics differ from BENCHMARK.json: "
                            "missing %s, extra %s" % (
                                label,
                                sorted(set(declared[trace]) - set(metrics)),
                                sorted(set(metrics) - set(declared[trace]))))
        for name, m in metrics.items():
            if not math.isfinite(m["value"]):
                problems.append("%s: %s is not finite" % (label, name))
            if name in declared[trace] and m["unit"] != declared[trace][name]:
                problems.append("%s: %s unit %s, declared %s" % (
                    label, name, m["unit"], declared[trace][name]))
        return True

    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for i in range(2):
            label = "%s seed %d untraced #%d" % (name, DEFAULT_SEED, i + 1)
            code, digest, result, text = invoke(binary, name, DEFAULT_SEED, 0)
            check_run(label, code, result, 0, text)
            digests.append(digest)
        label = "%s seed %d traced" % (name, DEFAULT_SEED)
        code, digest, result, text = invoke(binary, name, DEFAULT_SEED, 1)
        if check_run(label, code, result, 1, text):
            coverage = result["metrics"]["obs.span_coverage_pct"]["value"]
            if coverage < MIN_SPAN_COVERAGE_PCT:
                problems.append("%s: spans cover %.1f%% of wall time" % (
                    label, coverage))
        digests.append(digest)
        if None in digests or len(set(digests)) != 1:
            problems.append("%s: digests differ (untraced, untraced, traced):"
                            " %s" % (name, digests))
        label = "%s held-out seed %d" % (name, HELD_OUT_SEED)
        code, _, result, text = invoke(binary, name, HELD_OUT_SEED, 0)
        check_run(label, code, result, 0, text)
        print("%-16s digest %s, %d problems so far" % (
            name, digests[0], len(problems)), flush=True)

    for p in problems:
        print("SELFTEST FAILED: " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
