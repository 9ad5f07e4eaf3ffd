#!/usr/bin/env python3
"""Builds and runs the c2mn repo benchmark.

    python3 perfbench/run.py --workload live_mall|annotate_batch|visits_rw \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # the benchmark helpers' tests

Run from the repository root.  The first run configures and builds the
library and the benchmark program into .bench_build/perfbench (a few
minutes on one core); later runs only rebuild what changed.  Build output
goes to stderr; the program's report and, as its last line, the result
JSON go to stdout.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_quiet(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(target):
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", target])


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_helpers_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_helpers_test")],
                              cwd=ROOT).returncode
    if not build("perfbench"):
        return 1
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + argv, cwd=ROOT,
                          stdout=subprocess.PIPE, universal_newlines=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the program printed no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    # The metrics must be exactly the ones BENCHMARK.json declares for this
    # mode, with the declared units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    declared = spec["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        print("perfbench: metrics differ from BENCHMARK.json: %s" %
              sorted(set(got.items()) ^ set(expected.items())), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
