#!/usr/bin/env python3
"""Build and run the mlpwin host-performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mem-resize --seed 0 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The perfbench binary is built from the checkout's sources into
.bench_build/ (first run only; later runs reuse the build). Build output
goes to stderr, so the last line on stdout is the benchmark's JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bin", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def build():
    """Configure and build; returns False (after logging) on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_binary(args, capture=False):
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, *args, "--work-dir", WORK,
           "--golden", os.path.join(ROOT, "results", "fig07_ipc.txt")]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test():
    """Checks of the benchmark itself; exits non-zero on any failure."""
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(f"self-test: {what}: {'ok' if ok else 'FAILED'}",
              file=sys.stderr)
        failures += 0 if ok else 1

    # Golden-table perturbation, signed overheads, quartiles, seeds.
    expect(run_binary(["--self-test"]).returncode == 0,
           "perfbench --self-test")

    # BENCHMARK.json and the binary's catalogue name the same metrics
    # with the same units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], text=True,
                            stdout=subprocess.PIPE).stdout.split("\n")
    catalogue = {}
    for line in filter(None, listed):
        name, unit, section = line.split()
        catalogue[name] = (unit, section)
    declared = {m["name"]: (m["unit"], section)
                for section in ("end_to_end", "per_layer")
                for m in spec[section]}
    expect(declared == catalogue,
           "BENCHMARK.json metrics match the binary's catalogue")

    # A real (short) run prints every declared metric with its unit.
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = run_binary(["--workload", "compute-ilp", "--seed", "1",
                          "--seconds", "1", "--trace", trace],
                         capture=True)
        lines = out.stdout.strip().split("\n")
        result = json.loads(lines[-1]) if lines and lines[-1] else {}
        metrics = result.get("metrics", {})
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v.get("unit") for k, v in metrics.items()}
        expect(out.returncode == 0 and result.get("correct") is True
               and got == want,
               f"--trace {trace} prints every {section} metric with "
               "its unit")
        expect(all(any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                       for ln in lines[:-1])
                   for name, unit in want.items()),
               f"--trace {trace} prints a readable line per metric")
    return 1 if failures else 0


def main():
    if not build():
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    return run_binary(sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
