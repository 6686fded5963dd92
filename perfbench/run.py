#!/usr/bin/env python3
"""Build and run the end-to-end loopback benchmark of the Bullet server.

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the server libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Each run then executes the benchmark's self-tests and
the benchmark itself, whose scratch disk images live under the build
directory and are removed when it exits.

The last line of stdout is the result object {correct, attempted, failed,
metrics}. Its metric names must be exactly those BENCHMARK.json declares
for the chosen --trace mode; anything else is an error. Build and test
output goes to stderr. See perfbench/README.md for what is measured.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Run a build or test step with its output on stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("step failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "e2e_bench", "perfbench_selftest"])
    return build_dir


def declared_metrics(trace):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    build_dir = build(build_root)
    run_quiet([os.path.join(build_dir, "perfbench_selftest"),
               "--gtest_brief=1"])

    workdir = os.path.join(build_root, "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=170, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded 170 s")
    finally:
        try:
            os.rmdir(workdir)
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail("printed metrics differ from BENCHMARK.json: %s" %
             sorted(set(printed.items()) ^ set(declared.items())))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
