#!/usr/bin/env python3
"""Builds and runs the client-to-backend cluster benchmark.

    python3 clusterbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
decompeval libraries and the clusterbench binary into .bench_build/;
later runs only rebuild what changed. Each run gets a unique directory
under .bench_run/ for its sockets, disk caches and journals, removed on
exit and on failure. Traced runs write span files and blocking-path
breakdowns to .bench_traces/. The last line of standard output is the
result object described in BENCHMARK.json's contract.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "clusterbench")
RUN_ROOT = ".bench_run"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("clusterbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "clusterbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-40:]))
                fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, "clusterbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys " + str(sorted(result)))
    names = set(result["metrics"])
    want = expected_metrics(trace)
    if names != want:
        raise ValueError("metric names differ from BENCHMARK.json: missing "
                         + str(sorted(want - names)) + ", extra "
                         + str(sorted(names - want)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no decompeval sources under " + os.path.join(ROOT, "src"), 2)
    binary = build()
    # Flush the build's (and earlier runs') dirty pages now, so their
    # writeback does not compete with the cluster's own disk writes.
    os.sync()

    os.chdir(ROOT)
    os.makedirs(RUN_ROOT, exist_ok=True)
    # Relative paths keep socket names far below the sun_path limit.
    run_dir = os.path.relpath(tempfile.mkdtemp(
        prefix="%s-%d-" % (args.workload, args.seed), dir=RUN_ROOT))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--run-dir", run_dir]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass  # another run's directory is still there
        # Settle this run's deletes now rather than during the next run.
        os.sync()
    if child.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % child.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace == "1")
    except (ValueError, json.JSONDecodeError) as e:
        sys.stderr.write(out)
        fail("bad result line: %s" % e, 3)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
