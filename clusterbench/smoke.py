#!/usr/bin/env python3
"""Smoke test of the cluster benchmark: every workload briefly, untraced
and traced.

    python3 clusterbench/smoke.py [--seconds 2] [--seed 7]

Run from the repository root. Fails when a run exits non-zero, answers
wrongly (the oracle found a mismatch, or any request failed), leaves a
path behind under .bench_run/, reports a metric name BENCHMARK.json does
not list or misses one it does, or a traced run writes no span file.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable workloads that BENCHMARK.json leaves out: their figures spread
# too widely from run to run on a shared host to bound a regression.
EXTRA_WORKLOADS = ["study_reads", "annotate_edits"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="2")
    parser.add_argument("--seed", default="7")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"0": {m["name"] for m in spec["end_to_end"]},
                "1": {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace in ("0", "1"):
            label = "%s trace=%s" % (workload, trace)
            spans = os.path.join(ROOT, ".bench_traces",
                                 workload + ".spans.jsonl")
            if trace == "1" and os.path.exists(spans):
                os.remove(spans)
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", trace],
                cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, run.returncode,
                                                      run.stderr[-2000:]))
                continue
            result = json.loads(run.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d of %d" % (
                    label, result["correct"], result["failed"],
                    result["attempted"]))
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append("%s: missing %s, extra %s" % (
                    label, sorted(expected[trace] - names),
                    sorted(names - expected[trace])))
            leftovers = os.path.join(ROOT, ".bench_run")
            if os.path.exists(leftovers):
                problems.append("%s: left %s behind: %s" % (
                    label, leftovers, os.listdir(leftovers)))
            if trace == "1" and not os.path.exists(spans):
                problems.append("%s: no span file %s" % (label, spans))
            print("%-30s %s" % (label, "ok" if not problems else "checked"),
                  flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
