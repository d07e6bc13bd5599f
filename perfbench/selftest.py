#!/usr/bin/env python3
"""Reduced-size self-test of the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py on reduced
inputs (--small, one second) in both modes and asserts that:
  - the last line is a result object with exactly the contract's keys;
  - every metric BENCHMARK.json lists for the mode is printed, with its unit;
  - the run is correct, attempted >= 1 and nothing failed;
  - the traced run's shadow replay reproduced the program (shadow_match 1).
It also checks that the benchmark fails, printing no result, in a copy that
holds only BENCHMARK.json and the benchmark's own files. Exits 1 on the
first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd, text=True,
                          capture_output=True, timeout=900, check=False)


def expect(ok, what):
    if not ok:
        print("selftest: FAIL: " + what, file=sys.stderr)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    script = os.path.join(HERE, "run.py")
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            done = run([script, "--workload", name, "--seed", "7",
                        "--seconds", "1", "--trace", trace, "--small"])
            label = "%s --trace %s" % (name, trace)
            expect(done.returncode == 0,
                   label + " exited %d:\n%s" % (done.returncode,
                                                done.stderr[-2000:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], label + ": result keys")
            expect(result["correct"] is True, label + ": not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   label + ": attempted/failed counts")
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None, label + ": missing " + metric["name"])
                expect(got["unit"] == metric["unit"],
                       label + ": unit of " + metric["name"])
            if trace == "1":
                expect(result["metrics"]["trace.shadow_match"]["value"] == 1,
                       label + ": shadow replay diverged")
            print("selftest: ok " + label)

    # Without the repository's sources the benchmark must fail cleanly.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    bare = os.path.join(target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["perfbench/run.py", "--workload", spec["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           "a checkout without sources must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest: ok bare checkout fails")


if __name__ == "__main__":
    main()
