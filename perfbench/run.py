#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt: the commsched libraries, the
allocd daemon and the perfbench binary) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, checks that the
perfbench binary printed every metric BENCHMARK.json lists for the mode, and prints
the run metadata followed by the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits nonzero, without a result line, when the sources are missing, the
build fails, a metric is missing, or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-adaptive", "replay-sa", "replay-backlog", "serve-closed")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then let ninja/make bring the binaries up to date."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("commsched sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_digest():
    """Commit id when run inside a git work tree, else a digest of sources."""
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs (self-test only)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    # The library reads COMMSCHED_* knobs from the environment; the
    # benchmark's inputs come from its arguments only.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COMMSCHED_") and k != "JOBAWARE"}
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--allocd", os.path.relpath(os.path.join(build_dir,
                                                    "perfbench_allocd")),
           "--conf", os.path.relpath(os.path.join(HERE, "allocd.conf")),
           "--out-dir", os.path.relpath(out_dir)]
    if args.small:
        cmd.append("--small")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=170, check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench binary timed out")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or len(lines) < 2:
        fail("perfbench binary exited %d" % done.returncode)
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])

    kind = "per_layer" if args.trace == "1" else "end_to_end"
    for metric in spec[kind]:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail("metric %s missing or with the wrong unit" % metric["name"])
    if not result["correct"]:
        fail("correctness checks failed")

    meta.update({"commit": source_digest(), "cpu_model": cpu_model(),
                 "nproc": os.cpu_count()})
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
