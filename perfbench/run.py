#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload helr_boot --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which pulls in the library from src/) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls rebuild incrementally. Build output goes
to build.log there, never to stdout.

The benchmark's stdout is passed through. Its last line is one JSON
object with the keys correct, attempted, failed and metrics; this
script checks the metric names against BENCHMARK.json before printing
it. Exit status is the benchmark's (1 when a correctness gate failed),
or 1 when the build fails or the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("helr_boot", "ckks_client", "model_fleet")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        try:
            return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    open(log, "w").close()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if rc != 0:
            # Leave no half-configured tree behind for the next call.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            fail(f"cmake configure failed (see {log})")
    rc = run_logged(["cmake", "--build", build_dir, "--target",
                     "poseidon_perfbench", "-j", jobs], log, BUILD_TIMEOUT_S)
    if rc != 0:
        fail(f"build failed (see {log})")
    return os.path.join(build_dir, "poseidon_perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    exe = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"].keys())
    except (ValueError, KeyError, TypeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark printed no result (exit {proc.returncode})")
    if names != expected_metrics(args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metric names differ from BENCHMARK.json")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
