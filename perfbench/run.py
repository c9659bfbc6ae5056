#!/usr/bin/env python3
"""Build and run relogic's end-to-end benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_online --seed 2003 \
        --seconds 30 --trace 0

Configures and builds perfbench/CMakeLists.txt (the relogic library from
src/ plus the benchmark program perfbench/bench.cpp) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and forwards the program's report. The last line of standard output is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Trace files land in .bench_out/. Exits non-zero, without a result line,
when the build or the run fails. See perfbench/NOTES.md for the metrics.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_online", "reloc_jtag", "reloc_icap")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as f:
                if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                    os.remove(cache)  # configured from another checkout
        if not os.path.exists(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release", *generator],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2003)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(os.path.join(ROOT, target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: malformed result line: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
