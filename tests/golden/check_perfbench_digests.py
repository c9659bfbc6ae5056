#!/usr/bin/env python3
"""Pins perfbench's simulated results end to end.

Runs every perfbench workload briefly at each pinned seed and compares the
run's `digest` line, and the `"correct": true` of its result, with
perfbench_digests.txt next to this script. A digest covers admission,
area search, relocation, the config plane and the logic simulator, and
does not depend on the host or on the run length, so any change to
simulated behaviour shows up here.

    python3 tests/golden/check_perfbench_digests.py           # check
    python3 tests/golden/check_perfbench_digests.py --update  # re-pin

Re-pin only after an intended behaviour change, and say why.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "perfbench_digests.txt")
WORKLOADS = ("fleet_online", "reloc_jtag", "reloc_icap")
SEEDS = (2003, 6151)


def digest_line(workload, seed):
    """Runs one short pass; returns its digest line, or exits on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench {workload} seed {seed} exited with "
                 f"{proc.returncode}")
    if json.loads(lines[-1]).get("correct") is not True:
        sys.exit(f"perfbench {workload} seed {seed}: result not correct")
    digests = [l for l in lines if l.startswith("digest ")]
    if len(digests) != 1:
        sys.exit(f"perfbench {workload} seed {seed}: expected one digest "
                 f"line, got {len(digests)}")
    return digests[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file instead of comparing")
    args = ap.parse_args()

    got = [digest_line(w, s) for w in WORKLOADS for s in SEEDS]
    if args.update:
        with open(GOLDEN, "w") as f:
            f.write("\n".join(got) + "\n")
        print(f"wrote {len(got)} digest lines to {GOLDEN}")
        return 0
    with open(GOLDEN) as f:
        want = f.read().splitlines()
    if got != want:
        for g, w in zip(got, want):
            if g != w:
                print(f"expected: {w}\n     got: {g}", file=sys.stderr)
        if len(got) != len(want):
            print(f"expected {len(want)} lines, got {len(got)}",
                  file=sys.stderr)
        return 1
    print(f"{len(got)} perfbench digest lines match {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
