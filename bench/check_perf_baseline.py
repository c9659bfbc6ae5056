#!/usr/bin/env python3
"""Perf-regression guard for the config-plane microbenchmarks.

Compares a freshly produced BENCH_microperf.json against the committed
baseline (bench/baselines/microperf_baseline.json) and fails if any
guarded benchmark — the config-plane hot-path families BM_ConfigApply,
BM_DirtyPreview and BM_BatcherFlush — regressed by more than the allowed
factor (default 2x, per the PR 5 acceptance gate).

Only metrics present in BOTH files are compared, so adding a new benchmark
never trips the guard; removing a guarded metric from the current report
does fail (a silently dropped benchmark is indistinguishable from a
regression nobody measured).

The baseline records absolute times measured on one reference machine. To
keep the gate from tripping on machine-speed differences between that
machine and CI runners, the comparison is normalized when possible: if
both reports carry the REFERENCE_METRIC (BM_RoutingGraphBuildCold at
XCV200 — CPU-bound, structurally unrelated to the config-plane path,
measured in the same run), each guarded time is divided by the same run's
reference time, and the *ratio of ratios* is gated — a uniformly slower
machine cancels out, a config-plane regression does not. Without the
reference the guard falls back to raw times, where the 2x factor must also
absorb hardware variance. Because every guarded ratio is scaled by the
reference, a change that speeds up or slows down the skeleton builder
itself needs the baseline re-recorded in the same change (the refresh
command is at the end of this docstring), or every normalized ratio moves
with no config-plane change.

The reference must run on one thread, like every guarded benchmark, or
the scale would depend on the core count rather than the machine's speed.
The skeleton builder goes parallel only from 2^21 = 2,097,152 edges
(build_threads in src/fabric/routing.cpp): the XCV200 skeleton has
1,890,736 edges and always builds serially, while XCV1000 (10,137,664
edges) builds on up to 8 threads, which is why XCV1000 serves only the
within-run skeleton gate below and not the normalization.

Two *within-run* gates guard the routing-skeleton bring-up contract
(PR 9):

  * BM_RoutingGraphBuildCold_8 (two-pass counting CSR build) must beat
    BM_RoutingGraphBuildStaging_8 (the seed vector-of-vectors staging
    algorithm, kept alive as RoutingSkeleton::build_reference) by
    SKELETON_SPEEDUP_MULTICORE (5x) on machines with >= 4 CPUs. The seed
    staging build is inherently serial — per-node heap allocations with
    data-dependent growth — while the counting build partitions emission
    into tile-row bands and fills disjoint CSR slices concurrently with
    byte-identical output. The 5x needs both the parallel fill and the
    uninitialized-on-resize edge array: on a 4-vCPU host the cold build
    reached 5.9x-6.6x with both, 2.7x-3.1x with a serial-only fill and
    4.1x-4.2x with a zero-filled array (DESIGN.md section 2 addendum).
    With fewer than 4 CPUs the fill runs on fewer bands (build_threads
    in routing.cpp uses one per CPU), so the gate counts only the serial
    wins — unchecked hoisted PIP arithmetic, no staging allocations, the
    uninitialized edge array — and drops to SKELETON_SPEEDUP_SERIAL (1.4x).
  * BM_FabricAcquireCached_8 — Fabric bring-up at XCV1000 against a warm
    process-wide skeleton cache — must stay under
    ACQUIRE_CACHED_LIMIT_US (an absolute 1000 us; the point of the cache
    is that bring-up no longer scales with device size, so an absolute
    wall-time bound is the honest gate, not a ratio).

On top of those, two more within-run gates guard the observability
contract: a disabled tracer and a disabled metrics
sampler must both be free. The current report must carry
BM_TraceOverhead_off (the BM_ConfigApply XCV200 workload with a null trace
handle explicitly installed) within OFF_FACTOR of BM_TraceOverhead_base
(the identical workload never touching the tracer API), and likewise
BM_MetricsOverhead_off (the scheduler event loop with a null sampler
explicitly installed) within OFF_FACTOR of BM_MetricsOverhead_base. Both
sides of a pair run in the same bench_microperf process, as
kOffPairRepetitions back-to-back pairs in alternating order, and the
report carries the median of the pairs' off/base ratios as
<off>_vs_base, which the gate reads; it needs no normalization. One pair
per plane tripped the 5% margin on scheduling noise alone, and so did the
ratio of the two sides' medians over 5, 9 or 11 pairs, because a shared
host's speed shifts over a few repetitions. Missing a pair's ratio fails
the guard.

If the guard fires without a plausible code cause, or after an intentional
hot-path change, refresh the baseline:

    ./build/bench_microperf --benchmark_filter='BM_ConfigApply|BM_DirtyPreview|BM_BatcherFlush|BM_TraceOverhead|BM_MetricsOverhead|BM_RoutingGraphBuild|BM_FabricAcquireCached'
    cp BENCH_microperf.json bench/baselines/microperf_baseline.json

Usage: check_perf_baseline.py <current.json> <baseline.json> [max_factor]
"""

import json
import os
import sys

GUARDED_PREFIXES = (
    "BM_ConfigApply",
    "BM_DirtyPreview",
    "BM_BatcherFlush",
    "BM_TraceOverhead",
    "BM_MetricsOverhead",
)
REFERENCE_METRIC = "BM_RoutingGraphBuildCold_3"  # XCV200: serial build

# Routing-skeleton bring-up gates (within-run; see module docstring).
SKELETON_COLD = "BM_RoutingGraphBuildCold_8"     # ms
SKELETON_STAGING = "BM_RoutingGraphBuildStaging_8"  # ms
SKELETON_SPEEDUP_MULTICORE = 5.0  # >= 4 CPUs: the parallel fill engages
SKELETON_SPEEDUP_SERIAL = 1.4     # < 4 CPUs: serial-only wins
ACQUIRE_CACHED = "BM_FabricAcquireCached_8"  # us
ACQUIRE_CACHED_LIMIT_US = 1000.0

# Disabled-observability gates: median over back-to-back pairs of _off /
# its untouched twin, same run (the report's <off>_vs_base). One pair per
# plane (tracer, metrics sampler).
OFF_GATES = (
    ("BM_TraceOverhead_off", "BM_TraceOverhead_base"),
    ("BM_MetricsOverhead_off", "BM_MetricsOverhead_base"),
)
OFF_FACTOR = 1.05

def load_metrics(path):
    keep = (SKELETON_COLD, SKELETON_STAGING, ACQUIRE_CACHED, REFERENCE_METRIC)
    with open(path) as f:
        doc = json.load(f)
    return {
        m["name"]: float(m["value"])
        for m in doc.get("metrics", [])
        if m["name"].startswith(GUARDED_PREFIXES) or m["name"] in keep
    }


def check_skeleton_gates(current):
    """Within-run gates on the routing-skeleton bring-up path. Returns True
    on pass."""
    passed = True

    cold = current.get(SKELETON_COLD)
    staging = current.get(SKELETON_STAGING)
    if cold is None or staging is None or cold <= 0:
        print(f"FAIL skeleton gate: need both {SKELETON_COLD} and "
              f"{SKELETON_STAGING} in the current report")
        passed = False
    else:
        # The 5x target needs the parallel fill, which
        # build_threads() only engages with enough cores; below that the
        # builder is serial and only the constant-factor wins apply.
        cpus = os.cpu_count() or 1
        need = (SKELETON_SPEEDUP_MULTICORE if cpus >= 4
                else SKELETON_SPEEDUP_SERIAL)
        speedup = staging / cold
        verdict = "FAIL" if speedup < need else "ok"
        print(f"{verdict:4} cold skeleton build: {cold:.3g} ms vs staging "
              f"{staging:.3g} ms same-run ({speedup:.2f}x speedup, need "
              f">= {need:.1f}x at {cpus} CPUs)")
        passed = passed and speedup >= need

    acquire = current.get(ACQUIRE_CACHED)
    if acquire is None:
        print(f"FAIL skeleton gate: {ACQUIRE_CACHED} missing from the "
              "current report")
        passed = False
    else:
        verdict = "FAIL" if acquire > ACQUIRE_CACHED_LIMIT_US else "ok"
        print(f"{verdict:4} cached Fabric bring-up: {acquire:.3g} us "
              f"(absolute limit {ACQUIRE_CACHED_LIMIT_US:.0f} us)")
        passed = passed and acquire <= ACQUIRE_CACHED_LIMIT_US

    return passed


def check_off_gates(current):
    """Within-run gates: each disabled observability plane within
    OFF_FACTOR of its identical untouched twin. Returns True on pass."""
    passed = True
    for off_name, base_name in OFF_GATES:
        ratio = current.get(off_name + "_vs_base")
        if ratio is None:
            print(f"FAIL off-overhead gate: need {off_name}_vs_base in the "
                  "current report")
            passed = False
            continue
        verdict = "FAIL" if ratio > OFF_FACTOR else "ok"
        print(f"{verdict:4} {off_name}: median same-run pair ratio to "
              f"{base_name} ({ratio:.3f}x, limit {OFF_FACTOR:.2f}x)")
        passed = passed and ratio <= OFF_FACTOR
    return passed


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    current = load_metrics(argv[1])
    baseline = load_metrics(argv[2])
    factor = float(argv[3]) if len(argv) > 3 else 2.0

    failed_off_gates = not check_off_gates(current)
    failed_skeleton_gates = not check_skeleton_gates(current)

    # The skeleton metrics are gated within-run above, not against the
    # baseline — drop them so the cross-run loop only sees the config-plane
    # families (staging is deliberately slow; acquire is in different units).
    for name in (SKELETON_COLD, SKELETON_STAGING, ACQUIRE_CACHED):
        current.pop(name, None)
        baseline.pop(name, None)

    cur_ref = current.pop(REFERENCE_METRIC, None)
    base_ref = baseline.pop(REFERENCE_METRIC, None)
    scale = 1.0
    if cur_ref and base_ref and cur_ref > 0 and base_ref > 0:
        scale = base_ref / cur_ref
        print(f"normalizing by {REFERENCE_METRIC}: current {cur_ref:.3g} vs "
              f"baseline {base_ref:.3g} (machine-speed scale {scale:.2f}x)")
    else:
        print(f"{REFERENCE_METRIC} missing from one report — comparing raw "
              "times (hardware variance eats into the factor)")

    if not baseline:
        sys.stderr.write(f"no guarded metrics in baseline {argv[2]}\n")
        return 2

    failed = False
    for name, base in sorted(baseline.items()):
        if name not in current:
            print(f"FAIL {name}: present in baseline but missing from {argv[1]}")
            failed = True
            continue
        cur = current[name] * scale
        ratio = cur / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > factor else "ok"
        print(f"{verdict:4} {name}: {cur:.3g} (normalized) vs baseline "
              f"{base:.3g} ({ratio:.2f}x, limit {factor:.1f}x)")
        failed = failed or ratio > factor
    failed = failed or failed_off_gates or failed_skeleton_gates
    if failed:
        print("perf-regression guard FAILED — see bench/check_perf_baseline.py "
              "for the baseline-refresh procedure")
        return 1
    print("perf-regression guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
