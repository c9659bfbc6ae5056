// bench_health_sweep — roving self-test under load: fault rate x workload
// x dispatch policy.
//
// Every device of the fleet runs the roving self-test sweep while serving
// its share of the workload: the window's occupants are relocated out of
// the way (transparent relocation — the paper's contribution is exactly
// that this costs only configuration-port time), the freed CLBs are
// pattern-tested, and injected stuck-bit faults become detected — masked
// out of placement and, past the quarantine threshold, evacuating whole
// devices. This sweep quantifies what the health machinery costs (makespan,
// throughput) and what it buys (faults found, capacity honestly accounted)
// as the fault rate climbs.
//
// Writes BENCH_health_sweep.json (see bench_report.hpp). Deterministic:
// two runs with the same seed produce byte-identical reports. Set
// RELOGIC_BENCH_SMOKE=1 for a reduced-size run (CI smoke mode).
#include <cstdio>
#include <string>

#include "bench_report.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/workload.hpp"

namespace {

using namespace relogic;

std::string slug(const std::string& s) {
  std::string out;
  for (char c : s) out += c == '-' ? '_' : c;
  return out;
}

std::string rate_key(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "f%03d", static_cast<int>(rate * 1000));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace FILE]\n", argv[0]);
      return 2;
    }
  }
  const bool smoke = bench_report::bench_smoke_enabled();
  const int kTasks = smoke ? 60 : 250;
  constexpr int kDevices = 4;
  constexpr std::uint64_t kSeed = 2003;

  bench_report::Report report("health_sweep");

  std::printf(
      "health sweep bench: %d tasks, %d devices (12x12), seed %llu, "
      "transparent relocation, selftest on%s\n\n",
      kTasks, kDevices, static_cast<unsigned long long>(kSeed),
      smoke ? " (smoke)" : "");
  std::printf("%6s %11s %14s %6s %6s %7s %7s %6s %12s %10s\n", "fault",
              "workload", "dispatch", "done", "rej", "faults", "masked",
              "quar", "makespan ms", "tasks/s");

  const double fault_rates[] = {0.0, 0.01, 0.03};
  const sched::ArrivalPattern patterns[] = {sched::ArrivalPattern::kPoisson,
                                            sched::ArrivalPattern::kBursty};
  const runtime::DispatchPolicy policies[] = {
      runtime::DispatchPolicy::kLeastLoaded,
      runtime::DispatchPolicy::kBestFit};

  for (const double rate : fault_rates) {
    for (const auto pattern : patterns) {
      sched::WorkloadParams wp;
      wp.pattern = pattern;
      wp.task_count = kTasks;
      wp.mean_interarrival_ms = 0.8;
      wp.seed = kSeed;
      const auto trace = sched::WorkloadGenerator(wp).generate();

      for (const auto policy : policies) {
        runtime::FleetConfig cfg;
        cfg.devices = kDevices;
        cfg.rows = cfg.cols = 12;
        cfg.dispatch = policy;
        cfg.rebalance_backlog_ms = 80.0;
        cfg.sched.policy = sched::ManagementPolicy::kTransparent;
        cfg.health.selftest.enabled = true;
        cfg.health.fault_rate = rate;
        cfg.health.fault_seed = kSeed;
        cfg.health.quarantine_threshold = 0.08;

        runtime::FleetManager fleet(cfg);
        fleet.submit_all(trace);
        const auto result = fleet.run();

        const auto masked =
            result.aggregate.counter_value("faulty_clbs");
        std::printf("%6.3f %11s %14s %6d %6d %7d %7lld %6d %12.1f %10.1f\n",
                    rate, sched::to_string(pattern).c_str(),
                    runtime::to_string(policy).c_str(), result.completed,
                    result.rejected, result.faulty_cells,
                    static_cast<long long>(masked), result.quarantined,
                    result.makespan.milliseconds(),
                    result.throughput_tasks_per_s());

        const std::string key = rate_key(rate) + "_" +
                                slug(sched::to_string(pattern)) + "_" +
                                slug(runtime::to_string(policy));
        report.add(key + "_completed", result.completed, "tasks");
        report.add(key + "_makespan", result.makespan.milliseconds(), "ms");
        report.add(key + "_tasks_per_s", result.throughput_tasks_per_s(),
                   "tasks/s");
        report.add(key + "_faulty_cells", result.faulty_cells, "cells");
        report.add(key + "_masked_clbs", static_cast<double>(masked),
                   "CLBs");
        report.add(key + "_quarantined", result.quarantined, "devices");
        report.add(key + "_tested_clbs", result.tested_clbs, "CLBs");
      }
    }
    std::printf("\n");
  }

  // ---- optional trace capture ---------------------------------------------
  // One extra poisson/least-loaded run at the middle fault rate with the
  // deterministic tracer attached — the health lane (window spans, fault
  // detections, quarantines) is exactly what this bench sweeps. Runs after
  // the sweep so tracing never perturbs its numbers.
  if (!trace_file.empty()) {
    sched::WorkloadParams wp;
    wp.pattern = sched::ArrivalPattern::kPoisson;
    wp.task_count = kTasks;
    wp.mean_interarrival_ms = 0.8;
    wp.seed = kSeed;

    runtime::FleetConfig cfg;
    cfg.devices = kDevices;
    cfg.rows = cfg.cols = 12;
    cfg.dispatch = runtime::DispatchPolicy::kLeastLoaded;
    cfg.rebalance_backlog_ms = 80.0;
    cfg.sched.policy = sched::ManagementPolicy::kTransparent;
    cfg.health.selftest.enabled = true;
    cfg.health.fault_rate = 0.01;
    cfg.health.fault_seed = kSeed;
    cfg.health.quarantine_threshold = 0.08;

    obs::Tracer tracer;
    runtime::FleetManager fleet(cfg);
    fleet.set_tracer(&tracer);
    fleet.submit_all(sched::WorkloadGenerator(wp).generate());
    fleet.run();
    if (!tracer.write_json(trace_file)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_file.c_str());
      return 1;
    }
    std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                trace_file.c_str());
  }

  if (report.write()) {
    std::printf("wrote %s\n", report.path().c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  return 0;
}
