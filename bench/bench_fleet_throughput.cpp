// bench_fleet_throughput — sweeps the fleet runtime over device count and
// dispatch policy under the paper's transparent-relocation management
// policy, reporting modelled throughput (tasks per second of fleet time),
// wall-clock cost of the runtime itself, and the configuration-port
// transaction saving of the batcher on the same workload.
//
// Writes BENCH_fleet_throughput.json (see bench_report.hpp).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/workload.hpp"

namespace {

using namespace relogic;

struct Sweep {
  int devices;
  runtime::DispatchPolicy dispatch;
};

std::string slug(const std::string& s) {
  std::string out;
  for (char c : s) out += c == '-' ? '_' : c;
  return out;
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
  // RELOGIC_BENCH_SMOKE=1: fewer tasks and device counts, same shape (CI
  // smoke mode).
  const bool smoke = bench_report::bench_smoke_enabled();
  const int task_count = smoke ? 100 : 400;
  const std::vector<int> device_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  constexpr std::uint64_t kSeed = 2003;

  bench_report::Report report("fleet_throughput");

  std::printf(
      "fleet throughput sweep: %d random tasks, seed %llu, transparent "
      "relocation, 24x24 devices\n\n",
      task_count, static_cast<unsigned long long>(kSeed));
  std::printf("%8s %14s %10s %10s %12s %12s %10s\n", "devices", "dispatch",
              "done", "rejected", "tasks/s", "wall ms", "txn saved");

  std::vector<Sweep> sweeps;
  for (const int devices : device_counts) {
    for (auto dispatch :
         {runtime::DispatchPolicy::kRoundRobin,
          runtime::DispatchPolicy::kLeastLoaded,
          runtime::DispatchPolicy::kBestFit}) {
      sweeps.push_back({devices, dispatch});
    }
  }

  for (const Sweep& sweep : sweeps) {
    runtime::FleetConfig cfg;
    cfg.devices = sweep.devices;
    cfg.dispatch = sweep.dispatch;
    cfg.sched.policy = sched::ManagementPolicy::kTransparent;

    sched::RandomTaskParams params;
    params.task_count = task_count;
    params.seed = kSeed;

    runtime::FleetManager fleet(cfg);
    fleet.submit_all(sched::random_tasks(params));

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = fleet.run();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    const auto txn = result.aggregate.counter_value("config_transactions");
    const auto txn_unbatched =
        result.aggregate.counter_value("config_transactions_unbatched");
    const double throughput = result.throughput_tasks_per_s();

    std::printf("%8d %14s %10d %10d %12.1f %12.1f %9lld\n", sweep.devices,
                runtime::to_string(sweep.dispatch).c_str(), result.completed,
                result.rejected, throughput, wall_ms,
                static_cast<long long>(txn_unbatched - txn));

    const std::string key = "fleet" + std::to_string(sweep.devices) + "_" +
                            slug(runtime::to_string(sweep.dispatch));
    report.add(key + "_tasks_per_s", throughput, "tasks/s");
    report.add(key + "_wall", wall_ms, "ms");
    report.add(key + "_txn_saved", static_cast<double>(txn_unbatched - txn),
               "transactions");
  }

  // ---- optional trace capture ---------------------------------------------
  // One extra 4-device/least-loaded run with the deterministic tracer
  // attached. Runs after the sweep's wall-clock captures so tracing never
  // perturbs its numbers.
  if (!trace_file.empty()) {
    runtime::FleetConfig cfg;
    cfg.devices = 4;
    cfg.dispatch = runtime::DispatchPolicy::kLeastLoaded;
    cfg.sched.policy = sched::ManagementPolicy::kTransparent;

    sched::RandomTaskParams params;
    params.task_count = task_count;
    params.seed = kSeed;

    obs::Tracer tracer;
    runtime::FleetManager fleet(cfg);
    fleet.set_tracer(&tracer);
    fleet.submit_all(sched::random_tasks(params));
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
    std::printf("\nwrote %s\n", report.path().c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  return 0;
}
