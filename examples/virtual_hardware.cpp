// virtual_hardware — the concept the paper closes on (and credits to
// WASMII [1]): a set of applications that in total need far more than
// 100 % of the FPGA executes on one device by swapping functions in and
// out, with on-line rearrangement keeping the free space usable.
//
// Builds a workload whose aggregate area demand is ~3x the device and runs
// it under the three management policies, printing how much "virtual
// hardware" each policy actually delivers.
#include <cstdio>

#include "relogic/config/port.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/sched/scheduler.hpp"

using namespace relogic;
using namespace relogic::sched;

int main() {
  const int rows = 20, cols = 20;  // 400 CLBs of real hardware
  config::SelectMapPort port;
  const auto geom = fabric::DeviceGeometry::xcv200();  // outlives `cost`
  const reloc::RelocationCostModel cost(geom, port);

  // 40 functions of 25-144 CLBs each: several device-fulls of aggregate
  // demand on a 400-CLB device, phased so multiple functions contend.
  RandomTaskParams p;
  p.task_count = 40;
  p.min_side = 5;
  p.max_side = 12;
  p.mean_interarrival_ms = 220.0;
  p.mean_duration_ms = 2600.0;
  p.seed = 7;
  const auto tasks = random_tasks(p);

  int total_clbs = 0;
  for (const auto& t : tasks) total_clbs += t.fn.clbs();
  std::printf("device: %d CLBs; workload: %d functions totalling %d CLBs "
              "(%.1fx the device)\n\n",
              rows * cols, static_cast<int>(tasks.size()), total_clbs,
              static_cast<double>(total_clbs) / (rows * cols));

  std::printf("%-24s %9s %10s %12s %14s\n", "policy", "admitted",
              "makespan/s", "avg wait/ms", "app downtime/ms");
  for (const ManagementPolicy policy :
       {ManagementPolicy::kNoRearrange, ManagementPolicy::kHaltAndMove,
        ManagementPolicy::kTransparent}) {
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.max_wait = SimTime::ms(6000);
    Scheduler sched(rows, cols, cost, cfg);
    const auto stats = sched.run_tasks(tasks);
    std::printf("%-24s %6d/%2d %10.2f %12.2f %14.2f\n",
                to_string(policy).c_str(),
                static_cast<int>(tasks.size()) - stats.rejected,
                static_cast<int>(tasks.size()),
                stats.makespan.seconds(), stats.avg_allocation_delay_ms(),
                stats.total_halted.milliseconds());
  }
  std::printf("\nthe transparent policy delivers the virtual-hardware "
              "illusion: every byte of\nrearrangement cost lands on the "
              "configuration port, none on the applications.\n");
  return 0;
}
