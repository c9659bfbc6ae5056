// bench_frame_cost — reproduces the paper's Sec. 2/3 cost observations:
//
//   * "This cost depends on the number of reconfiguration frames needed to
//     relocate each CLB" — frames vs relocation distance;
//   * "the relocation of the CLBs should be performed to nearby CLBs" —
//     path delay growth vs distance;
//   * write granularity (DESIGN.md §6.1): column-granular (JBits-era, what
//     the paper measured) vs frame-granular vs dirty-frame-diffed writes,
//     swept across the three port backends (JTAG / SelectMAP-8 / ICAP-32);
//   * staged whole-function relocation vs direct long-distance moves.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

using namespace relogic;

namespace {

struct Sample {
  int frames = 0;
  int frames_skipped = 0;
  double ms = 0;
  double delay_ns = 0;
};

Sample relocate_at_distance(int distance, config::WriteGranularity gran,
                            config::PortBackend backend) {
  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  const auto port = config::make_port(backend);
  config::ConfigController controller(fab, *port, gran);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto nl =
      netlist::bench::counter(4, netlist::bench::ClockingStyle::kFreeRunning);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, ClbCoord{4, 4}, fab.geometry());
  auto impl = implementer.implement(mapped, opts);

  sim::CircuitHarness harness(sim, nl, impl);
  for (int i = 0; i < 5; ++i) harness.step({});

  const auto totals_before = controller.totals();
  // Destination `distance` columns beyond the implementation region.
  const auto report = engine.relocate_cell(
      impl, 0,
      place::CellSite{ClbCoord{4, impl.region.col_end() + distance - 1}, 3});

  for (int i = 0; i < 5; ++i) harness.step({});
  RELOGIC_CHECK(harness.total_mismatches() == 0);

  // Worst sink delay of the relocated cell's output nets after the move.
  double worst = 0;
  for (const auto& [sig, net] : impl.signal_nets) {
    if (!fab.net_exists(net) || fab.net(net).sources.empty()) continue;
    for (const auto& sd : fab.sink_delays(net, dm)) {
      worst = std::max(worst, sd.max.nanoseconds());
    }
  }
  return Sample{report.frames_written,
                controller.totals().frames_skipped - totals_before.frames_skipped,
                report.config_time.milliseconds(), worst};
}

}  // namespace

int main() {
  using config::PortBackend;
  using config::WriteGranularity;

  std::printf("# Sec. 2/3 — reconfiguration cost vs relocation distance\n\n");
  std::printf("%-10s | %8s %8s %10s | %8s %8s | %8s %8s %8s\n", "", "column",
              "", "", "frame", "", "dirty", "", "");
  std::printf("%-10s | %8s %8s %10s | %8s %8s | %8s %8s %8s\n", "distance",
              "frames", "time/ms", "delay/ns", "frames", "time/ms", "frames",
              "skipped", "time/ms");
  // RELOGIC_BENCH_SMOKE=1: fewer distances, same shape (CI smoke mode).
  const bool smoke = bench_report::bench_smoke_enabled();
  const std::vector<int> distances =
      smoke ? std::vector<int>{1, 8, 24}
            : std::vector<int>{1, 2, 4, 8, 16, 24, 32};
  bench_report::Report json("frame_cost");
  for (const int d : distances) {
    const Sample cg =
        relocate_at_distance(d, WriteGranularity::kColumn, PortBackend::kJtag);
    const Sample fg =
        relocate_at_distance(d, WriteGranularity::kFrame, PortBackend::kJtag);
    const Sample dg = relocate_at_distance(d, WriteGranularity::kDirtyFrame,
                                           PortBackend::kJtag);
    std::printf("%-10d | %8d %8.2f %10.3f | %8d %8.3f | %8d %8d %8.3f\n", d,
                cg.frames, cg.ms, cg.delay_ns, fg.frames, fg.ms, dg.frames,
                dg.frames_skipped, dg.ms);
    json.add("d" + std::to_string(d) + "_col_granular", cg.ms, "ms");
    json.add("d" + std::to_string(d) + "_frame_granular", fg.ms, "ms");
    json.add("d" + std::to_string(d) + "_dirty_frame", dg.ms, "ms");
  }
  std::printf("\n# shape: frames are dominated by the fixed op structure "
              "(column writes),\n# while the worst path delay grows with "
              "distance — the reason the paper\n# relocates to NEARBY CLBs "
              "and moves whole functions in stages.\n");

  // Granularity x port-backend sweep at a fixed distance: the same
  // relocation priced on every configuration plane the fleet supports.
  std::printf("\n## granularity x port backend (single relocation, d=8)\n");
  std::printf("%-12s | %10s %10s | %10s %10s | %10s %10s\n", "", "column", "",
              "frame", "", "dirty", "");
  std::printf("%-12s | %10s %10s | %10s %10s | %10s %10s\n", "port", "frames",
              "time/ms", "frames", "time/ms", "frames", "time/ms");
  int jtag_column_frames = 0, jtag_dirty_frames = 0;
  for (const PortBackend backend :
       {PortBackend::kJtag, PortBackend::kSelectMap8, PortBackend::kIcap32}) {
    Sample s[3];
    int gi = 0;
    for (const WriteGranularity gran :
         {WriteGranularity::kColumn, WriteGranularity::kFrame,
          WriteGranularity::kDirtyFrame}) {
      s[gi] = relocate_at_distance(8, gran, backend);
      json.add("d8_" + config::to_string(backend) + "_" +
                   config::to_string(gran),
               s[gi].ms, "ms");
      ++gi;
    }
    std::printf("%-12s | %10d %10.3f | %10d %10.4f | %10d %10.4f\n",
                config::to_string(backend).c_str(), s[0].frames, s[0].ms,
                s[1].frames, s[1].ms, s[2].frames, s[2].ms);
    if (backend == PortBackend::kJtag) {
      jtag_column_frames = s[0].frames;
      jtag_dirty_frames = s[2].frames;
    }
  }
  {
    // The dirty-diff win, in frames, on the single-relocation workload
    // (samples reused from the sweep above).
    const double reduction = 100.0 * (jtag_column_frames - jtag_dirty_frames) /
                             std::max(1, jtag_column_frames);
    std::printf("\n# frame-accurate (dirty) writes: %d frames where the "
                "column regime wrote %d (%.1f%% fewer)\n",
                jtag_dirty_frames, jtag_column_frames, reduction);
    json.add("dirty_vs_column_frames_reduction_pct", reduction, "%");
  }

  // Staged function relocation: move a counter 18 columns in one hop vs
  // three 6-column stages; compare transient worst delay.
  std::printf("\n## staged vs direct whole-function relocation\n");
  for (const bool staged : {false, true}) {
    fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
    const fabric::DelayModel dm;
    config::BoundaryScanPort jtag;
    config::ConfigController controller(fab, jtag);
    sim::FabricSim sim(fab, dm);
    sim.add_clock(sim::ClockSpec{});
    place::Implementer implementer(fab, dm);
    place::Router router(fab, dm);
    reloc::RelocationEngine engine(controller, router, &sim);

    const auto nl = netlist::bench::counter(
        smoke ? 3 : 6, netlist::bench::ClockingStyle::kFreeRunning);
    const auto mapped = netlist::map_netlist(nl);
    place::ImplementOptions opts;
    opts.region =
        place::suggest_region(mapped, ClbCoord{10, 2}, fab.geometry());
    auto impl = implementer.implement(mapped, opts);
    sim::CircuitHarness harness(sim, nl, impl);
    for (int i = 0; i < 5; ++i) harness.step({});

    SimTime config = SimTime::zero();
    int frames = 0;
    const std::vector<int> stage_cols =
        smoke ? std::vector<int>{6, 9, 12} : std::vector<int>{8, 14, 20};
    if (staged) {
      for (const int col : stage_cols) {
        ClbRect dest = impl.region;
        dest.col = col;
        const auto r = engine.relocate_function(impl, dest);
        config += r.config_time;
        frames += r.frames_written;
      }
    } else {
      ClbRect dest = impl.region;
      dest.col = stage_cols.back();
      const auto r = engine.relocate_function(impl, dest);
      config += r.config_time;
      frames += r.frames_written;
    }
    for (int i = 0; i < 5; ++i) harness.step({});

    std::printf("  %-7s: %6d frames, %8.2f ms config, lockstep %s\n",
                staged ? "staged" : "direct", frames, config.milliseconds(),
                harness.total_mismatches() == 0 ? "clean" : "FAILED");
    json.add(staged ? "function_staged" : "function_direct",
             config.milliseconds(), "ms");
  }
  json.write();
  return 0;
}
