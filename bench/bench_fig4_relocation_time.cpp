// bench_fig4_relocation_time — reproduces the paper's headline
// measurement: "The average relocation time of each CLB implementing
// synchronous gated-clock circuits is about 22,6 ms, when the Boundary
// Scan infrastructure is used to perform the reconfiguration, at a test
// clock frequency of 20 MHz."
//
// Method (matching Sec. 2): implement ITC'99-class circuits on an XCV200
// model, run them under random stimuli, and relocate their cells one by
// one with the Fig. 4 gated-clock procedure, measuring configuration-port
// time per relocated cell. The same run verifies the qualitative claim:
// no loss of state information, no output glitches.
//
// SelectMAP numbers are printed for contrast, and the analytical cost
// model (used by the scheduler) is validated against the measured values.
#include <cstdio>
#include <string>

#include "bench_report.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

using namespace relogic;
using netlist::bench::ClockingStyle;

namespace {

struct Result {
  std::string name;
  int ffs = 0;
  int cells_moved = 0;
  int frames = 0;
  int columns = 0;  ///< per-column port transactions (controller totals)
  int skipped = 0;  ///< dirty-skipped frames (controller totals)
  double total_ms = 0;
  bool clean = true;
  double per_cell_ms() const { return total_ms / cells_moved; }
};

Result run_circuit(
    const netlist::bench::SuiteEntry& entry, const config::ConfigPort& port,
    int max_cells,
    config::WriteGranularity gran = config::WriteGranularity::kColumn) {
  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  config::ConfigController controller(fab, port, gran);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto mapped = netlist::map_netlist(entry.circuit);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, ClbCoord{2, 2}, fab.geometry());
  auto impl = implementer.implement(mapped, opts);

  sim::CircuitHarness harness(sim, entry.circuit, impl);
  harness.watch_registered_outputs();
  Rng rng(0xF16'4 + static_cast<unsigned>(impl.cell_count()));
  bool ok = true;
  for (int i = 0; i < 8 && ok; ++i) ok = harness.step_random(rng).ok();

  Result r;
  r.name = entry.name;
  r.ffs = entry.circuit.ff_count();
  const int n = std::min(max_cells, impl.cell_count());
  for (int i = 0; i < n; ++i) {
    const place::CellSite dest{
        ClbCoord{impl.region.row + 14, impl.region.col + 18 + (i / 4)},
        i % 4};
    const auto rep = engine.relocate_cell(impl, i, dest);
    r.total_ms += rep.config_time.milliseconds();
    r.frames += rep.frames_written;
    ++r.cells_moved;
  }
  // Only the relocation ops above went through this controller, so its
  // totals are exactly the workload's measured telemetry.
  r.columns = controller.totals().columns_touched;
  r.skipped = controller.totals().frames_skipped;
  for (int i = 0; i < 10 && ok; ++i) ok = harness.step_random(rng).ok();
  r.clean = ok && sim.monitor().clean();
  if (!r.clean) {
    for (const auto& line : harness.mismatch_log())
      std::fprintf(stderr, "  [%s] %s\n", entry.name.c_str(), line.c_str());
    for (const auto& v : sim.monitor().violations())
      std::fprintf(stderr, "  [%s] %s: %s\n", entry.name.c_str(),
                   to_string(v.kind).c_str(), v.description.c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick bounds per-circuit sampling for CI-style runs;
  // RELOGIC_BENCH_SMOKE=1 additionally trims the circuit suite (CI smoke).
  const bool smoke = bench_report::bench_smoke_enabled();
  int max_cells = smoke ? 2 : 10;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") max_cells = 1 << 20;
  }

  auto suite = netlist::bench::itc99_suite(ClockingStyle::kGatedClock);
  if (smoke && suite.size() > 3) suite.resize(3);
  config::BoundaryScanPort jtag;  // 20 MHz TCK — the paper's configuration
  config::SelectMapPort smap;

  std::printf("# Fig. 3/4 — dynamic relocation of gated-clock CLB cells\n");
  std::printf("# device XCV200, Boundary Scan @ 20 MHz (paper set-up)\n\n");
  std::printf("%-6s %5s %7s %14s %16s  %s\n", "ckt", "FFs", "moved",
              "total/ms", "per-cell/ms", "verdict");

  double sum_ms = 0;
  int sum_cells = 0;
  bool all_clean = true;
  for (const auto& entry : suite) {
    const Result r = run_circuit(entry, jtag, max_cells);
    std::printf("%-6s %5d %7d %14.2f %16.2f  %s\n", r.name.c_str(), r.ffs,
                r.cells_moved, r.total_ms, r.per_cell_ms(),
                r.clean ? "no state loss, no glitches" : "FAILED");
    sum_ms += r.total_ms;
    sum_cells += r.cells_moved;
    all_clean = all_clean && r.clean;
  }
  const double avg = sum_ms / sum_cells;
  std::printf("\naverage per relocated gated-clock cell: %.1f ms "
              "(paper: ~22.6 ms)\n",
              avg);

  bench_report::Report json("fig4_relocation_time");
  json.add("per_cell_boundary_scan", avg, "ms");

  // SelectMAP contrast: the same procedure through the parallel port.
  {
    const Result r = run_circuit(suite[0], smap, std::min(max_cells, 5));
    std::printf("SelectMAP contrast (%s): %.2f ms per cell — the port, not "
                "the procedure, dominates\n",
                r.name.c_str(), r.per_cell_ms());
    json.add("per_cell_selectmap", r.per_cell_ms(), "ms");
  }

  // Write-granularity sweep (DESIGN.md §6.1): the same Fig. 4 relocation
  // workload under column / frame / dirty-frame writes, on each backend.
  // The column regime rewrites every already-identical byte of each
  // touched column, so frame-accurate writes cut the frames written
  // drastically — the biggest speed lever left in the hot path. The
  // relocation op stream itself has no redundant writes, so dirty equals
  // frame here; dirty's skips appear on redundant streams (self-test
  // clears, repeated re-configuration, batcher-merged cancellations).
  Result jtag_frame_run, jtag_dirty_run;  // kept for the calibration pass
  {
    std::printf("\n# write-granularity sweep (%s, %d cells)\n",
                suite[0].name.c_str(), std::min(max_cells, 5));
    int column_frames = 0, dirty_frames = 0;
    for (const auto gran : {config::WriteGranularity::kColumn,
                            config::WriteGranularity::kFrame,
                            config::WriteGranularity::kDirtyFrame}) {
      for (const auto backend :
           {config::PortBackend::kJtag, config::PortBackend::kSelectMap8,
            config::PortBackend::kIcap32}) {
        const auto port = config::make_port(backend);
        const Result r =
            run_circuit(suite[0], *port, std::min(max_cells, 5), gran);
        std::printf("  %-6s x %-10s: %6d frames, %8.3f ms/cell, %s\n",
                    config::to_string(gran).c_str(),
                    config::to_string(backend).c_str(), r.frames,
                    r.per_cell_ms(), r.clean ? "clean" : "FAILED");
        all_clean = all_clean && r.clean;
        // Keyed by backend token, matching bench_frame_cost's scheme.
        json.add("per_cell_" + config::to_string(backend) + "_" +
                     config::to_string(gran),
                 r.per_cell_ms(), "ms");
        if (backend == config::PortBackend::kJtag) {
          if (gran == config::WriteGranularity::kColumn)
            column_frames = r.frames;
          if (gran == config::WriteGranularity::kFrame) jtag_frame_run = r;
          if (gran == config::WriteGranularity::kDirtyFrame) {
            dirty_frames = r.frames;
            jtag_dirty_run = r;
          }
        }
      }
    }
    const double reduction =
        100.0 * (column_frames - dirty_frames) / std::max(1, column_frames);
    std::printf("  frame-accurate (dirty) writes: %d frames vs %d "
                "column-regime (%.1f%% fewer)\n",
                dirty_frames, column_frames, reduction);
    json.add("frames_dirty_vs_column_reduction_pct", reduction, "%");
    // Acceptance gate (ISSUE 4): dirty must cut frames vs column by >= 30%
    // on this workload — fail the bench (and CI's bench smoke) otherwise.
    if (reduction < 30.0) {
      std::fprintf(stderr,
                   "FAIL: dirty-frame reduction %.1f%% below the 30%% "
                   "acceptance threshold\n",
                   reduction);
      all_clean = false;
    }
  }

  // Frame-regime knob calibration (ROADMAP: "re-fit both from the engine's
  // telemetry"). RelocationCostModel's frame-regime parameters —
  // frame_granular_frames_per_txn and dirty_write_fraction — were modelled,
  // not measured. Fit both per workload class from telemetry the engine
  // just produced:
  //  * "reloc": the Fig. 4 relocation stream above (controller totals of
  //    the kFrame / kDirtyFrame JTAG runs);
  //  * "refresh": a periodic re-configuration stream (every op re-applied
  //    verbatim, the redundancy self-test clears and batcher-merged
  //    sequences exhibit), measured through a fresh controller pair.
  {
    const reloc::CostParams defaults;
    const auto fit = [&](const char* cls, int frame_frames, int frame_cols,
                         int dirty_frames) {
      const double ftxn =
          frame_cols > 0 ? static_cast<double>(frame_frames) / frame_cols
                         : static_cast<double>(defaults.frame_granular_frames_per_txn);
      const double frac =
          frame_frames > 0 ? static_cast<double>(dirty_frames) / frame_frames
                           : defaults.dirty_write_fraction;
      std::printf(
          "  %-8s frames/txn fitted %5.1f (default %d), dirty fraction "
          "fitted %.2f (default %.1f)\n",
          cls, ftxn, defaults.frame_granular_frames_per_txn, frac,
          defaults.dirty_write_fraction);
      json.add(std::string("fitted_frames_per_txn_") + cls, ftxn, "frames");
      json.add(std::string("fitted_dirty_write_fraction_") + cls, frac, "");
    };

    std::printf("\n# frame-regime knob calibration (measured telemetry)\n");
    fit("reloc", jtag_frame_run.frames, jtag_frame_run.columns,
        jtag_dirty_run.frames);

    // Periodic-refresh stream: two identical passes over a block of cells.
    int refresh_frames[2] = {0, 0};
    int refresh_cols = 0;
    int g = 0;
    for (const auto gran : {config::WriteGranularity::kFrame,
                            config::WriteGranularity::kDirtyFrame}) {
      fabric::Fabric fab(fabric::DeviceGeometry::tiny(12, 12));
      config::ConfigController ctl(fab, jtag, gran);
      for (int round = 0; round < 2; ++round) {
        for (int c = 0; c < 8; ++c) {
          config::ConfigOp op("refresh col " + std::to_string(c));
          for (int r = 0; r < 4; ++r) {
            fabric::LogicCellConfig cfg;
            cfg.used = true;
            cfg.lut = static_cast<std::uint16_t>(0x5A5A + c);
            op.write_cell(ClbCoord{r, c}, r % 4, cfg);
          }
          ctl.apply(op);
        }
      }
      refresh_frames[g] = ctl.totals().frames_written;
      if (gran == config::WriteGranularity::kFrame)
        refresh_cols = ctl.totals().columns_touched;
      ++g;
    }
    fit("refresh", refresh_frames[0], refresh_cols, refresh_frames[1]);
  }

  // Cost-model validation (the scheduler prices moves with this model).
  {
    const auto geom = fabric::DeviceGeometry::xcv200();
    const reloc::RelocationCostModel model(geom, jtag);
    const double modelled =
        model.cell_time(fabric::RegMode::kFF, /*gated=*/true).milliseconds();
    std::printf("analytical cost model: %.1f ms per gated cell "
                "(measured %.1f ms, error %+.0f%%)\n",
                modelled, avg, 100.0 * (modelled - avg) / avg);
    json.add("cost_model_error_pct", 100.0 * (modelled - avg) / avg, "%");
  }
  json.write();
  return all_clean ? 0 : 1;
}
