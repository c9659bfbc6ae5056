#include "relogic/health/rover.hpp"

#include <algorithm>
#include <bit>

#include "relogic/common/logging.hpp"

namespace relogic::health {

namespace {
/// The two complementary LUT test patterns (rover.hpp).
constexpr std::uint16_t kPatterns[] = {0x5555, 0xAAAA};
}  // namespace

std::string SweepReport::to_string() const {
  return "sweep: " + std::to_string(window_positions) + " windows, " +
         std::to_string(clbs_tested) + "/" + std::to_string(clbs_swept) +
         " CLBs tested (" + std::to_string(cells_tested) + " cells), " +
         std::to_string(cells_relocated) + " relocated (" +
         std::to_string(cells_probed) + " dests probed), " +
         std::to_string(faults_detected) + " faults, config " +
         config_time.to_string();
}

RovingTester::RovingTester(reloc::RelocationEngine& engine, FaultMap& map)
    : engine_(&engine), map_(&map) {}

std::optional<place::CellSite> RovingTester::find_dest(
    place::CellSite from, const ClbRect& window,
    const std::vector<place::Implementation*>& live,
    const std::set<int>& lut_ram_cols) const {
  const auto& fab = controller().fabric();
  const auto& geom = fab.geometry();
  std::optional<place::CellSite> best;
  int best_dist = 0;
  for (int r = 0; r < geom.clb_rows; ++r) {
    for (int c = 0; c < geom.clb_cols; ++c) {
      const ClbCoord clb{r, c};
      if (window.contains(clb)) continue;
      if (lut_ram_cols.contains(c)) continue;
      // Other functions' regions keep their routing headroom.
      bool in_region = false;
      for (const auto* impl : live)
        in_region = in_region || impl->region.contains(clb);
      if (in_region) continue;
      const int dist = manhattan(from.clb, clb);
      if (best && dist >= best_dist) continue;
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        if (fab.cell(clb, k).used) continue;
        if (map_->is_detected(clb, k)) continue;
        best = place::CellSite{clb, k};
        best_dist = dist;
        break;
      }
    }
  }
  return best;
}

bool RovingTester::test_cell(ClbCoord clb, int cell, SweepReport& report) {
  auto& fab = controller().fabric();
  const int frame_bits = fab.geometry().frame_length_bits();
  bool faulty = false;
  fabric::CellFault observed;
  for (const std::uint16_t pattern : kPatterns) {
    fabric::LogicCellConfig probe;
    probe.used = true;
    probe.lut = pattern;
    config::ConfigOp op("selftest " + clb.to_string() + "." +
                        std::to_string(cell));
    op.write_cell(clb, cell, probe);
    const auto res = controller().apply(op);
    ++report.ops;
    report.frames_written += res.frames_written;
    report.config_time += res.time;
    // Readback through the same port: one transaction per column. Priced
    // on the op's full frame set (ConfigController::readback_frames), not
    // the written subset — a readback must fetch every frame it wants to
    // verify, so dirty-frame write skipping never shrinks it and sweep
    // readback cost is identical across kFrame and kDirtyFrame.
    report.config_time += controller().port().readback_time(
        controller().readback_frames(op), frame_bits);
    const std::uint16_t got = fab.cell(clb, cell).lut;
    if (got != pattern) {
      faulty = true;
      const std::uint16_t diff = got ^ pattern;
      observed.lut_bit = static_cast<std::uint8_t>(
          std::countr_zero(static_cast<unsigned>(diff)));
      observed.stuck_value = ((got >> observed.lut_bit) & 1u) != 0;
    }
  }
  {
    config::ConfigOp op("selftest clear " + clb.to_string() + "." +
                        std::to_string(cell));
    op.clear_cell(clb, cell);
    const auto res = controller().apply(op);
    ++report.ops;
    report.frames_written += res.frames_written;
    report.config_time += res.time;
  }
  if (faulty) {
    map_->mark_detected(clb, cell, observed);
    ++report.faults_detected;
    if (trace_)
      trace_.instant("health", "fault " + clb.to_string(),
                     controller().totals().time,
                     {obs::arg("cell", cell),
                      obs::arg("lut_bit", int(observed.lut_bit)),
                      obs::arg("stuck_value", observed.stuck_value)});
    RELOGIC_LOG(kInfo) << "selftest: fault at " << clb.to_string()
                       << " cell " << cell << " (bit "
                       << int(observed.lut_bit) << " stuck at "
                       << observed.stuck_value << ")";
  }
  return !faulty;
}

bool RovingTester::probe_cell(place::CellSite site, SweepReport& report) {
  ++report.cells_probed;
  return test_cell(site.clb, site.cell, report);
}

SweepReport RovingTester::sweep(
    const std::vector<place::Implementation*>& live,
    const RoverOptions& opt) {
  RELOGIC_CHECK(opt.window_cols >= 1);
  auto& fab = controller().fabric();
  const auto& geom = fab.geometry();
  SweepReport report;

  // Stable for the whole rotation: the rover never relocates LUT-RAM cells
  // and never vacates into (or tests) their columns.
  const std::set<int> ram_cols = fab.lut_ram_columns();

  for (int col = 0; col < geom.clb_cols; col += opt.window_cols) {
    const int width = std::min(opt.window_cols, geom.clb_cols - col);
    const ClbRect window{0, col, geom.clb_rows, width};
    ++report.window_positions;
    report.clbs_swept += window.area();
    const SimTime window_t0 = controller().totals().time;
    const int relocated_before = report.cells_relocated;
    const int tested_before = report.cells_tested;

    // ---- vacate: relocate live cells out of the window -------------------
    for (auto* impl : live) {
      for (int i = 0; i < impl->cell_count(); ++i) {
        const place::CellSite site =
            impl->sites[static_cast<std::size_t>(i)];
        if (!window.contains(site.clb)) continue;
        // Cells in a live-LUT-RAM column stay put: clearing the original
        // would rewrite that column's frames (illegal on-line), and the
        // column is excluded from testing anyway.
        if (ram_cols.contains(site.clb.col)) continue;
        // Readback-verify the destination before trusting it with live
        // logic; a failed probe records the fault, and find_dest then
        // skips it — terminating because every failure shrinks the
        // candidate set.
        auto dest = find_dest(site, window, live, ram_cols);
        while (dest && !probe_cell(*dest, report))
          dest = find_dest(site, window, live, ram_cols);
        if (!dest) continue;  // nowhere to go: tested around below
        const auto r = engine_->relocate_cell(*impl, i, *dest);
        ++report.cells_relocated;
        report.ops += r.ops;
        report.frames_written += r.frames_written;
        report.config_time += r.config_time;
      }
    }

    // ---- test: complementary patterns into every freed cell --------------
    // Columns holding a live LUT-RAM are excluded (paper Sec. 2): their
    // frames must not be rewritten while the system runs.
    for (int wc = col; wc < col + width; ++wc) {
      if (ram_cols.contains(wc)) {
        ++report.lut_ram_columns_skipped;
        continue;
      }

      for (int r = 0; r < geom.clb_rows; ++r) {
        const ClbCoord clb{r, wc};
        bool clb_tested = false;
        for (int k = 0; k < geom.cells_per_clb; ++k) {
          if (fab.cell(clb, k).used) {
            ++report.cells_skipped;
            continue;
          }
          if (map_->is_detected(clb, k)) continue;  // already masked
          test_cell(clb, k, report);
          ++report.cells_tested;
          clb_tested = true;
        }
        if (clb_tested) ++report.clbs_tested;
      }
    }

    if (trace_)
      trace_.complete(
          "health", "window col " + std::to_string(col), window_t0,
          controller().totals().time - window_t0,
          {obs::arg("cols", width),
           obs::arg("relocated", report.cells_relocated - relocated_before),
           obs::arg("tested", report.cells_tested - tested_before)});
  }

  ++rotations_;
  if (trace_)
    trace_.instant("health", "rotation", controller().totals().time,
                   {obs::arg("rotation", rotations_),
                    obs::arg("faults_detected", report.faults_detected)});
  return report;
}

}  // namespace relogic::health
