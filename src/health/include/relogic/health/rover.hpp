// RovingTester — concurrent on-line structural test by window sweeping.
//
// Sweeps a test window (1–2 CLB columns wide) across a live device, exactly
// the way Gericota's companion DATE-era work rides the paper's transparent
// relocation: occupied logic cells inside the window are relocated out of
// its way with the two-phase procedure (the circuits keep running), the
// freed cells are exercised with complementary test-pattern configurations
// written through the ConfigController, readback is compared against what
// was written, and the window advances — one full rotation visits every CLB
// of the device exactly once.
//
// Two complementary LUT patterns (0x5555 / 0xAAAA) drive every
// truth-table bit to both polarities, so any single stuck configuration bit
// (fabric::CellFault) produces a readback mismatch on at least one pattern.
// Detections are recorded into the FaultMap; cells already known faulty are
// skipped (no point re-testing a masked cell), as are columns holding live
// LUT-RAM (the paper's Sec. 2 exclusion: their column frames must not be
// rewritten while the system runs).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "relogic/config/controller.hpp"
#include "relogic/health/fault.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"

namespace relogic::health {

struct RoverOptions {
  /// Test window width in CLB columns (the paper-era tools used 1–2).
  int window_cols = 1;
};

/// Outcome of one full-device rotation.
struct SweepReport {
  int window_positions = 0;
  int clbs_swept = 0;       ///< CLBs the window visited (== rows * cols)
  int clbs_tested = 0;      ///< CLBs with at least one cell pattern-tested
  int cells_tested = 0;
  int cells_relocated = 0;  ///< live cells moved out of the window's way
  int cells_probed = 0;     ///< destination cells pre-tested before a move
  int cells_skipped = 0;    ///< occupied cells that could not be vacated
  int lut_ram_columns_skipped = 0;
  int faults_detected = 0;  ///< newly detected faulty cells
  int ops = 0;              ///< configuration transactions issued
  int frames_written = 0;
  SimTime config_time = SimTime::zero();  ///< port busy: writes + readback

  std::string to_string() const;
};

class RovingTester {
 public:
  /// Writes and reads back through `engine`'s controller, and moves live
  /// cells out of the window with `engine`.
  RovingTester(reloc::RelocationEngine& engine, FaultMap& map);

  /// One full rotation over the device. `live` lists the implementations
  /// whose cells the rover may relocate out of the window.
  SweepReport sweep(const std::vector<place::Implementation*>& live,
                    const RoverOptions& opt = {});

  int rotations_completed() const { return rotations_; }

  /// Attaches a trace lane: one 'X' span per window position on the
  /// controller's cumulative port-busy clock (so window spans align with
  /// the controller's own config-op spans), plus fault-detection and
  /// rotation instants. Default handle = disabled.
  void set_trace(obs::TraceTrack track) { trace_ = track; }

 private:
  /// Nearest usable destination outside the window for a cell being
  /// vacated: unused, not detected-faulty, outside every live region, and
  /// never in a column holding live LUT-RAM (config writes there are
  /// illegal while the system runs — paper Sec. 2).
  std::optional<place::CellSite> find_dest(
      place::CellSite from, const ClbRect& window,
      const std::vector<place::Implementation*>& live,
      const std::set<int>& lut_ram_cols) const;

  /// Readback-verifies a free cell before live logic is relocated onto it
  /// (write both patterns, compare, clear). A mismatch records the fault —
  /// so no relocation ever lands on a faulty cell, even an undetected one.
  bool probe_cell(place::CellSite site, SweepReport& report);

  /// One pattern write + readback + compare on a free cell; records the
  /// fault on mismatch. Shared by the window test and the probe.
  bool test_cell(ClbCoord clb, int cell, SweepReport& report);

  config::ConfigController& controller() const {
    return engine_->controller();
  }

  reloc::RelocationEngine* engine_;
  FaultMap* map_;
  int rotations_ = 0;
  obs::TraceTrack trace_;
};

}  // namespace relogic::health
