// RelocationEngine — the paper's primary contribution.
//
// Implements the two-phase dynamic relocation procedure (Fig. 2), the
// auxiliary-relocation-circuit state transfer for gated-clock and
// asynchronous circuits (Figs. 3 and 4), and routing relocation (Fig. 5),
// entirely as sequences of partial-reconfiguration transactions applied
// through the ConfigController while the circuit keeps running in the
// FabricSim. The procedure's waits and search bounds are fixed constants
// (DESIGN.md §13), not options. A LUT-RAM cell cannot move on-line
// (paper, Sec. 2); relocate_lut_ram_cell_halted is the explicit
// stop-the-system alternative.
//
// Invariants the engine maintains (and checks against the simulator):
//  * make-before-break: a signal is never broken before its replica path
//    carries it;
//  * the replica's outputs are connected only after they are functionally
//    identical to the original's (state transferred, logic stable);
//  * original and replica stay paralleled for at least one user clock
//    cycle before the original is disconnected (outputs first, then
//    inputs);
//  * no configuration write ever touches a column holding a live LUT-RAM
//    (enforced by ConfigController; routing avoids those columns too),
//    except the writes of relocate_lut_ram_cell_halted, made with the
//    cell's clock domain stopped;
//  * every transaction validates each net its op names: no transaction
//    leaves a live net broken.
#pragma once

#include <string>
#include <vector>

#include "relogic/config/controller.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/place/router.hpp"
#include "relogic/sim/simulator.hpp"

namespace relogic::reloc {

/// Outcome of one relocation.
struct RelocationReport {
  place::CellSite from;
  place::CellSite to;
  fabric::RegMode reg = fabric::RegMode::kNone;
  bool gated_clock = false;
  int ops = 0;
  int frames_written = 0;
  int columns_touched = 0;
  /// Configuration-port busy time (what the paper's 22.6 ms measures).
  SimTime config_time = SimTime::zero();
  /// Total wall-clock time including the mandated clock-cycle waits.
  SimTime wall_time = SimTime::zero();
  /// True if the engine verified state equality before output paralleling.
  bool state_verified = false;
  /// Clock-domain downtime (non-zero only for halt-based LUT-RAM moves).
  SimTime halted = SimTime::zero();

  std::string to_string() const;
};

/// Aggregate over a multi-cell (function) relocation.
struct FunctionRelocationReport {
  std::vector<RelocationReport> cells;
  SimTime config_time = SimTime::zero();
  SimTime wall_time = SimTime::zero();
  int frames_written = 0;

  void add(const RelocationReport& r);
};

class RelocationEngine {
 public:
  /// `sim` must not be null: every move runs against the live circuit,
  /// waits on its clock and checks the replica before paralleling outputs.
  RelocationEngine(config::ConfigController& controller, place::Router& router,
                   sim::FabricSim* sim);

  /// Relocates one logic cell of an implementation to a free site.
  /// Dispatches on the cell's storage mode: purely combinational cells use
  /// the plain two-phase procedure; free-running-clock FFs add the
  /// state-acquisition wait; gated-clock FFs and latches use the auxiliary
  /// relocation circuit. A LUT-RAM cell cannot move on-line (paper,
  /// Sec. 2): it throws IllegalOperationError; see
  /// relocate_lut_ram_cell_halted.
  RelocationReport relocate_cell(place::Implementation& impl, int cell_index,
                                 place::CellSite dest);

  /// The stop-the-system alternative for a LUT-RAM cell (paper, Sec. 2):
  /// halts the cell's clock domain, copies the content and rewires the
  /// cell, then resumes. The report's `halted` field carries the downtime.
  RelocationReport relocate_lut_ram_cell_halted(place::Implementation& impl,
                                                int cell_index,
                                                place::CellSite dest);

  /// Relocates every cell of an implementation into `dest_region`
  /// (cell-by-cell, the staged procedure of Sec. 3), filling the region's
  /// free cells row-major. The region may overlap the source, but it needs
  /// at least as many free cells as the implementation has; otherwise it
  /// throws ResourceError before any configuration write.
  FunctionRelocationReport relocate_function(place::Implementation& impl,
                                             ClbRect dest_region);

  /// Routing relocation (Fig. 5): moves one routed sink of a net onto a
  /// fresh path that avoids its current branch and every live LUT-RAM
  /// column, parallel-then-disconnect.
  RelocationReport relocate_route(fabric::NetId net, fabric::NodeId sink);

  /// A reroute must make its sink at least this much faster to be worth
  /// a reconfiguration (DESIGN.md §13).
  static constexpr SimTime kMinRerouteGain = SimTime::ps(500);

  /// Sec. 3: rearrangement of the existing interconnections after CLB
  /// relocations — reroutes every sink whose fresh shortest path would be
  /// at least kMinRerouteGain faster than its current (possibly
  /// relocation-stretched) path, each via the parallel-then-disconnect
  /// procedure. Running functions are never disturbed.
  struct RouteOptimizationReport {
    int sinks_considered = 0;
    int sinks_rerouted = 0;
    SimTime worst_delay_before = SimTime::zero();
    SimTime worst_delay_after = SimTime::zero();
    SimTime config_time = SimTime::zero();
    int frames_written = 0;
  };
  RouteOptimizationReport optimize_function_routing(
      place::Implementation& impl);

  config::ConfigController& controller() { return *controller_; }

 private:
  /// The Fig. 5 switch onto a planned `path` that avoids `old_branch`:
  /// parallel, wait one cycle, disconnect the old branch.
  RelocationReport switch_route(fabric::NetId net, fabric::NodeId sink,
                                const std::vector<fabric::RouteEdge>& old_branch,
                                const std::vector<fabric::NodeId>& path);
  place::CellSite find_aux_site(place::CellSite near) const;
  /// Applies `op`, lets the simulator run through its port time, then
  /// validates every still-existing net that one of the op's edge or
  /// source changes names.
  void apply(const config::ConfigOp& op, RelocationReport& report,
             bool allow_lut_ram_columns = false);
  void wait_cycles(int cycles, std::uint8_t domain, RelocationReport& report);
  void wait_time(SimTime t, RelocationReport& report);

  fabric::Fabric& fabric() { return controller_->fabric(); }
  const fabric::Fabric& fabric() const { return controller_->fabric(); }

  config::ConfigController* controller_;
  place::Router* router_;
  sim::FabricSim& sim_;
};

}  // namespace relogic::reloc
