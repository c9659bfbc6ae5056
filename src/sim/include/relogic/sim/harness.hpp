// CircuitHarness: lockstep comparison of a fabric implementation against
// the golden netlist model.
//
// Drives identical stimuli into both, cycle by cycle, and compares every
// primary output and every state element. Run *across* a relocation, a
// clean harness report is the reproduction of the paper's validation
// ("no loss of state information or functional disturbance was observed
// during the execution of these experiments").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/netlist/golden.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/sim/simulator.hpp"

namespace relogic::sim {

class CircuitHarness {
 public:
  /// The simulator must already have a clock for the implementation's
  /// domain (synchronous circuits).
  CircuitHarness(FabricSim& sim, const netlist::Netlist& nl,
                 const place::Implementation& impl);

  /// Registers every registered primary output with the glitch monitor.
  void watch_registered_outputs();

  struct CycleResult {
    int output_mismatches = 0;
    int state_mismatches = 0;
    bool ok() const { return output_mismatches == 0 && state_mismatches == 0; }
  };

  /// One synchronous cycle: drive inputs (ordered as
  /// netlist.inputs()), settle, clock both models, compare outputs and
  /// state. Input-timing contract: the inputs are driven at least T/2
  /// before the edge that captures them; if the simulator stands closer
  /// than that to the next edge (a reconfiguration ended there), that edge
  /// passes first with the previous inputs held.
  CycleResult step(const std::vector<bool>& inputs);
  CycleResult step_random(Rng& rng);

  /// For asynchronous (latch) circuits: drive inputs, let both models
  /// settle, compare outputs and latch state. No clock involved.
  CycleResult settle_step(const std::vector<bool>& inputs);

  int cycles_run() const { return cycles_; }
  int total_mismatches() const { return mismatches_; }
  const std::vector<std::string>& mismatch_log() const { return log_; }
  netlist::GoldenSim& golden() { return golden_; }
  const place::Implementation& implementation() const { return *impl_; }

 private:
  void drive(const std::vector<bool>& inputs);
  /// `margin`: how long before the capturing edge the inputs were driven
  /// (none for unclocked settle steps); named in every mismatch line.
  CycleResult compare(const char* when, std::optional<SimTime> margin);

  FabricSim* sim_;
  const netlist::Netlist* nl_;
  const place::Implementation* impl_;
  netlist::GoldenSim golden_;
  std::int64_t golden_edges_ = 0;
  int cycles_ = 0;
  int mismatches_ = 0;
  std::vector<std::string> log_;
};

}  // namespace relogic::sim
