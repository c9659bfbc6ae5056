// Golden-model simulator: cycle-accurate functional reference for a
// netlist, independent of the fabric.
//
// The relocation experiments compare the fabric-level simulation of a
// circuit — while its CLBs are being relocated — against this model driven
// with identical stimuli. Equality of outputs and state at every clock
// cycle is the machine-checked version of the paper's "no loss of state
// information or functional disturbance was observed".
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "relogic/netlist/netlist.hpp"

namespace relogic::netlist {

class GoldenSim {
 public:
  explicit GoldenSim(const Netlist& nl);

  /// Resets all state elements to their init values and re-settles.
  void reset();

  void set_input(SigId input, bool value);
  void set_input(const std::string& name, bool value);

  /// Propagates combinational logic and transparent latches to a fixed
  /// point (call after changing inputs between clock edges).
  void settle();

  /// One rising clock edge: every DFF whose CE is true (or absent)
  /// captures, then logic settles.
  void clock();

  bool value(SigId sig) const {
    RELOGIC_CHECK(sig < values_.size());
    return values_[sig];
  }
  bool output(const std::string& name) const;
  /// Values of all state elements, in Netlist::state_elements() order.
  std::vector<bool> state() const;
  /// Values of all outputs, in Netlist::outputs() order.
  std::vector<bool> outputs() const;

  const Netlist& netlist() const { return *nl_; }

 private:
  void propagate_comb();
  bool eval_node(SigId id) const;

  const Netlist* nl_;
  std::vector<SigId> order_;
  std::vector<bool> values_;
  /// clock()'s capture buffer, kept to reuse its allocation across edges.
  std::vector<std::pair<SigId, bool>> captures_;
};

}  // namespace relogic::netlist
