// Golden-model simulator: cycle-accurate functional reference for a
// netlist, independent of the fabric.
//
// The relocation experiments compare the fabric-level simulation of a
// circuit — while its CLBs are being relocated — against this model driven
// with identical stimuli. Equality of outputs and state at every clock
// cycle is the machine-checked version of the paper's "no loss of state
// information or functional disturbance was observed".
#pragma once

#include <array>
#include <cstdint>
#include <string>
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
  /// `n` rising edges with the inputs held: the same values as `n` calls
  /// of clock(). Once the state repeats, whole periods are skipped.
  void clock(std::int64_t n);

  bool value(SigId sig) const {
    RELOGIC_CHECK(sig < nl_->node_count());
    return values_[sig] != 0;
  }
  bool output(const std::string& name) const;
  /// Values of all state elements, in Netlist::state_elements() order.
  std::vector<bool> state() const;
  /// Values of all outputs, in Netlist::outputs() order.
  std::vector<bool> outputs() const;

  const Netlist& netlist() const { return *nl_; }

 private:
  /// One combinational node as a truth table over four fanin slots: every
  /// gate kind is compiled to the mask of its function (a kLut keeps its
  /// own), and unused slots read the constant-0 slot, so vectors past the
  /// node's fanin count never occur.
  struct Op {
    std::uint16_t lut = 0;
    SigId out = kInvalidSig;
    std::array<SigId, 4> in{};
  };
  /// A DFF (`en` is the constant-1 slot when it has no CE) or a latch
  /// (`en` is its gate).
  struct Storage {
    SigId q = kInvalidSig;
    SigId d = kInvalidSig;
    SigId en = kInvalidSig;
  };

  void propagate_comb();

  const Netlist* nl_;
  /// Ops in Netlist::topo_order().
  std::vector<Op> ops_;
  /// DFFs and latches, each in Netlist::state_elements() order.
  std::vector<Storage> dffs_;
  std::vector<Storage> latches_;
  /// One byte per signal, then the constant-0 and constant-1 slots.
  std::vector<std::uint8_t> values_;
  /// clock()'s capture buffer, one D value per DFF.
  std::vector<std::uint8_t> captures_;
  /// clock(n)'s cycle detector: `values_` at an earlier edge.
  std::vector<std::uint8_t> tortoise_;
};

}  // namespace relogic::netlist
