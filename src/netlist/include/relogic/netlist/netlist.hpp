// Gate-level netlist: the technology-independent representation of a
// function before it is mapped onto fabric logic cells.
//
// A netlist is a DAG of nodes, each producing one signal. Storage elements
// (DFFs with optional clock-enable, transparent latches) break combinational
// cycles. A single clock domain is assumed, matching the circuits the paper
// validates on ("purely synchronous with only one single-phase clock");
// gated-clock behaviour is expressed through FF clock-enables and
// asynchronous behaviour through latches, mirroring Sec. 2 of the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/error.hpp"

namespace relogic::netlist {

using SigId = std::uint32_t;
inline constexpr SigId kInvalidSig = 0xFFFFFFFFu;

enum class OpKind : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
  kMux,   ///< fanin = {d0, d1, sel}: out = sel ? d1 : d0
  kLut,   ///< generic truth table over up to 4 fanins
  kDff,   ///< fanin = {d} or {d, ce}
  kLatch, ///< fanin = {d, gate}: transparent while gate = 1
};

struct Node {
  OpKind kind = OpKind::kConst0;
  std::string name;
  std::vector<SigId> fanin;
  std::uint16_t lut = 0;  ///< kLut truth table (bit i = output for vector i)
  bool init = false;      ///< initial value of kDff / kLatch
};

/// Primary output: a named reference to an internal signal.
struct OutputPort {
  std::string name;
  SigId signal = kInvalidSig;
};

class Netlist {
 public:
  explicit Netlist(std::string name = "netlist") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- construction -------------------------------------------------------
  SigId input(std::string name);
  SigId constant(bool value);
  SigId buf(SigId a, std::string name = "");
  SigId not_(SigId a);
  SigId and_(SigId a, SigId b);
  SigId or_(SigId a, SigId b);
  SigId nand_(SigId a, SigId b);
  SigId nor_(SigId a, SigId b);
  SigId xor_(SigId a, SigId b);
  SigId xnor_(SigId a, SigId b);
  /// out = sel ? d1 : d0.
  SigId mux(SigId d0, SigId d1, SigId sel);
  /// Generic LUT over 1..4 fanins.
  SigId lut(std::uint16_t truth, const std::vector<SigId>& fanins,
            std::string name = "");
  /// D flip-flop; `ce` gates capture when provided (gated-clock style).
  SigId dff(SigId d, std::optional<SigId> ce = std::nullopt, bool init = false,
            std::string name = "");
  /// Transparent latch: follows `d` while `gate` is 1 (asynchronous style).
  SigId latch(SigId d, SigId gate, bool init = false, std::string name = "");
  void output(std::string name, SigId signal);

  // ---- feedback construction ------------------------------------------------
  // FSM next-state logic depends on the state registers themselves. Create
  // the register first (its Q is then usable as a fanin), build the cone,
  // and close the loop with connect_dff/connect_latch. validate() rejects
  // netlists with unconnected registers.
  SigId dff_feedback(bool init = false, std::string name = "");
  void connect_dff(SigId ff, SigId d, std::optional<SigId> ce = std::nullopt);
  SigId latch_feedback(bool init = false, std::string name = "");
  void connect_latch(SigId l, SigId d, SigId gate);

  // ---- 'wide' helpers ------------------------------------------------------
  /// AND / OR / XOR reduction of a signal list (balanced tree).
  SigId and_tree(std::vector<SigId> sigs);
  SigId or_tree(std::vector<SigId> sigs);
  SigId xor_tree(std::vector<SigId> sigs);
  /// out = 1 iff the signals equal the little-endian constant `value`.
  SigId equals_const(const std::vector<SigId>& sigs, unsigned value);
  /// Ripple increment of a little-endian register vector; returns sum bits.
  std::vector<SigId> increment(const std::vector<SigId>& sigs);

  // ---- inspection -----------------------------------------------------------
  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(SigId id) const {
    RELOGIC_CHECK(id < nodes_.size());
    return nodes_[id];
  }
  const std::vector<SigId>& inputs() const { return inputs_; }
  const std::vector<OutputPort>& outputs() const { return outputs_; }
  /// All kDff / kLatch nodes.
  const std::vector<SigId>& state_elements() const { return states_; }

  SigId find_input(const std::string& name) const;
  std::optional<SigId> find_output(const std::string& name) const;

  int gate_count() const;  ///< combinational nodes (excl. inputs/consts)
  int ff_count() const;
  int latch_count() const;
  bool has_gated_clock() const;  ///< any DFF with a clock-enable
  bool is_sequential() const { return !states_.empty(); }

  /// Topological order of combinational evaluation: inputs, constants and
  /// state-element outputs are sources. Throws on a combinational cycle.
  std::vector<SigId> topo_order() const;

  /// Structural checks (fanin counts, dangling refs). Throws on violation.
  void validate() const;

 private:
  SigId add(Node n);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<SigId> inputs_;
  std::vector<SigId> states_;
  std::vector<OutputPort> outputs_;
  std::unordered_map<std::string, SigId> input_by_name_;
};

}  // namespace relogic::netlist
