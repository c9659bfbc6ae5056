// GlitchMonitor: machine-checked version of the paper's oscilloscope.
//
// The paper's claims — "to prevent output glitches ... both CLBs must
// remain in parallel for at least one clock cycle", "no loss of information
// or functional disturbance was observed" — become recorded violations:
//
//  * kGlitch      — a monitored registered net transitioned more than once
//                   within one clock window (a pulse that settles back),
//  * kDriveConflict — a net's paralleled sources disagreed at a sampling
//                   point (the relocation paralleled outputs that were not
//                   functionally identical),
//  * kStateDivergence — recorded by the harness when fabric state differs
//                   from the golden model after a clock edge.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/time.hpp"
#include "relogic/fabric/routing.hpp"

namespace relogic::sim {

enum class ViolationKind : std::uint8_t {
  kGlitch,
  kDriveConflict,
  kStateDivergence,
};

struct Violation {
  ViolationKind kind;
  SimTime time;
  fabric::NodeId node = fabric::kInvalidNode;
  std::string description;
};

class GlitchMonitor {
 public:
  /// Monitors a node (output pad or input pin) whose value must change at
  /// most once per clock window.
  void watch(fabric::NodeId node, std::string label);
  void unwatch(fabric::NodeId node);
  bool watching(fabric::NodeId node) const {
    return watched_.contains(node);
  }

  /// Called by the simulator on every value change of a watched node.
  void record_transition(fabric::NodeId node, SimTime time);
  /// Called by the simulator at each clock edge: closes the window.
  void on_clock_edge(SimTime time);

  void add_violation(Violation v) { violations_.push_back(std::move(v)); }

  const std::vector<Violation>& violations() const { return violations_; }
  int count(ViolationKind kind) const;
  bool clean() const { return violations_.empty(); }
  void clear() { violations_.clear(); }

  /// Total transitions observed on watched nodes (diagnostics).
  std::int64_t transitions_observed() const { return transitions_; }
  /// Counts the transitions of clock periods the simulator fast-forwarded:
  /// `n` transitions that each stayed alone in its window.
  void add_transitions(std::int64_t n) { transitions_ += n; }

 private:
  struct Watch {
    std::string label;
    int transitions_this_window = 0;
  };
  std::unordered_map<fabric::NodeId, Watch> watched_;
  std::vector<Violation> violations_;
  std::int64_t transitions_ = 0;
};

std::string to_string(ViolationKind kind);

}  // namespace relogic::sim
