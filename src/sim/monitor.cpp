#include "relogic/sim/monitor.hpp"

namespace relogic::sim {

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kGlitch:
      return "glitch";
    case ViolationKind::kDriveConflict:
      return "drive-conflict";
    case ViolationKind::kStateDivergence:
      return "state-divergence";
  }
  return "?";
}

void GlitchMonitor::watch(fabric::NodeId node, std::string label) {
  watched_[node] = Watch{std::move(label), 0};
}

void GlitchMonitor::unwatch(fabric::NodeId node) { watched_.erase(node); }

void GlitchMonitor::record_transition(fabric::NodeId node, SimTime time) {
  auto it = watched_.find(node);
  if (it == watched_.end()) return;
  ++transitions_;
  if (++it->second.transitions_this_window > 1) {
    violations_.push_back(Violation{
        ViolationKind::kGlitch, time, node,
        it->second.label + " transitioned " +
            std::to_string(it->second.transitions_this_window) +
            " times within one clock window"});
  }
}

void GlitchMonitor::on_clock_edge(SimTime) {
  // lint-allow(unordered-iteration): resets every counter; order-free
  for (auto& [node, w] : watched_) w.transitions_this_window = 0;
}

int GlitchMonitor::count(ViolationKind kind) const {
  int n = 0;
  for (const auto& v : violations_)
    if (v.kind == kind) ++n;
  return n;
}

}  // namespace relogic::sim
