// Delay model for logic and routing resources.
//
// Values default to Virtex-class (-6 speed grade ballpark) numbers. The
// model is deliberately simple — a fixed traversal delay per resource kind
// plus a PIP (switch) delay per programmable connection — because the
// paper's timing arguments are structural: paralleled paths exhibit the
// *longer* of the two delays (Fig. 6), and relocation to distant CLBs
// lengthens paths proportionally to the number of segments crossed.
#pragma once

#include "relogic/common/time.hpp"
#include "relogic/fabric/routing.hpp"

#include <span>

namespace relogic::fabric {

struct DelayModel {
  SimTime lut_delay = SimTime::ps(560);      ///< LUT input to X output
  SimTime clk_to_q = SimTime::ps(720);       ///< clock edge to XQ output
  SimTime latch_d_to_q = SimTime::ps(650);   ///< transparent latch D to Q
  SimTime setup = SimTime::ps(450);          ///< FF setup time
  SimTime pip_delay = SimTime::ps(220);      ///< one programmable switch
  SimTime single_delay = SimTime::ps(380);   ///< single-length line
  SimTime hex_delay = SimTime::ps(950);      ///< hex line (6 tiles)
  SimTime long_delay = SimTime::ps(1900);    ///< long line (full row/col)
  SimTime pad_delay = SimTime::ps(800);      ///< IOB input/output buffer

  /// Wire traversal delay of a node (pins are free; the switch feeding a
  /// node is accounted separately via pip_delay).
  SimTime node_delay(NodeKind kind) const {
    switch (kind) {
      case NodeKind::kSingle:
        return single_delay;
      case NodeKind::kHex:
        return hex_delay;
      case NodeKind::kLongRow:
      case NodeKind::kLongCol:
        return long_delay;
      case NodeKind::kPad:
        return pad_delay;
      case NodeKind::kOutPin:
      case NodeKind::kInPin:
        return SimTime::zero();
    }
    return SimTime::zero();
  }

  /// Delay of a routed path given as a node sequence source..sink: one PIP
  /// per hop plus the traversal delay of each intermediate resource. Delay
  /// is a property of the connectivity alone, read from the skeleton.
  SimTime path_delay(const RoutingSkeleton& skeleton,
                     std::span<const NodeId> path) const;

  /// A lower bound on path_delay of every walk through the skeleton from
  /// one of `sources` (output pins or pads) to `sink` (an input pin or a
  /// pad), occupancy ignored. Every PIP leaves from the landing tile of the
  /// wire before it: a single moves 1 tile, a hex exactly hex_span tiles,
  /// and a long line jumps anywhere along its row or column. Each axis
  /// therefore costs at least
  ///   f(D) = min(pip+long, min over b of b(pip+hex) + |D-span*b|(pip+single)),
  /// f(0) = 0, and the last hop into the sink adds pip + node_delay(sink).
  /// DESIGN.md §12 has the proof; routing_skeleton_test checks the bound
  /// against Dijkstra over the whole skeleton.
  SimTime route_delay_lower_bound(const RoutingSkeleton& skeleton,
                                  std::span<const NodeId> sources,
                                  NodeId sink) const;
};

}  // namespace relogic::fabric
