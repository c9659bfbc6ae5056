#include "relogic/fabric/delay.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace relogic::fabric {

SimTime DelayModel::path_delay(const RoutingSkeleton& skeleton,
                               std::span<const NodeId> path) const {
  SimTime total = SimTime::zero();
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += pip_delay;
    total += node_delay(skeleton.info(path[i]).kind);
  }
  return total;
}

SimTime DelayModel::route_delay_lower_bound(const RoutingSkeleton& skeleton,
                                            std::span<const NodeId> sources,
                                            NodeId sink) const {
  if (sources.empty()) return SimTime::zero();
  const int span = skeleton.geometry().hex_span;
  RELOGIC_CHECK(span >= 1);
  const std::int64_t single = (pip_delay + single_delay).picoseconds();
  const std::int64_t hex = (pip_delay + hex_delay).picoseconds();
  const std::int64_t jump = (pip_delay + long_delay).picoseconds();
  const auto axis = [&](int d) {
    if (d == 0) return std::int64_t{0};
    std::int64_t best = jump;
    for (int b = 0; b <= (d + span - 1) / span; ++b)
      best = std::min(best, b * hex + std::abs(d - span * b) * single);
    return best;
  };
  const NodeInfo to = skeleton.info(sink);
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const NodeId s : sources) {
    const NodeInfo from = skeleton.info(s);
    best = std::min(best, axis(std::abs(from.tile.row - to.tile.row)) +
                              axis(std::abs(from.tile.col - to.tile.col)));
  }
  return SimTime::ps(best) + pip_delay + node_delay(to.kind);
}

}  // namespace relogic::fabric
