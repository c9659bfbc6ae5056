// bench_fig6_path_delay — reproduces Fig. 6: propagation delay during the
// relocation of routing resources.
//
// While original and replica paths are paralleled, the signal at the
// destination shows an interval of fuzziness bounded by the two path
// delays; the effective delay is the *longer* of the two. The bench routes
// a connection, parallels it with progressively longer replica detours and
// prints the min/max sink delay (the fuzziness interval) for each, plus
// the settled delay after the original path is removed.
#include <cstdio>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/place/router.hpp"
#include "relogic/reloc/engine.hpp"

using namespace relogic;
using fabric::Dir;
using fabric::NodeId;

int main() {
  std::printf("# Fig. 6 — propagation delay during routing relocation\n");
  std::printf("%-12s %14s %14s %16s %18s\n", "detour/tiles", "min delay/ns",
              "max delay/ns", "fuzziness/ns", "after disconnect/ns");

  for (int detour = 2; detour <= 12; detour += 2) {
    // Fresh occupancy per detour length; connectivity comes from the
    // shared cached skeleton after the first iteration.
    fabric::Fabric fab(fabric::DeviceGeometry::tiny(16, 16));
    const fabric::DelayModel dm;
    const auto& g = fab.skeleton();

    // Original path: straight east along row 8.
    const fabric::NetId net = fab.create_net("fig6");
    const NodeId src = g.out_pin({8, 2}, 0, false);
    const NodeId sink = g.in_pin({8, 6}, 0, fabric::CellPort::kI0);
    fab.attach_source(net, src);
    NodeId prev = src;
    for (int c = 2; c < 6; ++c) {
      const NodeId w = g.single({8, c}, Dir::kE, 0);
      fab.add_edge(net, {prev, w});
      prev = w;
    }
    fab.add_edge(net, {prev, sink});
    const auto before = fab.sink_delays(net, dm);

    // Replica path: up `detour/2` rows, east, and back down (Fig. 5 shape).
    prev = src;
    const int up = detour / 2;
    for (int r = 8; r > 8 - up; --r) {
      const NodeId w = g.single({r, 2}, Dir::kN, 1);
      fab.add_edge(net, {prev, w});
      prev = w;
    }
    for (int c = 2; c < 6; ++c) {
      const NodeId w = g.single({8 - up, c}, Dir::kE, 1);
      fab.add_edge(net, {prev, w});
      prev = w;
    }
    for (int r = 8 - up; r < 8; ++r) {
      const NodeId w = g.single({r, 6}, Dir::kS, 1);
      fab.add_edge(net, {prev, w});
      prev = w;
    }
    fab.add_edge(net, {prev, sink});
    fab.validate_net(net);

    const auto parallel = fab.sink_delays(net, dm);

    // Disconnect the original path (the Fig. 5 final step).
    std::vector<fabric::RouteEdge> original;
    NodeId p = src;
    for (int c = 2; c < 6; ++c) {
      const NodeId w = g.single({8, c}, Dir::kE, 0);
      original.push_back({p, w});
      p = w;
    }
    original.push_back({p, sink});
    fab.remove_edges(net, original);
    fab.validate_net(net);
    const auto after = fab.sink_delays(net, dm);

    std::printf("%-12d %14.3f %14.3f %16.3f %18.3f\n", detour,
                parallel[0].min.nanoseconds(), parallel[0].max.nanoseconds(),
                (parallel[0].max - parallel[0].min).nanoseconds(),
                after[0].max.nanoseconds());
    (void)before;
  }

  std::printf("\n# shape check: paralleled delay equals the longer path; the\n"
              "# fuzziness interval grows with the detour length (Fig. 6).\n");
  return 0;
}
