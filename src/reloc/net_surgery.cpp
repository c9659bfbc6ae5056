#include "relogic/reloc/net_surgery.hpp"

#include <algorithm>

#include "relogic/fabric/tree_index.hpp"

namespace relogic::reloc {

using fabric::NetId;
using fabric::NodeId;
using fabric::RouteEdge;

namespace {

/// The edges of `net` on some path from `sources` to `sinks` (on_path) or
/// on none (!on_path), in tree edge order.
std::vector<RouteEdge> filter_edges(const fabric::Fabric& fabric, NetId net,
                                    const std::vector<NodeId>& sources,
                                    const std::vector<NodeId>& sinks,
                                    bool on_path) {
  const auto& edges = fabric.net(net).edges;
  const fabric::TreeIndex index(fabric.net(net));
  std::vector<std::uint8_t> from_sources, to_sinks;
  index.reach(sources, /*forward=*/true, from_sources);
  index.reach(sinks, /*forward=*/false, to_sinks);
  std::vector<RouteEdge> out;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const bool needed = from_sources[index.edge_from(k)] != 0 &&
                        to_sinks[index.edge_to(k)] != 0;
    if (needed == on_path) out.push_back(edges[k]);
  }
  return out;
}

}  // namespace

std::vector<RouteEdge> needed_edges(const fabric::Fabric& fabric, NetId net,
                                    const std::vector<NodeId>& sources_keep,
                                    const std::vector<NodeId>& sinks_keep) {
  return filter_edges(fabric, net, sources_keep, sinks_keep, true);
}

std::vector<RouteEdge> prune_for_removal(const fabric::Fabric& fabric,
                                         NetId net,
                                         const std::vector<NodeId>& dropped) {
  std::vector<NodeId> sources = fabric.net(net).sources;
  std::vector<NodeId> sinks = fabric.net_sinks(net);
  for (const NodeId d : dropped) {
    std::erase(sources, d);
    std::erase(sinks, d);
  }
  return filter_edges(fabric, net, sources, sinks, false);
}

}  // namespace relogic::reloc
