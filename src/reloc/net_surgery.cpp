#include "relogic/reloc/net_surgery.hpp"

#include <algorithm>
#include <cstdint>

namespace relogic::reloc {

using fabric::NetId;
using fabric::NodeId;
using fabric::RouteEdge;

namespace {

/// Nodes reachable from `seeds` over a CSR adjacency on dense node indices
/// (`seeds` outside the tree reach nothing).
std::vector<std::uint8_t> reach(const std::vector<std::uint32_t>& offsets,
                                const std::vector<std::uint32_t>& adj,
                                const std::vector<NodeId>& nodes,
                                const std::vector<NodeId>& seeds) {
  std::vector<std::uint8_t> seen(nodes.size(), 0);
  std::vector<std::uint32_t> stack;
  for (const NodeId s : seeds) {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), s);
    if (it == nodes.end() || *it != s) continue;
    const auto i = static_cast<std::uint32_t>(it - nodes.begin());
    if (!seen[i]) {
      seen[i] = 1;
      stack.push_back(i);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    for (std::uint32_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (!seen[adj[k]]) {
        seen[adj[k]] = 1;
        stack.push_back(adj[k]);
      }
    }
  }
  return seen;
}

/// CSR of the edges `from[k] -> to[k]` over `n` dense indices.
void build_csr(std::size_t n, const std::vector<std::uint32_t>& from,
               const std::vector<std::uint32_t>& to,
               std::vector<std::uint32_t>& offsets,
               std::vector<std::uint32_t>& adj) {
  offsets.assign(n + 1, 0);
  for (const std::uint32_t f : from) ++offsets[f + 1];
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  adj.resize(from.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t k = 0; k < from.size(); ++k) adj[cursor[from[k]]++] = to[k];
}

}  // namespace

std::vector<RouteEdge> needed_edges(const fabric::Fabric& fabric, NetId net,
                                    const std::vector<NodeId>& sources_keep,
                                    const std::vector<NodeId>& sinks_keep) {
  const auto& edges = fabric.net(net).edges;

  // Dense indices: the tree's edge endpoints, sorted.
  std::vector<NodeId> nodes;
  nodes.reserve(2 * edges.size());
  for (const auto& e : edges) {
    nodes.push_back(e.from);
    nodes.push_back(e.to);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const auto index = [&nodes](NodeId n) {
    return static_cast<std::uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), n) - nodes.begin());
  };
  std::vector<std::uint32_t> from(edges.size()), to(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    from[k] = index(edges[k].from);
    to[k] = index(edges[k].to);
  }

  std::vector<std::uint32_t> offsets, adj;
  build_csr(nodes.size(), from, to, offsets, adj);
  const auto from_sources = reach(offsets, adj, nodes, sources_keep);
  build_csr(nodes.size(), to, from, offsets, adj);
  const auto to_sinks = reach(offsets, adj, nodes, sinks_keep);

  std::vector<RouteEdge> kept;
  kept.reserve(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (from_sources[from[k]] && to_sinks[to[k]]) kept.push_back(edges[k]);
  }
  return kept;
}

namespace {
std::vector<RouteEdge> complement(const fabric::RouteTree& tree,
                                  const std::vector<RouteEdge>& kept) {
  // Sorted membership test: trees pruned during fleet-scale net surgery
  // carry hundreds of edges, where the linear scan per edge was the same
  // O(n^2) shape the routing skeleton's has_edge just shed.
  std::vector<RouteEdge> sorted_kept = kept;
  std::sort(sorted_kept.begin(), sorted_kept.end());
  std::vector<RouteEdge> removed;
  removed.reserve(tree.edges.size() - kept.size());
  for (const auto& e : tree.edges) {
    if (!std::binary_search(sorted_kept.begin(), sorted_kept.end(), e)) {
      removed.push_back(e);
    }
  }
  return removed;
}
}  // namespace

std::vector<RouteEdge> prune_for_sink_removal(const fabric::Fabric& fabric,
                                              NetId net,
                                              NodeId dropped_sink) {
  return prune_for_sinks_removal(fabric, net, {dropped_sink});
}

std::vector<RouteEdge> prune_for_sinks_removal(
    const fabric::Fabric& fabric, NetId net,
    const std::vector<NodeId>& dropped_sinks) {
  const auto& tree = fabric.net(net);
  std::vector<NodeId> sinks = fabric.net_sinks(net);
  for (NodeId d : dropped_sinks) std::erase(sinks, d);
  const auto kept = needed_edges(fabric, net, tree.sources, sinks);
  return complement(tree, kept);
}

std::vector<RouteEdge> prune_for_source_removal(const fabric::Fabric& fabric,
                                                NetId net,
                                                NodeId dropped_source) {
  const auto& tree = fabric.net(net);
  std::vector<NodeId> sources = tree.sources;
  std::erase(sources, dropped_source);
  const auto kept =
      needed_edges(fabric, net, sources, fabric.net_sinks(net));
  return complement(tree, kept);
}

}  // namespace relogic::reloc
