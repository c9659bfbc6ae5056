// TreeIndex: a net's route tree as a graph, the one place a RouteTree
// becomes adjacency (DESIGN.md §2 addendum). The tree's nodes get dense
// indices in ascending id order, with forward and backward CSR adjacency
// over them and a Kahn topological order (CACM 1962). One pass over that
// order gives each node its min and max delay over all source-to-node
// paths, which on a DAG equals enumerating the paths (Fig. 6). Nodes on
// or behind a cycle are left out of the order and count as unreached.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "relogic/fabric/fabric.hpp"

namespace relogic::fabric {

class TreeIndex {
 public:
  /// find() of a node the tree does not hold.
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Min and max delay over all source-to-node paths; not reached (and
  /// meaningless) for a node no source reaches or one behind a cycle.
  struct Delay {
    SimTime min = SimTime::zero();
    SimTime max = SimTime::zero();
    bool reached = false;
  };

  TreeIndex() = default;
  explicit TreeIndex(const RouteTree& tree) { assign(tree); }

  /// Re-indexes `tree` into this index's storage: a long-lived index
  /// (the logic simulator keeps one) allocates nothing once warm.
  void assign(const RouteTree& tree);

  /// The tree's nodes, ascending; a node's position is its dense index.
  std::span<const NodeId> nodes() const { return nodes_; }
  /// Dense index of `n`, or kAbsent.
  std::uint32_t find(NodeId n) const;

  bool is_source(std::uint32_t i) const { return source_[i] != 0; }
  /// Dense indices `i` drives / that drive `i`, in tree edge order.
  std::span<const std::uint32_t> fanout(std::uint32_t i) const {
    return row(out_offsets_, out_adj_, i);
  }
  std::span<const std::uint32_t> fanin(std::uint32_t i) const {
    return row(in_offsets_, in_adj_, i);
  }
  /// Dense endpoints of the tree's k-th edge (RouteTree::edges order).
  std::uint32_t edge_from(std::size_t k) const { return edge_from_[k]; }
  std::uint32_t edge_to(std::size_t k) const { return edge_to_[k]; }

  /// Dense indices in topological order. Nodes on or behind a cycle are
  /// left out.
  std::span<const std::uint32_t> order() const { return order_; }
  bool acyclic() const { return order_.size() == nodes_.size(); }

  /// Fills `out` (one entry per dense index) with each node's delay from
  /// any source: one pass over order(). A source starts at zero; each
  /// edge into a node adds pip_delay plus the node's traversal delay.
  void delays(const RoutingSkeleton& skeleton, const DelayModel& dm,
              std::vector<Delay>& out) const;

  /// Fills `seen` (one byte per dense index) with 1 for every node
  /// reachable from `seeds` along fanout() (forward) or fanin(). Seeds the
  /// tree does not hold reach nothing.
  void reach(std::span<const NodeId> seeds, bool forward,
             std::vector<std::uint8_t>& seen) const;

 private:
  static std::span<const std::uint32_t> row(
      const std::vector<std::uint32_t>& offsets,
      const std::vector<std::uint32_t>& adj, std::uint32_t i) {
    return {adj.data() + offsets[i], adj.data() + offsets[i + 1]};
  }

  /// (node << 32 | slot) sort keys (scratch; see assign()).
  std::vector<std::uint64_t> keys_;
  std::vector<NodeId> nodes_;
  std::vector<std::uint8_t> source_;
  std::vector<std::uint32_t> edge_from_;
  std::vector<std::uint32_t> edge_to_;
  std::vector<std::uint32_t> out_offsets_;
  std::vector<std::uint32_t> out_adj_;
  std::vector<std::uint32_t> in_offsets_;
  std::vector<std::uint32_t> in_adj_;
  std::vector<std::uint32_t> order_;
  /// Kahn's count of fanin not yet ordered; nonzero after assign()
  /// exactly for the nodes on or behind a cycle.
  std::vector<std::uint32_t> pending_;
};

}  // namespace relogic::fabric
