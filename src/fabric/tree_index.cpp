#include "relogic/fabric/tree_index.hpp"

#include <algorithm>

namespace relogic::fabric {

namespace {

/// CSR of the edges `from[k] -> to[k]` over `n` dense indices; a node's
/// row lists its targets in edge order.
void build_csr(std::size_t n, const std::vector<std::uint32_t>& from,
               const std::vector<std::uint32_t>& to,
               std::vector<std::uint32_t>& offsets,
               std::vector<std::uint32_t>& adj) {
  offsets.assign(n + 1, 0);
  for (const std::uint32_t f : from) ++offsets[f + 1];
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  adj.resize(from.size());
  // offsets[f] walks over f's row as it fills, then shifts back by one.
  for (std::size_t k = 0; k < from.size(); ++k)
    adj[offsets[from[k]]++] = to[k];
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
}

}  // namespace

void TreeIndex::assign(const RouteTree& tree) {
  // One sort of (node, slot) keys numbers the nodes and resolves every
  // edge endpoint and source to its dense index in the same pass. Slots
  // 2k and 2k + 1 are edge k's endpoints; the sources follow.
  const std::size_t edge_slots = 2 * tree.edges.size();
  keys_.clear();
  keys_.reserve(edge_slots + tree.sources.size());
  for (std::size_t k = 0; k < tree.edges.size(); ++k) {
    keys_.push_back(std::uint64_t{tree.edges[k].from} << 32 | (2 * k));
    keys_.push_back(std::uint64_t{tree.edges[k].to} << 32 | (2 * k + 1));
  }
  for (std::size_t s = 0; s < tree.sources.size(); ++s)
    keys_.push_back(std::uint64_t{tree.sources[s]} << 32 | (edge_slots + s));
  std::sort(keys_.begin(), keys_.end());

  nodes_.clear();
  nodes_.reserve(keys_.size());
  source_.clear();
  source_.reserve(keys_.size());
  edge_from_.resize(tree.edges.size());
  edge_to_.resize(tree.edges.size());
  for (const std::uint64_t key : keys_) {
    const auto node = static_cast<NodeId>(key >> 32);
    const std::size_t slot = key & 0xFFFFFFFFu;
    if (nodes_.empty() || nodes_.back() != node) {
      nodes_.push_back(node);
      source_.push_back(0);
    }
    const auto i = static_cast<std::uint32_t>(nodes_.size() - 1);
    if (slot >= edge_slots)
      source_[i] = 1;
    else
      (slot % 2 == 0 ? edge_from_ : edge_to_)[slot / 2] = i;
  }
  const std::size_t n = nodes_.size();
  build_csr(n, edge_from_, edge_to_, out_offsets_, out_adj_);
  build_csr(n, edge_to_, edge_from_, in_offsets_, in_adj_);

  // Kahn: a node joins the order once all its fanin has (order_: queue).
  order_.clear();
  order_.reserve(n);
  pending_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pending_[i] = in_offsets_[i + 1] - in_offsets_[i];
    if (pending_[i] == 0) order_.push_back(i);
  }
  for (std::size_t head = 0; head < order_.size(); ++head) {
    for (const std::uint32_t v : fanout(order_[head])) {
      if (--pending_[v] == 0) order_.push_back(v);
    }
  }
}

std::uint32_t TreeIndex::find(NodeId n) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), n);
  if (it == nodes_.end() || *it != n) return kAbsent;
  return static_cast<std::uint32_t>(it - nodes_.begin());
}

void TreeIndex::delays(const RoutingSkeleton& skeleton, const DelayModel& dm,
                       std::vector<Delay>& out) const {
  // Nodes on or behind a cycle (fanin still pending) stay unreached.
  out.assign(nodes_.size(), Delay{SimTime::never(), SimTime::zero(), false});
  const Delay at_source{SimTime::zero(), SimTime::zero(), true};
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (source_[i] != 0 && pending_[i] == 0) out[i] = at_source;
  for (const std::uint32_t u : order_) {
    const Delay from = out[u];
    if (!from.reached) continue;
    for (const std::uint32_t v : fanout(u)) {
      if (pending_[v] != 0) continue;
      const SimTime hop =
          dm.pip_delay + dm.node_delay(skeleton.info(nodes_[v]).kind);
      Delay& to = out[v];
      to.min = std::min(to.min, from.min + hop);
      to.max = std::max(to.max, from.max + hop);
      to.reached = true;
    }
  }
}

void TreeIndex::reach(std::span<const NodeId> seeds, bool forward,
                      std::vector<std::uint8_t>& seen) const {
  const auto& offsets = forward ? out_offsets_ : in_offsets_;
  const auto& adj = forward ? out_adj_ : in_adj_;
  seen.assign(nodes_.size(), 0);
  std::vector<std::uint32_t> stack;
  for (const NodeId s : seeds) {
    const std::uint32_t i = find(s);
    if (i != kAbsent && seen[i] == 0) {
      seen[i] = 1;
      stack.push_back(i);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    for (const std::uint32_t j : row(offsets, adj, i)) {
      if (seen[j] == 0) {
        seen[j] = 1;
        stack.push_back(j);
      }
    }
  }
}

}  // namespace relogic::fabric
