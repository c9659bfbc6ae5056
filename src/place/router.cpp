#include "relogic/place/router.hpp"

#include <algorithm>
#include <bit>

namespace relogic::place {

using fabric::NetId;
using fabric::NodeId;
using fabric::NodeInfo;
using fabric::NodeKind;

void Router::SearchTable::clear() {
  for (const std::uint32_t i : filled_) slots_[i] = Slot{};
  filled_.clear();
}

Router::SearchTable::Slot* Router::SearchTable::find(std::uint64_t key) {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.key == key) return &s;
    if (s.key == kNone) return nullptr;
  }
}

Router::SearchTable::Slot& Router::SearchTable::claim(std::uint64_t key) {
  // Load factor at most 1/2 keeps probe runs short.
  if (2 * (filled_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].key != key && slots_[i].key != kNone) i = (i + 1) & mask;
  Slot& s = slots_[i];
  if (s.key == kNone) {
    s.key = key;
    filled_.push_back(static_cast<std::uint32_t>(i));
  }
  return s;
}

void Router::SearchTable::grow() {
  std::vector<Slot> old;
  old.reserve(filled_.size());
  for (const std::uint32_t i : filled_) old.push_back(slots_[i]);
  const std::size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
  slots_.assign(cap, Slot{});
  shift_ = 64 - std::countr_zero(cap);
  filled_.clear();
  for (const Slot& s : old) claim(s.key) = s;
}

std::vector<NodeId> Router::find_path(NetId net, NodeId sink,
                                      const RouteOptions& opt) {
  const auto& tree = fabric_->net(net);
  std::vector<NodeId> seeds = tree.nodes();
  RELOGIC_CHECK_MSG(!seeds.empty(),
                    "net has no tree to route from; use find_path_from");
  return find_path_from(seeds, net, sink, opt);
}

std::vector<NodeId> Router::find_path_from(std::span<const NodeId> seeds,
                                           NetId net, NodeId sink,
                                           const RouteOptions& opt) {
  const auto& graph = fabric_->graph();
  const auto& skel = fabric_->skeleton();
  const NodeInfo sink_info = skel.info(sink);
  RELOGIC_CHECK_MSG(
      sink_info.kind == NodeKind::kInPin || sink_info.kind == NodeKind::kPad,
      "route sink must be an input pin or a pad");
  {
    const NetId occ = graph.occupant(sink);
    if (occ != fabric::kNoNet && occ != net)
      throw ResourceError("route sink " + sink_info.to_string() +
                          " is occupied by another net");
  }

  // Admissible-ish heuristic: one single line + one PIP per remaining tile.
  const std::int64_t per_tile =
      (dm_->single_delay + dm_->pip_delay).picoseconds();
  auto heuristic = [&](const NodeInfo& info) -> std::int64_t {
    if (info.kind == NodeKind::kLongRow)
      return std::abs(info.tile.row - sink_info.tile.row) * per_tile;
    if (info.kind == NodeKind::kLongCol)
      return std::abs(info.tile.col - sink_info.tile.col) * per_tile;
    return manhattan(info.tile, sink_info.tile) * per_tile;
  };

  // Search state: (node, touched-tree bit). A path may join the net's
  // existing tree at most once and never re-enter it after leaving —
  // re-joining upstream of the leave point would close a cycle through
  // the tree. Riding the tree (net-node to net-node) must follow existing
  // edge directions for the same reason. The search state is emptied here,
  // at the start, so a search that threw leaves nothing behind.
  open_.clear();
  table_.clear();
  // The options in flat form: a byte per CLB column and a sorted node list
  // (std::set iterates in order), so the fanout loop tests neither set.
  avoid_cols_.assign(static_cast<std::size_t>(skel.geometry().clb_cols), 0);
  for (const int c : opt.avoid_columns)
    if (c >= 0 && c < skel.geometry().clb_cols)
      avoid_cols_[static_cast<std::size_t>(c)] = 1;
  avoid_nodes_.assign(opt.avoid_nodes.begin(), opt.avoid_nodes.end());
  auto avoided_node = [this](NodeId n) {
    return std::binary_search(avoid_nodes_.begin(), avoid_nodes_.end(), n);
  };
  // Whether the options rule out node `n` (occupancy is checked apart).
  auto avoided = [&](NodeId n, const NodeInfo& info) {
    if (avoided_node(n)) return true;
    if (info.kind == NodeKind::kLongRow || info.kind == NodeKind::kLongCol)
      return false;
    // PIPs into a node are programmed in the node's own tile column (longs:
    // in the source tile, handled conservatively by also checking wires).
    return avoid_cols_[static_cast<std::size_t>(info.tile.col)] != 0;
  };
  auto key_of = [](NodeId n, bool touched) {
    return (static_cast<std::uint64_t>(n) << 1) | (touched ? 1u : 0u);
  };
  auto edge_key = [](NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  };

  tree_edges_.clear();
  if (fabric_->net_exists(net)) {
    for (const auto& e : fabric_->net(net).edges)
      tree_edges_.push_back(edge_key(e.from, e.to));
    std::sort(tree_edges_.begin(), tree_edges_.end());
  }

  for (NodeId s : seeds) {
    const NodeInfo info = skel.info(s);
    // Seeds belonging to the net are never blocked by their own occupancy;
    // the sink itself is never a seed (a trivial path would leave the sink
    // orphaned when a parallel branch is later pruned).
    if (s == sink || avoided_node(s)) continue;
    const bool touched = graph.occupant(s) == net;
    table_.claim(key_of(s, touched)).g = 0;
    open_.push(QueueItem{heuristic(info), 0, key_of(s, touched)});
  }
  RELOGIC_CHECK_MSG(!table_.empty(), "no usable route seeds");

  int expansions = 0;
  while (!open_.empty()) {
    const QueueItem item = open_.top();
    open_.pop();
    const NodeId item_node = static_cast<NodeId>(item.node >> 1);
    const bool item_touched = (item.node & 1) != 0;
    if (item_node == sink) {
      // Reconstruct.
      std::vector<NodeId> path{sink};
      for (std::uint64_t cur = table_.find(item.node)->parent;
           cur != SearchTable::kNone; cur = table_.find(cur)->parent)
        path.push_back(static_cast<NodeId>(cur >> 1));
      std::reverse(path.begin(), path.end());
      return path;
    }
    if (item.g > table_.find(item.node)->g) continue;  // stale
    if (++expansions > opt.max_expansions) break;

    const bool item_in_net = graph.occupant(item_node) == net;
    for (NodeId next : skel.fanout(item_node)) {
      const NetId occ = graph.occupant(next);
      if (occ != fabric::kNoNet && occ != net) continue;  // another net's
      const NodeInfo info = skel.info(next);
      if (next != sink &&
          (info.kind == NodeKind::kInPin || info.kind == NodeKind::kPad ||
           info.kind == NodeKind::kOutPin))
        continue;  // do not route *through* pins
      if (avoided(next, info)) continue;
      const bool next_in_net = occ == net;
      if (next_in_net && next != sink) {
        if (item_in_net) {
          // Riding: only along existing tree directions.
          if (!std::binary_search(tree_edges_.begin(), tree_edges_.end(),
                                  edge_key(item_node, next)))
            continue;
        } else if (item_touched) {
          continue;  // re-joining after leaving the tree: cycle risk
        }
      }
      const bool next_touched = item_touched || next_in_net;
      const std::int64_t g =
          item.g +
          (dm_->pip_delay + dm_->node_delay(info.kind)).picoseconds();
      const std::uint64_t nkey = key_of(next, next_touched);
      SearchTable::Slot& slot = table_.claim(nkey);
      if (slot.g <= g) continue;
      slot.g = g;
      slot.parent = item.node;
      open_.push(QueueItem{g + heuristic(info), g, nkey});
    }
  }
  throw ResourceError("no route to sink " + sink_info.to_string() +
                      (expansions > opt.max_expansions
                           ? " (expansion budget exhausted)"
                           : " (congestion or avoidance constraints)"));
}

void Router::route_sink(NetId net, NodeId sink, const RouteOptions& opt) {
  const std::vector<NodeId> path = find_path(net, sink, opt);
  std::vector<fabric::RouteEdge> edges;
  edges.reserve(path.size());
  for (std::size_t i = 1; i < path.size(); ++i)
    edges.push_back(fabric::RouteEdge{path[i - 1], path[i]});
  fabric_->add_edges(net, edges);
}

}  // namespace relogic::place
