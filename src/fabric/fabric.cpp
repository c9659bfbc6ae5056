#include "relogic/fabric/fabric.hpp"

#include <algorithm>

#include "relogic/fabric/tree_index.hpp"

namespace relogic::fabric {

bool RouteTree::has_source(NodeId n) const {
  return std::find(sources.begin(), sources.end(), n) != sources.end();
}

bool RouteTree::has_edge(RouteEdge e) const {
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

std::vector<NodeId> RouteTree::nodes() const {
  std::vector<NodeId> out = sources;
  for (const auto& e : edges) {
    out.push_back(e.from);
    out.push_back(e.to);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Bring-up acquires the geometry's shared connectivity skeleton from the
// process-wide cache (built once per geometry), so constructing the Nth
// Fabric of a geometry allocates only per-device state — cell configs and
// the routing-occupancy overlay — instead of rebuilding the PIP adjacency.
Fabric::Fabric(DeviceGeometry geometry)
    : geom_(std::move(geometry)),
      graph_(geom_),
      clbs_(static_cast<std::size_t>(geom_.clb_count())),
      lut_ram_per_col_(static_cast<std::size_t>(geom_.clb_cols), 0) {
  RELOGIC_CHECK_MSG(
      geom_.cells_per_clb >= 1 && geom_.cells_per_clb <= kMaxCellsPerClb,
      "cells_per_clb outside the fabric's storable range");
  nets_.emplace_back();       // id 0 is reserved / invalid
  net_alive_.push_back(false);
}

void Fabric::add_listener(FabricListener* listener) {
  RELOGIC_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void Fabric::remove_listener(FabricListener* listener) {
  std::erase(listeners_, listener);
}

LogicCellConfig& Fabric::mutable_cell(ClbCoord c, int cell) {
  RELOGIC_CHECK(geom_.in_bounds(c) && cell >= 0 && cell < geom_.cells_per_clb);
  return clbs_[static_cast<std::size_t>(c.row) * geom_.clb_cols + c.col]
      .cells[static_cast<std::size_t>(cell)];
}

bool Fabric::set_cell_config(ClbCoord c, int cell,
                             const LogicCellConfig& cfg) {
  LogicCellConfig& slot = mutable_cell(c, cell);
  // A defective cell stores the corrupted image of whatever is written; the
  // identical-rewrite comparison runs against what the memory will actually
  // hold, so rewriting the same value through the same fault stays a no-op.
  LogicCellConfig stored = cfg;
  if (!faults_.empty()) {
    if (auto it = faults_.find(cell_index(c, cell)); it != faults_.end())
      stored = it->second.corrupt(stored);
  }
  if (slot == stored) return false;  // identical rewrite: no effect, no event
  const LogicCellConfig before = slot;
  used_cells_ += (stored.used ? 1 : 0) - (before.used ? 1 : 0);
  const int lut_ram_delta =
      (stored.used && stored.lut_mode == LutMode::kRam ? 1 : 0) -
      (before.used && before.lut_mode == LutMode::kRam ? 1 : 0);
  lut_ram_per_col_[static_cast<std::size_t>(c.col)] += lut_ram_delta;
  live_lut_ram_total_ += lut_ram_delta;
  slot = stored;
  for (auto* l : listeners_) l->on_cell_changed(c, cell, before, stored);
  return true;
}

std::set<int> Fabric::lut_ram_columns() const {
  std::set<int> cols;
  if (live_lut_ram_total_ == 0) return cols;
  for (int c = 0; c < geom_.clb_cols; ++c)
    if (lut_ram_per_col_[static_cast<std::size_t>(c)] > 0) cols.insert(c);
  return cols;
}

void Fabric::inject_fault(ClbCoord c, int cell, CellFault fault) {
  RELOGIC_CHECK(geom_.in_bounds(c) && cell >= 0 &&
                cell < geom_.cells_per_clb);
  faults_[cell_index(c, cell)] = fault;
  // Re-corrupt the stored value so the memory is consistent with the fault
  // from the moment of injection (notifies listeners iff a bit flips).
  set_cell_config(c, cell, this->cell(c, cell));
}

const CellFault* Fabric::fault_at(ClbCoord c, int cell) const {
  RELOGIC_CHECK(geom_.in_bounds(c) && cell >= 0 &&
                cell < geom_.cells_per_clb);
  const auto it = faults_.find(cell_index(c, cell));
  return it == faults_.end() ? nullptr : &it->second;
}

bool Fabric::clear_cell(ClbCoord c, int cell) {
  return set_cell_config(c, cell, LogicCellConfig{});
}

NetId Fabric::create_net(std::string name) {
  nets_.push_back(RouteTree{std::move(name), {}, {}});
  net_alive_.push_back(true);
  return static_cast<NetId>(nets_.size() - 1);
}

bool Fabric::net_exists(NetId net) const {
  return net != kNoNet && net < nets_.size() && net_alive_[net];
}

const RouteTree& Fabric::net(NetId net) const {
  RELOGIC_CHECK_MSG(net_exists(net), "net does not exist");
  return nets_[net];
}

std::vector<NetId> Fabric::live_nets() const {
  std::vector<NetId> out;
  for (NetId n = 1; n < nets_.size(); ++n)
    if (net_alive_[n]) out.push_back(n);
  return out;
}

void Fabric::destroy_net(NetId net) {
  RELOGIC_CHECK_MSG(net_exists(net), "net does not exist");
  for (NodeId n : nets_[net].nodes()) graph_.release(n);
  nets_[net] = RouteTree{};
  net_alive_[net] = false;
  notify_net(net);
}

void Fabric::attach_source(NetId net, NodeId source) {
  RELOGIC_CHECK_MSG(net_exists(net), "net does not exist");
  const NodeKind kind = skeleton().info(source).kind;
  RELOGIC_CHECK_MSG(kind == NodeKind::kOutPin || kind == NodeKind::kPad,
                    "net source must be a cell output pin or a pad");
  RouteTree& t = nets_[net];
  if (t.has_source(source)) return;
  graph_.occupy(source, net);
  t.sources.push_back(source);
  notify_net(net);
}

void Fabric::detach_source(NetId net, NodeId source) {
  RELOGIC_CHECK_MSG(net_exists(net), "net does not exist");
  RouteTree& t = nets_[net];
  auto it = std::find(t.sources.begin(), t.sources.end(), source);
  RELOGIC_CHECK_MSG(it != t.sources.end(), "node is not a source of the net");
  t.sources.erase(it);
  // Release unless still referenced by an edge.
  bool referenced = false;
  for (const auto& e : t.edges)
    if (e.from == source || e.to == source) referenced = true;
  if (!referenced) graph_.release(source);
  notify_net(net);
}

void Fabric::add_edges(NetId net, std::span<const RouteEdge> edges) {
  RELOGIC_CHECK_MSG(net_exists(net), "net does not exist");
  RouteTree& t = nets_[net];
  bool changed = false;
  for (const RouteEdge& e : edges) {
    RELOGIC_CHECK_MSG(skeleton().has_edge(e.from, e.to),
                      "no such PIP: " + skeleton().info(e.from).to_string() +
                          " -> " + skeleton().info(e.to).to_string());
    if (t.has_edge(e)) continue;
    graph_.occupy(e.from, net);
    graph_.occupy(e.to, net);
    t.edges.push_back(e);
    changed = true;
  }
  if (changed) notify_net(net);
}

void Fabric::remove_edges(NetId net, std::span<const RouteEdge> edges) {
  RELOGIC_CHECK_MSG(net_exists(net), "net does not exist");
  RouteTree& t = nets_[net];
  bool changed = false;
  for (const RouteEdge& e : edges) {
    auto it = std::find(t.edges.begin(), t.edges.end(), e);
    if (it == t.edges.end()) continue;
    t.edges.erase(it);
    changed = true;
  }
  if (!changed) return;
  // Release any node no longer referenced.
  const std::vector<NodeId> keep = t.nodes();
  for (const RouteEdge& e : edges) {
    for (NodeId n : {e.from, e.to}) {
      if (!std::binary_search(keep.begin(), keep.end(), n) &&
          graph_.occupant(n) == net)
        graph_.release(n);
    }
  }
  notify_net(net);
}

std::vector<NodeId> Fabric::net_sinks(NetId net) const {
  const RouteTree& t = this->net(net);
  std::vector<NodeId> out;
  for (const auto& e : t.edges) {
    const NodeKind k = skeleton().info(e.to).kind;
    if (k == NodeKind::kInPin ||
        (k == NodeKind::kPad && !t.has_source(e.to))) {
      out.push_back(e.to);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<SinkDelay> Fabric::sink_delays(NetId net,
                                           const DelayModel& dm) const {
  const RouteTree& t = this->net(net);
  const TreeIndex index(t);
  RELOGIC_CHECK_MSG(index.acyclic(),
                    "cycle detected in route tree of net " + t.name);
  std::vector<TreeIndex::Delay> delays;
  index.delays(skeleton(), dm, delays);
  std::vector<SinkDelay> out;
  for (const NodeId sink : net_sinks(net)) {
    const TreeIndex::Delay& d = delays[index.find(sink)];
    RELOGIC_CHECK_MSG(d.reached,
                      "sink unreachable from any source in net " + t.name);
    out.push_back(SinkDelay{sink, d.min, d.max});
  }
  return out;
}

void Fabric::validate_net(NetId net) const {
  const RoutingSkeleton& skel = skeleton();
  const RouteTree& t = this->net(net);
  const TreeIndex index(t);
  for (std::size_t k = 0; k < t.edges.size(); ++k) {
    const RouteEdge& e = t.edges[k];
    if (!skel.has_edge(e.from, e.to)) {
      throw IllegalOperationError("net " + t.name + ": edge is not a PIP: " +
                                  skel.info(e.from).to_string() + " -> " +
                                  skel.info(e.to).to_string());
    }
    const std::uint32_t from = index.edge_from(k);
    if (!index.is_source(from) && index.fanin(from).empty()) {
      throw IllegalOperationError(
          "net " + t.name +
          ": dangling edge source: " + skel.info(e.from).to_string());
    }
  }
  for (NodeId n : index.nodes()) {
    if (graph_.occupant(n) != net) {
      throw IllegalOperationError(
          "net " + t.name +
          ": tree node not occupied by the net: " + skel.info(n).to_string());
    }
  }
}

NetId Fabric::net_driving(NodeId sink) const { return graph_.occupant(sink); }

Fabric::State Fabric::capture() const {
  return State{clbs_, nets_, net_alive_};
}

void Fabric::restore(const State& state) {
  RELOGIC_CHECK_MSG(state.clbs.size() == clbs_.size(),
                    "state captured from a different device");
  RELOGIC_CHECK_MSG(state.nets.size() <= nets_.size(),
                    "state mentions nets this fabric never created");

  // Cells: write through set_cell_config so identical values are no-ops.
  for (int row = 0; row < geom_.clb_rows; ++row) {
    for (int col = 0; col < geom_.clb_cols; ++col) {
      const ClbCoord c{row, col};
      const std::size_t idx =
          static_cast<std::size_t>(row) * geom_.clb_cols + col;
      for (int k = 0; k < geom_.cells_per_clb; ++k) {
        set_cell_config(c, k, state.clbs[idx].cells[static_cast<std::size_t>(k)]);
      }
    }
  }

  // Nets: release everything currently occupied, then re-occupy from the
  // snapshot. Notifications fire only for nets whose tree changed.
  for (NetId n = 1; n < nets_.size(); ++n) {
    if (net_alive_[n]) {
      for (NodeId node : nets_[n].nodes()) graph_.release(node);
    }
  }
  for (NetId n = 1; n < nets_.size(); ++n) {
    const bool will_live = n < state.nets.size() && state.net_alive[n];
    const RouteTree restored =
        will_live ? state.nets[n] : RouteTree{};
    const bool changed =
        nets_[n].sources != restored.sources || nets_[n].edges != restored.edges ||
        net_alive_[n] != will_live;
    nets_[n] = restored;
    net_alive_[n] = will_live;
    if (will_live) {
      for (NodeId node : nets_[n].nodes()) graph_.occupy(node, n);
    }
    if (changed) notify_net(n);
  }
}

void Fabric::notify_net(NetId net) {
  for (auto* l : listeners_) l->on_net_changed(net);
}

}  // namespace relogic::fabric
