// Fabric: the authoritative structural state of the device.
//
// Holds every CLB's configuration and every net's routing (a RouteTree of
// occupied graph nodes). All mutations go through Fabric methods so that:
//  * identical rewrites are detected (they change nothing and — exactly as
//    on the real device — generate no events in the simulator), and
//  * registered listeners (the logic simulator) observe every effective
//    change.
//
// During a relocation a net may temporarily have several sources (original
// and replica cell outputs paralleled) and several paths to one sink
// (original and replica routes paralleled); RouteTree supports both, which
// is what makes the two-phase procedure of the paper expressible.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/error.hpp"
#include "relogic/common/geometry.hpp"
#include "relogic/fabric/cell.hpp"
#include "relogic/fabric/delay.hpp"
#include "relogic/fabric/device.hpp"
#include "relogic/fabric/routing.hpp"

namespace relogic::fabric {

/// One programmable connection in use: signal flows `from` -> `to`.
struct RouteEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;

  constexpr auto operator<=>(const RouteEdge&) const = default;
};

/// Routing state of one net.
struct RouteTree {
  std::string name;
  /// Driving nodes (cell output pins or input pads). More than one source
  /// is legal only while a relocation parallels original and replica.
  std::vector<NodeId> sources;
  std::vector<RouteEdge> edges;

  bool has_source(NodeId n) const;
  bool has_edge(RouteEdge e) const;
  /// All nodes referenced by the tree (sources and edge endpoints), deduped.
  std::vector<NodeId> nodes() const;
};

/// Delay of one sink of a net. While original and replica paths are
/// paralleled min != max: the observable value settles only after `max`
/// (the fuzziness interval of Fig. 6 spans [min, max]).
struct SinkDelay {
  NodeId sink = kInvalidNode;
  SimTime min = SimTime::zero();
  SimTime max = SimTime::zero();
};

/// Observer of effective fabric changes.
class FabricListener {
 public:
  virtual ~FabricListener() = default;
  virtual void on_cell_changed(ClbCoord clb, int cell,
                               const LogicCellConfig& before,
                               const LogicCellConfig& after) = 0;
  virtual void on_net_changed(NetId net) = 0;
};

class Fabric {
 public:
  explicit Fabric(DeviceGeometry geometry);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const DeviceGeometry& geometry() const { return geom_; }
  RoutingGraph& graph() { return graph_; }
  const RoutingGraph& graph() const { return graph_; }
  /// The immutable connectivity skeleton this device shares with every
  /// other Fabric of the same geometry (see acquire_routing_skeleton).
  const RoutingSkeleton& skeleton() const { return graph_.skeleton(); }

  // ---- listeners ---------------------------------------------------------
  void add_listener(FabricListener* listener);
  void remove_listener(FabricListener* listener);

  // ---- logic cells -------------------------------------------------------
  // Inline: the config plane reads a cell per write it prices or applies.
  const ClbConfig& clb(ClbCoord c) const {
    RELOGIC_CHECK(geom_.in_bounds(c));
    return clbs_[static_cast<std::size_t>(c.row) * geom_.clb_cols + c.col];
  }
  const LogicCellConfig& cell(ClbCoord c, int cell) const {
    RELOGIC_CHECK(cell >= 0 && cell < geom_.cells_per_clb);
    return clb(c).cells[static_cast<std::size_t>(cell)];
  }
  /// Linear index of a cell, `(row * cols + col) * cells_per_clb + cell`:
  /// the key of the fault map and of the config plane's per-cell overlay.
  int cell_index(ClbCoord c, int cell) const {
    return (c.row * geom_.clb_cols + c.col) * geom_.cells_per_clb + cell;
  }

  /// Writes a cell configuration. Returns true if the stored value changed
  /// (an identical rewrite returns false and notifies nobody — the
  /// glitch-free-rewrite property of the configuration memory).
  bool set_cell_config(ClbCoord c, int cell, const LogicCellConfig& cfg);

  /// Clears a cell (marks unused). Returns true if it was used.
  bool clear_cell(ClbCoord c, int cell);

  // ---- fault injection ---------------------------------------------------
  /// Installs a permanent configuration-memory defect on one cell: every
  /// subsequent write to that cell stores CellFault::corrupt(cfg) instead
  /// of cfg, so readback (cell()) exposes the mismatch — the observable the
  /// roving self-test (relogic::health) detects. Injecting over an existing
  /// fault replaces it; the currently stored config is re-corrupted so the
  /// fabric never holds a value the fault could not have produced.
  void inject_fault(ClbCoord c, int cell, CellFault fault);
  /// The fault installed on a cell, if any.
  const CellFault* fault_at(ClbCoord c, int cell) const;
  int injected_fault_count() const { return static_cast<int>(faults_.size()); }

  /// True if no cell of the CLB is configured.
  bool clb_free(ClbCoord c) const { return !clb(c).any_used(); }
  /// Number of used cells across the device.
  int used_cell_count() const { return used_cells_; }

  /// Live LUT-RAM cells stored in one CLB column. Maintained incrementally
  /// by set_cell_config (every cell mutation funnels through it, including
  /// restore() and fault injection), so the configuration controller's
  /// per-op LUT-RAM column legality check can skip clean columns without
  /// scanning rows x cells — the hot-path cost that used to dominate
  /// ConfigController::apply on large devices.
  int live_lut_ram_in_col(int col) const {
    return lut_ram_per_col_[static_cast<std::size_t>(col)];
  }
  /// Live LUT-RAM cells device-wide — lets the config legality check skip
  /// its per-column scan entirely on LUT-RAM-free fabrics.
  int live_lut_ram_total() const { return live_lut_ram_total_; }
  /// CLB columns holding a live LUT-RAM cell (the routing and relocation
  /// exclusion set), read from the same per-column counters.
  std::set<int> lut_ram_columns() const;

  // ---- nets ----------------------------------------------------------------
  /// Creates an empty net and returns its id (ids start at 1).
  NetId create_net(std::string name);
  /// Deletes a net, releasing all its routing resources.
  void destroy_net(NetId net);
  bool net_exists(NetId net) const;
  const RouteTree& net(NetId net) const;
  /// Ids of all live nets.
  std::vector<NetId> live_nets() const;

  void attach_source(NetId net, NodeId source);
  void detach_source(NetId net, NodeId source);

  /// Adds routing edges (PIPs) to a net. Every referenced node is claimed
  /// for the net; claiming a node held by a different net throws.
  void add_edges(NetId net, std::span<const RouteEdge> edges);
  void add_edge(NetId net, RouteEdge e) { add_edges(net, {&e, 1}); }

  /// Removes routing edges from a net; nodes no longer referenced by the
  /// remaining tree are released.
  void remove_edges(NetId net, std::span<const RouteEdge> edges);
  void remove_edge(NetId net, RouteEdge e) { remove_edges(net, {&e, 1}); }

  /// Sink nodes (input pins / pads) currently reached by the net.
  std::vector<NodeId> net_sinks(NetId net) const;

  /// Per-sink min/max propagation delay from any source (Fig. 6 semantics;
  /// see SinkDelay), in net_sinks() order. Throws if the tree contains a
  /// cycle.
  std::vector<SinkDelay> sink_delays(NetId net, const DelayModel& dm) const;

  /// Structural sanity: every edge is a real PIP, every edge source is
  /// driven (a net source or the target of another edge), every node in the
  /// tree is occupied by this net. Throws IllegalOperationError on
  /// violation. Used by tests and after every relocation step.
  void validate_net(NetId net) const;

  /// Which net, if any, drives the given input pin / pad.
  NetId net_driving(NodeId sink) const;

  // ---- state capture (recovery copy) --------------------------------------
  /// Complete structural state: the "complete copy of the current
  /// configuration" the paper's tool keeps for system recovery.
  struct State {
    std::vector<ClbConfig> clbs;
    std::vector<RouteTree> nets;
    std::vector<bool> net_alive;
  };
  State capture() const;
  /// Restores a captured state, emitting change notifications only for
  /// cells/nets that actually differ (identical state restores are no-ops).
  void restore(const State& state);

 private:
  void notify_net(NetId net);
  LogicCellConfig& mutable_cell(ClbCoord c, int cell);

  DeviceGeometry geom_;
  RoutingGraph graph_;
  std::vector<ClbConfig> clbs_;
  /// Per-CLB-column count of live LUT-RAM cells (see live_lut_ram_in_col).
  std::vector<int> lut_ram_per_col_;
  int live_lut_ram_total_ = 0;
  /// Injected configuration-memory defects, keyed by linear cell index.
  std::unordered_map<int, CellFault> faults_;
  std::vector<RouteTree> nets_;     // index 0 unused
  std::vector<bool> net_alive_;     // parallel to nets_
  std::vector<FabricListener*> listeners_;
  int used_cells_ = 0;
};

}  // namespace relogic::fabric
