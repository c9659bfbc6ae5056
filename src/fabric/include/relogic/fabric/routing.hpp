// Simplified Virtex-style routing resource graph.
//
// Nodes are routing resources: logic-cell pins, single-length lines (span 1
// tile), hex lines (span 6 tiles), long lines (span a full row/column) and
// IOB pads. Directed edges are programmable interconnect points (PIPs).
//
// The graph is uniform and formula-addressable: node ids are computed from
// (tile, kind, index) so no per-node storage is needed for identity, and the
// configuration-frame mapper (relogic::config) can derive the frame that
// controls each PIP arithmetically.
//
// Connectivity model (documented substitution for the real Virtex switch
// matrix; see DESIGN.md §2):
//  * OMUX   — a cell output pin drives any single or hex line leaving its
//             tile.
//  * IMUX   — any single/hex/long arriving at a tile can drive any input
//             pin of that tile's cells.
//  * Switch — an arriving single continues straight on the same index, or
//             turns with index i or i^1; it can enter a hex line of index
//             i mod H; an arriving hex chains onward or fans out to singles.
//  * Longs  — driven from singles every `kLongTapSpacing` tiles, and can
//             drive singles at any tile they cross.
//  * Pads   — boundary-tile pads drive singles leaving the tile (input
//             pads) and are driven by singles arriving at it (output pads).
//
// Skeleton / overlay split (DESIGN.md §2 addendum): connectivity depends
// only on the DeviceGeometry, never on what is placed or routed, so it is
// factored into an immutable, shareable `RoutingSkeleton` (CSR adjacency +
// node-id layout) built once per geometry and held in a process-wide cache
// (`acquire_routing_skeleton`). The per-device `RoutingGraph` is only a
// skeleton handle plus this device's mutable occupancy overlay, making
// `Fabric` bring-up O(nodes) instead of O(edges) after the first device of
// a geometry — the difference between ~100 ms and µs at XCV1000 scale.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "relogic/common/error.hpp"
#include "relogic/common/geometry.hpp"
#include "relogic/fabric/device.hpp"

namespace relogic::fabric {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Net identifier. 0 means "no net".
using NetId = std::uint32_t;
inline constexpr NetId kNoNet = 0;

enum class NodeKind : std::uint8_t {
  kOutPin,   ///< cell output: X (combinational) or XQ (registered)
  kInPin,    ///< cell input: I0..I3 or CE
  kSingle,   ///< single-length line leaving its tile in one direction
  kHex,      ///< hex line leaving its tile in one direction
  kLongRow,  ///< long line spanning one row
  kLongCol,  ///< long line spanning one column
  kPad,      ///< IOB pad at a boundary tile
};

enum class Dir : std::uint8_t { kN = 0, kE = 1, kS = 2, kW = 3 };

/// Input ports of a logic cell. kBX is the storage-element bypass input
/// (the temporary transfer path target of the auxiliary relocation circuit).
enum class CellPort : std::uint8_t {
  kI0 = 0,
  kI1 = 1,
  kI2 = 2,
  kI3 = 3,
  kCE = 4,
  kBX = 5,
};
inline constexpr int kInPorts = 6;

/// Decoded identity of a node.
struct NodeInfo {
  NodeKind kind;
  ClbCoord tile;   ///< owning tile (for longs: row/col in .row/.col, other -1)
  std::uint8_t a;  ///< cell index (pins/pads), direction (wires), track (longs)
  std::uint8_t b;  ///< port/registered-flag (pins), wire index (wires)

  std::string to_string() const;
};

ClbCoord step(ClbCoord c, Dir d, int n = 1);
Dir opposite(Dir d);

namespace detail {

/// Allocator that default-initializes on resize — for trivial element
/// types, resize() leaves the new elements uninitialized instead of
/// zero-filling them. The skeleton builder sizes its edge array exactly
/// and then writes every element, so the value-initializing resize() would
/// memset the 40 MB edge array at XCV1000 only to overwrite it at once.
template <class T, class A = std::allocator<T>>
class default_init_allocator : public A {
  using traits = std::allocator_traits<A>;

 public:
  template <class U>
  struct rebind {
    using other =
        default_init_allocator<U, typename traits::template rebind_alloc<U>>;
  };
  using A::A;
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    traits::construct(static_cast<A&>(*this), p, std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Edge storage of the CSR adjacency (uninitialized-on-resize; see
/// detail::default_init_allocator).
using EdgeList = std::vector<NodeId, detail::default_init_allocator<NodeId>>;

/// Immutable connectivity skeleton of one device geometry: the node-id
/// layout and the full PIP adjacency in CSR form. A skeleton carries no
/// occupancy and never changes after construction, so one instance is
/// safely shared — without locking — by every Fabric of the same geometry
/// across all fleet worker threads.
///
/// The CSR keeps each fanout row once, in the historical PIP-enumeration
/// order: router exploration order is part of the determinism contract
/// (the fig5 bench output is byte-pinned to it). `has_edge()` scans that
/// row: at most 41 entries with the default track counts, except a long
/// line's, which holds 8 per tile the line crosses.
class RoutingSkeleton {
 public:
  /// Builds a skeleton with the two-pass counting build: pass 1 counts each
  /// node's out-degree, a prefix sum sizes the CSR arrays exactly, pass 2
  /// fills edges in place. No per-node allocations.
  static std::shared_ptr<const RoutingSkeleton> build(
      const DeviceGeometry& geom);

  /// Reference builder: the seed's staging algorithm, verbatim —
  /// vector-of-vectors adjacency filled through the *checked public* node-id
  /// constructors, then flattened. Kept for the skeleton-cache audit and as
  /// the within-run baseline of the perf gate on the counting build.
  /// Deliberately does NOT share build()'s enumeration: its independent
  /// emission derives every id through the bounds-checked public API, so
  /// `same_adjacency` cross-checks both the CSR assembly and the hoisted
  /// unchecked id arithmetic the fast enumeration uses.
  static std::shared_ptr<const RoutingSkeleton> build_reference(
      const DeviceGeometry& geom);

  const DeviceGeometry& geometry() const { return geom_; }
  std::size_t node_count() const { return node_count_; }
  std::size_t edge_count() const { return fanout_edges_.size(); }

  // ---- node id construction -------------------------------------------
  NodeId out_pin(ClbCoord t, int cell, bool registered) const;
  NodeId in_pin(ClbCoord t, int cell, CellPort p) const;
  NodeId single(ClbCoord t, Dir d, int index) const;
  NodeId hex(ClbCoord t, Dir d, int index) const;
  NodeId long_row(int row, int track) const;
  NodeId long_col(int col, int track) const;
  NodeId pad(ClbCoord t, int index) const;

  /// Identity of a node: one bounds-checked load from the packed node
  /// table built with the skeleton.
  NodeInfo info(NodeId n) const {
    RELOGIC_CHECK(n < node_count_);
    const PackedNode& p = nodes_[n];
    return NodeInfo{p.kind, ClbCoord{p.row, p.col}, p.a, p.b};
  }
  /// Reference decode of a node's identity from the id layout (div/mod
  /// arithmetic). Fills the packed table; tests check info() against it.
  NodeInfo decode(NodeId n) const;

  /// The tile a wire leaving `t` in direction `d` with the given span lands
  /// in, clipped to the array; returns false if it leaves the device.
  bool wire_target(ClbCoord t, Dir d, int span, ClbCoord& out) const;

  // ---- adjacency --------------------------------------------------------
  /// Fanout in PIP-enumeration order (the order routers explore).
  std::span<const NodeId> fanout(NodeId n) const;
  /// True if a PIP from `from` to `to` exists: a scan of fanout(from).
  bool has_edge(NodeId from, NodeId to) const;

  /// Byte-identical adjacency (CSR offsets and edges). Used by the
  /// skeleton-cache audit: a cached skeleton must equal a fresh
  /// single-use build.
  bool same_adjacency(const RoutingSkeleton& other) const {
    return fanout_offsets_ == other.fanout_offsets_ &&
           fanout_edges_ == other.fanout_edges_;
  }

 private:
  /// Computes the node-id layout only; adjacency is filled by a builder.
  explicit RoutingSkeleton(const DeviceGeometry& geom);

  /// Emits every PIP as emit(from, to) in a deterministic order, forming
  /// ids by unchecked addition from hoisted per-tile bases (the loop
  /// structure guarantees bounds). Used by build(); ten million emissions
  /// per pass at XCV1000 made the checked constructors the dominant cost.
  template <class Emit>
  void enumerate_pips(Emit&& emit) const;

  /// enumerate_pips restricted to tiles in rows [row_begin, row_end) — the
  /// unit of work of the parallel fill. Every from-node is owned by one
  /// tile row except long-column lines, which every row crosses; their
  /// per-band write position is computable because each tile contributes a
  /// fixed number of edges to each long line it crosses.
  template <class Emit>
  void enumerate_pips_rows(int row_begin, int row_end, Emit&& emit) const;

  /// The seed's emission loop: same PIPs in the same order, but every id
  /// derived through the checked public constructors. Used by
  /// build_reference(); kept separate on purpose — agreement between the
  /// two enumerations is exactly what the cache audit verifies.
  template <class Emit>
  void enumerate_pips_reference(Emit&& emit) const;

  /// NodeInfo in 8 bytes (tile row/col fit 16 bits: the constructor
  /// checks it). One per node, shared with the skeleton by every device.
  struct PackedNode {
    NodeKind kind;
    std::uint8_t a;
    std::uint8_t b;
    std::int16_t row;
    std::int16_t col;
  };
  static_assert(sizeof(PackedNode) == 8);

  DeviceGeometry geom_;
  int tile_stride_ = 0;
  std::size_t tile_nodes_ = 0;
  std::size_t long_row_base_ = 0;
  std::size_t long_col_base_ = 0;
  std::size_t pad_base_ = 0;
  std::size_t node_count_ = 0;

  std::vector<PackedNode> nodes_;

  // CSR adjacency in PIP-enumeration order.
  std::vector<std::uint32_t> fanout_offsets_;
  EdgeList fanout_edges_;
};

/// Returns the process-wide shared skeleton for `geom`, building it on the
/// first request for that geometry (keyed on every geometry field — `tiny`
/// and `tiny_dense` get distinct skeletons even where their routing pools
/// coincide). Thread-safe: fleet workers bringing up devices concurrently
/// serialize only on the cache map, and a skeleton is built exactly once.
/// In RELOGIC_AUDIT builds the first cache hit per entry cross-checks the
/// cached adjacency against a fresh single-use build.
std::shared_ptr<const RoutingSkeleton> acquire_routing_skeleton(
    const DeviceGeometry& geom);

/// Number of distinct geometries currently cached.
std::size_t routing_skeleton_cache_size();

/// Drops all cache entries (skeletons still referenced by live Fabrics
/// remain valid through their shared_ptr). Test hook — forces the next
/// acquire to take the cold path.
void clear_routing_skeleton_cache();

/// Cross-checks every cached skeleton against a fresh reference build,
/// throwing AuditError on the first divergence. Callable from any build
/// (tests invoke it directly); periodic call sites are RELOGIC_AUDIT-gated.
void audit_routing_skeleton_cache();

/// Per-device occupancy overlay of the routing pool: which net holds each
/// node, over a handle to the geometry's shared skeleton. Connectivity is
/// read from skeleton(); constructing a RoutingGraph for a geometry whose
/// skeleton is already cached allocates just the occupancy vector.
class RoutingGraph {
 public:
  /// Acquires the shared skeleton for `geom` (building it if this is the
  /// first device of the geometry) and allocates an empty overlay.
  explicit RoutingGraph(const DeviceGeometry& geom);

  RoutingGraph(const RoutingGraph&) = delete;
  RoutingGraph& operator=(const RoutingGraph&) = delete;
  RoutingGraph(RoutingGraph&&) = default;
  RoutingGraph& operator=(RoutingGraph&&) = default;

  /// The immutable connectivity this device shares with its geometry.
  const RoutingSkeleton& skeleton() const { return *skel_; }

  // ---- occupancy (device-local overlay) ---------------------------------
  NetId occupant(NodeId n) const { return occupancy_[n]; }
  bool is_free(NodeId n) const { return occupancy_[n] == kNoNet; }
  /// Claims a node for a net. A node already held by the same net is fine
  /// (fanout trees and parallel relocation paths revisit nodes).
  void occupy(NodeId n, NetId net);
  void release(NodeId n);
  /// Number of currently occupied nodes (for utilisation metrics).
  std::size_t occupied_count() const { return occupied_count_; }

 private:
  std::shared_ptr<const RoutingSkeleton> skel_;
  std::vector<NetId> occupancy_;
  std::size_t occupied_count_ = 0;
};

}  // namespace relogic::fabric
