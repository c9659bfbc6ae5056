// Maze router: A* over the fabric routing graph.
//
// Routes one sink at a time, growing a net's existing route tree (every
// already-claimed node of the net is a free starting point, which yields
// fanout trees naturally). Used both for initial implementation and — with
// avoidance constraints — by the relocation engine, which must route replica
// paths without touching columns that hold live LUT-RAMs and without
// disturbing foreign nets (it physically cannot: occupied nodes are
// impassable). A replica output is paralleled with the original by routing
// from the new source pin to each sink with find_path_from; the search joins
// and rides the existing tree.
//
// Threading: a Router keeps its search state between calls (DESIGN.md §12),
// so one Router serves one thread at a time. Every engine and Implementer
// owns its own.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <span>
#include <vector>

#include "relogic/fabric/fabric.hpp"

namespace relogic::place {

struct RouteOptions {
  /// CLB columns whose PIPs must not be (re)programmed — the LUT-RAM
  /// exclusion rule of the paper, Sec. 2.
  std::set<int> avoid_columns;
  /// Additional nodes to treat as blocked.
  std::set<fabric::NodeId> avoid_nodes;
  /// Search effort bound; exceeded => ResourceError.
  int max_expansions = 4'000'000;
};

class Router {
 public:
  Router(fabric::Fabric& fabric, const fabric::DelayModel& dm)
      : fabric_(&fabric), dm_(&dm) {}

  /// Finds a path from any node of `net`'s current tree to `sink`.
  /// Returns the node sequence attachment-point..sink. Throws ResourceError
  /// if no path exists. Does not modify the fabric.
  std::vector<fabric::NodeId> find_path(fabric::NetId net, fabric::NodeId sink,
                                        const RouteOptions& opt = {});

  /// Same, but seeded from an explicit node set (used before a net has any
  /// tree, or to force an attachment region).
  std::vector<fabric::NodeId> find_path_from(
      std::span<const fabric::NodeId> seeds, fabric::NetId net,
      fabric::NodeId sink, const RouteOptions& opt = {});

  /// Routes and commits: find_path + Fabric::add_edges.
  void route_sink(fabric::NetId net, fabric::NodeId sink,
                  const RouteOptions& opt = {});

  /// The delay model the search prices paths with.
  const fabric::DelayModel& delay_model() const { return *dm_; }

 private:
  struct QueueItem {
    std::int64_t f = 0;  ///< g + h, picoseconds
    std::int64_t g = 0;
    std::uint64_t node = 0;  ///< the (node << 1 | touched-tree) search key
    bool operator>(const QueueItem& o) const { return f > o.f; }
  };
  /// The A* open list, ordered on f alone: its tie order is part of every
  /// path. Its storage is kept from one search to the next.
  struct OpenList
      : std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> {
    void clear() { c.clear(); }
  };

  /// Best cost and predecessor of every search key (node << 1 | touched)
  /// one search has reached: open addressing with linear probing, sized by
  /// the search frontier rather than the routing graph (DESIGN.md §12).
  class SearchTable {
   public:
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};
    struct Slot {
      std::uint64_t key = kNone;
      /// Best cost so far, picoseconds; unreached until first set.
      std::int64_t g = std::numeric_limits<std::int64_t>::max();
      std::uint64_t parent = kNone;
    };

    /// Empties the slots the previous search filled.
    void clear();
    /// The slot of `key`, or nullptr.
    Slot* find(std::uint64_t key);
    /// The slot of `key`, claimed (unreached, no parent) if it was absent.
    Slot& claim(std::uint64_t key);
    bool empty() const { return filled_.empty(); }

   private:
    std::size_t home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      shift_);
    }
    void grow();

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> filled_;  ///< slot indices, in claim order
    int shift_ = 64;
  };

  fabric::Fabric* fabric_;
  const fabric::DelayModel* dm_;
  OpenList open_;
  SearchTable table_;
  std::vector<std::uint64_t> tree_edges_;  ///< sorted (from << 32 | to)
  std::vector<std::uint8_t> avoid_cols_;   ///< RouteOptions::avoid_columns
  std::vector<fabric::NodeId> avoid_nodes_;  ///< RouteOptions::avoid_nodes
};

}  // namespace relogic::place
