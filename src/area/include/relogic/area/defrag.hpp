// Defragmentation planning: choosing which running functions to relocate,
// and where, so that an incoming request finds contiguous space.
//
// The paper's contribution makes executing such plans free for the
// applications (transparent relocation); the *planning* follows the partial
// rearrangement ideas of Diessel et al. [5], which the paper builds on:
// move as few functions as possible, to nearby positions, until the request
// fits. Two planners are provided:
//
//  * plan_for_request — greedy minimal rearrangement: repeatedly move the
//    region that most enlarges the largest free rectangle until the
//    request fits;
//  * plan_full_compaction — bottom-left repacking of every region (the
//    expensive but thorough variant).
//
// Planners only compute Moves; executing them (and paying configuration
// time) is the caller's business: the scheduler prices each move via
// RelocationCostModel, and fabric-level users hand them to the
// RelocationEngine.
#pragma once

#include <optional>
#include <vector>

#include "relogic/area/manager.hpp"

namespace relogic::area {

struct Move {
  RegionId region = kNoRegion;
  ClbRect from;
  ClbRect to;
};

struct DefragPlan {
  std::vector<Move> moves;
  /// Where the pending request fits once the moves are done.
  ClbRect request_slot;

  int moved_clbs() const {
    int n = 0;
    for (const auto& m : moves) n += m.from.area();
    return n;
  }
};

struct DefragOptions {
  /// Bound on the number of moved regions in plan_for_request.
  int max_moves = 8;
};

/// Plans a minimal rearrangement so an h x w request fits. Returns nullopt
/// if total free area is insufficient or the bound is exceeded.
std::optional<DefragPlan> plan_for_request(const AreaManager& mgr, int h,
                                           int w,
                                           const DefragOptions& opt = {});

/// Bottom-left repacking of every region of one area state, for any number
/// of pending request shapes: the packing canvas (the row free bits with
/// every region's rect set free again, so exactly the masked CLBs stay
/// occupied) and the regions in packing order do not depend on the shape,
/// so they are built once and each plan() packs on scratch copies.
/// plan_full_compaction is plan() on a fresh FullCompaction.
class FullCompaction {
 public:
  explicit FullCompaction(const AreaManager& mgr);

  /// plan_full_compaction(mgr, pending) for the state this was built
  /// from. The manager must not have changed.
  std::optional<DefragPlan> plan(std::optional<std::pair<int, int>> pending);

 private:
  struct Piece {
    int area;
    RegionId id;
    ClbRect rect;
  };

  const AreaManager* mgr_;
  FreeRows canvas_;
  std::vector<Piece> order_;  ///< area descending, ties by id
  // Scratch reused by every plan(): the canvas being packed and the
  // destination of each order_ entry.
  FreeRows packed_;
  std::vector<ClbRect> target_;
};

/// Shared planning front-end for one fixed area state.
///
/// The greedy search of plan_for_request picks each move by the largest
/// free-rectangle gain — a criterion independent of the request shape; only
/// the stopping point ("does h x w fit yet?") depends on it. RequestPlanner
/// therefore runs the expensive greedy search once per tie-break variant
/// (up to max_moves moves each) and records, after every prefix, the
/// max-width-per-height profile of the free space. A plan(h, w) query then
/// reduces to a profile lookup plus a cheap replay to recover the request
/// slot — exact same results as plan_for_request, amortised across every
/// request shape the on-line scheduler retries against one area state.
///
/// Each distinct area state is scored at most once per planner: the
/// candidate moves of a state that can win (those of the largest gain) are
/// kept in a table keyed by the occupancy grid and shared by both
/// tie-break sequences, and a sequence that would re-enter a state it
/// already visited stops there (DESIGN.md, "Area layer: planner reuse",
/// argues why that is exact). The full-compaction fallback builds its
/// packing input once per planner, on the first query that reaches it.
class RequestPlanner {
 public:
  explicit RequestPlanner(const AreaManager& mgr, DefragOptions opt = {});

  /// Identical result to plan_for_request(mgr, h, w, opt) for the state
  /// the planner was built from. The manager must not have changed.
  std::optional<DefragPlan> plan(int h, int w) const;

 private:
  /// One scored candidate move of the greedy search.
  struct Candidate {
    Move move;
    long gain;  ///< largest free rect area after the move
    long dist;  ///< Manhattan distance of the move
    long area;  ///< victim area
  };
  /// The largest-gain candidates of one area state, in scan order.
  struct Evaluated {
    std::vector<RegionId> grid;
    std::vector<Candidate> candidates;
  };

  /// One greedy move sequence (for one victim-preference tie-break),
  /// extended lazily one move at a time as queries demand it.
  struct Sequence {
    /// Starts from `mgr`'s state, whose fit profile and occupancy grid
    /// are `fit0` and `grid0` (both sequences share them).
    Sequence(const AreaManager& mgr, bool prefer_small, std::vector<int> fit0,
             std::vector<RegionId> grid0);

    AreaManager scratch;  ///< state after all computed moves
    bool prefer_small_victims;
    /// No further move exists, or the next one re-enters a visited state.
    bool exhausted = false;
    std::vector<Move> moves;
    /// fit[k][h-1]: widest w such that a free h x w rect exists after the
    /// first k moves (0 if none). Monotone nonincreasing in h.
    std::vector<std::vector<int>> fit;
    /// grids[k]: occupancy after the first k moves.
    std::vector<std::vector<RegionId>> grids;
  };

  /// The candidate moves of `state` that pick() can choose: of the
  /// bottom-left and best-fit destinations of each region, those of the
  /// largest gain, in scan order, scored without writing the manager.
  /// `fit` is the state's fit profile (Sequence::fit): a region whose
  /// shape it rules out has no destination and is not scanned.
  static std::vector<Candidate> evaluate(const AreaManager& state,
                                         const std::vector<int>& fit);
  /// The greedy choice among `candidates` under one victim-size tie-break;
  /// the last tie goes to the nearer destination.
  static std::optional<Move> pick(const std::vector<Candidate>& candidates,
                                  bool prefer_small_victims);
  /// The candidate table of seq's current state, evaluated on first use.
  const std::vector<Candidate>& candidates_of(Sequence& seq) const;
  std::optional<DefragPlan> query(Sequence& seq, int h, int w) const;

  const AreaManager* mgr_;
  DefragOptions opt_;
  mutable std::vector<Evaluated> evaluated_;
  /// Built lazily, on the first query that passes the free-CLB check.
  mutable std::optional<Sequence> small_victims_;
  /// Built lazily: only consulted when the small-victims pass fails.
  mutable std::optional<Sequence> large_victims_;
  /// Built lazily: only consulted when both greedy sequences fail.
  mutable std::optional<FullCompaction> full_;
};

/// Plans bottom-left repacking of all regions (largest area first, ties by
/// id) around the masked CLBs. Returns the moves in execution order;
/// positions never overlap a yet-unmoved region's current rect, which a
/// sequential executor requires.
/// `pending` (optional) is reserved first so the request ends up placed.
std::optional<DefragPlan> plan_full_compaction(
    const AreaManager& mgr, std::optional<std::pair<int, int>> pending = {});

}  // namespace relogic::area
