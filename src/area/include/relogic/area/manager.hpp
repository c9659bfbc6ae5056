// On-line area manager: rectangle-granularity bookkeeping of the logic
// space.
//
// The paper's motivation (Sec. 1): as functions of different sizes are
// swapped in and out, "many small pools of resources are created as they
// are released. These unallocated areas tend to become so small that they
// fail to satisfy any request and for that reason remain unused, leading to
// a fragmentation of the FPGA logic space." The manager tracks region
// occupancy, answers allocation queries under several placement policies
// and quantifies exactly that fragmentation.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/error.hpp"
#include "relogic/common/geometry.hpp"

namespace relogic::area {

using RegionId = int;
inline constexpr RegionId kNoRegion = 0;
/// Pseudo-occupant of a CLB masked out by the health subsystem: a detected
/// fault makes the CLB permanently unusable for placement, defragmentation
/// and relocation. Negative so it can never collide with a real region id.
inline constexpr RegionId kFaultyRegion = -1;

enum class PlacePolicy {
  kBottomLeft,  ///< first position scanning rows top-to-bottom, then cols
  kBestFit,     ///< position minimising leftover free space around the rect
};

struct Region {
  RegionId id = kNoRegion;
  std::string name;
  ClbRect rect;
};

class AreaManager {
 public:
  AreaManager(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int total_clbs() const { return rows_ * cols_; }

  // ---- allocation -----------------------------------------------------------
  /// Position where an h x w rect fits entirely in free space, or nullopt.
  /// `avoid` (optional) additionally excludes positions overlapping the
  /// given rectangle — how the roving self-test keeps relocations and
  /// placements out of the window it is about to reclaim.
  std::optional<ClbRect> find_free_rect(int h, int w, PlacePolicy policy,
                                        const ClbRect* avoid = nullptr) const;
  /// Allocates a region; returns kNoRegion if nothing fits.
  RegionId allocate(std::string name, int h, int w,
                    PlacePolicy policy = PlacePolicy::kBottomLeft);
  /// Allocates at an explicit position (throws if not free).
  RegionId allocate_at(std::string name, ClbRect rect);
  void release(RegionId id);
  /// Moves a region to a new (free) position — the bookkeeping side of a
  /// relocation.
  void move(RegionId id, ClbRect to);
  /// True if `move(id, to)` would succeed (cells free or the region's own).
  bool can_move(RegionId id, ClbRect to) const;

  bool exists(RegionId id) const { return regions_.contains(id); }
  const Region& region(RegionId id) const;
  std::vector<Region> regions() const;
  std::size_t region_count() const { return regions_.size(); }

  // ---- fault masking --------------------------------------------------------
  /// Permanently removes a free CLB from circulation (detected fault). The
  /// CLB must not currently host a region; free-space accounting, placement
  /// queries and the defrag planners treat it as occupied from this moment.
  void mask_faulty(ClbCoord c);
  bool masked(ClbCoord c) const { return at(c) == kFaultyRegion; }
  int masked_clbs() const { return masked_clbs_; }

  // ---- metrics ----------------------------------------------------------------
  int free_clbs() const { return free_clbs_; }
  int used_clbs() const { return total_clbs() - free_clbs_; }
  double utilization() const {
    return static_cast<double>(used_clbs()) / total_clbs();
  }
  /// Largest rectangle of entirely free CLBs. Cached until the next
  /// occupancy change (the scheduler samples fragmentation per event).
  ClbRect largest_free_rect() const;

  /// Invokes fn(ClbRect) for every maximal-in-histogram rectangle of
  /// entirely free CLBs (row-wise histogram sweep with a stack; every
  /// maximal free rectangle of the grid is among the visited ones).
  /// Shared by largest_free_rect and the defrag planner's fit profiles so
  /// the subtle sweep lives in one place.
  template <typename Fn>
  void for_each_maximal_free_rect(Fn&& fn) const {
    std::vector<int> height(static_cast<std::size_t>(cols_), 0);
    std::vector<int> stack;
    for (int row = 0; row < rows_; ++row) {
      for (int col = 0; col < cols_; ++col) {
        const bool free =
            grid_[static_cast<std::size_t>(row) * cols_ + col] == kNoRegion;
        height[static_cast<std::size_t>(col)] =
            free ? height[static_cast<std::size_t>(col)] + 1 : 0;
      }
      stack.clear();
      for (int col = 0; col <= cols_; ++col) {
        const int h = col < cols_ ? height[static_cast<std::size_t>(col)] : 0;
        while (!stack.empty() &&
               height[static_cast<std::size_t>(stack.back())] > h) {
          const int top = stack.back();
          stack.pop_back();
          const int hh = height[static_cast<std::size_t>(top)];
          const int left = stack.empty() ? 0 : stack.back() + 1;
          const int ww = col - left;
          fn(ClbRect{row - hh + 1, left, hh, ww});
        }
        // Zero-height columns stay on the stack as barriers; otherwise a
        // later pop would wrongly extend across the gap.
        if (col < cols_) stack.push_back(col);
      }
    }
  }
  /// 1 - largest_free_rect.area / free_clbs (0 when free space is one
  /// rectangle; -> 1 as it shatters). 0 when no free space.
  double fragmentation() const;
  /// Would an h x w request fit right now?
  bool can_fit(int h, int w) const {
    return find_free_rect(h, w, PlacePolicy::kBottomLeft).has_value();
  }
  /// Occupant of one CLB (kNoRegion if free).
  RegionId at(ClbCoord c) const;
  /// Row-major occupancy grid (at() for every CLB). Two managers with equal
  /// grids hold the same regions at the same positions, so the grid is a
  /// complete key for any decision that ignores region names.
  const std::vector<RegionId>& occupancy() const { return grid_; }

  /// ASCII rendering of the occupancy grid ('.' free, letters per region)
  /// — the textual stand-in for the paper's Fig. 7 floorplan view.
  std::string to_ascii() const;

  // ---- invariant audit (DESIGN.md §8.4) -------------------------------------
  /// Cross-checks the occupancy ledger against the region table from
  /// scratch: every region's rectangle is exactly its grid footprint, every
  /// grid cell's occupant exists, and the incremental free/masked counters,
  /// free-run grid and cached largest free rectangle match a full recount.
  /// Throws AuditError naming the first divergence.
  /// Always compiled (tests call it directly); the periodic call sites at
  /// sweep boundaries are gated on RELOGIC_AUDIT.
  void audit() const;

 private:
  /// Writes `id` over `r`, repairs down_ in the touched columns and drops
  /// the largest-free-rect cache: every occupancy change goes through here.
  void fill(const ClbRect& r, RegionId id);
  bool rect_free(const ClbRect& r) const;
  /// down_ as computed from grid_ alone (the audit's reference).
  std::vector<int> recount_down() const;

  int rows_;
  int cols_;
  std::vector<RegionId> grid_;  // row-major occupancy
  /// down_[i]: consecutive free CLBs from cell i downward (i included), so
  /// an h-tall rect fits below (row, col) iff down_ >= h. Kept exact by
  /// fill() instead of being rebuilt on every find_free_rect.
  std::vector<int> down_;
  mutable std::optional<ClbRect> largest_free_;  // nullopt = stale
  std::unordered_map<RegionId, Region> regions_;
  RegionId next_id_ = 1;
  int free_clbs_;
  int masked_clbs_ = 0;
};

}  // namespace relogic::area
