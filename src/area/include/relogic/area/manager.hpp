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

#include <cstdint>
#include <optional>
#include <string>
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

/// Row free bitsets of a rows x cols grid, with no region bookkeeping: bit
/// c of row r's words is set iff CLB (r, c) is free. Bits past the last
/// column are always clear, so word-wide shifts and popcounts never see
/// phantom free cells. The manager keeps one exact in fill(); the
/// compaction planner packs into a bare one.
class FreeRows {
 public:
  /// Every CLB free.
  FreeRows(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// 64-bit words per row: ceil(cols / 64).
  int row_words() const { return row_words_; }
  const std::uint64_t* row(int r) const {
    return &bits_[static_cast<std::size_t>(r) * row_words_];
  }
  /// All rows, row-major (rows() x row_words() words).
  const std::vector<std::uint64_t>& bits() const { return bits_; }

  /// Marks every CLB of `r` (in bounds) free or occupied.
  void set(const ClbRect& r, bool free);
  /// Bottom-left position of an all-free h x w rect that does not overlap
  /// `avoid` (optional): the first fitting position in row-major order.
  std::optional<ClbRect> first_fit(int h, int w,
                                   const ClbRect* avoid = nullptr) const;

 private:
  int rows_;
  int cols_;
  int row_words_;
  std::vector<std::uint64_t> bits_;  // rows_ x row_words_
};

/// Both placement policies' answers for one shape (nullopt if none fits).
struct FreeRects {
  std::optional<ClbRect> bottom_left;
  std::optional<ClbRect> best_fit;
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
  /// find_free_rect under both policies from one row-major scan: the
  /// bottom-left position is the best-fit scan's first hit.
  FreeRects find_free_rects(int h, int w,
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

  bool exists(RegionId id) const;
  const Region& region(RegionId id) const;
  /// Every region in ascending id order. The reference stays valid until
  /// the next allocate or release; move() rewrites Region::rect in place.
  const std::vector<Region>& regions() const { return regions_; }
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
  /// Largest rectangle of entirely free CLBs, as the histogram sweep finds
  /// it first (its tie order is part of the CLI's and the proactive
  /// compaction's output). Cached until the next occupancy change.
  ClbRect largest_free_rect() const;
  /// Area of the largest free rectangle (= largest_free_rect().area()),
  /// from the row bitsets. Cached until the next occupancy change (the
  /// scheduler samples fragmentation per event).
  int largest_free_area() const;
  /// max(floor, largest_free_area() as it would read after move(id, to)
  /// of the region at `from`), computed on a copy of the row bitsets: the
  /// manager is not written. `to` must be free once `from` is vacated. The
  /// area walk stops as soon as its result cannot exceed `floor`, so a
  /// caller that only needs to know whether a move beats some area passes
  /// that area (or one less, to measure ties exactly) as the floor.
  int largest_free_area_after_move(const ClbRect& from, const ClbRect& to,
                                   int floor = 0) const;
  /// profile[h-1] = widest w such that an all-free h x w rectangle exists
  /// (0 if none); nonincreasing in h. The defrag planner's fit profile.
  std::vector<int> free_width_profile() const;
  /// 1 - largest_free_area / free_clbs (0 when free space is one
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
  /// The row free bitsets (set bit = free CLB).
  const FreeRows& free_rows() const { return free_rows_; }

  /// ASCII rendering of the occupancy grid ('.' free, letters per region)
  /// — the textual stand-in for the paper's Fig. 7 floorplan view.
  std::string to_ascii() const;

  // ---- invariant audit (DESIGN.md §8.4) -------------------------------------
  /// Cross-checks the occupancy ledger against the region table from
  /// scratch: every region's rectangle is exactly its grid footprint, every
  /// grid cell's occupant exists, the table is in strict id order, and the
  /// incremental free/masked counters, the row and column free bitsets and
  /// the cached largest free area and rectangle match a full recount.
  /// Throws AuditError naming the first divergence.
  /// Always compiled (tests call it directly); the periodic call sites at
  /// sweep boundaries are gated on RELOGIC_AUDIT.
  void audit() const;

 private:
  /// Writes `id` over `r`, updates the row and column bitsets and drops
  /// the cached largest free area and rectangle: every occupancy change
  /// goes through here.
  void fill(const ClbRect& r, RegionId id);
  bool rect_free(const ClbRect& r) const;
  /// The region table entry of `id`, or regions_.end().
  std::vector<Region>::const_iterator find(RegionId id) const;
  Region& region_mut(RegionId id);
  /// Row-wise histogram sweep with a stack over the grid; the first largest
  /// maximal free rectangle it meets (the audit's reference too).
  ClbRect sweep_largest_free_rect() const;
  const std::uint64_t* row_bits(int row) const { return free_rows_.row(row); }
  const std::uint64_t* col_bits(int col) const {
    return &col_free_[static_cast<std::size_t>(col) * col_words_];
  }

  int rows_;
  int cols_;
  int col_words_;  // ceil(rows / 64)
  std::vector<RegionId> grid_;  // row-major occupancy
  /// Free-space bitsets kept exact by fill(): bit c of row r's words (and
  /// bit r of column c's words) is set iff CLB (r, c) is free. Bits past
  /// the last column (row) are always clear.
  FreeRows free_rows_;
  std::vector<std::uint64_t> col_free_;  // cols_ x col_words_
  mutable std::optional<ClbRect> largest_free_;  // nullopt = stale
  mutable int largest_area_ = -1;                // -1 = stale
  std::vector<Region> regions_;  // ascending id (ids are never reused)
  RegionId next_id_ = 1;
  int free_clbs_;
  int masked_clbs_ = 0;
};

}  // namespace relogic::area
