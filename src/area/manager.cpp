#include "relogic/area/manager.hpp"

#include <algorithm>

#include "relogic/common/audit.hpp"

namespace relogic::area {

AreaManager::AreaManager(int rows, int cols)
    : rows_(rows), cols_(cols), free_clbs_(rows * cols) {
  RELOGIC_CHECK(rows >= 1 && cols >= 1);
  grid_.assign(static_cast<std::size_t>(rows) * cols, kNoRegion);
  down_ = recount_down();
}

std::vector<int> AreaManager::recount_down() const {
  std::vector<int> down(grid_.size(), 0);
  for (int col = 0; col < cols_; ++col) {
    for (int row = rows_ - 1; row >= 0; --row) {
      const std::size_t i = static_cast<std::size_t>(row) * cols_ + col;
      if (grid_[i] == kNoRegion)
        down[i] = 1 + (row + 1 < rows_
                           ? down[i + static_cast<std::size_t>(cols_)]
                           : 0);
    }
  }
  return down;
}

RegionId AreaManager::at(ClbCoord c) const {
  RELOGIC_CHECK(c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_);
  return grid_[static_cast<std::size_t>(c.row) * cols_ + c.col];
}

bool AreaManager::rect_free(const ClbRect& r) const {
  if (r.row < 0 || r.col < 0 || r.row_end() > rows_ || r.col_end() > cols_)
    return false;
  for (int row = r.row; row < r.row_end(); ++row) {
    const std::size_t base = static_cast<std::size_t>(row) * cols_;
    for (int col = r.col; col < r.col_end(); ++col) {
      if (grid_[base + col] != kNoRegion) return false;
    }
  }
  return true;
}

void AreaManager::fill(const ClbRect& r, RegionId id) {
  for (int row = r.row; row < r.row_end(); ++row) {
    const std::size_t base = static_cast<std::size_t>(row) * cols_;
    for (int col = r.col; col < r.col_end(); ++col) {
      grid_[base + col] = id;
    }
  }
  // A down_ entry depends only on the cells at and below it in its column,
  // so only the rect's columns at and above its bottom row can change.
  // Above the rect, the first entry that keeps its value ends the repair:
  // everything above it depends on unchanged cells only.
  const std::size_t stride = static_cast<std::size_t>(cols_);
  for (int col = r.col; col < r.col_end(); ++col) {
    std::size_t i = static_cast<std::size_t>(r.row_end() - 1) * stride + col;
    int below = r.row_end() < rows_ ? down_[i + stride] : 0;
    for (int row = r.row_end() - 1; row >= 0; --row, i -= stride) {
      const int v = grid_[i] == kNoRegion ? below + 1 : 0;
      if (row < r.row && down_[i] == v) break;
      down_[i] = v;
      below = v;
    }
  }
  largest_free_.reset();
}

void AreaManager::mask_faulty(ClbCoord c) {
  const RegionId slot = at(c);  // bounds-checked
  if (slot == kFaultyRegion) return;  // already masked
  RELOGIC_CHECK_MSG(slot == kNoRegion,
                    "cannot mask " + c.to_string() +
                        ": CLB currently hosts a region");
  fill(ClbRect{c.row, c.col, 1, 1}, kFaultyRegion);
  --free_clbs_;
  ++masked_clbs_;
}

std::optional<ClbRect> AreaManager::find_free_rect(int h, int w,
                                                   PlacePolicy policy,
                                                   const ClbRect* avoid) const {
  RELOGIC_CHECK(h >= 1 && w >= 1);
  if (h > rows_ || w > cols_) return std::nullopt;

  std::optional<ClbRect> best;
  long best_score = 0;
  for (int row = 0; row + h <= rows_; ++row) {
    int run = 0;  // consecutive columns where h cells fit downward
    for (int col = 0; col + 1 <= cols_; ++col) {
      const std::size_t i = static_cast<std::size_t>(row) * cols_ + col;
      run = (down_[i] >= h) ? run + 1 : 0;
      if (run >= w) {
        const ClbRect r{row, col - w + 1, h, w};
        if (avoid != nullptr && r.overlaps(*avoid)) continue;
        if (policy == PlacePolicy::kBottomLeft) return r;
        // Best-fit: prefer positions hugging occupied space / edges —
        // score = number of occupied-or-border cells adjacent to the rect.
        long score = 0;
        auto occupied = [&](int rr, int cc) {
          if (rr < 0 || rr >= rows_ || cc < 0 || cc >= cols_) return true;
          return grid_[static_cast<std::size_t>(rr) * cols_ + cc] != kNoRegion;
        };
        for (int cc = r.col; cc < r.col_end(); ++cc) {
          score += occupied(r.row - 1, cc) ? 1 : 0;
          score += occupied(r.row_end(), cc) ? 1 : 0;
        }
        for (int rr = r.row; rr < r.row_end(); ++rr) {
          score += occupied(rr, r.col - 1) ? 1 : 0;
          score += occupied(rr, r.col_end()) ? 1 : 0;
        }
        if (!best || score > best_score) {
          best = r;
          best_score = score;
        }
      }
    }
  }
  return best;
}

RegionId AreaManager::allocate(std::string name, int h, int w,
                               PlacePolicy policy) {
  const auto rect = find_free_rect(h, w, policy);
  if (!rect) return kNoRegion;
  const RegionId id = next_id_++;
  fill(*rect, id);
  free_clbs_ -= rect->area();
  regions_.emplace(id, Region{id, std::move(name), *rect});
  return id;
}

RegionId AreaManager::allocate_at(std::string name, ClbRect rect) {
  RELOGIC_CHECK_MSG(rect_free(rect),
                    "rect " + rect.to_string() + " is not free");
  const RegionId id = next_id_++;
  fill(rect, id);
  free_clbs_ -= rect.area();
  regions_.emplace(id, Region{id, std::move(name), rect});
  return id;
}

void AreaManager::release(RegionId id) {
  auto it = regions_.find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  fill(it->second.rect, kNoRegion);
  free_clbs_ += it->second.rect.area();
  regions_.erase(it);
}

void AreaManager::move(RegionId id, ClbRect to) {
  auto it = regions_.find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  Region& r = it->second;
  RELOGIC_CHECK_MSG(to.height == r.rect.height && to.width == r.rect.width,
                    "move must preserve region shape");
  // Free, then claim — the two rects may overlap (nearby relocation).
  fill(r.rect, kNoRegion);
  if (!rect_free(to)) {
    fill(r.rect, id);  // roll back
    throw IllegalOperationError("destination " + to.to_string() +
                                " is not free for region " + r.name);
  }
  fill(to, id);
  r.rect = to;
}

bool AreaManager::can_move(RegionId id, ClbRect to) const {
  auto it = regions_.find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  const Region& r = it->second;
  if (to.height != r.rect.height || to.width != r.rect.width) return false;
  if (to.row < 0 || to.col < 0 || to.row_end() > rows_ ||
      to.col_end() > cols_)
    return false;
  for (int row = to.row; row < to.row_end(); ++row) {
    for (int col = to.col; col < to.col_end(); ++col) {
      const RegionId occ = grid_[static_cast<std::size_t>(row) * cols_ + col];
      if (occ != kNoRegion && occ != id) return false;
    }
  }
  return true;
}

const Region& AreaManager::region(RegionId id) const {
  auto it = regions_.find(id);
  RELOGIC_CHECK_MSG(it != regions_.end(), "unknown region");
  return it->second;
}

std::vector<Region> AreaManager::regions() const {
  std::vector<Region> out;
  out.reserve(regions_.size());
  for (const auto& [id, r] : regions_) out.push_back(r);
  std::sort(out.begin(), out.end(),
            [](const Region& a, const Region& b) { return a.id < b.id; });
  return out;
}

ClbRect AreaManager::largest_free_rect() const {
  if (largest_free_) return *largest_free_;
  ClbRect best{0, 0, 0, 0};
  for_each_maximal_free_rect([&](const ClbRect& r) {
    if (r.area() > best.area()) best = r;
  });
  largest_free_ = best;
  return best;
}

std::string AreaManager::to_ascii() const {
  // Stable letter per region id.
  std::string out;
  out.reserve(static_cast<std::size_t>((cols_ + 1) * rows_));
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      const RegionId id = grid_[static_cast<std::size_t>(r) * cols_ + c];
      if (id == kNoRegion) {
        out += '.';
      } else if (id == kFaultyRegion) {
        out += 'X';  // masked faulty CLB
      } else {
        out += static_cast<char>('A' + (id - 1) % 26);
      }
    }
    out += '\n';
  }
  return out;
}

double AreaManager::fragmentation() const {
  if (free_clbs_ == 0) return 0.0;
  const int largest = largest_free_rect().area();
  return 1.0 - static_cast<double>(largest) / free_clbs_;
}

void AreaManager::audit() const {
  constexpr const char* kWhere = "AreaManager";
  RELOGIC_AUDIT_CHECK(
      grid_.size() == static_cast<std::size_t>(rows_) * cols_, kWhere,
      "grid size does not match geometry");

  // Pass 1: the region table against the grid. Each region's rectangle must
  // lie in bounds and be filled with exactly its id.
  for (const auto& [id, r] : regions_) {
    RELOGIC_AUDIT_CHECK(id > 0 && r.id == id, kWhere,
                        "region table entry with inconsistent id " +
                            std::to_string(id));
    RELOGIC_AUDIT_CHECK(
        r.rect.row >= 0 && r.rect.col >= 0 && r.rect.row_end() <= rows_ &&
            r.rect.col_end() <= cols_ && r.rect.area() > 0,
        kWhere, "region " + std::to_string(id) + " rectangle out of bounds");
    for (int row = r.rect.row; row < r.rect.row_end(); ++row)
      for (int col = r.rect.col; col < r.rect.col_end(); ++col)
        RELOGIC_AUDIT_CHECK(
            grid_[static_cast<std::size_t>(row) * cols_ + col] == id, kWhere,
            "region " + std::to_string(id) + " missing from grid at (" +
                std::to_string(row) + "," + std::to_string(col) + ")");
  }

  // Pass 2: the grid against the region table, recounting everything the
  // hot path maintains incrementally. Pass 1 proved each region covers its
  // own rectangle; equal per-id cell counts then pin the reverse direction
  // (no stray cells outside it).
  int free_count = 0;
  int masked_count = 0;
  std::size_t region_cells = 0;
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    const RegionId id = grid_[i];
    if (id == kNoRegion) {
      ++free_count;
    } else if (id == kFaultyRegion) {
      ++masked_count;
    } else {
      const auto it = regions_.find(id);
      RELOGIC_AUDIT_CHECK(it != regions_.end(), kWhere,
                          "grid cell " + std::to_string(i) +
                              " occupied by unknown region " +
                              std::to_string(id));
      ++region_cells;
    }
  }
  std::size_t table_cells = 0;
  for (const auto& [id, r] : regions_)
    table_cells += static_cast<std::size_t>(r.rect.area());
  RELOGIC_AUDIT_CHECK(region_cells == table_cells, kWhere,
                      "grid holds " + std::to_string(region_cells) +
                          " region cells but the table claims " +
                          std::to_string(table_cells));
  RELOGIC_AUDIT_CHECK(free_clbs_ == free_count, kWhere,
                      "free_clbs counter " + std::to_string(free_clbs_) +
                          " != recounted " + std::to_string(free_count));
  RELOGIC_AUDIT_CHECK(masked_clbs_ == masked_count, kWhere,
                      "masked_clbs counter " + std::to_string(masked_clbs_) +
                          " != recounted " + std::to_string(masked_count));

  // Pass 3: the derived free-space structures fill() keeps incrementally.
  const std::vector<int> down = recount_down();
  for (std::size_t i = 0; i < grid_.size(); ++i)
    RELOGIC_AUDIT_CHECK(down_[i] == down[i], kWhere,
                        "free-run grid at cell " + std::to_string(i) + " is " +
                            std::to_string(down_[i]) + ", recounted " +
                            std::to_string(down[i]));
  if (largest_free_) {
    ClbRect fresh{0, 0, 0, 0};
    for_each_maximal_free_rect([&](const ClbRect& r) {
      if (r.area() > fresh.area()) fresh = r;
    });
    RELOGIC_AUDIT_CHECK(*largest_free_ == fresh, kWhere,
                        "cached largest free rect " +
                            largest_free_->to_string() + " != recomputed " +
                            fresh.to_string());
  }
}

}  // namespace relogic::area
