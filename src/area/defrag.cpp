#include "relogic/area/defrag.hpp"

#include <algorithm>

namespace relogic::area {

std::vector<RequestPlanner::Candidate> RequestPlanner::evaluate(
    const AreaManager& state, const std::vector<int>& fit) {
  // pick() reads the largest gain first; victim area and distance only
  // break ties among equal gains. So only the candidates of the largest
  // gain so far are kept, in scan order, and each move is scored only as
  // far as it could reach that gain: floor best_gain - 1 still measures a
  // tie exactly, and anything below reads as a loser.
  std::vector<Candidate> out;
  int best_gain = 0;
  for (const Region& region : state.regions()) {
    const ClbRect& rect = region.rect;
    // No free h x w rect exists, so the scan below would find nothing.
    if (fit[static_cast<std::size_t>(rect.height - 1)] < rect.width) continue;
    // Candidate destinations: bottom-left and best-fit placements of the
    // region's shape in the remaining free space (non-overlapping with
    // its current rect, so plans execute move-by-move on the fabric).
    const FreeRects dests = state.find_free_rects(rect.height, rect.width);
    std::optional<ClbRect> scored;
    for (const std::optional<ClbRect>& dest :
         {dests.bottom_left, dests.best_fit}) {
      if (!dest || *dest == rect) continue;
      // A best-fit destination equal to the bottom-left one would be an
      // identical candidate, and pick() replaces only on a strict
      // improvement, so it could never win.
      if (dest == scored) continue;
      scored = dest;
      const int gain =
          state.largest_free_area_after_move(rect, *dest, best_gain - 1);
      if (gain < best_gain) continue;
      if (gain > best_gain) {
        out.clear();
        best_gain = gain;
      }
      const long dist =
          std::abs(dest->row - rect.row) + std::abs(dest->col - rect.col);
      out.push_back(
          Candidate{Move{region.id, rect, *dest}, gain, dist, rect.area()});
    }
  }
  return out;
}

std::optional<Move> RequestPlanner::pick(
    const std::vector<Candidate>& candidates, bool prefer_small_victims) {
  // The greedy criterion: the move that most enlarges the largest free
  // rectangle. Relocation cost grows with the moved area (one procedure per
  // cell), so by default prefer small victims on equal gain; the alternate
  // pass prefers large ones (sometimes the small-victim move blocks the
  // only escape of a large region). Equal victims go to the nearer
  // destination (the paper: relocate to nearby CLBs to limit path-delay
  // growth).
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    bool better = false;
    if (best == nullptr) {
      better = true;
    } else if (c.gain != best->gain) {
      better = c.gain > best->gain;
    } else if (c.area != best->area) {
      better = prefer_small_victims ? c.area < best->area
                                    : c.area > best->area;
    } else {
      better = c.dist < best->dist;
    }
    if (better) best = &c;
  }
  if (best == nullptr) return std::nullopt;
  return best->move;
}

const std::vector<RequestPlanner::Candidate>& RequestPlanner::candidates_of(
    Sequence& seq) const {
  // At most 2 * (max_moves + 1) states per planner: a linear scan is fine.
  const std::vector<RegionId>& grid = seq.grids.back();
  for (const Evaluated& e : evaluated_)
    if (e.grid == grid) return e.candidates;
  evaluated_.push_back(
      Evaluated{grid, evaluate(seq.scratch, seq.fit.back())});
  return evaluated_.back().candidates;
}

RequestPlanner::Sequence::Sequence(const AreaManager& mgr, bool prefer_small,
                                   std::vector<int> fit0,
                                   std::vector<RegionId> grid0)
    : scratch(mgr), prefer_small_victims(prefer_small) {
  fit.push_back(std::move(fit0));
  grids.push_back(std::move(grid0));
}

RequestPlanner::RequestPlanner(const AreaManager& mgr, DefragOptions opt)
    : mgr_(&mgr), opt_(opt) {}

std::optional<DefragPlan> RequestPlanner::query(Sequence& seq, int h,
                                                int w) const {
  if (h > mgr_->rows() || w > mgr_->cols()) return std::nullopt;
  std::size_t k = 0;
  while (true) {
    if (k == seq.fit.size()) {
      // Extend the sequence by one move — exactly the move the per-shape
      // greedy pass would have taken next.
      if (seq.exhausted ||
          static_cast<int>(seq.moves.size()) >= opt_.max_moves)
        return std::nullopt;
      const auto mv = pick(candidates_of(seq), seq.prefer_small_victims);
      if (!mv) {
        seq.exhausted = true;
        return std::nullopt;
      }
      seq.scratch.move(mv->region, mv->to);
      // Re-entering a visited state makes the rest of the sequence periodic:
      // its fit profiles repeat ones every query has already walked past,
      // so no shape can be satisfied further on.
      if (std::find(seq.grids.begin(), seq.grids.end(),
                    seq.scratch.occupancy()) != seq.grids.end()) {
        seq.scratch.move(mv->region, mv->from);
        seq.exhausted = true;
        return std::nullopt;
      }
      seq.moves.push_back(*mv);
      seq.fit.push_back(seq.scratch.free_width_profile());
      seq.grids.push_back(seq.scratch.occupancy());
    }
    if (seq.fit[k][static_cast<std::size_t>(h - 1)] >= w) break;
    ++k;
  }

  DefragPlan plan;
  plan.moves.assign(seq.moves.begin(),
                    seq.moves.begin() + static_cast<std::ptrdiff_t>(k));
  std::optional<ClbRect> slot;
  if (k == seq.moves.size()) {
    // Satisfied at the sequence tip: scratch is already the post-move state.
    slot = seq.scratch.find_free_rect(h, w, PlacePolicy::kBottomLeft);
  } else {
    AreaManager replay = *mgr_;
    for (const Move& m : plan.moves) replay.move(m.region, m.to);
    slot = replay.find_free_rect(h, w, PlacePolicy::kBottomLeft);
  }
  RELOGIC_CHECK(slot.has_value());
  plan.request_slot = *slot;
  return plan;
}

std::optional<DefragPlan> RequestPlanner::plan(int h, int w) const {
  RELOGIC_CHECK(h >= 1 && w >= 1);
  if (mgr_->free_clbs() < h * w) return std::nullopt;

  // Greedy with the cheap tie-break first, the alternate second, full
  // bottom-left repacking as the last resort (still bounded by max_moves).
  if (!small_victims_)
    small_victims_.emplace(*mgr_, /*prefer_small=*/true,
                           mgr_->free_width_profile(), mgr_->occupancy());
  if (auto plan = query(*small_victims_, h, w)) return plan;
  if (!large_victims_)
    large_victims_.emplace(*mgr_, /*prefer_small=*/false,
                           small_victims_->fit.front(),
                           small_victims_->grids.front());
  if (auto plan = query(*large_victims_, h, w)) return plan;
  if (!full_) full_.emplace(*mgr_);
  auto full = full_->plan({{h, w}});
  if (full && static_cast<int>(full->moves.size()) <= opt_.max_moves)
    return full;
  return std::nullopt;
}

std::optional<DefragPlan> plan_for_request(const AreaManager& mgr, int h,
                                           int w, const DefragOptions& opt) {
  return RequestPlanner(mgr, opt).plan(h, w);
}

FullCompaction::FullCompaction(const AreaManager& mgr)
    : mgr_(&mgr), canvas_(mgr.free_rows()), packed_(canvas_) {
  // Pack everything into an empty canvas: pending request first (it must
  // end up placed), then regions by area descending. Bottom-left packing
  // reads free bits only, so the canvas is the source's row bitsets with
  // every region's rect set free again: exactly the masked CLBs stay
  // occupied, and no repacking target ever lands on one.
  order_.reserve(mgr.region_count());
  for (const Region& r : mgr.regions()) {
    canvas_.set(r.rect, true);
    order_.push_back(Piece{r.rect.area(), r.id, r.rect});
  }
  std::sort(order_.begin(), order_.end(), [](const Piece& a, const Piece& b) {
    if (a.area != b.area) return a.area > b.area;
    return a.id < b.id;
  });
}

std::optional<DefragPlan> FullCompaction::plan(
    std::optional<std::pair<int, int>> pending) {
  packed_ = canvas_;  // same size: copies into the scratch words
  FreeRows& canvas = packed_;
  DefragPlan plan;

  if (pending) {
    const auto slot = canvas.first_fit(pending->first, pending->second);
    if (!slot) return std::nullopt;
    canvas.set(*slot, false);
    plan.request_slot = *slot;
  }

  target_.clear();  // target_[i]: destination of order_[i]
  for (const Piece& p : order_) {
    const auto slot = canvas.first_fit(p.rect.height, p.rect.width);
    if (!slot) return std::nullopt;
    canvas.set(*slot, false);
    target_.push_back(*slot);
  }

  // Order the moves so each destination is free when its turn comes;
  // break cycles through temporary positions. Pending entries index order_.
  AreaManager current = *mgr_;
  std::vector<std::size_t> pending_moves;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (target_[i] != order_[i].rect) pending_moves.push_back(i);
  }
  int stall_guard = 0;
  while (!pending_moves.empty()) {
    bool progress = false;
    for (auto it = pending_moves.begin(); it != pending_moves.end();) {
      const RegionId id = order_[*it].id;
      const ClbRect from = current.region(id).rect;
      const ClbRect to = target_[*it];
      if (current.can_move(id, to)) {
        current.move(id, to);
        plan.moves.push_back(Move{id, from, to});
        it = pending_moves.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    if (progress) continue;
    // Cycle: evict the first pending region to any free spot.
    const RegionId id = order_[pending_moves.front()].id;
    const ClbRect from = current.region(id).rect;
    const auto tmp = current.find_free_rect(from.height, from.width,
                                            PlacePolicy::kBestFit);
    if (!tmp || ++stall_guard > 2 * static_cast<int>(order_.size()) + 4)
      return std::nullopt;
    current.move(id, *tmp);
    plan.moves.push_back(Move{id, from, *tmp});
  }

  if (!pending) {
    const auto biggest = current.largest_free_rect();
    plan.request_slot = biggest;
  }
  return plan;
}

std::optional<DefragPlan> plan_full_compaction(
    const AreaManager& mgr, std::optional<std::pair<int, int>> pending) {
  return FullCompaction(mgr).plan(pending);
}

}  // namespace relogic::area
