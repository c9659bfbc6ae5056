// Unit tests: relogic::area (manager, fragmentation metrics, defrag
// planners) including the free-space partition invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "relogic/area/defrag.hpp"
#include "relogic/area/manager.hpp"
#include "relogic/common/rng.hpp"

namespace relogic::area {
namespace {

TEST(AreaManager, AllocateReleaseRoundTrip) {
  AreaManager mgr(10, 10);
  EXPECT_EQ(mgr.free_clbs(), 100);
  const auto id = mgr.allocate("a", 3, 4);
  ASSERT_NE(id, kNoRegion);
  EXPECT_EQ(mgr.free_clbs(), 88);
  EXPECT_EQ(mgr.region(id).rect.area(), 12);
  EXPECT_EQ(mgr.at(ClbCoord{mgr.region(id).rect.row,
                            mgr.region(id).rect.col}),
            id);
  mgr.release(id);
  EXPECT_EQ(mgr.free_clbs(), 100);
  EXPECT_FALSE(mgr.exists(id));
}

TEST(AreaManager, BottomLeftIsDeterministicTopLeftScan) {
  AreaManager mgr(6, 6);
  const auto a = mgr.allocate("a", 2, 2);
  EXPECT_EQ(mgr.region(a).rect, (ClbRect{0, 0, 2, 2}));
  const auto b = mgr.allocate("b", 2, 2);
  EXPECT_EQ(mgr.region(b).rect, (ClbRect{0, 2, 2, 2}));
}

TEST(AreaManager, AllocationFailsWhenNothingFits) {
  AreaManager mgr(4, 4);
  EXPECT_NE(mgr.allocate("a", 4, 3), kNoRegion);
  EXPECT_EQ(mgr.allocate("b", 2, 2), kNoRegion);
  EXPECT_FALSE(mgr.can_fit(2, 2));
  EXPECT_TRUE(mgr.can_fit(4, 1));
}

TEST(AreaManager, LargestFreeRectExact) {
  AreaManager mgr(6, 8);
  // Occupy a plus-shape to carve the free space.
  mgr.allocate_at("v", ClbRect{0, 3, 6, 2});  // vertical bar cols 3..4
  const auto r = mgr.largest_free_rect();
  EXPECT_EQ(r.area(), 18);  // 6x3 either side
  mgr.allocate_at("h", ClbRect{2, 0, 2, 3});  // notch the left side
  EXPECT_EQ(mgr.largest_free_rect().area(), 18);  // right side wins
}

TEST(AreaManager, FragmentationMetric) {
  AreaManager mgr(8, 8);
  EXPECT_DOUBLE_EQ(mgr.fragmentation(), 0.0);  // one free rect
  // Checkerboard of 2x2 blocks leaves free space shattered.
  for (int r = 0; r < 8; r += 4) {
    for (int c = 0; c < 8; c += 4) {
      mgr.allocate_at("b", ClbRect{r, c, 2, 2});
      mgr.allocate_at("b2", ClbRect{r + 2, c + 2, 2, 2});
    }
  }
  EXPECT_GT(mgr.fragmentation(), 0.5);
  EXPECT_EQ(mgr.free_clbs(), 32);
}

TEST(AreaManager, MoveRejectsCollisionAndRollsBack) {
  AreaManager mgr(6, 6);
  const auto a = mgr.allocate_at("a", ClbRect{0, 0, 2, 2});
  const auto b = mgr.allocate_at("b", ClbRect{0, 3, 2, 2});
  EXPECT_FALSE(mgr.can_move(a, ClbRect{0, 2, 2, 2}) &&
               false);  // overlaps b? col 2..3 vs 3..4: col 3 collides
  EXPECT_THROW(mgr.move(a, ClbRect{0, 3, 2, 2}), IllegalOperationError);
  // Rollback left everything intact.
  EXPECT_EQ(mgr.region(a).rect, (ClbRect{0, 0, 2, 2}));
  EXPECT_EQ(mgr.at({0, 3}), b);
  // Overlapping self-move is fine.
  EXPECT_TRUE(mgr.can_move(a, ClbRect{1, 0, 2, 2}));
  mgr.move(a, ClbRect{1, 0, 2, 2});
  EXPECT_EQ(mgr.at({2, 0}), a);
  EXPECT_EQ(mgr.at({0, 0}), kNoRegion);
}

TEST(AreaManager, FreeSpacePartitionInvariant) {
  // Property: sum of region areas + free_clbs == total, after random ops.
  Rng rng(11);
  AreaManager mgr(16, 16);
  std::vector<RegionId> live;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const auto id = mgr.allocate("r", rng.next_int(1, 5), rng.next_int(1, 5));
      if (id != kNoRegion) live.push_back(id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      mgr.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    int used = 0;
    for (const auto& r : mgr.regions()) used += r.rect.area();
    ASSERT_EQ(used + mgr.free_clbs(), mgr.total_clbs());
    ASSERT_EQ(mgr.region_count(), live.size());
  }
}

TEST(Defrag, PlanForRequestSolvesFragmentation) {
  AreaManager mgr(8, 8);
  // Bands: occupy rows 2-3 fully, leaving rows 0-1 and 4-7 free but split.
  mgr.allocate_at("band", ClbRect{2, 0, 2, 8});
  mgr.allocate_at("blob", ClbRect{5, 2, 2, 3});
  EXPECT_FALSE(mgr.can_fit(5, 5));
  EXPECT_GE(mgr.free_clbs(), 25);

  const auto plan = plan_for_request(mgr, 5, 5);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->moves.size(), 1u);

  // Executing the plan move-by-move is legal and yields the slot.
  for (const auto& mv : plan->moves) {
    ASSERT_TRUE(mgr.can_move(mv.region, mv.to));
    mgr.move(mv.region, mv.to);
  }
  EXPECT_TRUE(mgr.can_fit(5, 5));
}

TEST(Defrag, PlanReturnsNulloptWhenAreaInsufficient) {
  AreaManager mgr(4, 4);
  mgr.allocate_at("a", ClbRect{0, 0, 4, 2});
  EXPECT_EQ(plan_for_request(mgr, 4, 3), std::nullopt);
}

TEST(Defrag, MoveBoundRespected) {
  AreaManager mgr(8, 8);
  for (int i = 0; i < 4; ++i) mgr.allocate_at("x", ClbRect{i * 2, 2, 1, 4});
  DefragOptions opt;
  opt.max_moves = 0;
  EXPECT_EQ(plan_for_request(mgr, 8, 5, opt), std::nullopt);
}

TEST(Defrag, FullCompactionPacksEverything) {
  Rng rng(5);
  AreaManager mgr(12, 12);
  std::vector<RegionId> live;
  for (int i = 0; i < 12; ++i) {
    const auto id = mgr.allocate("r" + std::to_string(i), rng.next_int(1, 4),
                                 rng.next_int(1, 4));
    if (id != kNoRegion) live.push_back(id);
  }
  // Punch holes.
  for (std::size_t i = 0; i < live.size(); i += 2) mgr.release(live[i]);

  const double frag_before = mgr.fragmentation();
  const auto plan = plan_full_compaction(mgr);
  ASSERT_TRUE(plan.has_value());
  for (const auto& mv : plan->moves) {
    ASSERT_TRUE(mgr.can_move(mv.region, mv.to))
        << "plan not sequentially executable";
    mgr.move(mv.region, mv.to);
  }
  EXPECT_LE(mgr.fragmentation(), frag_before);
  // After compaction the free space is (nearly) one rectangle.
  EXPECT_GE(mgr.largest_free_rect().area(), mgr.free_clbs() * 3 / 4);
}

TEST(AreaManager, AsciiRenderingShowsRegionsAndHoles) {
  AreaManager mgr(3, 4);
  mgr.allocate_at("a", ClbRect{0, 0, 2, 2});
  mgr.allocate_at("b", ClbRect{2, 2, 1, 2});
  const std::string art = mgr.to_ascii();
  EXPECT_EQ(art,
            "AA..\n"
            "AA..\n"
            "..BB\n");
}

TEST(Defrag, FullCompactionWithPendingReservesSlot) {
  AreaManager mgr(8, 8);
  mgr.allocate_at("a", ClbRect{3, 3, 2, 2});
  const auto plan = plan_full_compaction(mgr, {{4, 4}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->request_slot.height, 4);
  EXPECT_EQ(plan->request_slot.width, 4);
}

TEST(Defrag, RequestPlannerMatchesPerShapePlanning) {
  // The planner's contract: plan(h, w) on one shared move sequence returns
  // exactly what a fresh plan_for_request(mgr, h, w) would — including
  // after other shapes have extended the shared sequence, and regardless
  // of query order. Exercise many fragmented states and shape orders.
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    AreaManager mgr(16, 16);
    std::vector<RegionId> live;
    for (int i = 0; i < 14; ++i) {
      const auto id =
          mgr.allocate("r", rng.next_int(2, 6), rng.next_int(2, 6));
      if (id != kNoRegion) live.push_back(id);
    }
    for (std::size_t i = 0; i < live.size(); i += 2) mgr.release(live[i]);

    std::vector<std::pair<int, int>> shapes;
    for (int h = 1; h <= 12; h += 3)
      for (int w = 1; w <= 12; w += 3) shapes.push_back({h, w});
    rng.shuffle(shapes);  // query order must not matter

    const RequestPlanner planner(mgr);
    for (const auto& [h, w] : shapes) {
      const auto shared = planner.plan(h, w);
      const auto fresh = plan_for_request(mgr, h, w);
      ASSERT_EQ(shared.has_value(), fresh.has_value())
          << "trial " << trial << " shape " << h << "x" << w;
      if (!shared) continue;
      EXPECT_EQ(shared->request_slot, fresh->request_slot);
      ASSERT_EQ(shared->moves.size(), fresh->moves.size());
      for (std::size_t i = 0; i < shared->moves.size(); ++i) {
        EXPECT_EQ(shared->moves[i].region, fresh->moves[i].region);
        EXPECT_EQ(shared->moves[i].from, fresh->moves[i].from);
        EXPECT_EQ(shared->moves[i].to, fresh->moves[i].to);
      }
    }
  }
}

// ---- independent oracle --------------------------------------------------
//
// The greedy planner restated as naively as possible, sharing nothing with
// the area layer's search code: every query is a brute-force scan of
// AreaManager::at(), every (shape, tie-break) pair runs its own greedy pass
// from scratch, and nothing is reused or cut short (no free-space
// bitsets, no cached free rectangle, no candidate tables, no cycle stop).
// The full-compaction fallback is restated too (naive_full_compaction).

bool naive_free(const AreaManager& m, const ClbRect& r) {
  for (int row = r.row; row < r.row_end(); ++row)
    for (int col = r.col; col < r.col_end(); ++col)
      if (m.at({row, col}) != kNoRegion) return false;
  return true;
}

int naive_free_count(const AreaManager& m) {
  int n = 0;
  for (int row = 0; row < m.rows(); ++row)
    for (int col = 0; col < m.cols(); ++col)
      n += m.at({row, col}) == kNoRegion ? 1 : 0;
  return n;
}

std::optional<ClbRect> naive_find(const AreaManager& m, int h, int w,
                                  PlacePolicy policy,
                                  const ClbRect* avoid = nullptr) {
  const auto occupied = [&](int row, int col) {
    return row < 0 || row >= m.rows() || col < 0 || col >= m.cols() ||
           m.at({row, col}) != kNoRegion;
  };
  std::optional<ClbRect> best;
  long best_score = 0;
  for (int row = 0; row + h <= m.rows(); ++row) {
    for (int col = 0; col + w <= m.cols(); ++col) {
      const ClbRect r{row, col, h, w};
      if (!naive_free(m, r)) continue;
      if (avoid != nullptr && r.overlaps(*avoid)) continue;
      if (policy == PlacePolicy::kBottomLeft) return r;
      long score = 0;
      for (int c = col; c < col + w; ++c)
        score += (occupied(row - 1, c) ? 1 : 0) + (occupied(row + h, c) ? 1 : 0);
      for (int rr = row; rr < row + h; ++rr)
        score += (occupied(rr, col - 1) ? 1 : 0) + (occupied(rr, col + w) ? 1 : 0);
      if (!best || score > best_score) {
        best = r;
        best_score = score;
      }
    }
  }
  return best;
}

int naive_largest_free_area(const AreaManager& m) {
  int best = 0;
  for (int top = 0; top < m.rows(); ++top) {
    for (int left = 0; left < m.cols(); ++left) {
      int width = m.cols() - left;
      for (int bottom = top; bottom < m.rows() && width > 0; ++bottom) {
        int run = 0;
        while (run < width && m.at({bottom, left + run}) == kNoRegion) ++run;
        width = run;
        best = std::max(best, width * (bottom - top + 1));
      }
    }
  }
  return best;
}

std::vector<RegionId> naive_grid(const AreaManager& m) {
  std::vector<RegionId> g;
  for (int row = 0; row < m.rows(); ++row)
    for (int col = 0; col < m.cols(); ++col) g.push_back(m.at({row, col}));
  return g;
}

bool naive_can_move(const AreaManager& m, RegionId id, const ClbRect& to) {
  if (to.row < 0 || to.col < 0 || to.row_end() > m.rows() ||
      to.col_end() > m.cols())
    return false;
  for (int row = to.row; row < to.row_end(); ++row)
    for (int col = to.col; col < to.col_end(); ++col)
      if (m.at({row, col}) != kNoRegion && m.at({row, col}) != id)
        return false;
  return true;
}

/// plan_full_compaction restated: bottom-left packing into a fresh manager
/// that carries the source's masked CLBs, by brute-force scans, then the
/// same move ordering (sequentially legal, cycles broken through best-fit
/// temporary positions) on a copy of the source.
std::optional<DefragPlan> naive_full_compaction(
    const AreaManager& mgr, std::optional<std::pair<int, int>> pending) {
  AreaManager packed(mgr.rows(), mgr.cols());
  for (int row = 0; row < mgr.rows(); ++row)
    for (int col = 0; col < mgr.cols(); ++col)
      if (mgr.masked({row, col})) packed.mask_faulty({row, col});
  DefragPlan plan;
  if (pending) {
    const auto slot = naive_find(packed, pending->first, pending->second,
                                 PlacePolicy::kBottomLeft);
    if (!slot) return std::nullopt;
    packed.allocate_at("request", *slot);
    plan.request_slot = *slot;
  }
  // Area descending; regions() ascends by id, which breaks the ties.
  std::vector<Region> order = mgr.regions();
  std::stable_sort(order.begin(), order.end(),
                   [](const Region& a, const Region& b) {
                     return a.rect.area() > b.rect.area();
                   });
  std::vector<ClbRect> target;
  for (const Region& r : order) {
    const auto slot = naive_find(packed, r.rect.height, r.rect.width,
                                 PlacePolicy::kBottomLeft);
    if (!slot) return std::nullopt;
    packed.allocate_at(r.name, *slot);
    target.push_back(*slot);
  }

  AreaManager current = mgr;
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < order.size(); ++i)
    if (target[i] != order[i].rect) todo.push_back(i);
  int stalls = 0;
  while (!todo.empty()) {
    bool progress = false;
    for (auto it = todo.begin(); it != todo.end();) {
      const RegionId id = order[*it].id;
      const ClbRect from = current.region(id).rect;
      if (naive_can_move(current, id, target[*it])) {
        current.move(id, target[*it]);
        plan.moves.push_back(Move{id, from, target[*it]});
        it = todo.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    if (progress) continue;
    const RegionId id = order[todo.front()].id;
    const ClbRect from = current.region(id).rect;
    const auto tmp =
        naive_find(current, from.height, from.width, PlacePolicy::kBestFit);
    if (!tmp || ++stalls > 2 * static_cast<int>(mgr.region_count()) + 4)
      return std::nullopt;
    current.move(id, *tmp);
    plan.moves.push_back(Move{id, from, *tmp});
  }
  if (!pending) plan.request_slot = current.largest_free_rect();
  return plan;
}

std::optional<Move> oracle_best_move(const AreaManager& s, bool prefer_small) {
  std::optional<Move> best;
  long best_gain = -1;
  long best_dist = 0;
  long best_area = 0;
  for (const Region& r : s.regions()) {
    for (PlacePolicy policy :
         {PlacePolicy::kBottomLeft, PlacePolicy::kBestFit}) {
      const auto dest = naive_find(s, r.rect.height, r.rect.width, policy);
      if (!dest || *dest == r.rect) continue;
      AreaManager trial = s;
      trial.move(r.id, *dest);
      const long gain = naive_largest_free_area(trial);
      const long dist =
          std::abs(dest->row - r.rect.row) + std::abs(dest->col - r.rect.col);
      const long area = r.rect.area();
      bool better = false;
      if (!best) {
        better = true;
      } else if (gain != best_gain) {
        better = gain > best_gain;
      } else if (area != best_area) {
        better = prefer_small ? area < best_area : area > best_area;
      } else {
        better = dist < best_dist;
      }
      if (better) {
        best = Move{r.id, r.rect, *dest};
        best_gain = gain;
        best_dist = dist;
        best_area = area;
      }
    }
  }
  return best;
}

struct OracleResult {
  std::optional<DefragPlan> plan;
  bool revisited = false;  ///< some greedy pass re-entered an earlier state
  bool packed = false;  ///< both greedy passes failed, the packing planned
};

OracleResult oracle_plan(const AreaManager& mgr, int h, int w,
                         const DefragOptions& opt) {
  OracleResult out;
  if (naive_free_count(mgr) < h * w) return out;
  for (bool prefer_small : {true, false}) {
    AreaManager s = mgr;
    DefragPlan plan;
    std::vector<std::vector<RegionId>> seen{naive_grid(s)};
    while (true) {
      if (const auto slot = naive_find(s, h, w, PlacePolicy::kBottomLeft)) {
        plan.request_slot = *slot;
        out.plan = plan;
        return out;
      }
      if (static_cast<int>(plan.moves.size()) >= opt.max_moves) break;
      const auto mv = oracle_best_move(s, prefer_small);
      if (!mv) break;
      s.move(mv->region, mv->to);
      plan.moves.push_back(*mv);
      auto grid = naive_grid(s);
      if (std::find(seen.begin(), seen.end(), grid) != seen.end())
        out.revisited = true;
      seen.push_back(std::move(grid));
    }
  }
  auto full = naive_full_compaction(mgr, {{h, w}});
  if (full && static_cast<int>(full->moves.size()) <= opt.max_moves) {
    out.plan = std::move(full);
    out.packed = true;
  }
  return out;
}

void expect_same_plan(const std::optional<DefragPlan>& got,
                      const std::optional<DefragPlan>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->request_slot, want->request_slot) << where;
  ASSERT_EQ(got->moves.size(), want->moves.size()) << where;
  for (std::size_t i = 0; i < got->moves.size(); ++i) {
    EXPECT_EQ(got->moves[i].region, want->moves[i].region) << where;
    EXPECT_EQ(got->moves[i].from, want->moves[i].from) << where;
    EXPECT_EQ(got->moves[i].to, want->moves[i].to) << where;
  }
}

/// A fragmented rows x cols state: a few masked CLBs (optional), then
/// regions packed in and every other one released. `uniform` gives every
/// region the same shape, which makes the greedy tie-breaks decide most
/// moves.
AreaManager random_state(Rng& rng, int rows, int cols, bool masked,
                         bool uniform) {
  AreaManager mgr(rows, cols);
  if (masked) {
    for (int i = 0; i < (rows + cols) / 6; ++i)
      mgr.mask_faulty({rng.next_int(0, rows - 1), rng.next_int(0, cols - 1)});
  }
  const int uh = rng.next_int(1, 3);
  const int uw = rng.next_int(1, 3);
  std::vector<RegionId> live;
  for (int i = 0; i < (rows + cols) / 2; ++i) {
    const auto id = mgr.allocate(
        "r", uniform ? uh : rng.next_int(1, std::max(1, rows / 3)),
        uniform ? uw : rng.next_int(1, std::max(1, cols / 3)),
        rng.next_bool() ? PlacePolicy::kBottomLeft : PlacePolicy::kBestFit);
    if (id != kNoRegion) live.push_back(id);
  }
  for (std::size_t i = 0; i < live.size(); i += 2) mgr.release(live[i]);
  return mgr;
}

TEST(DefragOracle, PlannerMatchesNaiveGreedyOnRandomStates) {
  Rng rng(2024);
  int revisits = 0;
  int plans = 0;
  for (int n : {12, 16}) {
    for (bool masked : {false, true}) {
      for (int trial = 0; trial < 6; ++trial) {
        const AreaManager mgr =
            random_state(rng, n, n, masked, trial % 2 == 1);
        std::vector<std::pair<int, int>> shapes;
        for (int i = 0; i < 6; ++i)
          shapes.push_back({rng.next_int(1, n * 2 / 3),
                            rng.next_int(1, n * 2 / 3)});
        for (int max_moves : {1, 2, 8, 16}) {
          DefragOptions opt;
          opt.max_moves = max_moves;
          const RequestPlanner shared(mgr, opt);
          for (const auto& [h, w] : shapes) {
            const std::string where =
                std::to_string(n) + "x" + std::to_string(n) +
                (masked ? " masked" : "") + " trial " + std::to_string(trial) +
                " max_moves " + std::to_string(max_moves) + " shape " +
                std::to_string(h) + "x" + std::to_string(w);
            const OracleResult want = oracle_plan(mgr, h, w, opt);
            revisits += want.revisited ? 1 : 0;
            plans += want.plan ? 1 : 0;
            expect_same_plan(plan_for_request(mgr, h, w, opt), want.plan,
                             where + " (plan_for_request)");
            expect_same_plan(shared.plan(h, w), want.plan,
                             where + " (shared planner)");
          }
        }
      }
    }
  }
  // The sample must exercise both outcomes and the cycle stop.
  EXPECT_GT(plans, 0);
  EXPECT_GT(revisits, 0);
}

TEST(DefragOracle, PlannerMatchesNaiveGreedyOnMultiWordMaskedGrid) {
  // 6 x 70: every row spans two 64-bit words, so candidate destinations,
  // gains and fit profiles all cross the word boundary; masked CLBs break
  // the free runs.
  Rng rng(4242);
  int plans = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const AreaManager mgr = random_state(rng, 6, 70, /*masked=*/true,
                                         /*uniform=*/trial == 1);
    ASSERT_GT(mgr.masked_clbs(), 0);
    for (int max_moves : {2, 8}) {
      DefragOptions opt;
      opt.max_moves = max_moves;
      const RequestPlanner shared(mgr, opt);
      for (int q = 0; q < 4; ++q) {
        const int h = rng.next_int(1, 5);
        const int w = rng.next_int(8, 68);
        const std::string where = "trial " + std::to_string(trial) +
                                  " max_moves " + std::to_string(max_moves) +
                                  " shape " + std::to_string(h) + "x" +
                                  std::to_string(w);
        const OracleResult want = oracle_plan(mgr, h, w, opt);
        plans += want.plan ? 1 : 0;
        expect_same_plan(plan_for_request(mgr, h, w, opt), want.plan,
                         where + " (plan_for_request)");
        expect_same_plan(shared.plan(h, w), want.plan,
                         where + " (shared planner)");
      }
    }
  }
  EXPECT_GT(plans, 0);
}

TEST(DefragOracle, FullCompactionMatchesNaivePacking) {
  // One- and multi-word rows and columns, with and without masked CLBs
  // (a canvas that dropped the masks would pack onto them), with and
  // without a pending request.
  Rng rng(31);
  int packed = 0;
  int masked_packed = 0;
  int failed = 0;
  for (const auto& [rows, cols] :
       {std::pair{12, 12}, std::pair{16, 16}, std::pair{6, 70},
        std::pair{70, 6}}) {
    for (bool masked : {false, true}) {
      for (int trial = 0; trial < 6; ++trial) {
        const AreaManager mgr =
            random_state(rng, rows, cols, masked, trial % 2 == 1);
        std::vector<std::optional<std::pair<int, int>>> requests{
            std::nullopt};
        for (int q = 0; q < 4; ++q)
          requests.push_back(
              std::pair{rng.next_int(1, rows), rng.next_int(1, cols)});
        for (const auto& pending : requests) {
          const std::string where =
              std::to_string(rows) + "x" + std::to_string(cols) +
              (masked ? " masked" : "") + " trial " + std::to_string(trial) +
              (pending ? " pending " + std::to_string(pending->first) + "x" +
                             std::to_string(pending->second)
                       : " no request");
          const auto want = naive_full_compaction(mgr, pending);
          expect_same_plan(plan_full_compaction(mgr, pending), want, where);
          packed += want ? 1 : 0;
          masked_packed += want && masked ? 1 : 0;
          failed += want ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(packed, 0);
  EXPECT_GT(masked_packed, 0);
  EXPECT_GT(failed, 0);
}

TEST(DefragOracle, SharedPlannerAnswersManyShapesLikeFreshPlans) {
  // One RequestPlanner per state, queried with many shapes in random
  // order: whichever query comes first builds the candidate tables, the
  // sequences and the packing input, and every later one reuses them (and
  // the packing scratch). Each answer must equal a fresh plan_for_request
  // and the naive oracle. The sample must include plans from the packing
  // fallback, with and without masked CLBs, and several packings per
  // planner, so a scratch that kept one shape's request slot would show.
  Rng rng(2028);
  int packed = 0;
  int masked_packed = 0;
  int packings_after_first = 0;
  for (int n : {8, 12}) {
    for (bool masked : {false, true}) {
      for (int trial = 0; trial < 4; ++trial) {
        const AreaManager mgr =
            random_state(rng, n, n, masked, trial % 2 == 1);
        std::vector<std::pair<int, int>> shapes;
        for (int h = 1; h <= n; ++h)
          for (int w = 1; w <= n; ++w) shapes.push_back({h, w});
        rng.shuffle(shapes);
        shapes.resize(shapes.size() / 3);
        for (int max_moves : {1, 4, 16}) {
          DefragOptions opt;
          opt.max_moves = max_moves;
          const RequestPlanner shared(mgr, opt);
          int packings = 0;
          for (const auto& [h, w] : shapes) {
            const std::string where =
                std::to_string(n) + "x" + std::to_string(n) +
                (masked ? " masked" : "") + " trial " + std::to_string(trial) +
                " max_moves " + std::to_string(max_moves) + " shape " +
                std::to_string(h) + "x" + std::to_string(w);
            const auto fresh = plan_for_request(mgr, h, w, opt);
            expect_same_plan(shared.plan(h, w), fresh, where + " (shared)");
            const OracleResult want = oracle_plan(mgr, h, w, opt);
            expect_same_plan(fresh, want.plan, where + " (oracle)");
            if (!want.packed) continue;
            packings_after_first += packings++ > 0 ? 1 : 0;
            packed += 1;
            masked_packed += masked ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(packed - masked_packed, 0);
  EXPECT_GT(masked_packed, 0);
  EXPECT_GT(packings_after_first, 0);
}

TEST(DefragOracle, OscillatingGreedySequenceStopsWithSameVerdict) {
  // 1 x 5 strip: region A at col 0, a masked CLB at col 2. A 1 x 3 request
  // has the free area (cols 1, 3, 4) but can never fit: the mask splits the
  // strip into runs of 2. Greedy moves A to col 1 (best-fit hugs A's old
  // cell and the mask), then back to col 0, and so on: S0, S1, S0, ...
  AreaManager mgr(1, 5);
  mgr.mask_faulty({0, 2});
  const RegionId a = mgr.allocate_at("A", ClbRect{0, 0, 1, 1});
  ASSERT_NE(a, kNoRegion);
  for (int max_moves : {1, 2, 8, 16}) {
    DefragOptions opt;
    opt.max_moves = max_moves;
    const OracleResult want = oracle_plan(mgr, 1, 3, opt);
    EXPECT_EQ(want.revisited, max_moves >= 2);
    EXPECT_FALSE(want.plan.has_value());
    expect_same_plan(plan_for_request(mgr, 1, 3, opt), want.plan,
                     "max_moves " + std::to_string(max_moves));
    // A shape that does fit is still planned after the cycle was found.
    const RequestPlanner shared(mgr, opt);
    EXPECT_FALSE(shared.plan(1, 3).has_value());
    expect_same_plan(shared.plan(1, 2), oracle_plan(mgr, 1, 2, opt).plan,
                     "1x2 after cycle, max_moves " + std::to_string(max_moves));
  }
}

TEST(DefragOracle, CycleStopKeepsTheSequenceTip) {
  //   . A .      A . .
  //   X . .  ->  X . .   (S1: a 2 x 2 fits) -> back to S0, ...
  // A 1 x 3 query walks S0, S1 and finds the way back to S0; a later 2 x 2
  // query is satisfied at the tip S1, so the planner must still hold S1
  // (not the re-entered S0) when it looks up the request slot.
  AreaManager mgr(2, 3);
  mgr.mask_faulty({1, 0});
  ASSERT_NE(mgr.allocate_at("A", ClbRect{0, 1, 1, 1}), kNoRegion);
  for (int max_moves : {2, 8, 16}) {
    DefragOptions opt;
    opt.max_moves = max_moves;
    const std::string where = "max_moves " + std::to_string(max_moves);
    const OracleResult wide = oracle_plan(mgr, 1, 3, opt);
    EXPECT_TRUE(wide.revisited) << where;
    const RequestPlanner shared(mgr, opt);
    expect_same_plan(shared.plan(1, 3), wide.plan, where + " 1x3");
    const OracleResult square = oracle_plan(mgr, 2, 2, opt);
    ASSERT_TRUE(square.plan.has_value()) << where;
    EXPECT_EQ(square.plan->moves.size(), 1u) << where;
    expect_same_plan(shared.plan(2, 2), square.plan, where + " 2x2");
  }
}

std::vector<int> naive_free_width_profile(const AreaManager& m) {
  std::vector<int> profile(static_cast<std::size_t>(m.rows()), 0);
  for (int top = 0; top < m.rows(); ++top) {
    for (int left = 0; left < m.cols(); ++left) {
      int width = m.cols() - left;
      for (int bottom = top; bottom < m.rows() && width > 0; ++bottom) {
        int run = 0;
        while (run < width && m.at({bottom, left + run}) == kNoRegion) ++run;
        width = run;
        int& slot = profile[static_cast<std::size_t>(bottom - top)];
        slot = std::max(slot, width);
      }
    }
  }
  return profile;
}

/// find_free_rects is find_free_rect under both policies at once.
void expect_both_policies(const AreaManager& mgr, int h, int w,
                          const ClbRect* avoid, const std::string& where) {
  const FreeRects both = mgr.find_free_rects(h, w, avoid);
  EXPECT_EQ(both.bottom_left,
            mgr.find_free_rect(h, w, PlacePolicy::kBottomLeft, avoid))
      << where;
  EXPECT_EQ(both.best_fit,
            mgr.find_free_rect(h, w, PlacePolicy::kBestFit, avoid))
      << where;
}

/// For every region and each destination the planner could score (both
/// policies' positions of its shape) plus every one-CLB shift it could be
/// moved to (overlapping its own rect): the read-only trial score equals
/// move, largest_free_area() and rollback on the manager itself.
void check_trial_scores(AreaManager& mgr, const std::string& where) {
  for (std::size_t i = 0; i < mgr.region_count(); ++i) {
    const RegionId id = mgr.regions()[i].id;
    const ClbRect from = mgr.regions()[i].rect;
    const FreeRects dests = mgr.find_free_rects(from.height, from.width);
    std::vector<ClbRect> tos;
    for (const auto& dest : {dests.bottom_left, dests.best_fit})
      if (dest) tos.push_back(*dest);
    for (const auto& [dr, dc] : {std::pair{-1, 0}, {1, 0}, {0, -1}, {0, 1}}) {
      const ClbRect shifted{from.row + dr, from.col + dc, from.height,
                            from.width};
      if (mgr.can_move(id, shifted)) tos.push_back(shifted);
    }
    for (const ClbRect& to : tos) {
      const std::string move = where + " region " + std::to_string(id) +
                               " " + from.to_string() + " -> " +
                               to.to_string();
      const int trial = mgr.largest_free_area_after_move(from, to);
      mgr.move(id, to);
      const int moved = mgr.largest_free_area();
      mgr.move(id, from);
      ASSERT_EQ(trial, moved) << move;
      // With a floor the walk may stop early, but never below the floor and
      // never off the exact value above it.
      for (const int floor : {-1, moved / 2, moved - 1, moved, moved + 1,
                              mgr.total_clbs()}) {
        ASSERT_EQ(mgr.largest_free_area_after_move(from, to, floor),
                  std::max(floor, moved))
            << move << " floor " << floor;
      }
    }
  }
}

/// `steps` random allocate / release / move / mask operations on a
/// rows x cols manager. After each one, every free-space query must agree
/// with a brute-force scan and the audit's from-scratch recount must hold.
void check_queries_under_churn(Rng& rng, int rows, int cols, int steps) {
  const std::string grid = std::to_string(rows) + "x" + std::to_string(cols);
  AreaManager mgr(rows, cols);
  std::vector<RegionId> live;
  for (int step = 0; step < steps; ++step) {
    const std::string where = grid + " step " + std::to_string(step);
    const int op = rng.next_int(0, 9);
    if (op <= 3 || live.empty()) {
      const auto id = mgr.allocate(
          "r", rng.next_int(1, std::max(1, rows / 3)),
          rng.next_int(1, std::max(1, cols / 3)),
          rng.next_bool() ? PlacePolicy::kBottomLeft : PlacePolicy::kBestFit);
      if (id != kNoRegion) live.push_back(id);
    } else if (op <= 6) {
      const std::size_t k = rng.next_below(live.size());
      mgr.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op <= 8) {
      const Region r = mgr.region(live[rng.next_below(live.size())]);
      const auto to = mgr.find_free_rect(r.rect.height, r.rect.width,
                                         PlacePolicy::kBestFit);
      if (to) mgr.move(r.id, *to);
    } else {
      const ClbCoord c{rng.next_int(0, rows - 1), rng.next_int(0, cols - 1)};
      if (mgr.at(c) == kNoRegion) mgr.mask_faulty(c);
    }
    ASSERT_NO_THROW(mgr.audit()) << where;

    ASSERT_EQ(mgr.largest_free_area(), naive_largest_free_area(mgr)) << where;
    const ClbRect largest = mgr.largest_free_rect();
    ASSERT_EQ(largest.area(), mgr.largest_free_area()) << where;
    if (largest.area() > 0) {
      EXPECT_TRUE(naive_free(mgr, largest)) << where;
    }
    ASSERT_EQ(mgr.free_width_profile(), naive_free_width_profile(mgr))
        << where;
    ASSERT_NO_THROW(mgr.audit()) << where << " (cached)";

    // One random window, and one straddling the 64-bit word boundary in
    // each dimension the grid crosses it.
    std::vector<ClbRect> avoids{
        {rng.next_int(0, rows - 1), rng.next_int(0, cols - 1),
         rng.next_int(1, std::max(1, rows / 2)),
         rng.next_int(1, std::max(1, cols / 2))}};
    if (cols > 64 || rows > 64) {
      const int r0 = rows > 64 ? rng.next_int(60, 63) : 0;
      const int c0 =
          cols > 64 ? rng.next_int(60, 63) : rng.next_int(0, cols - 1);
      avoids.push_back({r0, c0, rows > 64 ? rng.next_int(2, 8) : rows,
                        cols > 64 ? rng.next_int(2, 8) : 1});
    }
    std::vector<std::pair<int, int>> shapes;
    for (int q = 0; q < 4; ++q)
      shapes.push_back({rng.next_int(1, rows), rng.next_int(1, cols)});
    // Shapes longer than one word in the grid's multi-word dimension.
    if (cols > 64) shapes.push_back({1, rng.next_int(65, cols)});
    if (rows > 64) shapes.push_back({rng.next_int(65, rows), 1});
    for (const auto& [h, w] : shapes) {
      const std::string shape =
          where + " shape " + std::to_string(h) + "x" + std::to_string(w);
      for (PlacePolicy policy :
           {PlacePolicy::kBottomLeft, PlacePolicy::kBestFit}) {
        EXPECT_EQ(mgr.find_free_rect(h, w, policy),
                  naive_find(mgr, h, w, policy))
            << shape;
        for (const ClbRect& avoid : avoids)
          EXPECT_EQ(mgr.find_free_rect(h, w, policy, &avoid),
                    naive_find(mgr, h, w, policy, &avoid))
              << shape << " avoid " << avoid.to_string();
      }
      expect_both_policies(mgr, h, w, nullptr, shape);
      for (const ClbRect& avoid : avoids)
        expect_both_policies(mgr, h, w, &avoid, shape);
    }
    check_trial_scores(mgr, where);
  }
}

TEST(AreaOracle, FreeSpaceQueriesMatchNaiveScanUnderChurn) {
  Rng rng(99);
  for (int n : {12, 16}) check_queries_under_churn(rng, n, n, 300);
}

TEST(AreaOracle, FreeSpaceQueriesMatchNaiveScanAcrossWordBoundaries) {
  // Rows (6 x 70, 3 x 130) or columns (70 x 6) longer than one 64-bit word.
  Rng rng(7);
  check_queries_under_churn(rng, 6, 70, 200);
  check_queries_under_churn(rng, 70, 6, 200);
  check_queries_under_churn(rng, 3, 130, 200);
}

}  // namespace
}  // namespace relogic::area
