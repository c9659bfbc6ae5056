// Unit tests: the shared immutable RoutingSkeleton, its process-wide
// per-geometry cache, and the per-device occupancy overlay.
//
// The load-bearing contract: the two-pass counting CSR build must produce
// byte-identical adjacency — same offsets, same PIP-enumeration edge order
// — as the seed staging algorithm kept alive as
// RoutingSkeleton::build_reference. Everything downstream (router
// exploration order, fig5/fig6 byte-pinned outputs) rides on that, and
// has_edge answers from the same rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <vector>

#include "relogic/fabric/fabric.hpp"

namespace relogic::fabric {
namespace {

TEST(RoutingSkeleton, CountingBuildMatchesSeedStagingBuild) {
  // The three paper presets the benches exercise, plus the synthetic
  // 4000-class size point. build_reference emits through the checked public
  // node-id constructors while build uses the hoisted unchecked arithmetic,
  // so agreement here cross-checks both the CSR assembly and the fast
  // enumeration.
  for (auto p : {DevicePreset::kXCV50, DevicePreset::kXCV200,
                 DevicePreset::kXCV1000, DevicePreset::kXCV4000}) {
    const auto geom = DeviceGeometry::preset(p);
    const auto fast = RoutingSkeleton::build(geom);
    const auto seed = RoutingSkeleton::build_reference(geom);
    EXPECT_EQ(fast->node_count(), seed->node_count()) << geom.name;
    EXPECT_EQ(fast->edge_count(), seed->edge_count()) << geom.name;
    EXPECT_TRUE(fast->same_adjacency(*seed)) << geom.name;
  }
}

TEST(RoutingSkeleton, HasEdgeAgreesWithFanoutRows) {
  // has_edge scans the enumeration-order row fanout() serves. Every
  // enumerated edge must be found, and every near miss must not be: a
  // self-loop (the PIP set has none), and each id within 2 of a row entry
  // that the row lacks, which catches a scan over a neighbouring slot.
  for (const auto& geom : {DeviceGeometry::tiny(6, 6),
                           DeviceGeometry::preset(DevicePreset::kXCV50)}) {
    const auto skel = RoutingSkeleton::build(geom);
    std::size_t checked = 0;
    std::size_t misses = 0;
    for (std::size_t n = 0; n < skel->node_count(); ++n) {
      const auto from = static_cast<NodeId>(n);
      const auto row = skel->fanout(from);
      const std::set<NodeId> members(row.begin(), row.end());
      for (NodeId to : row) {
        ASSERT_TRUE(skel->has_edge(from, to)) << geom.name;
        ++checked;
      }
      ASSERT_FALSE(skel->has_edge(from, from)) << geom.name;
      std::set<NodeId> near;
      for (NodeId to : row)
        for (NodeId d = 1; d <= 2; ++d) {
          if (to >= d) near.insert(to - d);
          if (to + d < skel->node_count()) near.insert(to + d);
        }
      for (NodeId to : near) {
        if (members.count(to)) continue;
        ASSERT_FALSE(skel->has_edge(from, to)) << geom.name;
        ++misses;
      }
    }
    EXPECT_EQ(checked, skel->edge_count()) << geom.name;
    EXPECT_GT(misses, 0u) << geom.name;
  }
}

TEST(RoutingSkeleton, PackedInfoEqualsReferenceDecodeOnEveryNode) {
  // info() reads the packed table; decode() is the id-layout arithmetic
  // it was filled from. XCV4000 is the largest geometry the tests build.
  for (const auto& geom :
       {DeviceGeometry::tiny(), DeviceGeometry::tiny_dense(),
        DeviceGeometry::xcv200(), DeviceGeometry::preset(DevicePreset::kXCV4000)}) {
    const auto skel = RoutingSkeleton::build(geom);
    std::size_t mismatches = 0;
    for (std::size_t n = 0; n < skel->node_count(); ++n) {
      const NodeInfo got = skel->info(static_cast<NodeId>(n));
      const NodeInfo want = skel->decode(static_cast<NodeId>(n));
      if (got.kind != want.kind || got.tile != want.tile || got.a != want.a ||
          got.b != want.b)
        ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << geom.name;
    EXPECT_THROW((void)skel->info(static_cast<NodeId>(skel->node_count())),
                 ContractError);
  }
}

TEST(RouteDelayLowerBound, NeverExceedsTheShortestWalkThroughTheSkeleton) {
  // Dijkstra over the whole skeleton, occupancy ignored and through any
  // node, from every output pin and pad to every input pin and pad. The
  // routing-optimisation pass skips a sink on this bound, so a skeleton
  // change that lets some walk beat it (a single spanning two tiles, a
  // hex landing short of hex_span) must fail here. 8x8 has hexes,
  // long-line taps and pads.
  const auto geom = DeviceGeometry::tiny(8, 8);
  const auto skel = RoutingSkeleton::build(geom);
  const DelayModel dm;
  const auto kind = [&](std::size_t n) {
    return skel->info(static_cast<NodeId>(n)).kind;
  };
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dist(skel->node_count());
  using Item = std::pair<std::int64_t, NodeId>;
  std::size_t pairs = 0, tight = 0, violations = 0;
  for (std::size_t s = 0; s < skel->node_count(); ++s) {
    if (kind(s) != NodeKind::kOutPin && kind(s) != NodeKind::kPad) continue;
    const auto source = static_cast<NodeId>(s);
    std::fill(dist.begin(), dist.end(), kInf);
    std::priority_queue<Item, std::vector<Item>, std::greater<>> open;
    dist[s] = 0;
    open.push({0, source});
    while (!open.empty()) {
      const auto [d, n] = open.top();
      open.pop();
      if (d > dist[n]) continue;
      for (const NodeId next : skel->fanout(n)) {
        const std::int64_t nd =
            d + (dm.pip_delay + dm.node_delay(skel->info(next).kind))
                    .picoseconds();
        if (nd < dist[next]) {
          dist[next] = nd;
          open.push({nd, next});
        }
      }
    }
    for (std::size_t t = 0; t < skel->node_count(); ++t) {
      if (t == s || dist[t] == kInf ||
          (kind(t) != NodeKind::kInPin && kind(t) != NodeKind::kPad))
        continue;
      const std::int64_t lb =
          dm.route_delay_lower_bound(*skel, {&source, 1}, static_cast<NodeId>(t))
              .picoseconds();
      ++pairs;
      if (lb > dist[t]) {
        if (++violations <= 5)
          ADD_FAILURE() << skel->info(source).to_string() << " -> "
                        << skel->info(static_cast<NodeId>(t)).to_string()
                        << ": bound " << lb << " ps > shortest walk "
                        << dist[t] << " ps";
      }
      if (lb == dist[t]) ++tight;
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(pairs, 50000u);
  // The bound is not vacuous: it is the exact distance for many pairs.
  EXPECT_GT(tight, pairs / 4);
}

TEST(RouteDelayLowerBound, TakesTheNearestOfSeveralSources) {
  const auto geom = DeviceGeometry::tiny(10, 10);
  const auto skel = RoutingSkeleton::build(geom);
  const DelayModel dm;
  const NodeId sink = skel->in_pin({5, 5}, 0, CellPort::kI0);
  const NodeId far = skel->out_pin({0, 0}, 0, false);
  const NodeId near = skel->out_pin({5, 6}, 1, true);
  const NodeId both[] = {far, near};
  EXPECT_EQ(dm.route_delay_lower_bound(*skel, both, sink),
            dm.route_delay_lower_bound(*skel, {&near, 1}, sink));
  // One single and the pin's PIP: the walk a neighbouring cell really has.
  EXPECT_EQ(dm.route_delay_lower_bound(*skel, {&near, 1}, sink),
            dm.pip_delay * 2 + dm.single_delay);
  EXPECT_LT(dm.route_delay_lower_bound(*skel, {&near, 1}, sink),
            dm.route_delay_lower_bound(*skel, {&far, 1}, sink));
}

TEST(RoutingSkeletonCache, SameGeometryYieldsSameSkeletonInstance) {
  clear_routing_skeleton_cache();
  const auto geom = DeviceGeometry::tiny(5, 7);
  const auto a = acquire_routing_skeleton(geom);
  const auto b = acquire_routing_skeleton(geom);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(routing_skeleton_cache_size(), 1u);

  // Fabrics are thin clients of the same cache: two devices of one
  // geometry share the instance outright.
  Fabric f1(geom);
  Fabric f2(geom);
  EXPECT_EQ(&f1.skeleton(), &f2.skeleton());
  EXPECT_EQ(&f1.skeleton(), a.get());
  EXPECT_EQ(routing_skeleton_cache_size(), 1u);
}

TEST(RoutingSkeletonCache, DistinctGeometriesGetDistinctSkeletons) {
  // tiny and tiny_dense share dimensions but differ in routing pool
  // fields; the cache keys on every geometry field, so they must not
  // alias even when their node counts happen to line up.
  clear_routing_skeleton_cache();
  const auto sparse = acquire_routing_skeleton(DeviceGeometry::tiny(8, 8));
  const auto dense =
      acquire_routing_skeleton(DeviceGeometry::tiny_dense(8, 8));
  EXPECT_NE(sparse.get(), dense.get());
  EXPECT_EQ(routing_skeleton_cache_size(), 2u);

  // The audit walk (cached adjacency vs a fresh reference rebuild) must
  // hold for whatever the cache currently contains.
  audit_routing_skeleton_cache();
}

TEST(RoutingSkeletonCache, ClearDropsEntriesButNotLiveHandles) {
  clear_routing_skeleton_cache();
  const auto geom = DeviceGeometry::tiny(4, 4);
  const auto held = acquire_routing_skeleton(geom);
  EXPECT_EQ(routing_skeleton_cache_size(), 1u);
  clear_routing_skeleton_cache();
  EXPECT_EQ(routing_skeleton_cache_size(), 0u);
  // The shared_ptr keeps the dropped skeleton alive; a re-acquire builds
  // a fresh instance with identical adjacency.
  const auto rebuilt = acquire_routing_skeleton(geom);
  EXPECT_NE(held.get(), rebuilt.get());
  EXPECT_TRUE(held->same_adjacency(*rebuilt));
}

TEST(RoutingGraphOverlay, OccupancyIsolatedBetweenFabricsSharingSkeleton) {
  const auto geom = DeviceGeometry::tiny(6, 6);
  Fabric f1(geom);
  Fabric f2(geom);
  ASSERT_EQ(&f1.skeleton(), &f2.skeleton());

  const auto n = f1.skeleton().single(ClbCoord{2, 3}, Dir::kE, 0);
  ASSERT_TRUE(f1.graph().is_free(n));
  ASSERT_TRUE(f2.graph().is_free(n));

  f1.graph().occupy(n, NetId{7});
  EXPECT_FALSE(f1.graph().is_free(n));
  EXPECT_EQ(f1.graph().occupied_count(), 1u);
  // The sibling device sharing the skeleton must not see the claim.
  EXPECT_TRUE(f2.graph().is_free(n));
  EXPECT_EQ(f2.graph().occupied_count(), 0u);

  f1.graph().release(n);
  EXPECT_TRUE(f1.graph().is_free(n));
  EXPECT_EQ(f1.graph().occupied_count(), 0u);
}

}  // namespace
}  // namespace relogic::fabric
