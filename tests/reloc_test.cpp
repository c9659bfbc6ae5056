// Unit tests: relogic::reloc (net surgery, cost model, engine edge cases
// beyond the integration suite).
#include <gtest/gtest.h>

#include <set>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/common/rng.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/reloc/net_surgery.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic::reloc {
namespace {

using fabric::CellPort;
using fabric::DeviceGeometry;
using fabric::Dir;
using fabric::Fabric;
using fabric::NodeId;
using fabric::RouteEdge;

class NetSurgeryTest : public ::testing::Test {
 protected:
  DeviceGeometry geom_ = DeviceGeometry::tiny(8, 8);
  Fabric fab_{geom_};

  // Builds a Y-shaped net: src -> a -> b, b -> sink1, b -> c -> sink2.
  struct Y {
    fabric::NetId net;
    NodeId src, a, b, c, sink1, sink2;
  };
  Y build_y() {
    const auto& g = fab_.skeleton();
    Y y;
    y.net = fab_.create_net("y");
    y.src = g.out_pin({2, 2}, 0, false);
    y.a = g.single({2, 2}, Dir::kE, 0);
    y.b = g.single({2, 3}, Dir::kE, 0);
    y.sink1 = g.in_pin({2, 4}, 0, CellPort::kI0);
    y.c = g.single({2, 4}, Dir::kS, 0);
    y.sink2 = g.in_pin({3, 4}, 0, CellPort::kI0);
    fab_.attach_source(y.net, y.src);
    fab_.add_edge(y.net, {y.src, y.a});
    fab_.add_edge(y.net, {y.a, y.b});
    fab_.add_edge(y.net, {y.b, y.sink1});
    fab_.add_edge(y.net, {y.b, y.c});
    fab_.add_edge(y.net, {y.c, y.sink2});
    fab_.validate_net(y.net);
    return y;
  }
};

TEST_F(NetSurgeryTest, SinkRemovalKeepsSharedTrunk) {
  const Y y = build_y();
  const auto removed = prune_for_removal(fab_, y.net, {y.sink2});
  // Only the private branch b->c->sink2 goes; the trunk survives.
  EXPECT_EQ(removed.size(), 2u);
  for (const auto& e : removed) {
    EXPECT_TRUE((e == RouteEdge{y.b, y.c}) || (e == RouteEdge{y.c, y.sink2}));
  }
}

TEST_F(NetSurgeryTest, GroupedRemovalFreesSharedSegmentsExactlyOnce) {
  const Y y = build_y();
  const auto removed = prune_for_removal(fab_, y.net, {y.sink1, y.sink2});
  // Dropping both sinks frees everything.
  EXPECT_EQ(removed.size(), fab_.net(y.net).edges.size());
  // Per-sink pruning would have left the shared trunk in place.
  const auto only1 = prune_for_removal(fab_, y.net, {y.sink1});
  EXPECT_LT(only1.size(), removed.size());
}

TEST_F(NetSurgeryTest, SourceRemovalWithParallelReplica) {
  // src and replica both drive the trunk; removing src keeps the replica
  // path intact and all sinks covered.
  const auto& g = fab_.skeleton();
  Y y = build_y();
  const NodeId replica = g.out_pin({3, 2}, 0, false);
  const NodeId r1 = g.single({3, 2}, Dir::kN, 1);
  fab_.attach_source(y.net, replica);
  fab_.add_edge(y.net, {replica, r1});
  fab_.add_edge(y.net, {r1, y.a});  // joins the trunk at a
  fab_.validate_net(y.net);

  const auto removed = prune_for_removal(fab_, y.net, {y.src});
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], (RouteEdge{y.src, y.a}));

  fab_.remove_edges(y.net, removed);
  fab_.detach_source(y.net, y.src);
  fab_.validate_net(y.net);
  EXPECT_EQ(fab_.net_sinks(y.net).size(), 2u);
}

TEST_F(NetSurgeryTest, NeededEdgesEmptyWhenNoSinksKept) {
  const Y y = build_y();
  const auto kept = needed_edges(fab_, y.net, fab_.net(y.net).sources, {});
  EXPECT_TRUE(kept.empty());
}

/// Edges of `t` that lie on no path from `sources` to `sinks`, in tree
/// order: reachability by fixpoint over the edge list, no adjacency.
std::vector<RouteEdge> naive_removed(const fabric::RouteTree& t,
                                     const std::vector<NodeId>& sources,
                                     const std::vector<NodeId>& sinks) {
  std::set<NodeId> fwd(sources.begin(), sources.end());
  std::set<NodeId> back(sinks.begin(), sinks.end());
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& e : t.edges) {
      if (fwd.contains(e.from) && fwd.insert(e.to).second) grew = true;
      if (back.contains(e.to) && back.insert(e.from).second) grew = true;
    }
  }
  std::vector<RouteEdge> removed;
  for (const auto& e : t.edges)
    if (!fwd.contains(e.from) || !back.contains(e.to)) removed.push_back(e);
  return removed;
}

TEST(NetSurgeryOracle, PruningMatchesNaiveReachabilityOnRandomTrees) {
  // Random multi-source trees on a small device: up to three source pins,
  // sinks routed one by one from the growing tree (branches share
  // trunks), and sometimes a second path to one sink from another source
  // (the paralleled state of a relocation).
  const fabric::DelayModel dm;
  Rng rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 80; ++trial) {
    Fabric fab(DeviceGeometry::tiny(8, 8));
    place::Router router(fab, dm);
    const auto& g = fab.skeleton();
    const auto net = fab.create_net("random");
    const auto random_tile = [&] {
      return ClbCoord{rng.next_int(0, 7), rng.next_int(0, 7)};
    };
    for (int i = rng.next_int(1, 3); i > 0; --i) {
      const NodeId src =
          g.out_pin(random_tile(), rng.next_int(0, 3), rng.next_bool());
      fab.attach_source(net, src);
    }
    for (int i = rng.next_int(2, 7); i > 0; --i) {
      const NodeId sink = g.in_pin(random_tile(), rng.next_int(0, 3),
                                   static_cast<CellPort>(rng.next_int(0, 4)));
      if (!fab.graph().is_free(sink)) continue;
      try {
        router.route_sink(net, sink);
      } catch (const ResourceError&) {
      }
    }
    std::vector<NodeId> sinks = fab.net_sinks(net);
    const auto& tree = fab.net(net);
    if (sinks.empty()) continue;
    if (tree.sources.size() > 1 && rng.next_bool()) {
      const NodeId from = tree.sources.back();
      const NodeId to = sinks[static_cast<std::size_t>(
          rng.next_int(0, static_cast<int>(sinks.size()) - 1))];
      try {
        const auto path = router.find_path_from({&from, 1}, net, to);
        std::vector<RouteEdge> edges;
        for (std::size_t k = 1; k < path.size(); ++k)
          edges.push_back(RouteEdge{path[k - 1], path[k]});
        fab.add_edges(net, edges);
      } catch (const ResourceError&) {
      }
    }
    fab.validate_net(net);

    // Random sink subsets, sometimes dropped together with a source.
    for (int round = 0; round < 6; ++round) {
      std::vector<NodeId> dropped, kept, sources = tree.sources;
      for (const NodeId s : sinks)
        (rng.next_bool(0.4) ? dropped : kept).push_back(s);
      if (sources.size() > 1 && rng.next_bool()) {
        dropped.push_back(sources.front());
        sources.erase(sources.begin());
      }
      EXPECT_EQ(prune_for_removal(fab, net, dropped),
                naive_removed(tree, sources, kept))
          << "trial " << trial;
      ++checked;
    }
    for (const NodeId src : tree.sources) {
      std::vector<NodeId> others = tree.sources;
      std::erase(others, src);
      EXPECT_EQ(prune_for_removal(fab, net, {src}),
                naive_removed(tree, others, sinks))
          << "trial " << trial;
      ++checked;
    }
  }
  EXPECT_GT(checked, 400);
}

TEST(CostModel, OrdersCasesByComplexity) {
  const auto geom = DeviceGeometry::xcv200();
  config::BoundaryScanPort jtag;
  const RelocationCostModel model(geom, jtag);
  const auto comb = model.cell_time(fabric::RegMode::kNone, false);
  const auto ff = model.cell_time(fabric::RegMode::kFF, false);
  const auto gated = model.cell_time(fabric::RegMode::kFF, true);
  const auto latch = model.cell_time(fabric::RegMode::kLatch, false);
  EXPECT_LT(comb, ff);
  EXPECT_LT(ff, gated);
  EXPECT_EQ(gated, latch);
  // The paper's ballpark: gated relocation in the tens of milliseconds.
  EXPECT_GT(gated, SimTime::ms(10));
  EXPECT_LT(gated, SimTime::ms(40));
  // Linear in cells.
  EXPECT_EQ(model.function_time(10, fabric::RegMode::kFF, true),
            gated * 10);
  EXPECT_EQ(model.function_time(0, fabric::RegMode::kFF, true),
            SimTime::zero());
}

TEST(CostModel, ConfigureScalesWithFootprint) {
  const auto geom = DeviceGeometry::xcv200();
  config::BoundaryScanPort jtag;
  const RelocationCostModel model(geom, jtag);
  EXPECT_LT(model.configure_time(16), model.configure_time(64));
  EXPECT_LT(model.configure_time(64), model.configure_time(256));
}

struct EngineRig {
  Fabric fab{DeviceGeometry::tiny(12, 12)};
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller{fab, port};
  sim::FabricSim sim{fab, dm};
  place::Implementer implementer{fab, dm};
  place::Router router{fab, dm};
  RelocationEngine engine{controller, router, &sim};
  EngineRig() { sim.add_clock(sim::ClockSpec{}); }
};

TEST(EngineEdgeCases, DestinationOccupiedRejected) {
  EngineRig rig;
  const auto nl = netlist::bench::counter(3);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, {2, 2}, rig.fab.geometry());
  auto impl = rig.implementer.implement(mapped, opts);
  // Destination = another of its own cells.
  EXPECT_THROW(rig.engine.relocate_cell(impl, 0, impl.sites[1]),
               ContractError);
}

TEST(EngineEdgeCases, FunctionRegionWithoutSpaceRejected) {
  EngineRig rig;
  const auto nl = netlist::bench::counter(4);
  auto impl = rig.implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{
          place::suggest_region(netlist::map_netlist(nl), {2, 2},
                                rig.fab.geometry()),
          0});
  EXPECT_THROW(rig.engine.relocate_function(impl, ClbRect{10, 10, 1, 1}),
               ResourceError);
}

/// Columns a live move of each `want`-mode cell of `nl` touches, each cell
/// moved one CLB below its region on a fresh XCV200 rig (JTAG, whole-column
/// writes, a simulator with the default clock), rounded to the nearest
/// integer; every move must verify the replica before paralleling outputs.
int live_move_columns(const netlist::Netlist& nl, fabric::RegMode want) {
  const auto mapped = netlist::map_netlist(nl);
  long long sum = 0;
  int samples = 0;
  for (int i = 0;; ++i) {
    Fabric fab(DeviceGeometry::xcv200());
    const fabric::DelayModel dm;
    config::BoundaryScanPort jtag;
    config::ConfigController controller(fab, jtag,
                                        config::WriteGranularity::kColumn);
    sim::FabricSim sim(fab, dm);
    sim.add_clock(sim::ClockSpec{});
    place::Implementer implementer(fab, dm);
    place::Router router(fab, dm);
    RelocationEngine engine(controller, router, &sim);
    place::ImplementOptions opts;
    opts.region = place::suggest_region(mapped, ClbCoord{8, 8}, fab.geometry());
    auto impl = implementer.implement(mapped, opts);
    if (i >= impl.cell_count()) break;
    const place::CellSite site = impl.sites[static_cast<std::size_t>(i)];
    if (fab.cell(site.clb, site.cell).reg != want) continue;
    const place::CellSite dest{
        ClbCoord{impl.region.row + impl.region.height + 1, site.clb.col},
        site.cell};
    const RelocationReport rep = engine.relocate_cell(impl, i, dest);
    EXPECT_TRUE(rep.state_verified) << nl.name() << " cell " << i;
    sum += rep.columns_touched;
    ++samples;
  }
  EXPECT_GT(samples, 0) << nl.name();
  return samples > 0 ? static_cast<int>((sum + samples / 2) / samples) : 0;
}

// The column footprint of a live move, per storage case of Sec. 2, on the
// paper's device and port. Small fixtures with minimal connectivity measure
// the procedure's own footprint: replica cell, its nets and, for the
// gated-clock and latch cases, the auxiliary relocation circuit. Placement,
// routing and the column accounting are deterministic, so the counts are
// exact; change them only with an engine or router change whose footprint
// shift is understood.
TEST(EngineFootprint, Xcv200LiveMoveColumnsArePinned) {
  using netlist::bench::ClockingStyle;
  const int comb = live_move_columns(
      netlist::bench::random_logic("calib_comb", 6, 2, 1, 9),
      fabric::RegMode::kNone);
  const int ff = live_move_columns(
      netlist::bench::shift_register(4, ClockingStyle::kFreeRunning),
      fabric::RegMode::kFF);
  const int gated = live_move_columns(
      netlist::bench::shift_register(4, ClockingStyle::kGatedClock),
      fabric::RegMode::kFF);
  const int latch = live_move_columns(netlist::bench::async_pipeline(4),
                                      fabric::RegMode::kLatch);
  EXPECT_EQ(comb, 8);
  EXPECT_EQ(ff, 8);
  EXPECT_EQ(gated, 24);
  EXPECT_EQ(latch, 23);

  // Plain two-phase copies are cheapest, state acquisition costs no less,
  // and the auxiliary-circuit cases cost at least twice as much.
  EXPECT_LE(comb, ff);
  EXPECT_GE(gated, 2 * ff);
  EXPECT_GE(latch, 2 * ff);

  // The cost model's defaults agree where they are comparable; its
  // gated-clock and latch counts predate the auxiliary circuit's configure
  // and teardown columns, so they run lower.
  const CostParams defaults;
  EXPECT_EQ(comb, defaults.comb_column_writes);
  EXPECT_NEAR(ff, defaults.ff_column_writes, 1);
  EXPECT_GE(gated, defaults.gated_column_writes);
  EXPECT_GE(latch, defaults.latch_column_writes);
}

TEST(EngineEdgeCases, ReportsAccumulateInFunctionRelocation) {
  EngineRig rig;
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{
          place::suggest_region(netlist::map_netlist(nl), {1, 1},
                                rig.fab.geometry()),
          0});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  for (int i = 0; i < 3; ++i) harness.step({});

  const auto report = rig.engine.relocate_function(impl, ClbRect{8, 8, 3, 3});
  EXPECT_EQ(static_cast<int>(report.cells.size()), impl.cell_count());
  SimTime sum = SimTime::zero();
  int frames = 0;
  for (const auto& r : report.cells) {
    sum += r.config_time;
    frames += r.frames_written;
  }
  EXPECT_EQ(report.config_time, sum);
  EXPECT_EQ(report.frames_written, frames);
  EXPECT_EQ(impl.region, (ClbRect{8, 8, 3, 3}));
}

/// counter(6) implemented on an XCV200 at suggest_region(..., {2, 2}).
struct OverlapRig {
  Fabric fab{DeviceGeometry::xcv200()};
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller{fab, port};
  sim::FabricSim sim{fab, dm};
  place::Implementer implementer{fab, dm};
  place::Router router{fab, dm};
  RelocationEngine engine{controller, router, &sim};
  netlist::Netlist nl = netlist::bench::counter(6);
  place::Implementation impl;

  OverlapRig() {
    sim.add_clock(sim::ClockSpec{});
    const auto mapped = netlist::map_netlist(nl);
    impl = implementer.implement(
        mapped, place::ImplementOptions{
                    place::suggest_region(mapped, {2, 2}, fab.geometry()), 0});
  }
  int free_cells(ClbRect r) const {
    int n = 0;
    for (int row = r.row; row < r.row_end(); ++row)
      for (int col = r.col; col < r.col_end(); ++col)
        for (int k = 0; k < fab.geometry().cells_per_clb; ++k)
          n += fab.cell({row, col}, k).used ? 0 : 1;
    return n;
  }
};

TEST(FunctionRelocation, OverlappingOneColumnShiftKeepsLockstep) {
  OverlapRig rig;
  ASSERT_EQ(rig.impl.region, (ClbRect{2, 2, 4, 3}));
  sim::CircuitHarness harness(rig.sim, rig.nl, rig.impl);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(harness.step({}).ok());

  ClbRect dest = rig.impl.region;
  ++dest.col;
  const auto report = rig.engine.relocate_function(rig.impl, dest);
  EXPECT_EQ(static_cast<int>(report.cells.size()), rig.impl.cell_count());
  EXPECT_EQ(rig.impl.region, dest);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(harness.step({}).ok()) << harness.mismatch_log().back();
  EXPECT_TRUE(rig.sim.monitor().clean());
}

TEST(FunctionRelocation, TooFewFreeCellsThrowBeforeAnyWrite) {
  OverlapRig rig;
  // One row of the source region shifted one column: it overlaps the
  // source and has fewer free cells than the function has cells.
  ClbRect dest = rig.impl.region;
  ++dest.col;
  dest.height = 1;
  ASSERT_TRUE(dest.overlaps(rig.impl.region));
  ASSERT_LT(rig.free_cells(dest), rig.impl.cell_count());

  const config::ConfigTotals before = rig.controller.totals();
  EXPECT_THROW(rig.engine.relocate_function(rig.impl, dest), ResourceError);
  const config::ConfigTotals& after = rig.controller.totals();
  EXPECT_EQ(after.ops, before.ops);
  EXPECT_EQ(after.frames_written, before.frames_written);
  EXPECT_EQ(after.columns_touched, before.columns_touched);
  EXPECT_EQ(after.time, before.time);
}

TEST(EngineEdgeCases, AuxSearchFailsOnFullFabric) {
  EngineRig rig;
  // Occupy every CLB so no auxiliary site exists.
  for (int r = 0; r < 12; ++r)
    for (int c = 0; c < 12; ++c)
      rig.fab.set_cell_config({r, c}, 0,
                              fabric::LogicCellConfig::constant(false));
  // A gated-clock cell relocation must fail with a resource error before
  // touching anything.
  const auto nl = netlist::bench::shift_register(
      1, netlist::bench::ClockingStyle::kGatedClock);
  // Free a strip for the implementation itself.
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 6; ++c) rig.fab.clear_cell({r, c}, 0);
  auto impl = rig.implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{0, 0, 4, 5}, 0});
  // Free exactly one destination cell far away, but keep its CLB's other
  // cells... the destination CLB itself holds cell 0; use cell 1.
  const int ops_before = rig.controller.totals().ops;
  EXPECT_THROW(
      rig.engine.relocate_cell(impl, 0, place::CellSite{ClbCoord{10, 10}, 1}),
      ResourceError);
  EXPECT_EQ(rig.controller.totals().ops, ops_before);
  EXPECT_FALSE(rig.fab.cell({10, 10}, 1).used);
}

}  // namespace
}  // namespace relogic::reloc
