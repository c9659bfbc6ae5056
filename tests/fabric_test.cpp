// Unit tests: relogic::fabric (device geometry, cells, routing graph,
// fabric state container, delay model, route-tree index).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/fabric/tree_index.hpp"
#include "relogic/place/router.hpp"

namespace relogic::fabric {
namespace {

TEST(DeviceGeometry, Xcv200MatchesPaperDevice) {
  const auto g = DeviceGeometry::xcv200();
  EXPECT_EQ(g.name, "XCV200");
  EXPECT_EQ(g.clb_rows, 28);
  EXPECT_EQ(g.clb_cols, 42);
  EXPECT_EQ(g.cells_per_clb, 4);
  // Virtex: frame length 18*(rows+2) rounded to 32-bit words.
  EXPECT_EQ(g.frame_length_bits(), ((18 * 30 + 31) / 32) * 32);
  EXPECT_EQ(g.frames_per_clb_column, 48);
}

TEST(DeviceGeometry, PresetsScaleMonotonically) {
  int prev = 0;
  for (auto p : {DevicePreset::kXCV50, DevicePreset::kXCV100,
                 DevicePreset::kXCV200, DevicePreset::kXCV300,
                 DevicePreset::kXCV400, DevicePreset::kXCV600,
                 DevicePreset::kXCV800, DevicePreset::kXCV1000}) {
    const auto g = DeviceGeometry::preset(p);
    EXPECT_GT(g.clb_count(), prev);
    prev = g.clb_count();
  }
}

TEST(LogicCellConfig, LutEvaluation) {
  LogicCellConfig c;
  c.lut = luts::kAnd2;
  EXPECT_FALSE(c.eval(0b00));
  EXPECT_FALSE(c.eval(0b01));
  EXPECT_FALSE(c.eval(0b10));
  EXPECT_TRUE(c.eval(0b11));

  c.lut = luts::kMux21;  // out = I2 ? I1 : I0
  EXPECT_FALSE(c.eval(0b000));
  EXPECT_TRUE(c.eval(0b001));   // I0=1, sel=0
  EXPECT_FALSE(c.eval(0b101));  // sel=1 -> I1=0
  EXPECT_TRUE(c.eval(0b110));   // sel=1 -> I1=1
}

TEST(LogicCellConfig, ConstantHelper) {
  EXPECT_TRUE(LogicCellConfig::constant(true).eval(0b1010));
  EXPECT_FALSE(LogicCellConfig::constant(false).eval(0b0101));
  EXPECT_TRUE(LogicCellConfig::constant(true).used);
}

class RoutingGraphTest : public ::testing::Test {
 protected:
  DeviceGeometry geom_ = DeviceGeometry::tiny(8, 8);
  RoutingGraph graph_{geom_};
  const RoutingSkeleton& skel_ = graph_.skeleton();
};

TEST_F(RoutingGraphTest, NodeIdsRoundTrip) {
  const ClbCoord t{3, 5};
  {
    const auto info = skel_.info(skel_.out_pin(t, 2, true));
    EXPECT_EQ(info.kind, NodeKind::kOutPin);
    EXPECT_EQ(info.tile, t);
    EXPECT_EQ(info.a, 2);
    EXPECT_EQ(info.b, 1);
  }
  {
    const auto info = skel_.info(skel_.in_pin(t, 3, CellPort::kCE));
    EXPECT_EQ(info.kind, NodeKind::kInPin);
    EXPECT_EQ(info.a, 3);
    EXPECT_EQ(info.b, static_cast<int>(CellPort::kCE));
  }
  {
    const auto info = skel_.info(skel_.single(t, Dir::kE, 4));
    EXPECT_EQ(info.kind, NodeKind::kSingle);
    EXPECT_EQ(info.a, static_cast<int>(Dir::kE));
    EXPECT_EQ(info.b, 4);
  }
  {
    const auto info = skel_.info(skel_.long_row(6, 1));
    EXPECT_EQ(info.kind, NodeKind::kLongRow);
    EXPECT_EQ(info.tile.row, 6);
    EXPECT_EQ(info.a, 1);
  }
  {
    const auto info = skel_.info(skel_.pad(ClbCoord{0, 2}, 1));
    EXPECT_EQ(info.kind, NodeKind::kPad);
    EXPECT_EQ(info.tile, (ClbCoord{0, 2}));
  }
}

TEST_F(RoutingGraphTest, OutPinDrivesLocalSingles) {
  const ClbCoord t{4, 4};
  const NodeId out = skel_.out_pin(t, 0, false);
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(skel_.has_edge(
        out, skel_.single(t, static_cast<Dir>(d), 0)));
  }
}

TEST_F(RoutingGraphTest, SingleLandsInNeighbourImux) {
  const ClbCoord t{4, 4};
  const NodeId wire = skel_.single(t, Dir::kE, 2);
  const ClbCoord far{4, 5};
  EXPECT_TRUE(skel_.has_edge(wire, skel_.in_pin(far, 1, CellPort::kI0)));
  EXPECT_TRUE(skel_.has_edge(wire, skel_.single(far, Dir::kE, 2)));
}

TEST_F(RoutingGraphTest, BoundarySinglesDoNotLeaveDevice) {
  // A wire heading north from row 0 has no far tile: no onward edges to
  // tiles outside the array (its fanout must be empty).
  const NodeId wire = skel_.single(ClbCoord{0, 3}, Dir::kN, 0);
  EXPECT_EQ(skel_.fanout(wire).size(), 0u);
}

TEST_F(RoutingGraphTest, OccupancyLifecycle) {
  const NodeId n = skel_.single(ClbCoord{2, 2}, Dir::kS, 1);
  EXPECT_TRUE(graph_.is_free(n));
  graph_.occupy(n, 7);
  EXPECT_EQ(graph_.occupant(n), 7u);
  EXPECT_EQ(graph_.occupied_count(), 1u);
  // Same net may claim again.
  EXPECT_NO_THROW(graph_.occupy(n, 7));
  // A different net may not.
  EXPECT_THROW(graph_.occupy(n, 8), ContractError);
  graph_.release(n);
  EXPECT_TRUE(graph_.is_free(n));
  EXPECT_EQ(graph_.occupied_count(), 0u);
}

TEST_F(RoutingGraphTest, PadsOnlyAtBoundary) {
  EXPECT_NO_THROW(skel_.pad(ClbCoord{0, 0}, 0));
  EXPECT_NO_THROW(skel_.pad(ClbCoord{7, 3}, 1));
  EXPECT_THROW(skel_.pad(ClbCoord{3, 3}, 0), ContractError);
}

class FabricTest : public ::testing::Test {
 protected:
  Fabric fab_{DeviceGeometry::tiny(8, 8)};
};

TEST_F(FabricTest, IdenticalCellRewriteIsSuppressed) {
  LogicCellConfig cfg;
  cfg.lut = luts::kXor2;
  cfg.used = true;
  EXPECT_TRUE(fab_.set_cell_config({1, 1}, 0, cfg));
  // The glitch-free-rewrite property: same data, no effect, no event.
  EXPECT_FALSE(fab_.set_cell_config({1, 1}, 0, cfg));
  cfg.lut = luts::kAnd2;
  EXPECT_TRUE(fab_.set_cell_config({1, 1}, 0, cfg));
  EXPECT_EQ(fab_.used_cell_count(), 1);
  EXPECT_TRUE(fab_.clear_cell({1, 1}, 0));
  EXPECT_EQ(fab_.used_cell_count(), 0);
}

TEST_F(FabricTest, ListenerSeesOnlyEffectiveChanges) {
  struct Counter : FabricListener {
    int cells = 0, nets = 0;
    void on_cell_changed(ClbCoord, int, const LogicCellConfig&,
                         const LogicCellConfig&) override {
      ++cells;
    }
    void on_net_changed(NetId) override { ++nets; }
  } counter;
  fab_.add_listener(&counter);

  LogicCellConfig cfg = LogicCellConfig::constant(true);
  fab_.set_cell_config({0, 0}, 0, cfg);
  fab_.set_cell_config({0, 0}, 0, cfg);  // identical: no event
  EXPECT_EQ(counter.cells, 1);

  const NetId net = fab_.create_net("n");
  fab_.attach_source(net, fab_.skeleton().out_pin({0, 0}, 0, false));
  EXPECT_EQ(counter.nets, 1);
  fab_.remove_listener(&counter);
}

TEST_F(FabricTest, NetRoutingAndSinks) {
  const auto& g = fab_.skeleton();
  const NetId net = fab_.create_net("route");
  const NodeId src = g.out_pin({2, 2}, 0, false);
  const NodeId w1 = g.single({2, 2}, Dir::kE, 0);
  const NodeId sink = g.in_pin({2, 3}, 1, CellPort::kI0);

  fab_.attach_source(net, src);
  fab_.add_edge(net, {src, w1});
  fab_.add_edge(net, {w1, sink});
  EXPECT_NO_THROW(fab_.validate_net(net));

  const auto sinks = fab_.net_sinks(net);
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0], sink);
  EXPECT_EQ(fab_.net_driving(sink), net);

  const DelayModel dm;
  const auto delays = fab_.sink_delays(net, dm);
  ASSERT_EQ(delays.size(), 1u);
  // Two hops: pip+single, pip+pin.
  const SimTime expect =
      dm.pip_delay + dm.single_delay + dm.pip_delay;
  EXPECT_EQ(delays[0].min, expect);
  EXPECT_EQ(delays[0].max, expect);
}

TEST_F(FabricTest, ParallelPathsGiveMinMaxDelays) {
  // Fig. 6: while original and replica paths are paralleled the sink sees
  // min != max; the observable value settles after max.
  const auto& g = fab_.skeleton();
  const NetId net = fab_.create_net("par");
  const NodeId src = g.out_pin({3, 3}, 0, false);
  const NodeId sink = g.in_pin({3, 4}, 0, CellPort::kI1);

  fab_.attach_source(net, src);
  // Short path: one single east.
  const NodeId w_short = g.single({3, 3}, Dir::kE, 0);
  fab_.add_edge(net, {src, w_short});
  fab_.add_edge(net, {w_short, sink});
  // Long path: north, east, south back into the sink tile.
  const NodeId a = g.single({3, 3}, Dir::kN, 1);
  const NodeId b = g.single({2, 3}, Dir::kE, 1);
  const NodeId c = g.single({2, 4}, Dir::kS, 1);
  fab_.add_edge(net, {src, a});
  fab_.add_edge(net, {a, b});
  fab_.add_edge(net, {b, c});
  fab_.add_edge(net, {c, sink});
  fab_.validate_net(net);

  const DelayModel dm;
  const auto delays = fab_.sink_delays(net, dm);
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_LT(delays[0].min, delays[0].max);
  const SimTime shortest = dm.pip_delay * 2 + dm.single_delay;
  const SimTime longest = dm.pip_delay * 4 + dm.single_delay * 3;
  EXPECT_EQ(delays[0].min, shortest);
  EXPECT_EQ(delays[0].max, longest);
}

TEST_F(FabricTest, ValidateNetCatchesDanglingEdge) {
  const auto& g = fab_.skeleton();
  const NetId net = fab_.create_net("bad");
  const NodeId w1 = g.single({2, 2}, Dir::kE, 0);
  const NodeId sink = g.in_pin({2, 3}, 1, CellPort::kI0);
  // Edge whose source is driven by nothing.
  fab_.add_edge(net, {w1, sink});
  EXPECT_THROW(fab_.validate_net(net), IllegalOperationError);
}

TEST_F(FabricTest, CaptureRestoreRoundTrip) {
  const auto& g = fab_.skeleton();
  fab_.set_cell_config({1, 1}, 2, LogicCellConfig::constant(true));
  const NetId net = fab_.create_net("snap");
  const NodeId src = g.out_pin({1, 1}, 2, false);
  const NodeId w = g.single({1, 1}, Dir::kS, 3);
  fab_.attach_source(net, src);
  fab_.add_edge(net, {src, w});

  const auto snap = fab_.capture();

  // Mutate: clear the cell, grow the net, add another cell.
  fab_.clear_cell({1, 1}, 2);
  fab_.set_cell_config({5, 5}, 0, LogicCellConfig::constant(false));
  fab_.add_edge(net, {w, g.in_pin({2, 1}, 0, CellPort::kI0)});

  fab_.restore(snap);
  EXPECT_TRUE(fab_.cell({1, 1}, 2).used);
  EXPECT_FALSE(fab_.cell({5, 5}, 0).used);
  EXPECT_EQ(fab_.net(net).edges.size(), 1u);
  EXPECT_NO_THROW(fab_.validate_net(net));
  // Released nodes really are free again.
  EXPECT_TRUE(fab_.graph().is_free(g.in_pin({2, 1}, 0, CellPort::kI0)));
}

TEST(DelayModel, PathDelaySums) {
  const DeviceGeometry geom = DeviceGeometry::tiny(6, 6);
  const auto skel = acquire_routing_skeleton(geom);
  const DelayModel dm;
  const std::vector<NodeId> path{
      skel->out_pin({2, 2}, 0, false),
      skel->single({2, 2}, Dir::kE, 0),
      skel->in_pin({2, 3}, 0, CellPort::kI0),
  };
  EXPECT_EQ(dm.path_delay(*skel, path),
            dm.pip_delay + dm.single_delay + dm.pip_delay);
}

// ---- TreeIndex oracles ------------------------------------------------------

/// Reference delays: enumerates every source-to-node path of an acyclic
/// tree depth-first (the walk Fabric::sink_delays did before TreeIndex)
/// and keeps each node's min and max delay over them.
std::map<NodeId, std::pair<SimTime, SimTime>> enumerated_delays(
    const RoutingSkeleton& g, const RouteTree& t, const DelayModel& dm) {
  std::map<NodeId, std::vector<NodeId>> adj;
  for (const auto& e : t.edges) adj[e.from].push_back(e.to);
  std::map<NodeId, std::pair<SimTime, SimTime>> out;
  struct Item {
    NodeId node;
    SimTime delay;
  };
  for (const NodeId src : t.sources) {
    std::vector<Item> stack{{src, SimTime::zero()}};
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      auto [pos, inserted] =
          out.try_emplace(it.node, std::pair{it.delay, it.delay});
      if (!inserted) {
        pos->second.first = std::min(pos->second.first, it.delay);
        pos->second.second = std::max(pos->second.second, it.delay);
      }
      for (const NodeId next : adj[it.node]) {
        stack.push_back(
            {next, it.delay + dm.pip_delay + dm.node_delay(g.info(next).kind)});
      }
    }
  }
  return out;
}

/// Reference reach: fixpoint over the edge list.
std::set<NodeId> naive_reach(const RouteTree& t,
                             const std::vector<NodeId>& seeds, bool forward) {
  std::set<NodeId> nodes;
  for (const NodeId n : t.nodes()) nodes.insert(n);
  std::set<NodeId> seen;
  for (const NodeId s : seeds)
    if (nodes.contains(s)) seen.insert(s);
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& e : t.edges) {
      const NodeId a = forward ? e.from : e.to;
      const NodeId b = forward ? e.to : e.from;
      if (seen.contains(a) && seen.insert(b).second) grew = true;
    }
  }
  return seen;
}

std::set<NodeId> marked(const TreeIndex& index,
                        const std::vector<std::uint8_t>& seen) {
  std::set<NodeId> out;
  for (std::uint32_t i = 0; i < index.nodes().size(); ++i)
    if (seen[i] != 0) out.insert(index.nodes()[i]);
  return out;
}

TEST(TreeIndex, DelaysAndReachMatchPathEnumerationOnRandomTrees) {
  // Random multi-source trees on a small device: up to three source pins,
  // sinks routed one by one from the growing tree (branches share trunks),
  // then a second path to some sinks that avoids the tree, so the sink is
  // paralleled (Fig. 6: min != max).
  const DelayModel dm;
  Rng rng(2311);
  int nodes_checked = 0;
  int paralleled = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Fabric fab(DeviceGeometry::tiny(8, 8));
    place::Router router(fab, dm);
    const auto& g = fab.skeleton();
    const NetId net = fab.create_net("random");
    const auto random_tile = [&] {
      return ClbCoord{rng.next_int(0, 7), rng.next_int(0, 7)};
    };
    for (int i = rng.next_int(1, 3); i > 0; --i)
      fab.attach_source(
          net, g.out_pin(random_tile(), rng.next_int(0, 3), rng.next_bool()));
    for (int i = rng.next_int(2, 7); i > 0; --i) {
      const NodeId sink = g.in_pin(random_tile(), rng.next_int(0, 3),
                                   static_cast<CellPort>(rng.next_int(0, 4)));
      if (!fab.graph().is_free(sink)) continue;
      try {
        router.route_sink(net, sink);
      } catch (const ResourceError&) {
      }
    }
    const std::vector<NodeId> sinks = fab.net_sinks(net);
    const RouteTree& tree = fab.net(net);
    for (const NodeId sink : sinks) {
      if (!rng.next_bool(0.4)) continue;
      place::RouteOptions avoid;
      for (const NodeId n : tree.nodes())
        if (n != sink && !tree.has_source(n)) avoid.avoid_nodes.insert(n);
      const std::vector<NodeId> from = tree.sources;
      try {
        const auto path = router.find_path_from(from, net, sink, avoid);
        std::vector<RouteEdge> edges;
        for (std::size_t k = 1; k < path.size(); ++k)
          edges.push_back(RouteEdge{path[k - 1], path[k]});
        fab.add_edges(net, edges);
      } catch (const ResourceError&) {
      }
    }
    fab.validate_net(net);

    const TreeIndex index(tree);
    ASSERT_TRUE(index.acyclic());
    EXPECT_EQ(std::vector<NodeId>(index.nodes().begin(), index.nodes().end()),
              tree.nodes());
    std::vector<TreeIndex::Delay> delays;
    index.delays(g, dm, delays);
    const auto expect = enumerated_delays(g, tree, dm);
    for (std::uint32_t i = 0; i < index.nodes().size(); ++i) {
      const NodeId n = index.nodes()[i];
      const auto it = expect.find(n);
      ASSERT_EQ(delays[i].reached, it != expect.end()) << "trial " << trial;
      if (it == expect.end()) continue;
      EXPECT_EQ(delays[i].min, it->second.first) << "trial " << trial;
      EXPECT_EQ(delays[i].max, it->second.second) << "trial " << trial;
      ++nodes_checked;
    }

    const auto sink_delays = fab.sink_delays(net, dm);
    ASSERT_EQ(sink_delays.size(), sinks.size());
    for (std::size_t k = 0; k < sinks.size(); ++k) {
      EXPECT_EQ(sink_delays[k].sink, sinks[k]);
      EXPECT_EQ(sink_delays[k].min, expect.at(sinks[k]).first);
      EXPECT_EQ(sink_delays[k].max, expect.at(sinks[k]).second);
      if (sink_delays[k].min != sink_delays[k].max) ++paralleled;
    }

    for (int round = 0; round < 4; ++round) {
      std::vector<NodeId> seeds;
      for (const NodeId n : tree.nodes())
        if (rng.next_bool(0.3)) seeds.push_back(n);
      seeds.push_back(g.in_pin({0, 0}, 0, CellPort::kI0));  // maybe absent
      std::vector<std::uint8_t> seen;
      for (const bool forward : {true, false}) {
        index.reach(seeds, forward, seen);
        EXPECT_EQ(marked(index, seen), naive_reach(tree, seeds, forward))
            << "trial " << trial;
      }
    }
  }
  EXPECT_GT(nodes_checked, 1000);
  EXPECT_GT(paralleled, 10);
}

}  // namespace
}  // namespace relogic::fabric
