// Second property-test wave: cross-layer consistency checks that tie the
// delay model, the router, the fabric bookkeeping and the scheduler
// timing together.
#include <gtest/gtest.h>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/netlist/golden.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

using fabric::CellPort;
using fabric::DeviceGeometry;
using fabric::Fabric;

// Gray-code invariant: consecutive outputs differ in exactly one bit —
// verified on the golden model AND on the fabric implementation.
TEST(GrayProperty, SingleBitChangesOnFabric) {
  Fabric fab(DeviceGeometry::tiny(10, 10));
  fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  const auto nl = netlist::bench::gray_counter(4);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{2, 2, 3, 3}, 0});
  sim::CircuitHarness h(sim, nl, impl);

  auto read = [&] {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (sim.pad_value(impl.output_pad("g" + std::to_string(i))))
        v |= 1u << i;
    }
    return v;
  };

  ASSERT_TRUE(h.step({}).ok());
  unsigned prev = read();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.step({}).ok());
    const unsigned cur = read();
    EXPECT_EQ(__builtin_popcount(prev ^ cur), 1) << "step " << i;
    prev = cur;
  }
}

// Router/delay-model consistency: for a fresh single-sink net, the delay
// the fabric computes for the routed tree equals the delay model applied
// to the returned path.
class RouteDelayConsistency : public ::testing::TestWithParam<int> {};

TEST_P(RouteDelayConsistency, TreeDelayMatchesPathDelay) {
  Fabric fab(DeviceGeometry::tiny(12, 12));
  fabric::DelayModel dm;
  place::Router router(fab, dm);
  const auto& g = fab.skeleton();
  Rng rng(static_cast<unsigned>(GetParam()));

  for (int trial = 0; trial < 10; ++trial) {
    const ClbCoord from{rng.next_int(0, 11), rng.next_int(0, 11)};
    ClbCoord to{rng.next_int(0, 11), rng.next_int(0, 11)};
    if (to == from) to.col = (to.col + 1) % 12;
    const auto net =
        fab.create_net("t" + std::to_string(GetParam()) + "_" +
                       std::to_string(trial));
    const auto src = g.out_pin(from, 0, false);
    const auto sink = g.in_pin(to, 1, CellPort::kI2);
    fab.attach_source(net, src);
    const auto path = router.find_path(net, sink);
    std::vector<fabric::RouteEdge> edges;
    for (std::size_t i = 1; i < path.size(); ++i)
      edges.push_back({path[i - 1], path[i]});
    fab.add_edges(net, edges);

    const auto tree_delays = fab.sink_delays(net, dm);
    ASSERT_EQ(tree_delays.size(), 1u);
    EXPECT_EQ(tree_delays[0].max, dm.path_delay(g, path));
    EXPECT_EQ(tree_delays[0].min, tree_delays[0].max);  // single path
    fab.destroy_net(net);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteDelayConsistency,
                         ::testing::Values(1, 2, 3, 4));

// Fig. 3's other branch: CE held HIGH during the whole transfer — original
// and replica FFs update together through the mux's data-1 leg.
TEST(GatedTransfer, CeActiveThroughoutStillCoherent) {
  Fabric fab(DeviceGeometry::tiny(12, 12));
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto nl = netlist::bench::counter(
      4, netlist::bench::ClockingStyle::kGatedClock);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{2, 2, 3, 3}, 0});
  sim::CircuitHarness h(sim, nl, impl);
  // Keep CE high the whole experiment: the counter counts continuously —
  // including all through the relocation interval.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(h.step({true}).ok());
  for (int i = 0; i < impl.cell_count(); ++i) {
    // Keep driving CE=1 across moves: the input pad holds its value.
    engine.relocate_cell(impl, i,
                         place::CellSite{ClbCoord{8, 2 + i / 4}, i % 4});
  }
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(h.step({true}).ok()) << h.mismatch_log().back();
  EXPECT_TRUE(sim.monitor().clean());
}

// Scheduler timing identity: a halt-and-move victim's finish time shifts
// by exactly the move cost charged to the port.
TEST(SchedulerTiming, HaltExtensionEqualsMoveCost) {
  const auto geom = DeviceGeometry::xcv200();
  config::SelectMapPort port;
  const reloc::RelocationCostModel cost(geom, port);

  // Construct a deterministic fragmentation scenario on a 10x10 device:
  // t0 occupies the middle band, t1 and t2 the sides; t0 and t2 leave,
  // t3 needs a square only a move of t1 can create.
  using namespace sched;
  std::vector<TaskArrival> tasks;
  auto mk = [&](const char* name, int h, int w, double dur_ms, double at_ms) {
    FunctionSpec f;
    f.name = name;
    f.height = h;
    f.width = w;
    f.duration = SimTime::ps(static_cast<std::int64_t>(dur_ms * 1e9));
    f.reg = fabric::RegMode::kFF;
    return TaskArrival{f, SimTime::ps(static_cast<std::int64_t>(at_ms * 1e9))};
  };
  tasks.push_back(mk("left", 10, 4, 500, 0));    // cols 0..3
  tasks.push_back(mk("mid", 10, 2, 80, 0));      // cols 4..5
  tasks.push_back(mk("right", 10, 4, 500, 0));   // cols 6..9
  // After mid departs at ~80ms, free = cols 4..5 (10x2). t3 needs 10x5:
  // impossible without moving a 10x4 neighbour... that frees nothing. Use
  // 6x6 request instead: still impossible without a move of left or right.
  tasks.push_back(mk("req", 6, 6, 100, 100));

  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kHaltAndMove;
  cfg.max_move_cost_fraction = 0;  // no gate: force the move
  Scheduler sched(10, 10, cost, cfg);
  const auto stats = sched.run_tasks(tasks);

  // If a move happened, downtime was charged and the victim still ran its
  // full duration (finish - run_start = duration + halted).
  if (stats.rearrangement_moves > 0) {
    for (const auto& t : stats.tasks) {
      if (t.halted > SimTime::zero()) {
        EXPECT_EQ(t.finish - t.run_start,
                  SimTime::ps(static_cast<std::int64_t>(500 * 1e9)) + t.halted)
            << t.name;
      }
    }
    EXPECT_GT(stats.total_halted, SimTime::zero());
  }
}

// Port serialization: simultaneous arrivals configure strictly one after
// the other on the single configuration port.
TEST(SchedulerTiming, ConfigPortSerializes) {
  const auto geom = DeviceGeometry::xcv200();
  config::BoundaryScanPort port;  // slow: differences are visible
  const reloc::RelocationCostModel cost(geom, port);
  using namespace sched;
  std::vector<TaskArrival> tasks;
  for (int i = 0; i < 3; ++i) {
    FunctionSpec f;
    f.name = "t" + std::to_string(i);
    f.height = 4;
    f.width = 4;
    f.duration = SimTime::ms(50);
    tasks.push_back(TaskArrival{f, SimTime::zero()});
  }
  Scheduler sched(20, 20, cost, SchedulerConfig{});
  const auto stats = sched.run_tasks(tasks);
  // All config windows are disjoint.
  std::vector<std::pair<SimTime, SimTime>> windows;
  for (const auto& t : stats.tasks) {
    windows.emplace_back(t.config_start, t.run_start);
  }
  std::sort(windows.begin(), windows.end());
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].first, windows[i - 1].second);
  }
  EXPECT_EQ(stats.config_port_busy,
            cost.configure_time(64) * 3);
}

// Identical-rewrite property at the transaction level: re-applying a
// whole implementation's configuration is frame-expensive but effect-free.
TEST(IdenticalRewrite, WholeFunctionRewriteIsEffectFree) {
  Fabric fab(DeviceGeometry::tiny(10, 10));
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  const auto nl = netlist::bench::b02();
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{2, 2, 3, 3}, 0});
  sim::CircuitHarness h(sim, nl, impl);
  Rng rng(6);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(h.step_random(rng).ok());

  // Rewrite every used cell with its current configuration mid-operation.
  config::ConfigOp op("full identical rewrite");
  for (int i = 0; i < impl.cell_count(); ++i) {
    const auto& s = impl.sites[static_cast<std::size_t>(i)];
    op.write_cell(s.clb, s.cell, fab.cell(s.clb, s.cell));
  }
  const auto r = controller.apply(op);
  EXPECT_GT(r.frames_written, 0);
  EXPECT_EQ(r.effective_actions, 0);  // nothing changed

  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(h.step_random(rng).ok()) << h.mismatch_log().back();
  EXPECT_TRUE(sim.monitor().clean());
}

}  // namespace
}  // namespace relogic
