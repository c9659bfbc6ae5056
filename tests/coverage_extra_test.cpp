// Depth tests for paths the main suites touch only incidentally: router
// limits, the relocation procedure's fixed constants, golden-model resets,
// capture/restore under randomized mutation, bitstream listings, and the
// proactive defragmentation trigger.
#include <gtest/gtest.h>

#include <algorithm>

#include "relogic/config/bitstream.hpp"
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
using fabric::Dir;
using fabric::Fabric;
using fabric::NodeId;

TEST(RouterLimits, ExpansionBudgetHonoured) {
  Fabric fab(DeviceGeometry::tiny(12, 12));
  fabric::DelayModel dm;
  place::Router router(fab, dm);
  const auto& g = fab.skeleton();
  const auto net = fab.create_net("n");
  fab.attach_source(net, g.out_pin({0, 0}, 0, false));
  place::RouteOptions opt;
  opt.max_expansions = 3;  // absurdly small
  EXPECT_THROW(
      router.find_path(net, g.in_pin({11, 11}, 0, CellPort::kI0), opt),
      ResourceError);
}

TEST(RelocProcedure, OutputsStayParalleledForAClockCycle) {
  Fabric fab(DeviceGeometry::tiny(12, 12));
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto nl = netlist::bench::counter(3);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{2, 2, 3, 3}, 0});
  sim::CircuitHarness harness(sim, nl, impl);
  harness.step({});

  const auto ff =
      std::ranges::find_if(impl.sites, [&](const place::CellSite& s) {
        return fab.cell(s.clb, s.cell).reg == fabric::RegMode::kFF;
      });
  ASSERT_NE(ff, impl.sites.end()) << "counter has no flip-flop cell";
  const auto rep = engine.relocate_cell(
      impl, static_cast<int>(ff - impl.sites.begin()),
      place::CellSite{ClbCoord{9, 9}, 0});
  ASSERT_FALSE(rep.gated_clock);
  // Fig. 2: original and replica outputs stay paralleled for at least one
  // user clock cycle, on top of the configuration-port time.
  EXPECT_GE(rep.wall_time - rep.config_time, sim.clock_period(0));
}

TEST(RelocProcedure, AuxCircuitNeedsAFreeClbWithinSearchRadius) {
  Fabric fab(DeviceGeometry::tiny(12, 12));
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto nl = netlist::bench::shift_register(
      1, netlist::bench::ClockingStyle::kGatedClock);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{2, 2, 2, 2}, 0});

  // Crowd every free CLB within the engine's 5-CLB auxiliary-circuit
  // search radius of the destination; CLBs beyond it stay free.
  constexpr int kAuxSearchRadius = 5;
  const ClbCoord dest{8, 8};
  for (int dr = -kAuxSearchRadius; dr <= kAuxSearchRadius; ++dr) {
    for (int dc = -kAuxSearchRadius; dc <= kAuxSearchRadius; ++dc) {
      const ClbCoord c{dest.row + dr, dest.col + dc};
      if (c == dest || !fab.geometry().in_bounds(c) || !fab.clb_free(c))
        continue;
      fab.set_cell_config(c, 0, fabric::LogicCellConfig::constant(false));
    }
  }
  const int ops_before = controller.totals().ops;
  try {
    engine.relocate_cell(impl, 0, place::CellSite{dest, 0});
    FAIL() << "auxiliary circuit placed outside the search radius";
  } catch (const ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("within radius 5"),
              std::string::npos)
        << e.what();
  }
  // Refused before any write: the replica site stays free.
  EXPECT_EQ(controller.totals().ops, ops_before);
  EXPECT_FALSE(fab.cell(dest, 0).used);
}

TEST(GoldenModel, ResetRestoresInitialState) {
  const auto nl = netlist::bench::lfsr(6, 0b110000);
  netlist::GoldenSim sim(nl);
  const auto initial = sim.state();
  for (int i = 0; i < 13; ++i) sim.clock();
  EXPECT_NE(sim.state(), initial);
  sim.reset();
  EXPECT_EQ(sim.state(), initial);
  EXPECT_EQ(sim.outputs().size(), nl.outputs().size());
}

TEST(CaptureRestore, RandomizedMutationRoundTrip) {
  // Property: capture -> arbitrary mutations -> restore leaves the fabric
  // byte-identical in cells, nets and occupancy.
  Fabric fab(DeviceGeometry::tiny(10, 10));
  fabric::DelayModel dm;
  place::Router router(fab, dm);
  const auto& g = fab.skeleton();
  Rng rng(77);

  // Seed state: a few cells + routed nets.
  std::vector<fabric::NetId> nets;
  for (int i = 0; i < 5; ++i) {
    const ClbCoord at{1 + i, 2};
    fab.set_cell_config(at, 0, fabric::LogicCellConfig::constant(i % 2));
    const auto net = fab.create_net("n" + std::to_string(i));
    fab.attach_source(net, g.out_pin(at, 0, false));
    router.route_sink(net,
                      g.in_pin({1 + i, 7}, 0, CellPort::kI0));
    nets.push_back(net);
  }
  const auto snap = fab.capture();
  const auto occupied = fab.graph().occupied_count();
  const auto used = fab.used_cell_count();

  // Mutate heavily.
  for (int i = 0; i < 30; ++i) {
    const int pick = rng.next_int(0, 2);
    if (pick == 0) {
      fab.set_cell_config({rng.next_int(0, 9), rng.next_int(0, 9)},
                          rng.next_int(0, 3),
                          fabric::LogicCellConfig::constant(rng.next_bool()));
    } else if (pick == 1 && !nets.empty()) {
      const auto net = nets[rng.next_below(nets.size())];
      if (fab.net_exists(net)) fab.destroy_net(net);
    } else {
      const auto net = fab.create_net("junk");
      fab.attach_source(
          net, g.out_pin({rng.next_int(0, 9), rng.next_int(0, 9)},
                         rng.next_int(0, 3), true));
    }
  }

  fab.restore(snap);
  EXPECT_EQ(fab.graph().occupied_count(), occupied);
  EXPECT_EQ(fab.used_cell_count(), used);
  for (const auto net : nets) {
    ASSERT_TRUE(fab.net_exists(net));
    EXPECT_NO_THROW(fab.validate_net(net));
    EXPECT_EQ(fab.net_sinks(net).size(), 1u);
  }
}

TEST(Bitstream, ScriptListsEveryOpAndTotals) {
  Fabric fab(DeviceGeometry::tiny(8, 8));
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  config::BitstreamWriter writer(controller);

  std::vector<config::ConfigOp> ops;
  ops.emplace_back("first step").write_cell({1, 1}, 0,
                                            fabric::LogicCellConfig::constant(true));
  ops.emplace_back("second step").write_cell({1, 2}, 1,
                                             fabric::LogicCellConfig::constant(false));
  const auto script = writer.script(ops);
  EXPECT_NE(script.find("first step"), std::string::npos);
  EXPECT_NE(script.find("second step"), std::string::npos);
  EXPECT_NE(script.find("TOTAL 2 ops"), std::string::npos);

  const auto image = writer.render(ops);
  // 2 ops x one CLB column each.
  EXPECT_EQ(image.frame_count,
            2 * fab.geometry().frames_per_clb_column);
}

TEST(ProactiveDefrag, TriggersOnDepartureFragmentation) {
  const auto geom = DeviceGeometry::xcv200();
  config::SelectMapPort port;
  const reloc::RelocationCostModel cost(geom, port);

  sched::RandomTaskParams p;
  p.task_count = 120;
  p.min_side = 4;
  p.max_side = 10;
  p.mean_interarrival_ms = 140.0;
  p.mean_duration_ms = 2000.0;
  p.seed = 13;
  const auto tasks = sched::random_tasks(p);

  sched::SchedulerConfig on_demand;
  on_demand.policy = sched::ManagementPolicy::kTransparent;
  sched::SchedulerConfig proactive = on_demand;
  proactive.proactive_frag_threshold = 0.5;

  sched::Scheduler a(24, 24, cost, on_demand);
  sched::Scheduler b(24, 24, cost, proactive);
  const auto sa = a.run_tasks(tasks);
  const auto sb = b.run_tasks(tasks);
  // The proactive trigger performs extra (idle-time) moves.
  EXPECT_GT(sb.rearrangement_moves, sa.rearrangement_moves);
  // And never halts anything (transparent relocation).
  EXPECT_EQ(sb.total_halted, SimTime::zero());
}

TEST(PortModel, ReadbackCostsMoreThanWrite) {
  config::BoundaryScanPort jtag;
  config::SelectMapPort smap;
  const int bits = DeviceGeometry::xcv200().frame_length_bits();
  EXPECT_GT(jtag.readback_time(10, bits), jtag.write_time(10, bits));
  EXPECT_GT(smap.readback_time(10, bits), smap.write_time(10, bits));
  EXPECT_EQ(jtag.readback_time(0, bits), SimTime::zero());
}

}  // namespace
}  // namespace relogic
