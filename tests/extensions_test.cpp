// Tests for the Sec. 3 routing-optimisation pass and the multi-clock
// applicability claim ("this approach is also applicable to multiple
// clock/multiple phase applications, since only one clock signal is
// involved in the relocation of each CLB").
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/reloc/net_surgery.hpp"
#include "relogic/sim/harness.hpp"
#include "testenv.hpp"

namespace relogic {
namespace {

using place::CellSite;

struct Rig {
  fabric::Fabric fab{fabric::DeviceGeometry::tiny(16, 16)};
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller{fab, port};
  sim::FabricSim sim{fab, dm};
  place::Implementer implementer{fab, dm};
  place::Router router{fab, dm};
  reloc::RelocationEngine engine{controller, router, &sim};
};

TEST(RouteOptimization, ImprovesStretchedNetsAndStaysInLockstep) {
  Rig rig;
  rig.sim.add_clock(sim::ClockSpec{});
  const auto nl = netlist::bench::counter(4);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = ClbRect{1, 1, 3, 3};
  auto impl = rig.implementer.implement(mapped, opts);
  sim::CircuitHarness harness(rig.sim, nl, impl);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(harness.step({}).ok());

  // Stretch the nets: bounce the function across the device and back.
  rig.engine.relocate_function(impl, ClbRect{12, 12, 3, 3});
  rig.engine.relocate_function(impl, ClbRect{1, 12, 3, 3});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(harness.step({}).ok());

  const auto rep = rig.engine.optimize_function_routing(impl);
  EXPECT_GT(rep.sinks_considered, 0);
  EXPECT_LE(rep.worst_delay_after, rep.worst_delay_before);
  if (rep.sinks_rerouted > 0) {
    EXPECT_GT(rep.config_time, SimTime::zero());
    EXPECT_GT(rep.frames_written, 0);
  }

  for (int i = 0; i < testenv::iters(5, 15); ++i)
    ASSERT_TRUE(harness.step({}).ok()) << harness.mismatch_log().back();
  EXPECT_TRUE(rig.sim.monitor().clean());
  for (const auto& [sig, net] : impl.signal_nets) {
    if (rig.fab.net_exists(net)) rig.fab.validate_net(net);
  }
}

// The pass prices sinks with the delay model its Router searches with, not
// with a default-constructed one.
TEST(RouteOptimization, PricesSinksWithTheRoutersDelayModel) {
  fabric::Fabric fab{fabric::DeviceGeometry::tiny(16, 16)};
  fabric::DelayModel dm;
  dm.pip_delay = dm.pip_delay * 2;
  config::BoundaryScanPort port;
  config::ConfigController controller{fab, port};
  sim::FabricSim sim{fab, dm};
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer{fab, dm};
  place::Router router{fab, dm};
  reloc::RelocationEngine engine{controller, router, &sim};
  auto impl = implementer.implement(
      netlist::map_netlist(netlist::bench::counter(4)),
      place::ImplementOptions{ClbRect{1, 1, 3, 3}, 0});
  engine.relocate_function(impl, ClbRect{12, 12, 3, 3});

  SimTime worst = SimTime::zero();
  for (const auto& [sig, net] : impl.signal_nets) {
    if (!fab.net_exists(net) || fab.net(net).sources.empty()) continue;
    for (const fabric::SinkDelay& sd : fab.sink_delays(net, dm))
      worst = std::max(worst, sd.max);
  }
  const auto rep = engine.optimize_function_routing(impl);
  EXPECT_GT(rep.sinks_considered, 0);
  EXPECT_EQ(rep.worst_delay_before, worst);
}

TEST(RouteOptimization, IdempotentSecondPass) {
  Rig rig;
  rig.sim.add_clock(sim::ClockSpec{});
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{1, 1, 3, 3}, 0});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(harness.step({}).ok());

  rig.engine.relocate_function(impl, ClbRect{10, 10, 3, 3});
  (void)rig.engine.optimize_function_routing(impl);
  const auto second = rig.engine.optimize_function_routing(impl);
  // Once optimised, a second pass finds nothing profitable.
  EXPECT_EQ(second.sinks_rerouted, 0);
}

/// Delay and serving edges of every sink of an implementation's nets.
struct SinkRoute {
  SimTime delay;
  std::vector<fabric::RouteEdge> branch;  ///< source-to-sink edges
};
std::map<std::pair<fabric::NetId, fabric::NodeId>, SinkRoute> sink_routes(
    const fabric::Fabric& fab, const place::Implementation& impl,
    const fabric::DelayModel& dm) {
  std::map<std::pair<fabric::NetId, fabric::NodeId>, SinkRoute> out;
  for (const auto& [sig, net] : impl.signal_nets) {
    if (!fab.net_exists(net) || fab.net(net).sources.empty()) continue;
    for (const fabric::SinkDelay& sd : fab.sink_delays(net, dm))
      out[{net, sd.sink}] = SinkRoute{
          sd.max,
          reloc::needed_edges(fab, net, fab.net(net).sources, {sd.sink})};
  }
  return out;
}

// A reroute must pay: every sink the pass moves gets at least
// kMinRerouteGain faster. The pass once priced probes against the net's
// delays from before its first reroute, so a probe attaching to a sibling's
// new branch was priced from 0 ps and moved sinks that were already at
// their best.
TEST(RouteOptimization, EveryRerouteGainsAtLeastMinGain) {
  const SimTime min_gain = reloc::RelocationEngine::kMinRerouteGain;
  int rerouted = 0;
  for (const auto& entry :
       netlist::bench::itc99_suite(netlist::bench::ClockingStyle::kGatedClock)) {
    fabric::Fabric fab{fabric::DeviceGeometry::xcv200()};
    const fabric::DelayModel dm;
    config::IcapPort port;
    config::ConfigController controller{fab, port};
    sim::FabricSim sim{fab, dm};
    sim.add_clock(sim::ClockSpec{});
    place::Router router{fab, dm};
    reloc::RelocationEngine engine{controller, router, &sim};
    place::Implementer implementer{fab, dm};
    const auto mapped = netlist::map_netlist(entry.circuit);
    place::ImplementOptions opts;
    opts.region = place::suggest_region(mapped, ClbCoord{2, 2}, fab.geometry());
    auto impl = implementer.implement(mapped, opts);
    const ClbCoord block{impl.region.row + 12, impl.region.col + 16};
    for (int k = 0; k < std::min(5, impl.cell_count()); ++k)
      engine.relocate_cell(impl, k,
                           CellSite{ClbCoord{block.row, block.col + k / 4},
                                    k % 4});

    const auto before = sink_routes(fab, impl, dm);
    const auto rep = engine.optimize_function_routing(impl);
    const auto after = sink_routes(fab, impl, dm);
    int moved = 0;
    for (const auto& [key, was] : before) {
      const SinkRoute& now = after.at(key);
      if (now.branch == was.branch) continue;
      ++moved;
      EXPECT_LE(now.delay + min_gain, was.delay)
          << entry.name << ": sink "
          << fab.skeleton().info(key.second).to_string() << " rerouted from "
          << was.delay.to_string() << " to " << now.delay.to_string();
    }
    EXPECT_EQ(moved, rep.sinks_rerouted) << entry.name;
    rerouted += moved;
  }
  EXPECT_GT(rerouted, 0);
}

TEST(MultiClock, IndependentDomainsRelocateIndependently) {
  Rig rig;
  // Two clock domains at different, mutually prime periods.
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  rig.sim.add_clock(sim::ClockSpec{1, SimTime::ns(70), SimTime::ns(70)});

  const auto nl_a = netlist::bench::counter(4);
  const auto nl_b = netlist::bench::gray_counter(4);

  place::ImplementOptions oa, ob;
  oa.region = ClbRect{1, 1, 3, 3};
  oa.clock_domain = 0;
  ob.region = ClbRect{1, 8, 3, 3};
  ob.clock_domain = 1;
  auto ia = rig.implementer.implement(netlist::map_netlist(nl_a), oa);
  auto ib = rig.implementer.implement(netlist::map_netlist(nl_b), ob);

  sim::CircuitHarness ha(rig.sim, nl_a, ia);
  sim::CircuitHarness hb(rig.sim, nl_b, ib);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ha.step({}).ok());
    ASSERT_TRUE(hb.step({}).ok());
  }

  // Relocate a cell of each domain; each relocation waits on its own
  // clock only (the paper: "only one clock signal is involved in the
  // relocation of each CLB").
  const auto ra =
      rig.engine.relocate_cell(ia, 0, CellSite{ClbCoord{12, 2}, 0});
  const auto rb =
      rig.engine.relocate_cell(ib, 0, CellSite{ClbCoord{12, 9}, 0});
  EXPECT_GT(ra.frames_written, 0);
  EXPECT_GT(rb.frames_written, 0);

  for (int i = 0; i < testenv::iters(8, 20); ++i) {
    ASSERT_TRUE(ha.step({}).ok()) << ha.mismatch_log().back();
    ASSERT_TRUE(hb.step({}).ok()) << hb.mismatch_log().back();
  }
  EXPECT_TRUE(rig.sim.monitor().clean());
}

TEST(MultiClock, GatedRelocationInSecondDomain) {
  Rig rig;
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  rig.sim.add_clock(sim::ClockSpec{2, SimTime::ns(130), SimTime::ns(90)});

  const auto nl = netlist::bench::shift_register(
      3, netlist::bench::ClockingStyle::kGatedClock);
  place::ImplementOptions opts;
  opts.region = ClbRect{2, 2, 3, 3};
  opts.clock_domain = 2;
  auto impl = rig.implementer.implement(netlist::map_netlist(nl), opts);
  sim::CircuitHarness harness(rig.sim, nl, impl);

  for (const bool bit : {true, false, true}) {
    ASSERT_TRUE(harness.step({bit, true}).ok());
  }
  // Hold with CE low and relocate the whole register in domain 2.
  ASSERT_TRUE(harness.step({false, false}).ok());
  const auto rep = rig.engine.relocate_function(impl, ClbRect{10, 10, 3, 3});
  for (const auto& r : rep.cells) {
    if (r.reg == fabric::RegMode::kFF) {
      EXPECT_TRUE(r.state_verified);
    }
  }
  ASSERT_TRUE(harness.step({false, false}).ok());
  ASSERT_TRUE(harness.step({true, true}).ok());
  EXPECT_TRUE(rig.sim.monitor().clean());
}

TEST(LutRamHalt, StopTheSystemRelocationPreservesFunction) {
  // Sec. 2: LUT-RAMs cannot move on-line; relocate_lut_ram_cell_halted
  // stops the cell's clock domain, copies content + rewires, and resumes —
  // downtime reported, function preserved, other domains unaffected.
  Rig rig;
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  rig.sim.add_clock(sim::ClockSpec{1, SimTime::ns(80), SimTime::ns(80)});

  // Victim circuit in domain 0 with one cell turned into a LUT-RAM.
  const auto nl = netlist::bench::random_logic("ramckt", 8, 4, 2, 99);
  place::ImplementOptions opts;
  opts.region = ClbRect{2, 2, 3, 3};
  auto impl = rig.implementer.implement(netlist::map_netlist(nl), opts);
  {
    auto cfg = rig.fab.cell(impl.sites[0].clb, impl.sites[0].cell);
    cfg.lut_mode = fabric::LutMode::kRam;
    rig.fab.set_cell_config(impl.sites[0].clb, impl.sites[0].cell, cfg);
  }

  // Bystander counter in domain 1 that must keep running untouched.
  const auto other = netlist::bench::counter(4);
  place::ImplementOptions oo;
  oo.region = ClbRect{10, 10, 3, 3};
  oo.clock_domain = 1;
  auto other_impl = rig.implementer.implement(netlist::map_netlist(other), oo);
  sim::CircuitHarness victim(rig.sim, nl, impl);
  sim::CircuitHarness bystander(rig.sim, other, other_impl);
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(victim.step_random(rng).ok());
    ASSERT_TRUE(bystander.step({}).ok());
  }

  // Refused on-line, naming the stop-the-system entry point...
  try {
    rig.engine.relocate_cell(impl, 0, place::CellSite{ClbCoord{8, 2}, 0});
    FAIL() << "on-line relocation of a LUT-RAM succeeded";
  } catch (const IllegalOperationError& e) {
    EXPECT_NE(std::string(e.what()).find("relocate_lut_ram_cell_halted"),
              std::string::npos)
        << e.what();
  }

  // ...performed by it.
  const auto rep = rig.engine.relocate_lut_ram_cell_halted(
      impl, 0, place::CellSite{ClbCoord{8, 2}, 0});
  EXPECT_GT(rep.halted, SimTime::zero());
  EXPECT_GT(rep.frames_written, 0);
  for (const auto* im : {&impl, &other_impl}) {
    for (const auto& [sig, net] : im->signal_nets) {
      if (rig.fab.net_exists(net)) {
        EXPECT_NO_THROW(rig.fab.validate_net(net));
      }
    }
  }

  for (int i = 0; i < testenv::iters(5, 10); ++i) {
    ASSERT_TRUE(victim.step_random(rng).ok())
        << victim.mismatch_log().back();
    ASSERT_TRUE(bystander.step({}).ok())
        << bystander.mismatch_log().back();
  }
  EXPECT_TRUE(rig.sim.monitor().clean());
}

TEST(LutRamHalt, BrokenInputNetFailsTheRewire) {
  // The halted move validates the nets its transactions name, so an input
  // net broken behind the engine's back fails the rewire transaction.
  Rig rig;
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  const auto nl = netlist::bench::random_logic("ramckt", 8, 4, 2, 99);
  place::ImplementOptions opts;
  opts.region = ClbRect{2, 2, 3, 3};
  auto impl = rig.implementer.implement(netlist::map_netlist(nl), opts);
  const CellSite site = impl.sites[0];
  auto cfg = rig.fab.cell(site.clb, site.cell);
  cfg.lut_mode = fabric::LutMode::kRam;
  rig.fab.set_cell_config(site.clb, site.cell, cfg);

  // Amputate a source-adjacent edge with a downstream edge from one of the
  // cell's LUT input nets, leaving the downstream edge dangling.
  bool broken = false;
  for (int p = 0; p < 4 && !broken; ++p) {
    const auto net = rig.fab.graph().occupant(rig.fab.skeleton().in_pin(
        site.clb, site.cell, static_cast<fabric::CellPort>(p)));
    if (net == fabric::kNoNet) continue;
    const auto& tree = rig.fab.net(net);
    for (const auto& first : tree.edges) {
      if (!tree.has_source(first.from)) continue;
      const bool downstream =
          std::ranges::any_of(tree.edges, [&](const fabric::RouteEdge& e) {
            return e.from == first.to;
          });
      if (!downstream) continue;
      rig.fab.remove_edge(net, first);
      broken = true;
      break;
    }
  }
  ASSERT_TRUE(broken) << "no input net with a source-adjacent trunk edge";

  try {
    rig.engine.relocate_lut_ram_cell_halted(impl, 0,
                                            CellSite{ClbCoord{8, 2}, 0});
    FAIL() << "halted move of a cell with a broken input net succeeded";
  } catch (const IllegalOperationError& e) {
    EXPECT_TRUE(std::string(e.what()).starts_with(
        "after op 'rewire LUT-RAM inputs and outputs'"))
        << e.what();
  }
}

TEST(LutRamHalt, ClockGatingStopsAndResumesCleanly) {
  Rig rig;
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  const auto nl = netlist::bench::counter(4);
  auto impl = rig.implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{2, 2, 3, 3}, 0});
  sim::CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(h.step({}).ok());

  const auto edges_before = rig.sim.edges_seen(0);
  rig.sim.set_clock_running(0, false);
  EXPECT_FALSE(rig.sim.clock_running(0));
  rig.sim.run_until(rig.sim.now() + SimTime::us(5));
  EXPECT_EQ(rig.sim.edges_seen(0), edges_before);  // nothing captured

  rig.sim.set_clock_running(0, true);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(h.step({}).ok()) << h.mismatch_log().back();
}

}  // namespace
}  // namespace relogic
