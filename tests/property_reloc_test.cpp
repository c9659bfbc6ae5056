// Property tests: the paper's invariants under randomized circuits,
// stimuli and relocation sequences — plus failure injection proving the
// checkers are not vacuous.
#include <gtest/gtest.h>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"
#include "testenv.hpp"

namespace relogic {
namespace {

using netlist::bench::ClockingStyle;
using place::CellSite;

struct Rig {
  fabric::Fabric fab;
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller;
  sim::FabricSim sim;
  place::Implementer implementer;
  place::Router router;
  reloc::RelocationEngine engine;

  explicit Rig(int size = 14)
      : fab(fabric::DeviceGeometry::tiny(size, size)),
        controller(fab, port),
        sim(fab, dm),
        implementer(fab, dm),
        router(fab, dm),
        engine(controller, router, &sim) {
    sim.add_clock(sim::ClockSpec{});
  }
};

struct Param {
  std::uint64_t seed;
  ClockingStyle style;
};

class RandomWalkReloc : public ::testing::TestWithParam<Param> {};

// The central property: any sequence of cell relocations of a random FSM,
// interleaved with random stimuli, keeps the fabric in lockstep with the
// golden model — no state loss, no glitches, no drive conflicts, valid
// nets after every step.
TEST_P(RandomWalkReloc, LockstepThroughRandomMoves) {
  const auto [seed, style] = GetParam();
  Rig rig;
  const auto nl =
      netlist::bench::random_fsm("walk", 8, 3, 3, seed, style);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, {2, 2}, rig.fab.geometry());
  auto impl = rig.implementer.implement(mapped, opts);

  sim::CircuitHarness harness(rig.sim, nl, impl);
  harness.watch_registered_outputs();
  Rng rng(seed * 31 + 7);

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(harness.step_random(rng).ok())
        << harness.mismatch_log().back();

  // Random walk: relocations of random cells to random free sites (6 in
  // the full campaign, 4 in smoke mode).
  for (int move = 0; move < testenv::iters(4, 6); ++move) {
    const int cell = rng.next_int(0, impl.cell_count() - 1);
    // Find a random free destination.
    CellSite dest{};
    int guard = 0;
    do {
      dest = CellSite{ClbCoord{rng.next_int(0, 13), rng.next_int(0, 13)},
                      rng.next_int(0, 3)};
      RELOGIC_CHECK(++guard < 500);
    } while (rig.fab.cell(dest.clb, dest.cell).used ||
             !rig.fab.clb_free(dest.clb));  // keep whole CLB free: aux room

    const auto report = rig.engine.relocate_cell(impl, cell, dest);
    EXPECT_GT(report.frames_written, 0);

    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(harness.step_random(rng).ok())
          << "after move " << move << ": " << harness.mismatch_log().back();
  }
  EXPECT_TRUE(rig.sim.monitor().clean());
  // Fabric bookkeeping stayed exact.
  for (const auto& [sig, net] : impl.signal_nets) {
    if (rig.fab.net_exists(net)) rig.fab.validate_net(net);
  }
}

std::vector<Param> walk_params() {
  std::vector<Param> out;
  // Two seeds in the default smoke mode; RELOGIC_SLOW_TESTS=ON walks all
  // four.
  const auto seeds = testenv::slow_tests_enabled()
                         ? std::vector<std::uint64_t>{11, 22, 33, 44}
                         : std::vector<std::uint64_t>{11, 22};
  for (std::uint64_t seed : seeds) {
    out.push_back({seed, ClockingStyle::kFreeRunning});
    out.push_back({seed, ClockingStyle::kGatedClock});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWalkReloc,
                         ::testing::ValuesIn(walk_params()),
                         [](const auto& pinfo) {
                           return std::string(pinfo.param.style ==
                                                      ClockingStyle::kFreeRunning
                                                  ? "Free"
                                                  : "Gated") +
                                  std::to_string(pinfo.param.seed);
                         });

// Property: relocation is idempotent on function behaviour — moving a
// function away and back yields an identical golden trace to never moving.
TEST(RelocRoundTrip, MoveAwayAndBack) {
  Rig rig;
  const auto nl = netlist::bench::gray_counter(4);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = ClbRect{2, 2, 3, 3};
  auto impl = rig.implementer.implement(mapped, opts);
  sim::CircuitHarness harness(rig.sim, nl, impl);

  for (int i = 0; i < 7; ++i) ASSERT_TRUE(harness.step({}).ok());
  rig.engine.relocate_function(impl, ClbRect{9, 9, 3, 3});
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(harness.step({}).ok());
  rig.engine.relocate_function(impl, ClbRect{2, 2, 3, 3});
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(harness.step({}).ok());
  EXPECT_EQ(impl.region, (ClbRect{2, 2, 3, 3}));
  EXPECT_TRUE(rig.sim.monitor().clean());
}

// ---- failure injection: the checkers must actually detect faults --------

TEST(FailureInjection, CorruptedReplicaStateIsDetected) {
  // Flip a FF's configured init and rewrite its cell mid-operation (a
  // model of a configuration upset): the harness must notice.
  Rig rig;
  const auto nl = netlist::bench::counter(4);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, {2, 2}, rig.fab.geometry());
  auto impl = rig.implementer.implement(mapped, opts);
  sim::CircuitHarness harness(rig.sim, nl, impl);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(harness.step({}).ok());

  // Corrupt: invert the LUT of the counter's bit-0 cell.
  const auto site = impl.sites[0];
  auto cfg = rig.fab.cell(site.clb, site.cell);
  cfg.lut = static_cast<std::uint16_t>(~cfg.lut);
  rig.fab.set_cell_config(site.clb, site.cell, cfg);

  bool detected = false;
  for (int i = 0; i < 4; ++i) {
    if (!harness.step({}).ok()) detected = true;
  }
  EXPECT_TRUE(detected);
}

TEST(FailureInjection, DriveConflictIsDetected) {
  // Parallel two cells computing *different* functions onto one net: the
  // coherence checker must flag it at the next clock edge.
  Rig rig;
  const auto& g = rig.fab.skeleton();
  rig.fab.set_cell_config({2, 2}, 0, fabric::LogicCellConfig::constant(true));
  rig.fab.set_cell_config({2, 3}, 0,
                          fabric::LogicCellConfig::constant(false));
  const auto net = rig.fab.create_net("bad-parallel");
  rig.fab.attach_source(net, g.out_pin({2, 2}, 0, false));
  rig.fab.attach_source(net, g.out_pin({2, 3}, 0, false));
  rig.sim.run_cycles(2);
  EXPECT_GT(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
}

TEST(FailureInjection, BrokenNetFailsValidation) {
  // Remove a trunk edge behind the engine's back: validate_net throws.
  Rig rig;
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{
          place::suggest_region(netlist::map_netlist(nl), {2, 2},
                                rig.fab.geometry()),
          0});
  // Pick a net with at least two edges and amputate its first edge.
  for (const auto& [sig, net] : impl.signal_nets) {
    const auto& tree = rig.fab.net(net);
    if (tree.edges.size() < 2) continue;
    // Removing the source-adjacent edge leaves a dangling downstream edge
    // unless the whole branch is pruned — which this deliberately skips.
    const auto first = tree.edges.front();
    bool downstream_exists = false;
    for (const auto& e : tree.edges)
      if (e.from == first.to) downstream_exists = true;
    if (!downstream_exists) continue;
    rig.fab.remove_edge(net, first);
    EXPECT_THROW(rig.fab.validate_net(net), IllegalOperationError);
    return;
  }
  GTEST_SKIP() << "no suitable net shape found";
}

}  // namespace
}  // namespace relogic
