// Integration tests: the paper's central experiment.
//
// Implement a live sequential circuit on the fabric, run it in lockstep
// with the golden model, dynamically relocate cells *while it runs*, and
// verify: outputs match the golden model every cycle, no state is lost, no
// glitches on registered outputs, no drive conflicts — "no loss of
// information or functional disturbance" (paper, Sec. 2).
#include <gtest/gtest.h>

#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

using fabric::DeviceGeometry;
using fabric::Fabric;
using netlist::bench::ClockingStyle;
using place::CellSite;
using place::Implementer;
using place::ImplementOptions;

struct Rig {
  Fabric fab;
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller;
  sim::FabricSim sim;
  Implementer implementer;
  place::Router router;
  reloc::RelocationEngine engine;

  explicit Rig(DeviceGeometry geom = DeviceGeometry::tiny(12, 12))
      : fab(std::move(geom)),
        controller(fab, port),
        sim(fab, dm),
        implementer(fab, dm),
        router(fab, dm),
        engine(controller, router, &sim) {
    sim.add_clock(sim::ClockSpec{});
  }
};

place::Implementation implement_at(Rig& rig, const netlist::Netlist& nl,
                                   ClbCoord origin) {
  const auto mapped = netlist::map_netlist(nl);
  ImplementOptions opts;
  opts.region = place::suggest_region(mapped, origin, rig.fab.geometry());
  return rig.implementer.implement(mapped, opts);
}

// --- baseline: circuits behave like the golden model without relocation ---

class LockstepTest : public ::testing::TestWithParam<ClockingStyle> {};

TEST_P(LockstepTest, B01MatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::b01(GetParam());
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(1);
  for (int i = 0; i < 60; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

TEST_P(LockstepTest, B02MatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::b02(GetParam());
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(2);
  for (int i = 0; i < 60; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

TEST_P(LockstepTest, B06MatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::b06(GetParam());
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

TEST_P(LockstepTest, CounterMatchesGolden) {
  Rig rig;
  const auto nl = netlist::bench::counter(5, GetParam());
  auto impl = implement_at(rig, nl, {3, 3});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(4);
  for (int i = 0; i < 80; ++i) {
    const auto r = harness.step_random(rng);
    ASSERT_TRUE(r.ok()) << harness.mismatch_log().back();
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, LockstepTest,
                         ::testing::Values(ClockingStyle::kFreeRunning,
                                           ClockingStyle::kGatedClock),
                         [](const auto& pinfo) {
                           return pinfo.param == ClockingStyle::kFreeRunning
                                      ? "FreeRunning"
                                      : "GatedClock";
                         });

// --- the headline experiment: relocation during operation -----------------

TEST(RelocationTest, CombinationalCellRelocatesTransparently) {
  Rig rig;
  const auto nl = netlist::bench::random_logic("comb", 12, 4, 3, 99);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(5);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  // Relocate every cell, one by one, to a far free corner.
  for (int i = 0; i < impl.cell_count(); ++i) {
    const CellSite dest{ClbCoord{9, 2 + (i / 4)}, i % 4};
    const auto report = rig.engine.relocate_cell(impl, i, dest);
    EXPECT_GT(report.frames_written, 0);
    for (int s = 0; s < 5; ++s)
      ASSERT_TRUE(harness.step_random(rng).ok())
          << harness.mismatch_log().back();
  }
  EXPECT_TRUE(rig.sim.monitor().clean());
}

TEST(RelocationTest, FreeRunningFFPreservesState) {
  Rig rig;
  const auto nl = netlist::bench::counter(5, ClockingStyle::kFreeRunning);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(6);
  for (int i = 0; i < 13; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  // Move the whole counter to the opposite corner while it counts.
  const auto report =
      rig.engine.relocate_function(impl, ClbRect{8, 8, 3, 3});
  EXPECT_EQ(static_cast<int>(report.cells.size()), impl.cell_count());
  for (const auto& r : report.cells) EXPECT_TRUE(r.state_verified);

  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(harness.step_random(rng).ok())
        << harness.mismatch_log().back();
  EXPECT_EQ(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
}

TEST(RelocationTest, GatedClockFFUsesAuxCircuitAndPreservesState) {
  Rig rig;
  const auto nl = netlist::bench::b01(ClockingStyle::kGatedClock);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(7);
  // Run with sparse CE activity so the transfer happens under an inactive
  // clock-enable most of the time (the hard case of Fig. 3).
  auto random_inputs = [&] {
    std::vector<bool> in;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i)
      in.push_back(rng.next_bool());
    in.back() = rng.next_bool(0.2);  // "ce" is the last declared input
    return in;
  };
  for (int i = 0; i < 15; ++i) ASSERT_TRUE(harness.step(random_inputs()).ok());

  const auto report = rig.engine.relocate_function(impl, ClbRect{7, 7, 4, 4});
  for (const auto& r : report.cells) {
    if (r.reg == fabric::RegMode::kFF) {
      EXPECT_TRUE(r.gated_clock);
      EXPECT_TRUE(r.state_verified);
    }
  }

  for (int i = 0; i < 40; ++i)
    ASSERT_TRUE(harness.step(random_inputs()).ok())
        << harness.mismatch_log().back();
  EXPECT_EQ(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
}

TEST(RelocationTest, AsyncLatchPipelineRelocates) {
  Rig rig;
  const auto nl = netlist::bench::async_pipeline(4);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);

  // Walk a token through the pipeline with two-phase gating.
  auto phase_step = [&](bool din, bool phi1, bool phi2) {
    return harness.settle_step({din, phi1, phi2});
  };
  ASSERT_TRUE(phase_step(true, true, false).ok());
  ASSERT_TRUE(phase_step(true, false, true).ok());

  // Relocate the second latch while the pipeline holds data.
  const auto report =
      rig.engine.relocate_cell(impl, 1, CellSite{ClbCoord{9, 9}, 0});
  EXPECT_EQ(report.reg, fabric::RegMode::kLatch);

  ASSERT_TRUE(phase_step(false, true, false).ok());
  ASSERT_TRUE(phase_step(false, false, true).ok());
  ASSERT_TRUE(phase_step(false, true, false).ok());
  EXPECT_EQ(harness.total_mismatches(), 0);
}

TEST(RelocationTest, LutRamRefusesRelocation) {
  Rig rig;
  const auto nl = netlist::bench::counter(3, ClockingStyle::kFreeRunning);
  auto impl = implement_at(rig, nl, {2, 2});
  // Turn one cell into a LUT-RAM after the fact.
  auto cfg = rig.fab.cell(impl.sites[0].clb, impl.sites[0].cell);
  cfg.lut_mode = fabric::LutMode::kRam;
  rig.fab.set_cell_config(impl.sites[0].clb, impl.sites[0].cell, cfg);
  EXPECT_THROW(
      rig.engine.relocate_cell(impl, 0, CellSite{ClbCoord{9, 9}, 0}),
      IllegalOperationError);
}

TEST(RelocationTest, RelocationReportsConfigPortTime) {
  Rig rig;
  const auto nl = netlist::bench::b02(ClockingStyle::kGatedClock);
  auto impl = implement_at(rig, nl, {2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  Rng rng(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  const auto report =
      rig.engine.relocate_cell(impl, impl.cell_count() - 1,
                               CellSite{ClbCoord{9, 2}, 0});
  // Gated-clock relocation over Boundary Scan: milliseconds, not micro.
  EXPECT_GT(report.config_time, SimTime::ms(1));
  EXPECT_LT(report.config_time, SimTime::ms(200));
  EXPECT_GE(report.wall_time, report.config_time);
  EXPECT_GT(report.ops, 5);
}

}  // namespace
}  // namespace relogic
