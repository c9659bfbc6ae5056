// Parameterized sweep: every ITC'99-class suite circuit, in both clocking
// styles, implemented on the XCV200 model and held in lockstep with its
// golden model under random stimuli — then migrated while running.
//
// This is the paper's validation campaign as a test (the bench variant
// additionally reports timing).
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

struct Param {
  int suite_index;
  ClockingStyle style;
};

class SuiteLockstep : public ::testing::TestWithParam<Param> {};

TEST_P(SuiteLockstep, RunsAndMigratesCleanly) {
  const auto [index, style] = GetParam();
  const auto suite = netlist::bench::itc99_suite(style);
  ASSERT_LT(static_cast<std::size_t>(index), suite.size());
  const auto& entry = suite[static_cast<std::size_t>(index)];

  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto mapped = netlist::map_netlist(entry.circuit);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, {2, 2}, fab.geometry());
  auto impl = implementer.implement(mapped, opts);

  sim::CircuitHarness harness(sim, entry.circuit, impl);
  harness.watch_registered_outputs();
  Rng rng(0x5111 + static_cast<unsigned>(index));

  for (int i = 0; i < 15; ++i)
    ASSERT_TRUE(harness.step_random(rng).ok())
        << entry.name << ": " << harness.mismatch_log().back();

  // Migrate the first 4 cells (sampling keeps the sweep fast; the Fig. 4
  // bench covers more).
  for (int i = 0; i < std::min(4, impl.cell_count()); ++i) {
    const place::CellSite dest{
        ClbCoord{impl.region.row + 15, impl.region.col + 20 + i / 4}, i % 4};
    const auto rep = engine.relocate_cell(impl, i, dest);
    EXPECT_GT(rep.frames_written, 0);
  }

  for (int i = 0; i < 15; ++i)
    ASSERT_TRUE(harness.step_random(rng).ok())
        << entry.name << ": " << harness.mismatch_log().back();
  EXPECT_TRUE(sim.monitor().clean()) << entry.name;
}

std::vector<Param> all_params() {
  std::vector<Param> out;
  // Smoke mode (the default) runs a small/medium/single-bit cross-section;
  // RELOGIC_SLOW_TESTS=ON restores the full 8-circuit campaign.
  const std::vector<int> circuits = testenv::slow_tests_enabled()
                                        ? std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}
                                        : std::vector<int>{0, 2, 5};
  for (int i : circuits) {
    out.push_back({i, ClockingStyle::kFreeRunning});
    out.push_back({i, ClockingStyle::kGatedClock});
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  static const char* names[] = {"b01",  "b02",  "b06",  "b03c",
                                "b08c", "b09c", "b10c", "b13c"};
  return std::string(names[info.param.suite_index]) +
         (info.param.style == ClockingStyle::kFreeRunning ? "_free"
                                                          : "_gated");
}

INSTANTIATE_TEST_SUITE_P(Itc99, SuiteLockstep,
                         ::testing::ValuesIn(all_params()), param_name);

}  // namespace
}  // namespace relogic
