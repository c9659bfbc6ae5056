// Unit tests: the lockstep harness and the glitch monitor themselves —
// the instruments every experiment relies on.
#include <gtest/gtest.h>

#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic::sim {
namespace {

using netlist::bench::ClockingStyle;

struct Rig {
  fabric::Fabric fab{fabric::DeviceGeometry::tiny(12, 12)};
  fabric::DelayModel dm;
  FabricSim sim{fab, dm};
  place::Implementer implementer{fab, dm};
  Rig() { sim.add_clock(ClockSpec{}); }

  place::Implementation implement(const netlist::Netlist& nl, ClbCoord at) {
    const auto mapped = netlist::map_netlist(nl);
    place::ImplementOptions opts;
    opts.region = place::suggest_region(mapped, at, fab.geometry());
    return implementer.implement(mapped, opts);
  }
};

TEST(Harness, CountsCyclesAndKeepsLog) {
  Rig rig;
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 9; ++i) EXPECT_TRUE(h.step({}).ok());
  EXPECT_EQ(h.cycles_run(), 9);
  EXPECT_EQ(h.total_mismatches(), 0);
  EXPECT_TRUE(h.mismatch_log().empty());
}

TEST(Harness, RejectsWrongStimulusWidth) {
  Rig rig;
  const auto nl = netlist::bench::b01();  // 2 inputs
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  EXPECT_THROW(h.step({true}), ContractError);
  EXPECT_THROW(h.step({true, false, true}), ContractError);
}

TEST(Harness, GoldenCatchUpAfterIdleFabricTime) {
  // Let the fabric clock run without stepping the harness (what happens
  // during a long reconfiguration), then verify the next step still
  // compares clean — the golden model is caught up automatically.
  Rig rig;
  const auto nl = netlist::bench::counter(4);  // free-running: state evolves
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.step({}).ok());
  rig.sim.run_cycles(57);  // fabric runs on alone
  EXPECT_TRUE(h.step({}).ok());
  EXPECT_TRUE(h.step({}).ok());
}

TEST(Harness, WatchRegisteredOutputsOnlyWatchesRegistered) {
  Rig rig;
  // counter: q0..q3 registered, tc combinational.
  const auto nl = netlist::bench::counter(3);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  h.watch_registered_outputs();
  EXPECT_TRUE(rig.sim.monitor().watching(impl.output_pad("q0")));
  EXPECT_FALSE(rig.sim.monitor().watching(impl.output_pad("tc")));
}

TEST(Harness, DetectsSingleBitStateCorruption) {
  // Sensitivity check: flipping exactly one FF value in the simulator must
  // surface as a mismatch within a few cycles.
  Rig rig;
  const auto nl = netlist::bench::lfsr(5, 0b10100);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(h.step({}).ok());

  // Corrupt one bit by rewriting the cell with inverted init... the init
  // is only loaded at configuration; instead corrupt via the golden side:
  // advance golden one extra cycle so the two diverge.
  h.golden().clock();
  bool diverged = false;
  for (int i = 0; i < 4; ++i) {
    if (!h.step({}).ok()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Harness, InputsDrivenJustBeforeAnEdgeAreHeldAcrossIt) {
  // Input-timing contract: a reconfiguration can end at any clock phase.
  // Inputs driven a few ns before an edge reach the fabric's flip-flops
  // only after that edge captured, while the golden model settles at once,
  // so the harness lets such an edge pass first with the old inputs held.
  Rig rig;
  const auto nl = netlist::bench::shift_register(4);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  bool level = false;
  const auto toggle_step = [&] {
    level = !level;
    return h.step(std::vector<bool>(nl.inputs().size(), level));
  };
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(toggle_step().ok());
  for (const int margin_ns : {1, 3, 20, 49}) {
    // Stand where a relocation could have left the simulator.
    const SimTime edge = rig.sim.next_edge(0, rig.sim.now() + SimTime::ps(1));
    rig.sim.run_until(edge - SimTime::ns(margin_ns));
    EXPECT_TRUE(toggle_step().ok())
        << "inputs driven " << margin_ns << " ns before an edge";
    EXPECT_TRUE(toggle_step().ok());
  }
  EXPECT_EQ(h.total_mismatches(), 0)
      << (h.mismatch_log().empty() ? "" : h.mismatch_log().front());
}

TEST(Harness, MismatchLinesNameTheDriveToEdgeMargin) {
  Rig rig;
  const auto nl = netlist::bench::lfsr(5, 0b10100);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(h.step({}).ok());

  // Diverge the golden model by one cycle; an LFSR never repeats a state
  // one cycle on, so the next step mismatches. In lockstep the inputs are
  // driven half a period (50 ns) before the edge.
  h.golden().clock();
  ASSERT_FALSE(h.step({}).ok());
  ASSERT_FALSE(h.mismatch_log().empty());
  for (const auto& line : h.mismatch_log())
    EXPECT_NE(line.find("(post-edge, drive-to-edge margin 50.000 ns)"),
              std::string::npos)
        << line;

  // Standing 1 ns before an edge, the harness lets it pass and drives a
  // quarter period after it: 75 ns before the capturing edge.
  const std::size_t seen = h.mismatch_log().size();
  const SimTime edge = rig.sim.next_edge(0, rig.sim.now() + SimTime::ps(1));
  rig.sim.run_until(edge - SimTime::ns(1));
  ASSERT_FALSE(h.step({}).ok());
  ASSERT_GT(h.mismatch_log().size(), seen);
  EXPECT_NE(h.mismatch_log().back().find("drive-to-edge margin 75.000 ns"),
            std::string::npos)
      << h.mismatch_log().back();
}

TEST(Monitor, WindowResetsEachClockEdge) {
  GlitchMonitor m;
  m.watch(42, "sig");
  m.record_transition(42, SimTime::ns(10));
  m.on_clock_edge(SimTime::ns(100));
  m.record_transition(42, SimTime::ns(110));
  m.on_clock_edge(SimTime::ns(200));
  // One transition per window: clean.
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(m.transitions_observed(), 2);

  m.record_transition(42, SimTime::ns(210));
  m.record_transition(42, SimTime::ns(220));  // second in same window
  EXPECT_EQ(m.count(ViolationKind::kGlitch), 1);
}

TEST(Monitor, UnwatchStopsRecording) {
  GlitchMonitor m;
  m.watch(7, "x");
  m.record_transition(7, SimTime::ns(1));
  m.unwatch(7);
  m.record_transition(7, SimTime::ns(2));
  m.record_transition(7, SimTime::ns(3));
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(m.transitions_observed(), 1);
}

TEST(Monitor, ViolationBookkeeping) {
  GlitchMonitor m;
  m.add_violation({ViolationKind::kStateDivergence, SimTime::ns(5), 1, "a"});
  m.add_violation({ViolationKind::kDriveConflict, SimTime::ns(6), 2, "b"});
  EXPECT_EQ(m.count(ViolationKind::kStateDivergence), 1);
  EXPECT_EQ(m.count(ViolationKind::kDriveConflict), 1);
  EXPECT_EQ(m.count(ViolationKind::kGlitch), 0);
  EXPECT_FALSE(m.clean());
  m.clear();
  EXPECT_TRUE(m.clean());
  EXPECT_EQ(to_string(ViolationKind::kGlitch), "glitch");
  EXPECT_EQ(to_string(ViolationKind::kDriveConflict), "drive-conflict");
}

TEST(AsyncHarness, SettleStepComparesLatchPipelines) {
  Rig rig;
  const auto nl = netlist::bench::async_pipeline(3);
  auto impl = rig.implement(nl, {2, 2});
  CircuitHarness h(rig.sim, nl, impl);
  // March a one through with alternating phases.
  ASSERT_TRUE(h.settle_step({true, true, false}).ok());
  ASSERT_TRUE(h.settle_step({true, false, true}).ok());
  ASSERT_TRUE(h.settle_step({false, true, false}).ok());
  ASSERT_TRUE(h.settle_step({false, false, true}).ok());
  EXPECT_EQ(h.total_mismatches(), 0);
}

}  // namespace
}  // namespace relogic::sim
