// Unit and property tests: relogic::health (fault maps, deterministic
// injection, the roving on-line self-tester), fault-aware area planning,
// fleet-level degradation/quarantine, and the CellKey aliasing regression.
#include <gtest/gtest.h>

#include <set>

#include "relogic/area/defrag.hpp"
#include "relogic/area/manager.hpp"
#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/health/fault.hpp"
#include "relogic/health/rover.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

// ---- fault map & injector ---------------------------------------------------

TEST(FaultMap, InjectDetectAndAggregate) {
  health::FaultMap map(4, 4, 4);
  EXPECT_EQ(map.injected_count(), 0);
  map.inject({1, 2}, 0, {3, true});
  map.inject({1, 2}, 3, {7, false});
  map.inject({3, 0}, 1, {0, true});
  EXPECT_EQ(map.injected_count(), 3);
  EXPECT_EQ(map.detected_count(), 0);
  EXPECT_TRUE(map.has_fault({1, 2}, 0));
  EXPECT_FALSE(map.has_fault({1, 2}, 1));
  // Undetected faults are invisible to planning-facing queries.
  EXPECT_FALSE(map.clb_faulty({1, 2}));
  EXPECT_TRUE(map.clb_has_injected({1, 2}));
  EXPECT_EQ(map.injected_cells_in({1, 2}), 2);

  EXPECT_EQ(map.detect_all_in({1, 2}), 2);
  EXPECT_EQ(map.detect_all_in({1, 2}), 0);  // idempotent
  EXPECT_TRUE(map.clb_faulty({1, 2}));
  EXPECT_TRUE(map.is_detected({1, 2}, 0));
  EXPECT_EQ(map.detected_count(), 2);
  EXPECT_EQ(map.detected_clb_count(), 1);
  EXPECT_DOUBLE_EQ(map.detected_clb_density(), 1.0 / 16.0);

  map.mark_detected({3, 0}, 1);
  EXPECT_EQ(map.detected_clb_count(), 2);
  const auto clbs = map.detected_clbs();
  ASSERT_EQ(clbs.size(), 2u);
  EXPECT_EQ(clbs[0], (ClbCoord{1, 2}));
  EXPECT_EQ(clbs[1], (ClbCoord{3, 0}));

  // Observed fault on a cell with no injected ground truth is recorded too.
  map.mark_detected({0, 0}, 2, {5, true});
  EXPECT_TRUE(map.is_detected({0, 0}, 2));
}

TEST(FaultInjector, DeterministicPerSeed) {
  health::FaultInjector a(12, 12, 4, 0.05, 42);
  health::FaultInjector b(12, 12, 4, 0.05, 42);
  health::FaultInjector c(12, 12, 4, 0.05, 43);
  const auto ra = a.generate().records();
  const auto rb = b.generate().records();
  const auto rc = c.generate().records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].clb, rb[i].clb);
    EXPECT_EQ(ra[i].cell, rb[i].cell);
    EXPECT_EQ(ra[i].fault, rb[i].fault);
  }
  EXPECT_GT(ra.size(), 0u);  // 576 cells at 5%: ~29 expected
  bool differs = ra.size() != rc.size();
  for (std::size_t i = 0; !differs && i < ra.size(); ++i)
    differs = ra[i].clb != rc[i].clb || ra[i].cell != rc[i].cell;
  EXPECT_TRUE(differs);
  EXPECT_EQ(health::FaultInjector(12, 12, 4, 0.0, 42).generate()
                .injected_count(),
            0);
}

// ---- fabric-level fault corruption ------------------------------------------

TEST(FabricFaults, StuckBitCorruptsWritesObservably) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(4, 4));
  fab.inject_fault({1, 1}, 2, {4, true});  // bit 4 stuck at 1
  EXPECT_EQ(fab.injected_fault_count(), 1);
  ASSERT_NE(fab.fault_at({1, 1}, 2), nullptr);
  EXPECT_EQ(fab.fault_at({1, 1}, 2)->lut_bit, 4);

  fabric::LogicCellConfig cfg;
  cfg.used = true;
  cfg.lut = 0x0000;
  EXPECT_TRUE(fab.set_cell_config({1, 1}, 2, cfg));
  EXPECT_EQ(fab.cell({1, 1}, 2).lut, 0x0010);  // readback mismatch

  // Rewriting the same value through the same fault is an identical
  // rewrite of the stored (corrupted) image: no event.
  EXPECT_FALSE(fab.set_cell_config({1, 1}, 2, cfg));

  // A healthy cell stores what is written.
  EXPECT_TRUE(fab.set_cell_config({0, 0}, 0, cfg));
  EXPECT_EQ(fab.cell({0, 0}, 0).lut, 0x0000);
}

TEST(FabricFaults, DenseGeometryBoundsChecked) {
  auto geom = fabric::DeviceGeometry::tiny_dense(4, 4);
  EXPECT_EQ(geom.cells_per_clb, 8);
  fabric::Fabric fab(geom);  // 8 cells per CLB is storable
  fabric::LogicCellConfig cfg;
  cfg.used = true;
  EXPECT_TRUE(fab.set_cell_config({0, 0}, 7, cfg));
  geom.cells_per_clb = fabric::kMaxCellsPerClb + 1;
  EXPECT_THROW(fabric::Fabric{geom}, Error);
}

// ---- CellKey aliasing regression (ROADMAP latent bug) -----------------------
//
// The old key packed (row, col * 4 + cell): on a geometry with
// cells_per_clb = 8, the rewrite of col 1 cell 0 aliased col 0 cell 4, so
// a live LUT-RAM at col 0 cell 4 was wrongly exempted from the column
// check and the illegal op slipped through.

TEST(CellKeyRegression, ControllerCheckDoesNotAliasAcrossColumns) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny_dense(4, 4));
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port);

  // Live LUT-RAM at column 0, cell 4 — the alias target of (col 1, cell 0).
  fabric::LogicCellConfig ram;
  ram.used = true;
  ram.lut_mode = fabric::LutMode::kRam;
  fab.set_cell_config({0, 0}, 4, ram);

  fabric::LogicCellConfig plain;
  plain.used = true;
  plain.lut = 0x1234;

  // Touches columns 0 and 1; rewrites (0,1).0 and (0,0).0 but NOT the RAM
  // cell. With the aliasing key this did not throw.
  config::ConfigOp op("alias probe");
  op.write_cell({0, 1}, 0, plain).write_cell({0, 0}, 0, plain);
  EXPECT_THROW(ctl.apply(op), IllegalOperationError);

  // Rewriting the RAM cell itself stays exempt (intentional rewrite).
  config::ConfigOp legal("ram rewrite");
  legal.write_cell({0, 0}, 4, ram);
  EXPECT_NO_THROW(ctl.apply(legal));
}

TEST(CellKeyRegression, BatcherPendingExemptionsDoNotAlias) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny_dense(4, 4));
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port);

  fabric::LogicCellConfig ram;
  ram.used = true;
  ram.lut_mode = fabric::LutMode::kRam;
  fab.set_cell_config({0, 0}, 4, ram);

  runtime::TransactionBatcher batcher(ctl, {});
  fabric::LogicCellConfig plain;
  plain.used = true;
  plain.lut = 0xBEEF;

  // Pending op rewrites (0,1).0 — old key (0, 4), aliasing the RAM cell's.
  config::ConfigOp a("pending");
  a.write_cell({0, 1}, 0, plain);
  batcher.enqueue(a);

  // This op touches column 0, whose RAM cell is NOT rewritten by anything
  // pending; the per-op exactness check must reject it.
  config::ConfigOp b("column 0");
  b.write_cell({0, 0}, 0, plain);
  EXPECT_THROW(batcher.enqueue(b), IllegalOperationError);
}

// ---- area masking -----------------------------------------------------------

TEST(AreaMasking, MaskedClbsLeaveCirculation) {
  area::AreaManager mgr(8, 8);
  EXPECT_EQ(mgr.free_clbs(), 64);
  mgr.mask_faulty({3, 3});
  mgr.mask_faulty({3, 3});  // idempotent
  mgr.mask_faulty({0, 7});
  EXPECT_EQ(mgr.masked_clbs(), 2);
  EXPECT_EQ(mgr.free_clbs(), 62);
  EXPECT_TRUE(mgr.masked({3, 3}));
  EXPECT_EQ(mgr.at({3, 3}), area::kFaultyRegion);

  // No placement query ever lands on a masked CLB.
  for (int h = 1; h <= 8; ++h) {
    for (int w = 1; w <= 8; ++w) {
      for (const auto policy :
           {area::PlacePolicy::kBottomLeft, area::PlacePolicy::kBestFit}) {
        const auto r = mgr.find_free_rect(h, w, policy);
        if (!r) continue;
        EXPECT_FALSE(r->contains(ClbCoord{3, 3}));
        EXPECT_FALSE(r->contains(ClbCoord{0, 7}));
      }
    }
  }
  EXPECT_THROW(mgr.allocate_at("x", ClbRect{3, 3, 1, 1}), Error);

  // Occupied CLBs cannot be masked; releasing then masking works.
  const auto id = mgr.allocate_at("f", ClbRect{5, 5, 2, 2});
  EXPECT_THROW(mgr.mask_faulty({5, 5}), Error);
  mgr.release(id);
  mgr.mask_faulty({5, 5});
  EXPECT_EQ(mgr.masked_clbs(), 3);

  const std::string ascii = mgr.to_ascii();
  EXPECT_NE(ascii.find('X'), std::string::npos);
}

TEST(AreaMasking, AvoidRectExcludesWindow) {
  area::AreaManager mgr(6, 6);
  const ClbRect window{0, 2, 6, 2};  // columns 2..3
  for (const auto policy :
       {area::PlacePolicy::kBottomLeft, area::PlacePolicy::kBestFit}) {
    const auto r = mgr.find_free_rect(3, 2, policy, &window);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->overlaps(window));
  }
  // A rect that can only fit through the window is refused.
  EXPECT_FALSE(mgr.find_free_rect(6, 5, area::PlacePolicy::kBottomLeft,
                                  &window)
                   .has_value());
}

// Property: once cells are masked, no defrag plan (greedy, planner-cached,
// or full compaction) ever moves a region onto a faulty CLB or promises the
// request a slot overlapping one, and free-space accounting excludes them.
TEST(AreaMasking, PropertyNoPlanTouchesFaultyClbs) {
  Rng rng(20030307);
  for (int trial = 0; trial < 40; ++trial) {
    const int rows = rng.next_int(6, 12);
    const int cols = rng.next_int(6, 12);
    area::AreaManager mgr(rows, cols);

    // Random occupancy.
    for (int i = 0; i < rng.next_int(2, 6); ++i) {
      mgr.allocate("r" + std::to_string(i), rng.next_int(1, 4),
                   rng.next_int(1, 4), area::PlacePolicy::kBottomLeft);
    }
    // Random masked cells (free ones only, as detection requires).
    std::set<std::pair<int, int>> masked;
    for (int i = 0; i < rng.next_int(1, 8); ++i) {
      const ClbCoord c{rng.next_int(0, rows - 1), rng.next_int(0, cols - 1)};
      if (mgr.at(c) != area::kNoRegion) continue;
      mgr.mask_faulty(c);
      masked.insert({c.row, c.col});
    }

    // Free accounting excludes masked cells exactly.
    int grid_free = 0;
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c)
        grid_free += mgr.at({r, c}) == area::kNoRegion ? 1 : 0;
    ASSERT_EQ(mgr.free_clbs(), grid_free);
    ASSERT_EQ(mgr.masked_clbs(), static_cast<int>(masked.size()));

    auto check_plan = [&](const std::optional<area::DefragPlan>& plan) {
      if (!plan) return;
      for (const auto& [mr, mc] : masked) {
        const ClbCoord c{mr, mc};
        EXPECT_FALSE(plan->request_slot.contains(c));
        for (const auto& mv : plan->moves) EXPECT_FALSE(mv.to.contains(c));
      }
      // The plan is executable: every move lands on space that is free (or
      // the region's own) when its turn comes.
      area::AreaManager copy = mgr;
      for (const auto& mv : plan->moves) {
        ASSERT_TRUE(copy.can_move(mv.region, mv.to));
        copy.move(mv.region, mv.to);
      }
    };

    const int h = rng.next_int(1, rows);
    const int w = rng.next_int(1, cols);
    check_plan(area::plan_for_request(mgr, h, w));
    check_plan(area::plan_full_compaction(mgr));
    check_plan(area::plan_full_compaction(mgr, {{h, w}}));
    area::RequestPlanner planner(mgr);
    check_plan(planner.plan(h, w));
  }
}

// ---- roving tester (fabric level) -------------------------------------------

/// The relocation engine a rover over `fab` drives through `ctl`: a live
/// simulator with the default clock and a router.
struct EngineRig {
  EngineRig(fabric::Fabric& fab, config::ConfigController& ctl)
      : sim(fab, dm), router(fab, dm), engine(ctl, router, &sim) {
    sim.add_clock(sim::ClockSpec{});
  }
  const fabric::DelayModel dm;
  sim::FabricSim sim;
  place::Router router;
  reloc::RelocationEngine engine;
};

TEST(RovingTester, FreeFabricFullRotationDetectsEveryFault) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(8, 8));
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port);

  health::FaultInjector injector(8, 8, 4, 0.05, 7);
  health::FaultMap map = injector.generate();
  ASSERT_GT(map.injected_count(), 0);
  map.install(fab);

  EngineRig rig(fab, ctl);
  health::RovingTester rover(rig.engine, map);
  const auto report = rover.sweep({});
  EXPECT_EQ(report.window_positions, 8);
  EXPECT_EQ(report.clbs_swept, 64);   // zero missed CLBs
  EXPECT_EQ(report.clbs_tested, 64);  // empty device: everything testable
  EXPECT_EQ(report.cells_tested, 256);
  EXPECT_EQ(report.faults_detected, map.injected_count());
  EXPECT_EQ(map.detected_count(), map.injected_count());
  EXPECT_GT(report.config_time, SimTime::zero());
  EXPECT_EQ(rover.rotations_completed(), 1);

  // Second rotation: detected cells are skipped, nothing new to find.
  const auto again = rover.sweep({});
  EXPECT_EQ(again.faults_detected, 0);
  EXPECT_EQ(again.cells_tested, 256 - map.injected_count());
}

// Readback is never dirty-skippable: a sweep must fetch every frame it
// wants to verify whether or not the preceding write changed its bytes, so
// the rover prices readback on the op's full frame set
// (ConfigController::readback_frames) and an identical sweep costs exactly
// the same under kFrame and kDirtyFrame.
TEST(RovingTester, SweepCostIdenticalAcrossFrameAndDirtyGranularity) {
  health::SweepReport reports[2];
  int i = 0;
  for (const auto gran : {config::WriteGranularity::kFrame,
                          config::WriteGranularity::kDirtyFrame}) {
    fabric::Fabric fab(fabric::DeviceGeometry::tiny(6, 6));
    config::BoundaryScanPort port;
    config::ConfigController ctl(fab, port, gran);
    health::FaultInjector injector(6, 6, 4, 0.05, 11);
    health::FaultMap map = injector.generate();
    map.install(fab);
    EngineRig rig(fab, ctl);
    health::RovingTester rover(rig.engine, map);
    reports[i++] = rover.sweep({});
  }
  EXPECT_EQ(reports[0].cells_tested, reports[1].cells_tested);
  EXPECT_EQ(reports[0].faults_detected, reports[1].faults_detected);
  EXPECT_EQ(reports[0].frames_written, reports[1].frames_written);
  EXPECT_GT(reports[0].config_time, SimTime::zero());
  EXPECT_EQ(reports[0].config_time, reports[1].config_time);
}

TEST(RovingTester, SkipsLiveLutRamColumnsEntirely) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(6, 6));
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port);

  // Live LUT-RAM in column 3: its frames must never be rewritten on-line.
  fabric::LogicCellConfig ram;
  ram.used = true;
  ram.lut_mode = fabric::LutMode::kRam;
  fab.set_cell_config({2, 3}, 0, ram);

  health::FaultMap map(6, 6, 4);
  map.inject({0, 3}, 1, {2, true});  // unreachable: lives in the RAM column
  map.inject({0, 0}, 1, {2, true});
  map.install(fab);

  EngineRig rig(fab, ctl);
  health::RovingTester rover(rig.engine, map);
  const auto report = rover.sweep({});  // must not throw
  EXPECT_EQ(report.lut_ram_columns_skipped, 1);
  EXPECT_EQ(report.faults_detected, 1);
  EXPECT_TRUE(map.is_detected({0, 0}, 1));
  EXPECT_FALSE(map.is_detected({0, 3}, 1));
}

TEST(RovingTester, RelocatesLiveCircuitOutOfWindowAndKeepsItRunning) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(12, 12));
  const fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(ctl, router, &sim);

  const auto nl = netlist::bench::b02(netlist::bench::ClockingStyle::kFreeRunning);
  place::ImplementOptions iopt;
  iopt.region = ClbRect{2, 2, 3, 3};
  auto impl = implementer.implement(netlist::map_netlist(nl), iopt);
  sim::CircuitHarness harness(sim, nl, impl);

  Rng rng(99);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(harness.step_random(rng).ok());

  // A fault inside the circuit's current region, on a free cell.
  health::FaultMap map(12, 12, 4);
  bool planted = false;
  for (int r = iopt.region.row; r < iopt.region.row_end() && !planted; ++r) {
    for (int c = iopt.region.col; c < iopt.region.col_end() && !planted;
         ++c) {
      for (int k = 0; k < 4 && !planted; ++k) {
        if (!fab.cell({r, c}, k).used) {
          map.inject({r, c}, k, {9, true});
          planted = true;
        }
      }
    }
  }
  ASSERT_TRUE(planted);
  map.install(fab);

  health::RovingTester rover(engine, map);
  const auto report = rover.sweep({&impl});
  EXPECT_EQ(report.clbs_swept, 144);
  EXPECT_GT(report.cells_relocated, 0);  // the circuit was in the way
  EXPECT_EQ(report.cells_skipped, 0);    // every occupied cell was vacated
  EXPECT_EQ(report.clbs_tested, 144);    // zero missed CLBs
  EXPECT_EQ(report.faults_detected, 1);
  EXPECT_EQ(map.detected_count(), 1);

  // The circuit survived a whole rotation of being shoved around.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(harness.step_random(rng).ok());
  EXPECT_TRUE(sim.monitor().clean());
}

// ---- scheduler sweep --------------------------------------------------------

TEST(SchedulerSelfTest, RotationCompletesAndMasksFaults) {
  const auto geom = fabric::DeviceGeometry::tiny(10, 10);
  config::BoundaryScanPort port;
  reloc::RelocationCostModel cost(geom, port);

  sched::SchedulerConfig cfg;
  cfg.policy = sched::ManagementPolicy::kTransparent;

  health::FaultMap faults(10, 10, 4);
  faults.inject({0, 4}, 1, {2, true});
  faults.inject({7, 4}, 2, {3, false});
  faults.inject({5, 9}, 0, {1, true});

  sched::Scheduler scheduler(10, 10, cost, cfg);
  sched::SelfTestConfig st;
  st.enabled = true;
  st.window_cols = 2;
  st.step_period_ms = 2.0;
  scheduler.enable_selftest(st, &faults);

  sched::WorkloadParams wp;
  wp.task_count = 40;
  wp.max_side = 5;
  wp.mean_interarrival_ms = 2.0;
  wp.mean_duration_ms = 15.0;
  wp.seed = 11;
  const auto stats =
      scheduler.run_tasks(sched::WorkloadGenerator(wp).generate());

  const auto counter = [&](const char* name) {
    return stats.telemetry.counter_value(name);
  };
  // At least one full rotation, and every rotation visits every CLB once.
  EXPECT_GE(counter("sweep_rotations"), 1);
  EXPECT_EQ(counter("swept_clbs"), counter("sweep_rotations") * 100);
  EXPECT_GT(counter("tested_clbs"), 0);
  // All three faults found and their CLBs masked.
  EXPECT_EQ(counter("faulty_cells"), 3);
  EXPECT_EQ(counter("faulty_clbs"), 3);
  EXPECT_EQ(faults.detected_count(), 3);
  // The workload still ran.
  EXPECT_EQ(static_cast<int>(stats.tasks.size()), 40);
  EXPECT_GT(static_cast<int>(stats.tasks.size()) - stats.rejected, 0);
}

TEST(SchedulerSelfTest, SweepAloneRunsOnEmptyDevice) {
  const auto geom = fabric::DeviceGeometry::tiny(6, 6);
  config::BoundaryScanPort port;
  reloc::RelocationCostModel cost(geom, port);
  sched::Scheduler scheduler(6, 6, cost, {});
  sched::SelfTestConfig st;
  st.enabled = true;
  scheduler.enable_selftest(st, nullptr);
  const auto stats = scheduler.run_tasks({});
  EXPECT_EQ(stats.telemetry.counter_value("sweep_rotations"), 1);
  EXPECT_EQ(stats.telemetry.counter_value("swept_clbs"), 36);
  EXPECT_EQ(stats.telemetry.counter_value("tested_clbs"), 36);
  EXPECT_EQ(stats.telemetry.counter_value("faulty_cells"), 0);
}

// ---- fleet integration ------------------------------------------------------

runtime::FleetConfig health_fleet_config() {
  runtime::FleetConfig cfg;
  cfg.devices = 4;
  cfg.rows = cfg.cols = 10;
  cfg.dispatch = runtime::DispatchPolicy::kLeastLoaded;
  // Load rebalancing off: `rebalanced` then counts ONLY the quarantine
  // evacuations, which is exactly what the quarantine test asserts on.
  cfg.rebalance_backlog_ms = 0.0;
  cfg.sched.policy = sched::ManagementPolicy::kTransparent;
  cfg.health.selftest.enabled = true;
  cfg.health.fault_rate = 0.04;
  cfg.health.fault_seed = 5;
  // Detection needs ~6 faulty CLBs (threshold 5% of 100): with ~15% of
  // CLBs faulty that happens a few sweep steps in (~tens of ms) — late
  // enough for the overloaded fleet below to have queued work to migrate.
  cfg.health.selftest.step_period_ms = 5.0;
  cfg.health.quarantine_threshold = 0.05;
  return cfg;
}

std::vector<sched::TaskArrival> health_fleet_trace() {
  sched::WorkloadParams wp;
  wp.task_count = 160;
  wp.mean_interarrival_ms = 0.3;  // heavy: queues form fleet-wide
  wp.mean_duration_ms = 40.0;
  wp.max_side = 6;
  wp.seed = 5;
  return sched::WorkloadGenerator(wp).generate();
}

TEST(FleetHealth, QuarantineMigratesQueuedWorkAndIdentityHolds) {
  runtime::FleetManager fleet(health_fleet_config());
  fleet.submit_all(health_fleet_trace());
  const auto report = fleet.run();

  // The fault rate (~15% faulty CLBs) is far past the threshold: devices
  // quarantine as detections accumulate, and their queued-but-not-started
  // requests moved to peers while any peer was still healthy.
  EXPECT_GT(report.quarantined, 0);
  EXPECT_GT(report.rebalanced, 0);
  EXPECT_EQ(report.aggregate.counter_value("quarantined_devices"),
            report.quarantined);
  EXPECT_GT(report.faulty_cells, 0);

  // Counting identity: every admitted task is accounted for exactly once,
  // quarantine migrations included.
  const auto admitted = report.aggregate.counter_value("tasks_admitted");
  const auto completed = report.aggregate.counter_value("tasks_completed");
  const auto rejected = report.aggregate.counter_value("tasks_rejected");
  EXPECT_EQ(admitted, completed + rejected);
  EXPECT_EQ(report.admitted, static_cast<int>(admitted));
  EXPECT_EQ(report.completed, static_cast<int>(completed));
  EXPECT_EQ(report.rejected,
            static_cast<int>(rejected) +
                static_cast<int>(
                    report.aggregate.counter_value("admission_rejected")));
}

TEST(FleetHealth, DeterministicAcrossThreadCounts) {
  auto run_with = [&](int threads) {
    auto cfg = health_fleet_config();
    cfg.threads = threads;
    runtime::FleetManager fleet(cfg);
    fleet.submit_all(health_fleet_trace());
    return fleet.run().to_json();
  };
  const std::string one = run_with(1);
  const std::string many = run_with(4);
  EXPECT_EQ(one, many);
  EXPECT_NE(one.find("\"faulty_cells\""), std::string::npos);
  EXPECT_NE(one.find("\"quarantined_devices\""), std::string::npos);
}

TEST(FleetHealth, DegradedCapacityStillServes) {
  // Sanity: a faulty fleet completes work, and detected capacity loss shows
  // up in the telemetry (masked CLBs > 0 on at least one device).
  runtime::FleetManager fleet(health_fleet_config());
  fleet.submit_all(health_fleet_trace());
  const auto report = fleet.run();
  EXPECT_GT(report.completed, 0);
  EXPECT_GT(report.aggregate.counter_value("faulty_clbs"), 0);
  EXPECT_GT(report.aggregate.counter_value("sweep_rotations"), 0);
  EXPECT_GT(report.tested_clbs, 0);
}

}  // namespace
}  // namespace relogic
