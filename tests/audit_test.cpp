// Debug invariant audits (common/audit.hpp, DESIGN.md §8.4).
//
// The audit() methods are compiled unconditionally, so this suite runs them
// directly in every build; the RELOGIC_AUDIT flag only gates the periodic
// hot-path call sites (and those are exercised by the sanitizer CI jobs,
// which run the whole test set with -DRELOGIC_AUDIT=ON).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "relogic/area/manager.hpp"
#include "relogic/common/audit.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/runtime/telemetry.hpp"
#include "relogic/sched/workload.hpp"

namespace relogic {
namespace {

using fabric::DeviceGeometry;
using fabric::Fabric;
using fabric::LogicCellConfig;

// ---- AreaManager occupancy ledger ------------------------------------------

TEST(AreaAudit, CleanAfterAllocateMoveReleaseMask) {
  area::AreaManager mgr(10, 10);
  EXPECT_NO_THROW(mgr.audit());

  const auto a = mgr.allocate("a", 3, 3);
  const auto b = mgr.allocate("b", 2, 4);
  ASSERT_NE(a, area::kNoRegion);
  ASSERT_NE(b, area::kNoRegion);
  EXPECT_NO_THROW(mgr.audit());

  mgr.mask_faulty({9, 9});
  EXPECT_NO_THROW(mgr.audit());

  const auto to = mgr.find_free_rect(3, 3, area::PlacePolicy::kBottomLeft);
  ASSERT_TRUE(to.has_value());
  if (mgr.can_move(a, *to)) mgr.move(a, *to);
  EXPECT_NO_THROW(mgr.audit());

  mgr.release(b);
  mgr.release(a);
  EXPECT_NO_THROW(mgr.audit());
}

// ---- Telemetry internals ----------------------------------------------------

TEST(TelemetryAudit, CleanThroughObserveAndMerge) {
  runtime::Telemetry a;
  a.counter("ops").add(3);
  a.gauge("util").set(0.5);
  for (double v : {0.01, 1.0, 7.5, 12000.0}) a.histogram("lat").observe(v);
  EXPECT_NO_THROW(a.audit("a"));

  runtime::Telemetry b;
  b.histogram("lat").observe(42.0);
  b.merge(a);
  EXPECT_NO_THROW(b.audit("b"));
  EXPECT_EQ(b.histogram("lat").count(), 5);
}

// ---- ConfigController frame-digest mirror ----------------------------------

class ControllerAuditTest : public ::testing::Test {
 protected:
  DeviceGeometry geom_ = DeviceGeometry::tiny(8, 8);
  Fabric fab_{geom_};
  config::BoundaryScanPort port_;
};

TEST_F(ControllerAuditTest, MirrorMatchesRecomputeThroughBatchedTraffic) {
  config::ConfigController ctl(fab_, port_,
                               config::WriteGranularity::kDirtyFrame);
  EXPECT_NO_THROW(ctl.audit_image());

  runtime::TransactionBatcher batcher(ctl, {});
  for (int i = 0; i < 4; ++i) {
    config::ConfigOp op("op" + std::to_string(i));
    op.write_cell({1 + i, 2}, 0, LogicCellConfig::constant(i % 2 == 0));
    batcher.enqueue(op);
  }
  config::ConfigOp clear("teardown");
  clear.clear_cell({1, 2}, 0);
  batcher.enqueue(clear);
  batcher.flush();
  EXPECT_NO_THROW(ctl.audit_image());
}

class ControllerAuditGranularityTest
    : public ControllerAuditTest,
      public ::testing::WithParamInterface<config::WriteGranularity> {};

TEST_P(ControllerAuditGranularityTest, PreInstalledFaultsAreTheBaseline) {
  // FaultMap::install runs BEFORE controller construction everywhere in the
  // tree (fleet.cpp, main.cpp); the baseline snapshot makes that corruption
  // invisible to the audit. Every granularity shares the commit path, and
  // the faulted write must reach the mirror as the value the fabric
  // actually stored. The written LUT (0x0000) has the stuck bit clear, so
  // the stored value (0x0008) differs from the one the op carries.
  fab_.inject_fault({2, 2}, 0, fabric::CellFault{3, true});
  config::ConfigController ctl(fab_, port_, GetParam());
  EXPECT_NO_THROW(ctl.audit_image());

  config::ConfigOp op("cfg");
  op.write_cell({2, 2}, 0, LogicCellConfig::constant(false));
  ctl.apply(op);
  EXPECT_NO_THROW(ctl.audit_image());
}

INSTANTIATE_TEST_SUITE_P(
    AllGranularities, ControllerAuditGranularityTest,
    ::testing::Values(config::WriteGranularity::kColumn,
                      config::WriteGranularity::kFrame,
                      config::WriteGranularity::kDirtyFrame),
    [](const auto& pinfo) { return config::to_string(pinfo.param); });

TEST_F(ControllerAuditTest, MutationBehindTheControllerThrows) {
  config::ConfigController ctl(fab_, port_,
                               config::WriteGranularity::kDirtyFrame);
  EXPECT_NO_THROW(ctl.audit_image());
  // An injected configuration-memory fault after construction changes the
  // stored cell contents without a controller transaction — exactly the
  // unsanctioned mutation the digest mirror exists to catch.
  fab_.inject_fault({4, 4}, 1, fabric::CellFault{0, true});
  EXPECT_THROW(ctl.audit_image(), AuditError);
}

// ---- Fleet admission ledger -------------------------------------------------

TEST(FleetAudit, AdmissionLedgerReconcilesOnlineAndOffline) {
  for (const auto mode :
       {runtime::AdmissionMode::kOnline, runtime::AdmissionMode::kOffline}) {
    runtime::FleetConfig cfg;
    cfg.devices = 3;
    cfg.rows = 12;
    cfg.cols = 12;
    cfg.threads = 2;
    cfg.admission = mode;
    cfg.rebalance_backlog_ms = 5.0;
    runtime::FleetManager fleet(cfg);

    sched::WorkloadParams params;
    params.task_count = 40;
    params.seed = 7;
    fleet.submit_all(sched::WorkloadGenerator(params).generate());
    fleet.dispatch();
    EXPECT_NO_THROW(fleet.audit_admission());

    // run() drains the queue; the empty post-run state audits clean too.
    const auto report = fleet.run();
    EXPECT_NO_THROW(fleet.audit_admission());
    EXPECT_EQ(report.admitted, report.completed + report.rejected -
                                   report.aggregate.counter_value(
                                       "admission_rejected"));
    for (const auto& d : report.devices)
      EXPECT_NO_THROW(d.telemetry.audit("device"));
  }
}

// ---- TraceBuffer single-writer contract (audit builds only) -----------------

TEST(TraceAudit, SingleWriterPushStaysClean) {
  obs::Tracer tracer;
  auto track = tracer.track(0, 0, "proc", "lane");
  for (int i = 0; i < 1000; ++i)
    track.instant("cat", "ev" + std::to_string(i % 7), SimTime::ps(i));
  // Whether or not the busy-flag audit is compiled in, a well-behaved
  // single writer must never trip it.
  EXPECT_GT(tracer.to_json().size(), 0u);
}

}  // namespace
}  // namespace relogic
