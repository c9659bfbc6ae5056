// Unit tests: relogic::runtime (fleet manager, transaction batcher,
// telemetry).
#include <gtest/gtest.h>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/runtime/telemetry.hpp"
#include "relogic/sched/workload.hpp"

namespace relogic::runtime {
namespace {

// ---- telemetry --------------------------------------------------------------

TEST(Telemetry, CounterAccumulates) {
  Telemetry t;
  t.counter("a").add();
  t.counter("a").add(41);
  EXPECT_EQ(t.counter_value("a"), 42);
  EXPECT_EQ(t.counter_value("missing"), 0);
}

TEST(Telemetry, HistogramBucketsAndStats) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(1.0);   // on the boundary: falls in the <= 1.0 bucket
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);  // overflow
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  // Quantiles: bucket upper bounds, capped by the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.6), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0);
}

TEST(Telemetry, HistogramMerge) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  a.observe(0.5);
  b.observe(5.0);
  b.observe(20.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
  Histogram c({2.0});
  EXPECT_THROW(a.merge(c), Error);
}

TEST(Telemetry, HostileMetricNamesProduceValidJson) {
  Telemetry t;
  t.counter("evil\nname\twith\x01" "ctl\"quote\\slash").add(1);
  t.gauge("g\r\f").set(2.0);
  t.histogram("h\x1f").observe(1.0);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"evil\\nname\\twith\\u0001ctl\\\"quote\\\\slash\""),
            std::string::npos);
  EXPECT_NE(json.find("\"g\\r\\f\""), std::string::npos);
  EXPECT_NE(json.find("\"h\\u001f\""), std::string::npos);
  // No raw control characters survive into the document (newlines outside
  // strings are the formatter's own and allowed).
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_EQ(json.find('\x1f'), std::string::npos);
}

TEST(Telemetry, GaugeSetAccumulates) {
  // `set` records a sample; it must NOT overwrite. Two samples on one
  // registry report the same mean/count as one sample on each of two
  // registries merged — the property the old last-write-wins broke.
  Gauge one;
  one.set(1.0);
  one.set(3.0);
  EXPECT_EQ(one.samples(), 2);
  EXPECT_DOUBLE_EQ(one.mean(), 2.0);

  Gauge a;
  Gauge b;
  a.set(1.0);
  b.set(3.0);
  a.merge(b);
  EXPECT_EQ(a.samples(), one.samples());
  EXPECT_DOUBLE_EQ(a.mean(), one.mean());
}

TEST(Telemetry, HistogramJsonCarriesP50P95P99) {
  Telemetry t;
  auto& h = t.histogram("lat", {1.0, 10.0, 100.0});
  for (int i = 0; i < 100; ++i) h.observe(i < 96 ? 5.0 : 50.0);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"p50\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p90\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p95\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 50"), std::string::npos);  // capped by max
}

TEST(Telemetry, RegistryMergeAndJson) {
  Telemetry a;
  Telemetry b;
  a.counter("n").add(1);
  b.counter("n").add(2);
  a.gauge("g").set(1.0);
  b.gauge("g").set(3.0);
  a.histogram("h").observe(1.0);
  b.histogram("h").observe(2.0);
  a.merge(b);
  EXPECT_EQ(a.counter_value("n"), 3);
  EXPECT_DOUBLE_EQ(a.gauge("g").mean(), 2.0);
  EXPECT_EQ(a.histogram("h").count(), 2);

  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": 2"), std::string::npos);
  // Export is deterministic.
  EXPECT_EQ(json, a.to_json());
}

// ---- batcher ----------------------------------------------------------------

config::ConfigOp cell_op(const std::string& label, ClbCoord clb,
                         std::uint16_t lut) {
  config::ConfigOp op(label);
  fabric::LogicCellConfig cfg;
  cfg.used = true;
  cfg.lut = lut;
  op.write_cell(clb, 0, cfg);
  return op;
}

TEST(TransactionBatcher, CoalescesSharedColumns) {
  const auto geom = fabric::DeviceGeometry::tiny(8, 8);
  const config::BoundaryScanPort port;

  // Two identical fabrics: one batched, one op-at-a-time baseline.
  fabric::Fabric batched_fab(geom);
  fabric::Fabric plain_fab(geom);
  config::ConfigController batched_ctl(batched_fab, port);
  config::ConfigController plain_ctl(plain_fab, port);

  TransactionBatcher batcher(batched_ctl, BatchOptions{.max_ops = 8});

  // Four ops in the same CLB column: unbatched writes that column 4 times.
  std::vector<config::ConfigOp> ops;
  for (int r = 0; r < 4; ++r)
    ops.push_back(cell_op("op" + std::to_string(r), ClbCoord{r, 3},
                          static_cast<std::uint16_t>(0x1111 * (r + 1))));
  for (const auto& op : ops) {
    batcher.enqueue(op);
    plain_ctl.apply(op);
  }
  batcher.flush();

  const BatchStats& s = batcher.stats();
  EXPECT_EQ(s.ops_in, 4);
  EXPECT_EQ(s.transactions, 1);
  EXPECT_EQ(s.merged_ops(), 3);
  // The shared column is one transaction instead of four.
  EXPECT_EQ(s.column_writes, 1);
  EXPECT_EQ(s.unbatched_column_writes, 4);
  EXPECT_EQ(s.unbatched_column_writes, plain_ctl.totals().columns_touched);
  EXPECT_LT(s.frames_written, s.unbatched_frames);
  EXPECT_LT(s.time, s.unbatched_time);
  EXPECT_GT(s.saved(), SimTime::zero());

  // Coalescing must not change the fabric end state.
  const auto a = batched_fab.capture();
  const auto b = plain_fab.capture();
  ASSERT_EQ(a.clbs.size(), b.clbs.size());
  for (std::size_t i = 0; i < a.clbs.size(); ++i) EXPECT_EQ(a.clbs[i], b.clbs[i]);
}

TEST(TransactionBatcher, MaxOpsTriggersFlush) {
  const auto geom = fabric::DeviceGeometry::tiny(8, 8);
  const config::BoundaryScanPort port;
  fabric::Fabric fab(geom);
  config::ConfigController ctl(fab, port);
  TransactionBatcher batcher(ctl, BatchOptions{.max_ops = 2});

  for (int r = 0; r < 4; ++r)
    batcher.enqueue(cell_op("op", ClbCoord{r, 1},
                            static_cast<std::uint16_t>(r + 1)));
  EXPECT_EQ(batcher.stats().transactions, 2);  // two auto-flushes of 2 ops
  EXPECT_EQ(batcher.pending_ops(), 0);
}

TEST(TransactionBatcher, DisabledBatchingMatchesBaseline) {
  const auto geom = fabric::DeviceGeometry::tiny(8, 8);
  const config::BoundaryScanPort port;
  fabric::Fabric fab(geom);
  config::ConfigController ctl(fab, port);
  TransactionBatcher batcher(ctl, BatchOptions{.max_ops = 1});

  for (int r = 0; r < 3; ++r)
    batcher.enqueue(cell_op("op", ClbCoord{r, 2},
                            static_cast<std::uint16_t>(r + 1)));
  batcher.flush();
  const BatchStats& s = batcher.stats();
  EXPECT_EQ(s.transactions, 3);
  EXPECT_EQ(s.column_writes, s.unbatched_column_writes);
  EXPECT_EQ(s.frames_written, s.unbatched_frames);
  EXPECT_EQ(s.time, s.unbatched_time);
}

TEST(TransactionBatcher, LutRamOpsApplyAloneSoLegalityMatchesUnbatched) {
  const auto geom = fabric::DeviceGeometry::tiny(8, 8);
  const config::BoundaryScanPort port;
  fabric::Fabric fab(geom);
  config::ConfigController ctl(fab, port);
  TransactionBatcher batcher(ctl, BatchOptions{.max_ops = 8});

  // Op A creates a live LUT-RAM cell in column 3. Applied per-op, a later
  // op touching column 3 without rewriting that cell throws; coalescing
  // must not let it slip through, so RAM-writing ops apply alone.
  config::ConfigOp ram_op("ram");
  fabric::LogicCellConfig ram_cfg;
  ram_cfg.used = true;
  ram_cfg.lut_mode = fabric::LutMode::kRam;
  ram_op.write_cell(ClbCoord{1, 3}, 0, ram_cfg);
  batcher.enqueue(ram_op);
  EXPECT_EQ(batcher.pending_ops(), 0);  // applied immediately, alone
  EXPECT_EQ(batcher.stats().transactions, 1);

  // Touching the RAM's column without rewriting it throws at enqueue,
  // exactly where the per-op sequence would throw — a later op rewriting
  // the RAM cell must not retroactively legalise this one.
  EXPECT_THROW(batcher.enqueue(cell_op("b", ClbCoord{5, 3}, 0x00FF)),
               IllegalOperationError);

  // But once a pending op has rewritten the RAM cell to plain logic, a
  // subsequent op in the same batch may touch the column (the per-op
  // sequence would also allow it).
  batcher.enqueue(cell_op("clear-ram", ClbCoord{1, 3}, 0x1234));
  EXPECT_NO_THROW(batcher.enqueue(cell_op("b2", ClbCoord{5, 3}, 0x0F0F)));
  EXPECT_NO_THROW(batcher.flush());
}

TEST(TransactionBatcher, MalformedRoutingOpIsRefusedAtEnqueue) {
  // The batcher must refuse an op the controller would refuse before it
  // queues it: queued, it would make the merged apply throw after writing
  // the pending ops, and their stats would be lost. The bad op routes on a
  // destroyed net, or adds an edge that is not a PIP.
  const auto geom = fabric::DeviceGeometry::tiny(8, 8);
  const config::BoundaryScanPort port;
  for (const auto gran :
       {config::WriteGranularity::kColumn, config::WriteGranularity::kFrame,
        config::WriteGranularity::kDirtyFrame}) {
    for (const bool destroyed : {true, false}) {
      fabric::Fabric fab(geom);
      const auto& g = fab.skeleton();
      const auto net = fab.create_net("n");
      if (destroyed) fab.destroy_net(net);
      config::ConfigController ctl(fab, port, gran);
      TransactionBatcher batcher(ctl, BatchOptions{.max_ops = 8});
      const std::string what =
          to_string(gran) + (destroyed ? ", destroyed net" : ", not a PIP");

      batcher.enqueue(cell_op("good", ClbCoord{1, 1}, 0x1234));
      config::ConfigOp bad = cell_op("bad", ClbCoord{2, 2}, 0x4321);
      bad.add_edge(net, {g.out_pin({2, 2}, 0, false),
                         destroyed ? g.single({2, 2}, fabric::Dir::kE, 0)
                                   : g.in_pin({6, 6}, 0, fabric::CellPort::kI0)});
      EXPECT_THROW(batcher.enqueue(bad), ContractError) << what;
      EXPECT_EQ(batcher.pending_ops(), 1) << what;
      EXPECT_EQ(batcher.stats().ops_in, 1) << what;

      // The earlier pending op still applies, alone and fully accounted.
      EXPECT_NO_THROW(batcher.flush()) << what;
      EXPECT_EQ(batcher.stats().transactions, 1) << what;
      EXPECT_EQ(ctl.totals().ops, 1) << what;
      EXPECT_EQ(batcher.stats().frames_written, ctl.totals().frames_written)
          << what;
      EXPECT_TRUE(fab.cell({1, 1}, 0).used) << what;
      EXPECT_FALSE(fab.cell({2, 2}, 0).used) << what;
      EXPECT_NO_THROW(ctl.audit_image()) << what;
    }
  }
}

// ---- dispatch policies ------------------------------------------------------

sched::TaskArrival task(const std::string& name, int side, double start_ms,
                        double duration_ms) {
  sched::TaskArrival t;
  t.fn.name = name;
  t.fn.height = side;
  t.fn.width = side;
  t.fn.duration = SimTime::ps(static_cast<std::int64_t>(duration_ms * 1e9));
  t.arrival = SimTime::ps(static_cast<std::int64_t>(start_ms * 1e9));
  return t;
}

FleetConfig small_fleet(int devices, DispatchPolicy dispatch) {
  FleetConfig cfg;
  cfg.devices = devices;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.dispatch = dispatch;
  cfg.threads = 1;
  return cfg;
}

TEST(FleetDispatch, RoundRobinCycles) {
  FleetManager fleet(small_fleet(3, DispatchPolicy::kRoundRobin));
  for (int i = 0; i < 7; ++i)
    fleet.submit(task("t" + std::to_string(i), 2, i, 10));
  const auto& a = fleet.dispatch();
  ASSERT_EQ(a.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(a[static_cast<std::size_t>(i)], i % 3);
}

TEST(FleetDispatch, LeastLoadedPrefersEmptiestDevice) {
  FleetManager fleet(small_fleet(2, DispatchPolicy::kLeastLoaded));
  // A long-running large task loads device 0, so the next two concurrent
  // tasks go to device 1, which stays emptier even after one lands there
  // (8x8=64 vs 4x4=16 CLBs outstanding).
  fleet.submit(task("big", 8, 0, 1000));
  fleet.submit(task("a", 4, 1, 1000));
  fleet.submit(task("b", 4, 2, 1000));
  const auto& a = fleet.dispatch();
  EXPECT_EQ(a[0], 0);  // empty fleet: lowest id wins
  EXPECT_EQ(a[1], 1);
  EXPECT_EQ(a[2], 1);
}

TEST(FleetDispatch, BestFitPicksTightestDevice) {
  FleetManager fleet(small_fleet(2, DispatchPolicy::kBestFit));
  // Load device 0 down to 144-100=44 estimated free CLBs. A 6x6=36 task
  // then tight-fits device 0 (slack 8) rather than the empty device 1
  // (slack 108); least-loaded would have picked device 1.
  fleet.submit(task("big", 10, 0, 1000));
  fleet.submit(task("tight", 6, 1, 1000));
  const auto& a = fleet.dispatch();
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 0);

  FleetManager ll(small_fleet(2, DispatchPolicy::kLeastLoaded));
  ll.submit(task("big", 10, 0, 1000));
  ll.submit(task("tight", 6, 1, 1000));
  EXPECT_EQ(ll.dispatch()[1], 1);
}

TEST(FleetDispatch, BestFitFallsBackToLeastLoadedWhenNoSlack) {
  FleetManager fleet(small_fleet(2, DispatchPolicy::kBestFit));
  fleet.submit(task("big0", 11, 0, 1000));  // ties -> d0; d0 free drops to 23
  fleet.submit(task("big1", 10, 1, 1000));  // d0 slack < 0 -> d1 (slack 44)
  // 7x7 = 49 CLBs: no device has non-negative slack, so best-fit falls
  // back to least-loaded, which prefers d1 (44 free vs 23).
  fleet.submit(task("wide", 7, 2, 1000));
  const auto& a = fleet.dispatch();
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 1);
  EXPECT_EQ(a[2], 1);
}

TEST(FleetDispatch, LeastLoadedRanksNegativeFreeCorrectly) {
  // Five 11x11 = 121-CLB requests on two 144-CLB devices: estimated free
  // goes negative, and the ranking must still prefer the less-negative
  // device instead of collapsing onto one.
  FleetManager fleet(small_fleet(2, DispatchPolicy::kLeastLoaded));
  for (int i = 0; i < 5; ++i)
    fleet.submit(task("t" + std::to_string(i), 11, i, 1000));
  EXPECT_EQ(fleet.dispatch(), (std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(FleetDispatch, RoundRobinSkipsInfeasibleWithoutBurningSlot) {
  FleetManager fleet(small_fleet(3, DispatchPolicy::kRoundRobin));
  fleet.submit(task("a", 2, 0, 10));
  fleet.submit(task("huge", 13, 1, 10));  // 13 > 12-CLB grid
  fleet.submit(task("b", 2, 2, 10));
  fleet.submit(task("c", 2, 3, 10));
  const auto& a = fleet.dispatch();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], -1);
  EXPECT_EQ(a[2], 1);  // the rejection did not advance the cycle
  EXPECT_EQ(a[3], 2);
}

TEST(FleetDispatch, OnlineAdmissionIsIncremental) {
  FleetManager fleet(small_fleet(2, DispatchPolicy::kRoundRobin));
  fleet.submit(task("a", 2, 0, 10));
  const std::vector<int> first = fleet.dispatch();
  EXPECT_EQ(first, (std::vector<int>{0}));
  fleet.submit(task("b", 2, 1, 10));
  const auto& second = fleet.dispatch();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], 0);  // earlier placement never recomputed
  EXPECT_EQ(second[1], 1);  // round-robin resumes where it left off
  const auto report = fleet.run();
  EXPECT_EQ(report.completed, 2);
}

TEST(FleetDispatch, OnlineQueueEstimatesDivertLateArrivals) {
  // Both modes walk the same arrival order, and both reclaim departed
  // capacity — the online ledger additionally folds estimated on-device
  // queueing into each entry. Task "c" ties onto device 0 behind "a", so
  // online books it as busy until ~20 ms; the offline (PR 1) planner books
  // it at its arrival (2–12 ms). A task arriving at 13 ms therefore lands
  // on device 1 online, but back on device 0 offline.
  for (const auto mode : {AdmissionMode::kOnline, AdmissionMode::kOffline}) {
    FleetConfig cfg = small_fleet(2, DispatchPolicy::kLeastLoaded);
    cfg.rows = cfg.cols = 8;
    cfg.admission = mode;
    FleetManager fleet(cfg);
    fleet.submit(task("a", 8, 0, 10));
    fleet.submit(task("b", 8, 1, 10));
    fleet.submit(task("c", 8, 2, 10));
    fleet.submit(task("late", 8, 13, 10));
    const bool online = mode == AdmissionMode::kOnline;
    EXPECT_EQ(fleet.dispatch(),
              (std::vector<int>{0, 1, 0, online ? 1 : 0}))
        << to_string(mode);
  }
}

TEST(FleetDispatch, RebalancerMigratesQueuedRequestOffBackloggedDevice) {
  // Three full-device tasks on two 8x8 devices: "c" lands on device 0
  // behind "a" (est_start 100 ms, queued-but-not-started). With device 0's
  // backlog (~148 ms) over the threshold and device 1 strictly less loaded,
  // the rebalancer migrates "c"; with rebalancing off it stays put.
  auto dispatch_with = [&](double threshold) {
    FleetConfig cfg = small_fleet(2, DispatchPolicy::kLeastLoaded);
    cfg.rows = cfg.cols = 8;
    cfg.rebalance_backlog_ms = threshold;
    FleetManager fleet(cfg);
    fleet.submit(task("a", 8, 0, 100));
    fleet.submit(task("b", 8, 1, 60));
    fleet.submit(task("c", 8, 2, 50));
    std::vector<int> a = fleet.dispatch();
    return std::pair{a, fleet.rebalanced_requests()};
  };

  const auto [off, off_moves] = dispatch_with(0.0);
  EXPECT_EQ(off, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(off_moves, 0);

  const auto [on, on_moves] = dispatch_with(120.0);
  EXPECT_EQ(on, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(on_moves, 1);

  // And the full run reports the migration in every telemetry surface.
  FleetConfig cfg = small_fleet(2, DispatchPolicy::kLeastLoaded);
  cfg.rows = cfg.cols = 8;
  cfg.rebalance_backlog_ms = 120.0;
  FleetManager fleet(cfg);
  fleet.submit(task("a", 8, 0, 100));
  fleet.submit(task("b", 8, 1, 60));
  fleet.submit(task("c", 8, 2, 50));
  const auto report = fleet.run();
  EXPECT_EQ(report.rebalanced, 1);
  EXPECT_EQ(report.aggregate.counter_value("rebalanced_requests"), 1);
  EXPECT_NE(report.to_json().find("\"rebalanced\": 1"), std::string::npos);
  EXPECT_EQ(report.completed, 3);
}

TEST(FleetDispatch, ImpossibleRequestRejectedAtAdmission) {
  FleetManager fleet(small_fleet(2, DispatchPolicy::kRoundRobin));
  fleet.submit(task("huge", 13, 0, 10));  // 13 > 12-CLB grid
  fleet.submit(task("ok", 2, 0, 10));
  const auto& a = fleet.dispatch();
  EXPECT_EQ(a[0], -1);
  EXPECT_EQ(a[1], 0);
  const auto report = fleet.run();
  EXPECT_EQ(report.rejected, 1);
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.aggregate.counter_value("admission_rejected"), 1);
}

TEST(FleetDispatch, OversubscribedFleetStillDispatches) {
  // The occupancy ledger has no capacity feedback, so estimated free CLBs
  // can go negative on every device; dispatch must still pick one
  // (regression: used to index ledger[-1]).
  for (auto policy : {DispatchPolicy::kLeastLoaded, DispatchPolicy::kBestFit}) {
    FleetManager fleet(small_fleet(2, policy));
    for (int i = 0; i < 60; ++i)
      fleet.submit(task("t" + std::to_string(i), 10, 0, 1000));
    const auto& a = fleet.dispatch();
    for (int d : a) EXPECT_GE(d, 0);
  }
}

// ---- fleet runs -------------------------------------------------------------

std::vector<sched::TaskArrival> workload(int n, std::uint64_t seed) {
  sched::RandomTaskParams p;
  p.task_count = n;
  p.max_side = 8;
  p.seed = seed;
  return sched::random_tasks(p);
}

TEST(Fleet, BatchingReducesTransactionsOnSameWorkload) {
  FleetConfig cfg = small_fleet(4, DispatchPolicy::kLeastLoaded);
  FleetConfig unbatched_cfg = cfg;
  unbatched_cfg.batch.max_ops = 1;

  FleetManager batched(cfg);
  FleetManager unbatched(unbatched_cfg);
  batched.submit_all(workload(120, 5));
  unbatched.submit_all(workload(120, 5));
  const auto rb = batched.run();
  const auto ru = unbatched.run();

  // Identical schedule either way (batching is config-port accounting).
  EXPECT_EQ(rb.completed, ru.completed);
  EXPECT_EQ(rb.makespan, ru.makespan);

  const auto txn = rb.aggregate.counter_value("config_transactions");
  const auto txn_baseline =
      rb.aggregate.counter_value("config_transactions_unbatched");
  EXPECT_LT(txn, txn_baseline);
  // The unbatched run's actual transactions equal the batched run's
  // baseline accounting: same workload, one op per transaction.
  EXPECT_EQ(ru.aggregate.counter_value("config_transactions"), txn_baseline);
  EXPECT_GT(rb.aggregate.counter_value("frame_writes"), 0);
}

TEST(Fleet, SeededRunIsDeterministicAcrossThreadCounts) {
  FleetConfig cfg = small_fleet(4, DispatchPolicy::kBestFit);
  cfg.threads = 1;
  FleetConfig cfg4 = cfg;
  cfg4.threads = 4;

  FleetManager a(cfg);
  FleetManager b(cfg4);
  a.submit_all(workload(100, 42));
  b.submit_all(workload(100, 42));
  const std::string ja = a.run().to_json();
  const std::string jb = b.run().to_json();
  EXPECT_EQ(ja, jb);

  // And a different seed changes the run.
  FleetManager c(cfg);
  c.submit_all(workload(100, 43));
  EXPECT_NE(ja, c.run().to_json());
}

TEST(Fleet, SpreadsWorkAndReportsTelemetry) {
  FleetConfig cfg = small_fleet(4, DispatchPolicy::kLeastLoaded);
  FleetManager fleet(cfg);
  fleet.submit_all(workload(150, 9));
  const auto report = fleet.run();

  EXPECT_EQ(report.admitted, 150);
  EXPECT_EQ(report.completed + report.rejected, 150);
  EXPECT_GT(report.completed, 0);
  EXPECT_GT(report.throughput_tasks_per_s(), 0.0);
  ASSERT_EQ(report.devices.size(), 4u);
  for (const auto& d : report.devices) {
    EXPECT_GT(d.telemetry.counter_value("tasks_admitted"), 0)
        << "device " << d.device << " got no work";
  }
  // Histogram sample counts line up with completions.
  std::int64_t wait_samples = 0;
  for (const auto& d : report.devices)
    wait_samples += d.telemetry.has_histogram("queue_wait_ms")
                        ? d.telemetry.counter_value("tasks_completed")
                        : 0;
  EXPECT_EQ(wait_samples, report.completed);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"throughput_tasks_per_s\""), std::string::npos);
  EXPECT_NE(json.find("\"devices\": ["), std::string::npos);
}

TEST(Fleet, ConfigTransactionCountersMatchBatcherStats) {
  FleetConfig cfg = small_fleet(3, DispatchPolicy::kLeastLoaded);
  FleetManager fleet(cfg);
  fleet.submit_all(workload(100, 7));
  const auto report = fleet.run();

  std::int64_t txn = 0, txn_unbatched = 0;
  for (const auto& d : report.devices) {
    // The transaction counters carry the batcher's transaction stats — not
    // column writes, which have their own counters (regression: these used
    // to be fed column_writes / unbatched_column_writes).
    EXPECT_EQ(d.telemetry.counter_value("config_transactions"),
              d.batch.transactions);
    EXPECT_EQ(d.telemetry.counter_value("config_transactions_unbatched"),
              d.batch.ops_in);
    EXPECT_EQ(d.telemetry.counter_value("column_writes"),
              d.batch.column_writes);
    EXPECT_EQ(d.telemetry.counter_value("column_writes_unbatched"),
              d.batch.unbatched_column_writes);
    // batched <= unbatched, for transactions and for port time.
    EXPECT_LE(d.batch.transactions, d.batch.ops_in);
    EXPECT_LE(d.batch.column_writes, d.batch.unbatched_column_writes);
    EXPECT_LE(d.batch.time, d.batch.unbatched_time);
    txn += d.batch.transactions;
    txn_unbatched += d.batch.ops_in;
  }
  EXPECT_GT(txn, 0);
  EXPECT_LE(txn, txn_unbatched);
  EXPECT_EQ(report.aggregate.counter_value("config_transactions"), txn);
  EXPECT_EQ(report.aggregate.counter_value("config_transactions_unbatched"),
            txn_unbatched);

  // The JSON totals agree with the counters.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"config_transactions\": " + std::to_string(txn)),
            std::string::npos);
  EXPECT_NE(json.find("\"config_transactions_unbatched\": " +
                      std::to_string(txn_unbatched)),
            std::string::npos);
}

TEST(Fleet, AdmittedCompletedRejectedIdentity) {
  // One geometrically-impossible request (admission reject) plus an
  // overload of full-device tasks with a short queue timeout (device
  // rejects): the chosen counting identity must hold —
  //   admitted == completed + rejected - admission_rejected.
  FleetConfig cfg = small_fleet(2, DispatchPolicy::kLeastLoaded);
  cfg.rows = cfg.cols = 8;
  cfg.sched.max_wait = SimTime::ms(3);
  FleetManager fleet(cfg);
  fleet.submit(task("impossible", 9, 0, 10));
  for (int i = 0; i < 12; ++i)
    fleet.submit(task("t" + std::to_string(i), 8, 0.1 * i, 50));
  const auto report = fleet.run();

  const auto adm_rej = report.aggregate.counter_value("admission_rejected");
  EXPECT_EQ(adm_rej, 1);
  EXPECT_GT(report.rejected, adm_rej);  // device-level rejects did happen
  EXPECT_EQ(report.admitted, report.completed + report.rejected - adm_rej);
  // Aggregate counters implement the same definition: tasks_admitted is
  // what dispatch handed to devices (device rejects included), so it
  // equals tasks_completed + tasks_rejected.
  EXPECT_EQ(report.aggregate.counter_value("tasks_admitted"), report.admitted);
  EXPECT_EQ(report.aggregate.counter_value("tasks_completed"),
            report.completed);
  EXPECT_EQ(report.aggregate.counter_value("tasks_rejected"),
            report.rejected - adm_rej);
}

TEST(Fleet, OnlineRebalancingRunIsDeterministic) {
  sched::WorkloadParams wp;
  wp.pattern = sched::ArrivalPattern::kBursty;
  wp.task_count = 120;
  wp.mean_interarrival_ms = 0.8;
  wp.seed = 11;
  const auto trace = sched::WorkloadGenerator(wp).generate();

  FleetConfig cfg = small_fleet(4, DispatchPolicy::kLeastLoaded);
  cfg.rebalance_backlog_ms = 80.0;
  FleetConfig cfg4 = cfg;
  cfg4.threads = 4;

  FleetManager a(cfg);
  FleetManager b(cfg4);
  a.submit_all(trace);
  b.submit_all(trace);
  const auto ra = a.run();
  EXPECT_GT(ra.rebalanced, 0);
  EXPECT_EQ(ra.to_json(), b.run().to_json());
}

TEST(Fleet, ApplicationChainsStayOnOneDevice) {
  FleetConfig cfg = small_fleet(3, DispatchPolicy::kRoundRobin);
  FleetManager fleet(cfg);
  sched::AppSpec app;
  app.name = "chain";
  for (int f = 0; f < 3; ++f) {
    sched::FunctionSpec fn;
    fn.name = "chain.f" + std::to_string(f);
    fn.height = fn.width = 3;
    fn.duration = SimTime::ms(5);
    app.functions.push_back(fn);
  }
  fleet.submit(app);
  const auto report = fleet.run();
  EXPECT_EQ(report.completed, 3);
  // All three functions ran on device 0 (round-robin, single request).
  EXPECT_EQ(report.devices[0].telemetry.counter_value("tasks_completed"), 3);
  EXPECT_EQ(report.devices[1].telemetry.counter_value("tasks_admitted"), 0);
}

}  // namespace
}  // namespace relogic::runtime
