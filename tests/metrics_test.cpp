// Tests for the time-series metrics plane (obs::MetricsTimeline): histogram
// quantile edge cases, windowed series derived from snapshot deltas, the
// fleet fold, exporter shapes, and the determinism contract (DESIGN.md
// §7.5) — same seed + config produces byte-identical metrics documents
// regardless of repeat runs or worker-thread count.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "relogic/common/audit.hpp"
#include "relogic/common/error.hpp"
#include "relogic/obs/prom_export.hpp"
#include "relogic/obs/timeline.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/runtime/telemetry.hpp"
#include "relogic/sched/workload.hpp"

namespace relogic::obs {
namespace {

using runtime::Histogram;
using runtime::Telemetry;

SimTime ms(double v) {
  return SimTime::ps(static_cast<std::int64_t>(v * 1e9));
}

// ---- Histogram::quantile edge cases -----------------------------------------

TEST(HistogramQuantile, EmptyHistogramReportsZeroNotGarbage) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramQuantile, SingleSampleEveryQuantileIsThatSample) {
  Histogram h;
  h.observe(3.0);
  // Conservative estimate: the bucket upper bound, clamped to the true max.
  EXPECT_EQ(h.quantile(0.0), 3.0);
  EXPECT_EQ(h.quantile(0.5), 3.0);
  EXPECT_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramQuantile, AllObservationsInOverflowBucketClampToMax) {
  Histogram h(std::vector<double>{1.0, 2.0});
  h.observe(100.0);
  h.observe(250.0);
  // Every sample is past the last bound; the estimate must not invent a
  // finite bucket bound below the data.
  EXPECT_EQ(h.quantile(0.5), 250.0);
  EXPECT_EQ(h.quantile(0.99), 250.0);
}

TEST(HistogramQuantile, QuantileNeverExceedsMaxNorPrecedesData) {
  Histogram h(std::vector<double>{1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(5.5);
  h.observe(50.0);
  EXPECT_EQ(h.quantile(0.25), 1.0);   // first observation's bucket bound
  EXPECT_EQ(h.quantile(0.75), 10.0);  // third observation's bucket bound
  EXPECT_EQ(h.quantile(1.0), 50.0);   // clamped to the true maximum
}

// ---- windowed quantiles from bucket deltas ----------------------------------

TEST(WindowQuantile, BucketDeltaQuantilesSeeOnlyTheWindow) {
  Telemetry reg;
  Histogram& h = reg.histogram("lat_ms", {1.0, 10.0, 100.0});
  MetricsTimeline tl;
  h.observe(0.5);  // window 1: one fast observation
  tl.record(ms(1), reg);
  for (int i = 0; i < 9; ++i) h.observe(50.0);  // window 2: all slow
  tl.record(ms(2), reg);

  // Cumulatively p50 is still dominated by the slow samples, but window 1
  // must report the fast bucket and window 2 the slow one.
  EXPECT_EQ(tl.window_quantile(0, "lat_ms", 0.5), std::optional<double>(1.0));
  EXPECT_EQ(tl.window_quantile(1, "lat_ms", 0.5), std::optional<double>(100.0));
  EXPECT_EQ(tl.window_hist_count(0, "lat_ms"), 1);
  EXPECT_EQ(tl.window_hist_count(1, "lat_ms"), 9);
}

TEST(WindowQuantile, EmptyWindowReportsNoDataNotStaleValues) {
  Telemetry reg;
  reg.histogram("lat_ms").observe(5.0);
  MetricsTimeline tl;
  tl.record(ms(1), reg);
  tl.record(ms(2), reg);  // nothing new observed in this window

  EXPECT_EQ(tl.window_hist_count(1, "lat_ms"), 0);
  EXPECT_EQ(tl.window_quantile(1, "lat_ms", 0.5), std::nullopt);
  // The JSON exporter must omit the window quantile keys, not carry the
  // cumulative value forward.
  const std::string json = tl.to_json();
  const std::size_t second_row = json.find("\"t_ms\": 2");
  ASSERT_NE(second_row, std::string::npos);
  EXPECT_EQ(json.find("\"window_p50\"", second_row), std::string::npos);
  EXPECT_NE(json.find("\"window_count\": 0", second_row), std::string::npos);
}

TEST(WindowQuantile, OverflowOnlyWindowReportsLargestFiniteBound) {
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::int64_t> counts{0, 0, 4};  // all overflow
  EXPECT_EQ(runtime::quantile_from_buckets(bounds, counts, 0.5),
            std::optional<double>(2.0));
  EXPECT_EQ(runtime::quantile_from_buckets(bounds, {0, 0, 0}, 0.5),
            std::nullopt);
}

// ---- counter windows --------------------------------------------------------

TEST(MetricsTimeline, CounterDeltasAndRatesPerWindow) {
  Telemetry reg;
  MetricsTimeline tl;
  reg.counter("done").add(4);
  tl.record(ms(2), reg);
  reg.counter("done").add(6);
  tl.record(ms(4), reg);

  EXPECT_EQ(tl.counter_delta(0, "done"), 4);  // row 0: vs zero baseline
  EXPECT_EQ(tl.counter_delta(1, "done"), 6);
  EXPECT_DOUBLE_EQ(tl.counter_rate_per_s(0, "done"), 4 / 0.002);
  EXPECT_DOUBLE_EQ(tl.counter_rate_per_s(1, "done"), 6 / 0.002);
}

TEST(MetricsTimeline, SameInstantSampleReplacesThePreviousRow) {
  Telemetry reg;
  MetricsTimeline tl;
  reg.counter("done").add(1);
  tl.record(ms(5), reg);
  reg.counter("done").add(1);
  tl.record(ms(5), reg);  // closing sample on the same tick instant
  ASSERT_EQ(tl.size(), 1u);
  EXPECT_EQ(tl.samples().back().metrics.counter_value("done"), 2);
  EXPECT_NO_THROW(tl.audit("replaced-row"));
}

// ---- fleet fold -------------------------------------------------------------

TEST(MetricsFold, UnionOfTimesWithCarryForwardStaysMonotone) {
  Telemetry a, b;
  MetricsTimeline ta, tb;
  a.counter("done").add(1);
  ta.record(ms(1), a);
  a.counter("done").add(1);
  ta.record(ms(3), a);  // device A ends at 3 ms
  b.counter("done").add(5);
  tb.record(ms(2), b);  // device B samples off A's grid, ends at 2 ms

  const MetricsTimeline agg = MetricsTimeline::fold({&ta, &tb});
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_EQ(agg.samples()[0].t, ms(1));
  EXPECT_EQ(agg.samples()[0].metrics.counter_value("done"), 1);  // B not yet
  EXPECT_EQ(agg.samples()[1].metrics.counter_value("done"), 6);
  // Past B's makespan its last value carries forward — no sawtooth.
  EXPECT_EQ(agg.samples()[2].metrics.counter_value("done"), 7);
  EXPECT_NO_THROW(agg.audit("fold"));
  // Sweep position is a per-device notion; aggregate rows never carry one.
  for (const auto& row : agg.samples()) EXPECT_EQ(row.sweep_col, -1);
}

TEST(MetricsFold, SumsGaugesAndBucketsAndCarriesAFinishedDeviceForward) {
  const std::vector<double> bounds{1.0, 10.0};
  Telemetry a, b;
  MetricsTimeline ta, tb;
  a.gauge("util").set(0.5);
  a.histogram("lat_ms", bounds).observe(0.5);
  ta.record(ms(1), a);  // device A ends at 1 ms
  b.gauge("util").set(1.0);
  b.gauge("util").set(0.0);
  b.histogram("lat_ms", bounds).observe(5.0);
  b.histogram("lat_ms", bounds).observe(50.0);
  tb.record(ms(2), b);

  const MetricsTimeline agg = MetricsTimeline::fold({&ta, &tb});
  ASSERT_EQ(agg.size(), 2u);
  // Past A's makespan its gauge and histogram keep contributing.
  const runtime::Telemetry& last = agg.samples()[1].metrics;
  const runtime::Gauge& util = last.gauges().at("util");
  EXPECT_DOUBLE_EQ(util.sum(), 1.5);
  EXPECT_EQ(util.samples(), 3);
  const Histogram& lat = last.histograms().at("lat_ms");
  EXPECT_EQ(lat.bucket_counts(), (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(lat.count(), 3);
  EXPECT_DOUBLE_EQ(lat.sum(), 55.5);
  EXPECT_EQ(agg.window_hist_count(1, "lat_ms"), 2);
  EXPECT_NO_THROW(agg.audit("fold"));
}

TEST(MetricsFold, RefusesHistogramsWithMismatchedBounds) {
  Telemetry a, b;
  MetricsTimeline ta, tb;
  a.histogram("lat_ms", {1.0, 10.0}).observe(0.5);
  ta.record(ms(1), a);
  b.histogram("lat_ms", {1.0, 100.0}).observe(0.5);
  tb.record(ms(1), b);
  try {
    (void)MetricsTimeline::fold({&ta, &tb});
    FAIL() << "fold merged histograms with different bucket bounds";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lat_ms"), std::string::npos)
        << e.what();
  }
}

TEST(MetricsFold, QuarantineTimesTagTheAggregateRows) {
  Telemetry a;
  MetricsTimeline ta;
  ta.record(ms(1), a);
  ta.record(ms(5), a);
  const MetricsTimeline agg = MetricsTimeline::fold({&ta}, {ms(4), ms(1)});
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg.samples()[0].quarantined_devices, 1);
  EXPECT_EQ(agg.samples()[1].quarantined_devices, 2);
}

// ---- audit ------------------------------------------------------------------

TEST(MetricsAudit, CatchesACounterThatRanBackwards) {
  Telemetry a, b;
  a.counter("done").add(5);
  b.counter("done").add(3);
  MetricsTimeline tl;
  tl.record(ms(1), a);
  tl.record(ms(2), b);  // value dropped 5 -> 3
  EXPECT_THROW(tl.audit("backwards"), AuditError);
}

// ---- exporters --------------------------------------------------------------

TEST(MetricsExport, CsvHasHeaderAndOneLinePerSample) {
  Telemetry reg;
  MetricsTimeline tl;
  reg.counter("done").add(2);
  reg.gauge("util").set(0.5);
  reg.histogram("lat_ms").observe(1.0);
  tl.record(ms(1), reg);
  reg.counter("done").add(1);
  tl.record(ms(2), reg);

  const std::string csv = tl.to_csv();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 samples
  EXPECT_EQ(csv.rfind("t_ms,sweep_col,quarantined_devices,", 0), 0u);
  EXPECT_NE(csv.find("done,done.rate_per_s"), std::string::npos);
  EXPECT_NE(csv.find("lat_ms.window_p95"), std::string::npos);
}

TEST(MetricsExport, PrometheusRendersCountersGaugesAndBuckets) {
  Telemetry reg;
  MetricsTimeline tl;
  reg.counter("tasks_completed").add(3);
  reg.gauge("utilization").set(0.25);
  reg.histogram("queue_wait_ms", {1.0, 10.0}).observe(0.5);
  tl.record(ms(7), reg, /*sweep_col=*/2, /*quarantined_devices=*/1);

  const std::string prom = to_prometheus(tl.samples().back());
  EXPECT_NE(prom.find("# TYPE relogic_tasks_completed counter\n"
                      "relogic_tasks_completed 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("relogic_utilization 0.25"), std::string::npos);
  EXPECT_NE(prom.find("relogic_queue_wait_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("relogic_queue_wait_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("relogic_queue_wait_ms_count 1"), std::string::npos);
  EXPECT_NE(prom.find("relogic_sweep_col 2"), std::string::npos);
  EXPECT_NE(prom.find("relogic_quarantined_devices 1"), std::string::npos);
}

// ---- fleet integration + determinism contract -------------------------------

runtime::FleetConfig metrics_fleet_config() {
  runtime::FleetConfig cfg;
  cfg.devices = 3;
  cfg.rows = cfg.cols = 12;
  cfg.admission = runtime::AdmissionMode::kOnline;
  cfg.sched.policy = sched::ManagementPolicy::kTransparent;
  cfg.health.selftest.enabled = true;
  cfg.health.fault_rate = 0.002;
  cfg.health.fault_seed = 7;
  cfg.metrics.sample_interval_ms = 2.0;
  return cfg;
}

std::vector<sched::TaskArrival> metrics_workload() {
  sched::WorkloadParams wp;
  wp.pattern = sched::ArrivalPattern::kPoisson;
  wp.task_count = 60;
  wp.mean_interarrival_ms = 0.8;
  wp.seed = 7;
  wp.max_side = 10;
  return sched::WorkloadGenerator(wp).generate();
}

runtime::FleetReport metrics_fleet_run(int threads) {
  runtime::FleetConfig cfg = metrics_fleet_config();
  cfg.threads = threads;
  runtime::FleetManager fleet(cfg);
  fleet.submit_all(metrics_workload());
  return fleet.run();
}

TEST(FleetMetrics, SameSeedSameConfigIsByteIdentical) {
  EXPECT_EQ(metrics_fleet_run(1).metrics_json(),
            metrics_fleet_run(1).metrics_json());
}

TEST(FleetMetrics, ThreadCountDoesNotChangeTheDocument) {
  EXPECT_EQ(metrics_fleet_run(1).metrics_json(),
            metrics_fleet_run(4).metrics_json());
}

TEST(FleetMetrics, TimelinesCoverTheRunAndMatchEndOfRunTelemetry) {
  const runtime::FleetReport report = metrics_fleet_run(2);
  ASSERT_FALSE(report.timeline.empty());
  EXPECT_GE(report.timeline.size(), 3u);
  // The folded closing row agrees with the aggregate telemetry on every
  // counter both planes observe (the per-device audit enforces the same
  // identity per device when audits are on).
  const auto& last = report.timeline.samples().back();
  EXPECT_EQ(last.t, report.makespan);
  for (const char* name : {"tasks_admitted", "rearrangement_moves",
                           "swept_clbs", "tested_clbs"}) {
    // A live counter that never fired is simply absent from the timeline;
    // absent means zero (the audit applies the same reading).
    EXPECT_EQ(last.metrics.counter_value(name),
              report.aggregate.counter_value(name))
        << name;
  }
  // Per-device timelines carry the sweep position; at least one sampled row
  // should have caught the rover mid-sweep.
  bool saw_sweep = false;
  for (const auto& d : report.devices)
    for (const auto& row : d.timeline.samples())
      saw_sweep = saw_sweep || row.sweep_col >= 0;
  EXPECT_TRUE(saw_sweep);
  const std::string doc = report.metrics_json();
  EXPECT_EQ(doc.rfind("{\n  \"schema\": \"relogic.metrics.v1\"", 0), 0u);
  EXPECT_NE(doc.find("\"sample_interval_ms\": 2"), std::string::npos);
}

TEST(FleetMetrics, TelemetryDoesNotDependOnTheMetricsPlane) {
  // The telemetry is the scheduler's event registry whether or not a
  // sampler snapshots it: neither the sampler's area gauges nor the keys
  // it sees may leak into the report.
  const auto run = [](double interval_ms) {
    runtime::FleetConfig cfg = metrics_fleet_config();
    cfg.health.fault_rate = 0.02;
    cfg.health.quarantine_threshold = 0.05;
    cfg.metrics.sample_interval_ms = interval_ms;
    runtime::FleetManager fleet(cfg);
    fleet.submit_all(metrics_workload());
    return fleet.run();
  };
  const runtime::FleetReport off = run(0.0);
  const runtime::FleetReport on = run(2.0);
  ASSERT_GT(off.quarantined, 0);
  ASSERT_GT(off.faulty_cells, 0);
  EXPECT_TRUE(off.timeline.empty());
  EXPECT_FALSE(on.timeline.empty());
  EXPECT_EQ(off.to_json(), on.to_json());
}

TEST(FleetMetrics, DisabledPlaneLeavesReportsEmpty) {
  runtime::FleetConfig cfg = metrics_fleet_config();
  cfg.metrics.sample_interval_ms = 0.0;
  runtime::FleetManager fleet(cfg);
  fleet.submit_all(metrics_workload());
  const runtime::FleetReport report = fleet.run();
  EXPECT_TRUE(report.timeline.empty());
  for (const auto& d : report.devices) EXPECT_TRUE(d.timeline.empty());
  EXPECT_EQ(report.metrics_json(), "");
}

}  // namespace
}  // namespace relogic::obs
