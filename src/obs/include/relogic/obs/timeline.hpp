// obs::MetricsTimeline — deterministic time-series plane over the
// runtime::Telemetry registries.
//
// A single end-of-run registry snapshot cannot show the behaviour the paper
// argues about: a roving self-test window sweeping a live device while
// requests keep arriving. The timeline records *sampled* registry snapshots
// on the simulated clock: a TimelineSampler copies the registry the
// discrete-event run writes as events execute (the run's telemetry) at a
// fixed sample interval (scheduled as DES tick events, so sample times are
// part of the deterministic event order, never wall time). Every row holds
// a runtime::Telemetry, the same registry type the events were counted in.
// Derived series — per-window counter deltas/rates and sliding-window
// histogram quantiles from bucket-count deltas — are computed at export
// time from consecutive rows, so the stored form stays a plain cumulative
// registry and fleet folding is Telemetry::merge row by row.
//
// Determinism contract (DESIGN.md §7.5): every sample is taken on the
// simulated clock inside one device's single-threaded DES run; the
// fleet-aggregate timeline is folded *after* the worker pool joins, in
// device-id order, on the caller's thread. Same seed + config therefore
// produces byte-identical exports regardless of worker-thread count —
// exactly the contract the trace exporter already keeps.
//
// Threading contract (DESIGN.md §8.1): a MetricsTimeline and its sampler
// are thread-confined — each fleet worker fills the timeline inside its own
// DeviceReport. Nothing here locks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "relogic/common/time.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/runtime/telemetry.hpp"

namespace relogic::obs {

/// Schema tag stamped into every metrics JSON document. Bump on any
/// incompatible change to the sample shape.
inline constexpr const char* kMetricsSchema = "relogic.metrics.v1";

class MetricsTimeline {
 public:
  /// One cumulative registry snapshot at simulated time t. Windowed series
  /// (deltas, rates, window quantiles) are derived against the previous
  /// snapshot at export/query time.
  struct Snapshot {
    SimTime t = SimTime::zero();
    /// Active self-test sweep window column at sample time (-1: no sweep,
    /// and always -1 on fleet-aggregate rows — the sweep position is a
    /// per-device notion).
    int sweep_col = -1;
    /// Devices quarantined by the admission plane by time t (fleet-
    /// aggregate rows; 0 on per-device timelines).
    int quarantined_devices = 0;
    runtime::Telemetry metrics;
  };

  /// Appends `metrics` as the row at time t. Samples must arrive in
  /// non-decreasing time order; a sample at the same t as the previous one
  /// replaces it (the final end-of-run sample supersedes a tick that landed
  /// on the same instant).
  void record(SimTime t, runtime::Telemetry metrics, int sweep_col = -1,
              int quarantined_devices = 0);

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }
  const std::vector<Snapshot>& samples() const { return samples_; }

  // ---- derived windowed series (row vs. its predecessor; row 0 is
  // measured against an all-zero baseline at t = 0) ------------------------
  std::int64_t counter_delta(std::size_t row, const std::string& name) const;
  double counter_rate_per_s(std::size_t row, const std::string& name) const;
  std::int64_t window_hist_count(std::size_t row,
                                 const std::string& name) const;
  /// Sliding-window quantile from the bucket-count deltas between
  /// consecutive snapshots. nullopt when the window saw no new
  /// observations — "no data", never a stale cumulative value.
  std::optional<double> window_quantile(std::size_t row,
                                        const std::string& name,
                                        double q) const;

  /// Folds per-device timelines into one fleet-aggregate timeline: the
  /// union of all sample times, each row the Telemetry::merge of every
  /// device's latest snapshot at or before that time (carry-forward, so
  /// counters stay monotone after a device's run ends). Call in device-id
  /// order after the worker pool joins — that ordering is the determinism
  /// contract.
  /// `quarantine_times` (admission-clock instants, any order) drive the
  /// quarantined_devices tag on each aggregate row.
  static MetricsTimeline fold(const std::vector<const MetricsTimeline*>& parts,
                              std::vector<SimTime> quarantine_times = {});

  /// Deterministic JSON timeline object (JsonWriter number formatting).
  /// `indent` spaces are applied to every line after the first, matching
  /// Telemetry::to_json nesting.
  std::string to_json(int indent = 0) const;
  /// The same object, appended through `w`. Walks each row once, merging
  /// its sorted metric maps against the previous row's.
  void to_json(JsonWriter& w, int indent) const;
  /// CSV for plotting: one row per sample, one column block per metric
  /// (union of names across all samples; windows with no data render empty
  /// quantile cells).
  std::string to_csv() const;

  /// Cross-checks the series invariants: non-decreasing sample times,
  /// monotone counters and histogram counts, gauge sample counts that never
  /// shrink, and Telemetry::audit on every row. Throws AuditError naming
  /// `where` on the first violation.
  void audit(const std::string& where) const;

 private:
  const Snapshot* prev(std::size_t row) const {
    return row > 0 && row < samples_.size() ? &samples_[row - 1] : nullptr;
  }
  /// Simulated seconds since the previous row (since t = 0 for row 0).
  double window_s(std::size_t row) const;
  std::vector<Snapshot> samples_;
};

/// Samples a DES run's telemetry registry into a MetricsTimeline. The
/// scheduler's engine calls sample() on metric tick events with its
/// registry and the area state at that instant. The area gauges
/// (utilization, fragmentation) accumulate here, sampler-side, and are
/// merged into each copied row: they reach the timeline rows but never the
/// run's telemetry. When a trace meter track is attached, every sample
/// additionally emits one 'C' counter event per counter, so Perfetto shows
/// curves instead of a single end-of-run step.
class TimelineSampler {
 public:
  /// `out` receives the snapshots and must outlive the sampler. `interval`
  /// is the tick period on the simulated clock (must be > 0 when the
  /// sampler is handed to a scheduler).
  TimelineSampler(MetricsTimeline* out, SimTime interval)
      : out_(out), interval_(interval) {}

  SimTime interval() const { return interval_; }

  /// Attaches a trace counter lane (single-writer: the thread running the
  /// DES run; a default handle disables the emission).
  void set_meter(TraceTrack meter) { meter_ = meter; }

  void sample(SimTime t, const runtime::Telemetry& events, double utilization,
              double fragmentation, int sweep_col = -1);

 private:
  MetricsTimeline* out_;
  SimTime interval_;
  runtime::Telemetry area_;  ///< the sampled area gauges
  TraceTrack meter_;
};

/// Schema-versioned metrics document: the aggregate timeline plus optional
/// per-device timelines (device id, timeline), in the order given.
std::string metrics_json_document(
    const MetricsTimeline& aggregate,
    const std::vector<std::pair<int, const MetricsTimeline*>>& devices,
    double sample_interval_ms);

}  // namespace relogic::obs
