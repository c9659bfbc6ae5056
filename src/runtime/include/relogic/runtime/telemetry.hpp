// Telemetry: counters, gauges and latency histograms for the fleet runtime.
//
// Mirrors the per-component instrumentation style of discrete-event
// simulators (ns-3's simulator-impl counters): every metric is owned by a
// registry, updated on the hot path with plain integer arithmetic, and
// exported once at the end of a run as deterministic JSON — two runs with
// the same seed produce byte-identical exports, which is what makes fleet
// runs diffable across machines and PRs.
//
// Metrics are keyed by name. Registries merge: per-device registries are
// folded into one fleet-wide aggregate (counters add, histograms add
// bucket-wise, gauges average).
//
// Threading contract: a Telemetry registry is thread-confined. Each fleet
// worker fills the registry inside its own DeviceReport; the fold into the
// fleet aggregate happens after the worker pool joins, on the caller's
// thread. Nothing here locks, and nothing here may be shared across threads
// while being written (DESIGN.md §8.1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace relogic {
class JsonWriter;
}

namespace relogic::runtime {

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Sampled scalar reporting the mean over its samples. `set` *accumulates*
/// a sample: recording two samples on one registry and recording them on
/// two registries then merging report the same mean/count. (It used to
/// overwrite — last-write-wins before a merge, mean after — which silently
/// discarded earlier samples; the accumulate semantics make the two paths
/// agree.)
class Gauge {
 public:
  void set(double v) {
    sum_ += v;
    ++samples_;
  }
  void merge(const Gauge& other) {
    sum_ += other.sum_;
    samples_ += other.samples_;
  }
  double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
  double sum() const { return sum_; }
  int samples() const { return samples_; }

 private:
  double sum_ = 0.0;
  int samples_ = 0;
};

/// Fixed-bucket latency histogram. Bucket i counts observations
/// <= bounds[i] (and greater than bounds[i-1]); one implicit overflow
/// bucket catches the rest. Bounds are in the metric's own unit
/// (milliseconds for every latency metric in the fleet runtime).
class Histogram {
 public:
  /// Default bounds: 1-2-5 decades from 10 us to 10 s, in ms.
  static std::vector<double> default_latency_bounds_ms();

  Histogram() : Histogram(default_latency_bounds_ms()) {}
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / count_ : 0.0; }
  /// Quantile estimate: upper bound of the bucket holding the q-th
  /// observation (conservative; exact for values on bucket boundaries),
  /// clamped to the largest observation.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; back() is the overflow bucket.
  const std::vector<std::int64_t>& bucket_counts() const { return counts_; }

  /// Adds another histogram's observations. Bounds must be identical.
  void merge(const Histogram& other);

  /// Cross-checks the internal invariants: one bucket per bound plus the
  /// overflow bucket, count == sum of bucket counts, ordered min/max and a
  /// finite sum whenever any observation was recorded. Throws AuditError
  /// (common/audit.hpp) naming `what` on the first violation. Always
  /// compiled; periodic call sites are gated on audit_enabled().
  void audit(const std::string& what) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1 entries
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Conservative quantile over a plain bucket-count vector laid out like
/// Histogram::bucket_counts() (e.g. the bucket deltas of a time window):
/// the upper bound of the bucket holding the q-th observation, or the
/// largest finite bound when that is the overflow bucket
/// (Prometheus-style). nullopt when the counts sum to zero.
std::optional<double> quantile_from_buckets(
    const std::vector<double>& bounds,
    const std::vector<std::int64_t>& counts, double q);

/// Named registry of metrics with deterministic JSON export.
class Telemetry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  std::int64_t counter_value(const std::string& name) const;
  bool has_histogram(const std::string& name) const {
    return histograms_.contains(name);
  }

  /// Read-only views for exporters (e.g. trace counter tracks); std::map,
  /// so iteration order is deterministic.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Folds another registry into this one (counters add, histograms merge,
  /// gauges average). Throws naming the histogram when two histograms of
  /// one name have different bucket bounds.
  void merge(const Telemetry& other);

  /// Audits every metric in the registry (see Histogram::audit; gauges must
  /// carry a non-negative sample count). `where` prefixes the failure
  /// message so fleet audits can name the offending device.
  void audit(const std::string& where) const;

  /// Deterministic JSON object (keys sorted, fixed float formatting).
  /// `indent` spaces of additional indentation are applied to every line
  /// after the first so the object nests cleanly into larger documents.
  std::string to_json(int indent = 0) const;
  /// The same object, appended through `w` (for nesting into a larger
  /// document without an intermediate string).
  void to_json(JsonWriter& w, int indent) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace relogic::runtime
