#include "relogic/obs/timeline.hpp"

#include <algorithm>
#include <set>

#include "relogic/common/audit.hpp"
#include "relogic/common/json_writer.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::obs {

namespace {

/// Walks one std::map in key order for a caller that asks for names in
/// increasing order: each find() resumes where the last one stopped, so a
/// row's names are matched against the previous row's in one merge pass.
template <class Map>
class SortedCursor {
 public:
  explicit SortedCursor(const Map* m) {
    if (m != nullptr) {
      it_ = m->begin();
      end_ = m->end();
    }
  }

  const typename Map::mapped_type* find(const std::string& name) {
    for (; it_ != end_; ++it_) {
      const int c = it_->first.compare(name);
      if (c == 0) return &it_->second;
      if (c > 0) break;
    }
    return nullptr;
  }

 private:
  typename Map::const_iterator it_{}, end_{};
};

/// The metric `name` of one registry map, or nullptr.
template <class Map>
const typename Map::mapped_type* find(const Map& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? nullptr : &it->second;
}

/// Histogram `name` of row `s` (nullptr: no row, or no such histogram).
const runtime::Histogram* histogram(const MetricsTimeline::Snapshot* s,
                                    const std::string& name) {
  return s ? find(s->metrics.histograms(), name) : nullptr;
}

double rate_per_s(std::int64_t delta, double dt_s) {
  return dt_s <= 0.0 ? 0.0 : static_cast<double>(delta) / dt_s;
}

/// Bucket-count deltas of `h` against `before`, the same histogram one row
/// earlier (nullptr: against zero), into `out`.
void window_counts(const std::string& name, const runtime::Histogram& h,
                   const runtime::Histogram* before,
                   std::vector<std::int64_t>& out) {
  out.assign(h.bucket_counts().begin(), h.bucket_counts().end());
  if (before == nullptr) return;
  const auto& counts = before->bucket_counts();
  RELOGIC_CHECK_MSG(counts.size() == out.size(),
                    "histogram " + name +
                        " changed bucket shape between samples");
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= counts[i];
}

struct QuantileKey {
  const char* cumulative;  ///< member name of the all-time quantile
  const char* window;      ///< member name of the window quantile
  double q;
};
constexpr QuantileKey kQuantiles[] = {
    {", \"p50\": ", ", \"window_p50\": ", 0.5},
    {", \"p95\": ", ", \"window_p95\": ", 0.95},
    {", \"p99\": ", ", \"window_p99\": ", 0.99}};

}  // namespace

void MetricsTimeline::record(SimTime t, runtime::Telemetry metrics,
                             int sweep_col, int quarantined_devices) {
  RELOGIC_CHECK_MSG(samples_.empty() || t >= samples_.back().t,
                    "metrics samples must be recorded in time order");
  if (!samples_.empty() && samples_.back().t == t) samples_.pop_back();
  samples_.push_back(
      Snapshot{t, sweep_col, quarantined_devices, std::move(metrics)});
}

std::int64_t MetricsTimeline::counter_delta(std::size_t row,
                                            const std::string& name) const {
  RELOGIC_CHECK(row < samples_.size());
  const runtime::Counter* c = find(samples_[row].metrics.counters(), name);
  if (c == nullptr) return 0;
  const Snapshot* p = prev(row);
  return c->value() - (p ? p->metrics.counter_value(name) : 0);
}

double MetricsTimeline::counter_rate_per_s(std::size_t row,
                                           const std::string& name) const {
  RELOGIC_CHECK(row < samples_.size());
  return rate_per_s(counter_delta(row, name), window_s(row));
}

std::int64_t MetricsTimeline::window_hist_count(
    std::size_t row, const std::string& name) const {
  RELOGIC_CHECK(row < samples_.size());
  const runtime::Histogram* h = histogram(&samples_[row], name);
  if (h == nullptr) return 0;
  const runtime::Histogram* before = histogram(prev(row), name);
  return h->count() - (before ? before->count() : 0);
}

std::optional<double> MetricsTimeline::window_quantile(
    std::size_t row, const std::string& name, double q) const {
  RELOGIC_CHECK(row < samples_.size());
  const runtime::Histogram* h = histogram(&samples_[row], name);
  if (h == nullptr) return std::nullopt;
  std::vector<std::int64_t> delta;
  window_counts(name, *h, histogram(prev(row), name), delta);
  return runtime::quantile_from_buckets(h->bounds(), delta, q);
}

MetricsTimeline MetricsTimeline::fold(
    const std::vector<const MetricsTimeline*>& parts,
    std::vector<SimTime> quarantine_times) {
  std::sort(quarantine_times.begin(), quarantine_times.end());
  MetricsTimeline out;
  std::set<SimTime> time_set;
  for (const MetricsTimeline* p : parts)
    for (const Snapshot& s : p->samples_) time_set.insert(s.t);

  std::vector<std::size_t> cursor(parts.size(), 0);
  for (const SimTime t : time_set) {
    Snapshot row;
    row.t = t;
    row.quarantined_devices = static_cast<int>(
        std::upper_bound(quarantine_times.begin(), quarantine_times.end(), t) -
        quarantine_times.begin());
    for (std::size_t d = 0; d < parts.size(); ++d) {
      const auto& dev = parts[d]->samples_;
      if (dev.empty()) continue;
      // Latest device snapshot at or before t (carry-forward: after a
      // device's run ends, its final totals keep contributing).
      while (cursor[d] + 1 < dev.size() && dev[cursor[d] + 1].t <= t)
        ++cursor[d];
      const Snapshot& s = dev[cursor[d]];
      if (s.t > t) continue;  // device has not taken its first sample yet
      row.metrics.merge(s.metrics);
    }
    out.samples_.push_back(std::move(row));
  }
  return out;
}

double MetricsTimeline::window_s(std::size_t row) const {
  const Snapshot* p = prev(row);
  return (samples_[row].t - (p ? p->t : SimTime::zero())).seconds();
}

std::string MetricsTimeline::to_json(int indent) const {
  std::string out;
  JsonWriter w(out);
  to_json(w, indent);
  return out;
}

void MetricsTimeline::to_json(JsonWriter& w, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::vector<std::int64_t> window;  // one histogram's bucket deltas, reused
  w.raw("{\n").raw(pad).raw("  \"samples\": [");
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Snapshot& s = samples_[i];
    const Snapshot* p = prev(i);
    w.raw(i ? ",\n" : "\n").raw(pad).raw("    {\"t_ms\": ");
    w.number(s.t.milliseconds());
    w.raw(", \"sweep_col\": ").integer(s.sweep_col);
    w.raw(", \"quarantined_devices\": ").integer(s.quarantined_devices);

    const double dt_s = window_s(i);
    SortedCursor prev_counters(p ? &p->metrics.counters() : nullptr);
    w.raw(", \"counters\": {");
    const char* sep = "";
    for (const auto& [name, c] : s.metrics.counters()) {
      const runtime::Counter* before = prev_counters.find(name);
      const std::int64_t delta = c.value() - (before ? before->value() : 0);
      w.raw(sep).quoted(name).raw(": {\"value\": ").integer(c.value());
      w.raw(", \"delta\": ").integer(delta);
      w.raw(", \"rate_per_s\": ").number(rate_per_s(delta, dt_s)).raw('}');
      sep = ", ";
    }
    w.raw('}');

    w.raw(", \"gauges\": {");
    sep = "";
    for (const auto& [name, g] : s.metrics.gauges()) {
      w.raw(sep).quoted(name).raw(": {\"mean\": ").number(g.mean());
      w.raw(", \"samples\": ").integer(g.samples()).raw('}');
      sep = ", ";
    }
    w.raw('}');

    SortedCursor prev_hists(p ? &p->metrics.histograms() : nullptr);
    w.raw(", \"histograms\": {");
    sep = "";
    for (const auto& [name, h] : s.metrics.histograms()) {
      const runtime::Histogram* before = prev_hists.find(name);
      w.raw(sep).quoted(name).raw(": {\"count\": ").integer(h.count());
      w.raw(", \"sum\": ").number(h.sum());
      for (const QuantileKey& k : kQuantiles) {
        const auto v =
            runtime::quantile_from_buckets(h.bounds(), h.bucket_counts(), k.q);
        w.raw(k.cumulative).number(v.value_or(0.0));
      }
      w.raw(", \"window_count\": ")
          .integer(h.count() - (before ? before->count() : 0));
      window_counts(name, h, before, window);
      for (const QuantileKey& k : kQuantiles)
        if (const auto v = runtime::quantile_from_buckets(h.bounds(), window,
                                                          k.q))
          w.raw(k.window).number(*v);
      w.raw('}');
      sep = ", ";
    }
    w.raw("}}");
  }
  if (!samples_.empty()) w.raw('\n').raw(pad).raw("  ");
  w.raw("]\n").raw(pad).raw('}');
}

std::string MetricsTimeline::to_csv() const {
  // Stable column layout: the union of metric names across all samples
  // (counters created lazily mid-run would otherwise shift columns).
  std::set<std::string> counter_names, gauge_names, hist_names;
  for (const Snapshot& s : samples_) {
    const runtime::Telemetry& m = s.metrics;
    for (const auto& [name, c] : m.counters()) counter_names.insert(name);
    for (const auto& [name, g] : m.gauges()) gauge_names.insert(name);
    for (const auto& [name, h] : m.histograms()) hist_names.insert(name);
  }
  std::string out;
  JsonWriter w(out);
  w.raw("t_ms,sweep_col,quarantined_devices");
  for (const auto& n : counter_names)
    w.raw(',').raw(n).raw(',').raw(n).raw(".rate_per_s");
  for (const auto& n : gauge_names) w.raw(',').raw(n).raw(".mean");
  for (const auto& n : hist_names) {
    for (const char* col : {".count", ".window_count", ".window_p50",
                            ".window_p95", ".window_p99"})
      w.raw(',').raw(n).raw(col);
  }
  w.raw('\n');
  std::vector<std::int64_t> window;  // one histogram's bucket deltas, reused
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Snapshot& s = samples_[i];
    const Snapshot* p = prev(i);
    w.number(s.t.milliseconds()).raw(',').integer(s.sweep_col).raw(',');
    w.integer(s.quarantined_devices);
    // Every column walks the row's maps and its predecessor's in name
    // order, so each row is one merge pass over the union of names.
    const double dt_s = window_s(i);
    SortedCursor counters(&s.metrics.counters());
    SortedCursor prev_counters(p ? &p->metrics.counters() : nullptr);
    for (const auto& n : counter_names) {
      const runtime::Counter* c = counters.find(n);
      const runtime::Counter* before = prev_counters.find(n);
      const std::int64_t v = c ? c->value() : 0;
      const std::int64_t delta = c ? v - (before ? before->value() : 0) : 0;
      w.raw(',').integer(v).raw(',').number(rate_per_s(delta, dt_s));
    }
    SortedCursor gauges(&s.metrics.gauges());
    for (const auto& n : gauge_names) {
      const runtime::Gauge* g = gauges.find(n);
      w.raw(',').number(g ? g->mean() : 0.0);
    }
    SortedCursor hists(&s.metrics.histograms());
    SortedCursor prev_hists(p ? &p->metrics.histograms() : nullptr);
    for (const auto& n : hist_names) {
      const runtime::Histogram* h = hists.find(n);
      const runtime::Histogram* before = prev_hists.find(n);
      if (h == nullptr) {
        w.raw(",0,0,,,");
        continue;
      }
      w.raw(',').integer(h->count()).raw(',');
      w.integer(h->count() - (before ? before->count() : 0));
      window_counts(n, *h, before, window);
      for (const QuantileKey& k : kQuantiles) {
        w.raw(',');
        if (const auto v =
                runtime::quantile_from_buckets(h->bounds(), window, k.q))
          w.number(*v);
      }
    }
    w.raw('\n');
  }
  return out;
}

void MetricsTimeline::audit(const std::string& where) const {
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Snapshot& s = samples_[i];
    const Snapshot* p = prev(i);
    if (p) {
      RELOGIC_AUDIT_CHECK(s.t >= p->t, "MetricsTimeline",
                          where + ": sample times run backwards");
      RELOGIC_AUDIT_CHECK(
          s.quarantined_devices >= p->quarantined_devices, "MetricsTimeline",
          where + ": quarantined-device count shrank (quarantine is "
                  "permanent within a run)");
    }
    s.metrics.audit(where + " at " + s.t.to_string());
    for (const auto& [name, c] : s.metrics.counters())
      RELOGIC_AUDIT_CHECK(counter_delta(i, name) >= 0, "MetricsTimeline",
                          where + "/" + name + ": counter ran backwards at " +
                              s.t.to_string());
    for (const auto& [name, g] : s.metrics.gauges()) {
      const runtime::Gauge* before =
          p ? find(p->metrics.gauges(), name) : nullptr;
      RELOGIC_AUDIT_CHECK(g.samples() >= (before ? before->samples() : 0),
                          "MetricsTimeline",
                          where + "/" + name + ": gauge sample count shrank");
    }
    for (const auto& [name, h] : s.metrics.histograms())
      RELOGIC_AUDIT_CHECK(window_hist_count(i, name) >= 0, "MetricsTimeline",
                          where + "/" + name +
                              ": histogram count ran backwards at " +
                              s.t.to_string());
  }
}

void TimelineSampler::sample(SimTime t, const runtime::Telemetry& events,
                             double utilization, double fragmentation,
                             int sweep_col) {
  area_.gauge("utilization").set(utilization);
  area_.gauge("fragmentation").set(fragmentation);
  runtime::Telemetry row = events;
  row.merge(area_);  // the engine writes no gauges: the names are disjoint
  out_->record(t, std::move(row), sweep_col);
  if (meter_) {
    for (const auto& [name, c] : events.counters())
      meter_.counter(name, t, static_cast<double>(c.value()));
  }
}

std::string metrics_json_document(
    const MetricsTimeline& aggregate,
    const std::vector<std::pair<int, const MetricsTimeline*>>& devices,
    double sample_interval_ms) {
  std::string out;
  JsonWriter w(out);
  w.raw("{\n  \"schema\": ").quoted(kMetricsSchema);
  w.raw(",\n  \"sample_interval_ms\": ").number(sample_interval_ms);
  w.raw(",\n  \"aggregate\": ");
  aggregate.to_json(w, 2);
  w.raw(",\n  \"devices\": [");
  for (std::size_t i = 0; i < devices.size(); ++i) {
    w.raw(i ? ",\n" : "\n").raw("    {\"device\": ").integer(devices[i].first);
    w.raw(", \"timeline\": ");
    devices[i].second->to_json(w, 4);
    w.raw('}');
  }
  w.raw(devices.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out;
}

}  // namespace relogic::obs
