#include "relogic/obs/timeline.hpp"

#include <algorithm>
#include <cmath>
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

double rate_per_s(std::int64_t delta, double dt_s) {
  return dt_s <= 0.0 ? 0.0 : static_cast<double>(delta) / dt_s;
}

/// Bucket-count deltas of `h` against `before`, the same histogram one row
/// earlier (nullptr: against zero), into `out`.
void window_counts(const std::string& name,
                   const MetricsTimeline::HistogramState& h,
                   const MetricsTimeline::HistogramState* before,
                   std::vector<std::int64_t>& out) {
  out.assign(h.counts.begin(), h.counts.end());
  if (before == nullptr) return;
  RELOGIC_CHECK_MSG(before->counts.size() == out.size(),
                    "histogram " + name +
                        " changed bucket shape between samples");
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= before->counts[i];
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

void MetricsTimeline::record(SimTime t, const runtime::Telemetry& registry,
                             int sweep_col, int quarantined_devices,
                             const runtime::Telemetry* sampled) {
  Snapshot s;
  s.t = t;
  s.sweep_col = sweep_col;
  s.quarantined_devices = quarantined_devices;
  for (const runtime::Telemetry* r : {&registry, sampled}) {
    if (r == nullptr) continue;
    for (const auto& [name, c] : r->counters()) s.counters[name] = c.value();
    for (const auto& [name, g] : r->gauges())
      s.gauges[name] = GaugeState{g.sum(), g.samples()};
    for (const auto& [name, h] : r->histograms())
      s.histograms[name] =
          HistogramState{h.bounds(), h.bucket_counts(), h.count(), h.sum()};
  }
  if (!samples_.empty()) {
    RELOGIC_CHECK_MSG(t >= samples_.back().t,
                      "metrics samples must be recorded in time order");
    if (samples_.back().t == t) {
      samples_.back() = std::move(s);
      return;
    }
  }
  samples_.push_back(std::move(s));
}

std::int64_t MetricsTimeline::counter_delta(std::size_t row,
                                            const std::string& name) const {
  RELOGIC_CHECK(row < samples_.size());
  const auto it = samples_[row].counters.find(name);
  if (it == samples_[row].counters.end()) return 0;
  std::int64_t before = 0;
  if (const Snapshot* p = prev(row)) {
    const auto pit = p->counters.find(name);
    if (pit != p->counters.end()) before = pit->second;
  }
  return it->second - before;
}

double MetricsTimeline::counter_rate_per_s(std::size_t row,
                                           const std::string& name) const {
  RELOGIC_CHECK(row < samples_.size());
  return rate_per_s(counter_delta(row, name), window_s(row));
}

std::int64_t MetricsTimeline::window_hist_count(
    std::size_t row, const std::string& name) const {
  RELOGIC_CHECK(row < samples_.size());
  const auto it = samples_[row].histograms.find(name);
  if (it == samples_[row].histograms.end()) return 0;
  std::int64_t before = 0;
  if (const Snapshot* p = prev(row)) {
    const auto pit = p->histograms.find(name);
    if (pit != p->histograms.end()) before = pit->second.count;
  }
  return it->second.count - before;
}

std::optional<double> MetricsTimeline::quantile_from_buckets(
    const std::vector<double>& bounds,
    const std::vector<std::int64_t>& counts, double q) {
  std::int64_t total = 0;
  for (std::int64_t c : counts) total += c;
  if (total <= 0) return std::nullopt;
  q = std::clamp(q, 0.0, 1.0);
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total))));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      if (i < bounds.size()) return bounds[i];
      break;  // overflow bucket: report the largest finite bound
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::optional<double> MetricsTimeline::window_quantile(
    std::size_t row, const std::string& name, double q) const {
  RELOGIC_CHECK(row < samples_.size());
  const auto it = samples_[row].histograms.find(name);
  if (it == samples_[row].histograms.end()) return std::nullopt;
  const HistogramState* before = nullptr;
  if (const Snapshot* p = prev(row)) {
    const auto pit = p->histograms.find(name);
    if (pit != p->histograms.end()) before = &pit->second;
  }
  std::vector<std::int64_t> delta;
  window_counts(name, it->second, before, delta);
  return quantile_from_buckets(it->second.bounds, delta, q);
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
      for (const auto& [name, v] : s.counters) row.counters[name] += v;
      for (const auto& [name, g] : s.gauges) {
        GaugeState& agg = row.gauges[name];
        agg.sum += g.sum;
        agg.samples += g.samples;
      }
      for (const auto& [name, h] : s.histograms) {
        auto [it, inserted] = row.histograms.try_emplace(name, h);
        if (inserted) continue;
        HistogramState& agg = it->second;
        RELOGIC_CHECK_MSG(agg.bounds == h.bounds,
                          "folding histogram " + name +
                              " with mismatched bucket bounds");
        for (std::size_t i = 0; i < agg.counts.size(); ++i)
          agg.counts[i] += h.counts[i];
        agg.count += h.count;
        agg.sum += h.sum;
      }
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
    SortedCursor prev_counters(p ? &p->counters : nullptr);
    w.raw(", \"counters\": {");
    const char* sep = "";
    for (const auto& [name, v] : s.counters) {
      const std::int64_t* before = prev_counters.find(name);
      const std::int64_t delta = v - (before ? *before : 0);
      w.raw(sep).quoted(name).raw(": {\"value\": ").integer(v);
      w.raw(", \"delta\": ").integer(delta);
      w.raw(", \"rate_per_s\": ").number(rate_per_s(delta, dt_s)).raw('}');
      sep = ", ";
    }
    w.raw('}');

    w.raw(", \"gauges\": {");
    sep = "";
    for (const auto& [name, g] : s.gauges) {
      w.raw(sep).quoted(name).raw(": {\"mean\": ").number(g.mean());
      w.raw(", \"samples\": ").integer(g.samples).raw('}');
      sep = ", ";
    }
    w.raw('}');

    SortedCursor prev_hists(p ? &p->histograms : nullptr);
    w.raw(", \"histograms\": {");
    sep = "";
    for (const auto& [name, h] : s.histograms) {
      const HistogramState* before = prev_hists.find(name);
      w.raw(sep).quoted(name).raw(": {\"count\": ").integer(h.count);
      w.raw(", \"sum\": ").number(h.sum);
      for (const QuantileKey& k : kQuantiles) {
        const auto v = quantile_from_buckets(h.bounds, h.counts, k.q);
        w.raw(k.cumulative).number(v.value_or(0.0));
      }
      w.raw(", \"window_count\": ")
          .integer(h.count - (before ? before->count : 0));
      window_counts(name, h, before, window);
      for (const QuantileKey& k : kQuantiles)
        if (const auto v = quantile_from_buckets(h.bounds, window, k.q))
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
    for (const auto& [name, v] : s.counters) counter_names.insert(name);
    for (const auto& [name, g] : s.gauges) gauge_names.insert(name);
    for (const auto& [name, h] : s.histograms) hist_names.insert(name);
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
    SortedCursor counters(&s.counters);
    SortedCursor prev_counters(p ? &p->counters : nullptr);
    for (const auto& n : counter_names) {
      const std::int64_t* v = counters.find(n);
      const std::int64_t* before = prev_counters.find(n);
      const std::int64_t delta = v ? *v - (before ? *before : 0) : 0;
      w.raw(',').integer(v ? *v : 0).raw(',').number(rate_per_s(delta, dt_s));
    }
    SortedCursor gauges(&s.gauges);
    for (const auto& n : gauge_names) {
      const GaugeState* g = gauges.find(n);
      w.raw(',').number(g ? g->mean() : 0.0);
    }
    SortedCursor hists(&s.histograms);
    SortedCursor prev_hists(p ? &p->histograms : nullptr);
    for (const auto& n : hist_names) {
      const HistogramState* h = hists.find(n);
      const HistogramState* before = prev_hists.find(n);
      if (h == nullptr) {
        w.raw(",0,0,,,");
        continue;
      }
      w.raw(',').integer(h->count).raw(',');
      w.integer(h->count - (before ? before->count : 0));
      window_counts(n, *h, before, window);
      for (const QuantileKey& k : kQuantiles) {
        w.raw(',');
        if (const auto v = quantile_from_buckets(h->bounds, window, k.q))
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
    for (const auto& [name, v] : s.counters)
      RELOGIC_AUDIT_CHECK(counter_delta(i, name) >= 0, "MetricsTimeline",
                          where + "/" + name + ": counter ran backwards at " +
                              s.t.to_string());
    for (const auto& [name, g] : s.gauges) {
      std::int64_t before = 0;
      if (p) {
        const auto it = p->gauges.find(name);
        if (it != p->gauges.end()) before = it->second.samples;
      }
      RELOGIC_AUDIT_CHECK(g.samples >= before, "MetricsTimeline",
                          where + "/" + name + ": gauge sample count shrank");
    }
    for (const auto& [name, h] : s.histograms) {
      RELOGIC_AUDIT_CHECK(h.counts.size() == h.bounds.size() + 1,
                          "MetricsTimeline",
                          where + "/" + name +
                              ": bucket count does not match bounds + overflow");
      RELOGIC_AUDIT_CHECK(window_hist_count(i, name) >= 0, "MetricsTimeline",
                          where + "/" + name +
                              ": histogram count ran backwards at " +
                              s.t.to_string());
    }
  }
}

void TimelineSampler::sample(SimTime t, const runtime::Telemetry& events,
                             double utilization, double fragmentation,
                             int sweep_col) {
  area_.gauge("utilization").set(utilization);
  area_.gauge("fragmentation").set(fragmentation);
  out_->record(t, events, sweep_col, /*quarantined_devices=*/0, &area_);
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
