#include "relogic/obs/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::obs {

using runtime::json_number;
using runtime::json_quoted;

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
  const Snapshot* p = prev(row);
  const double dt_s =
      (samples_[row].t - (p ? p->t : SimTime::zero())).seconds();
  if (dt_s <= 0.0) return 0.0;
  return static_cast<double>(counter_delta(row, name)) / dt_s;
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
  std::vector<std::int64_t> delta = it->second.counts;
  if (const Snapshot* p = prev(row)) {
    const auto pit = p->histograms.find(name);
    if (pit != p->histograms.end()) {
      RELOGIC_CHECK_MSG(pit->second.counts.size() == delta.size(),
                        "histogram " + name +
                            " changed bucket shape between samples");
      for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] -= pit->second.counts[i];
    }
  }
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

namespace {

/// Renders one optional window quantile as a JSON member ("" when absent).
std::string window_quantile_member(const MetricsTimeline& tl, std::size_t row,
                                   const std::string& name, const char* key,
                                   double q) {
  const auto v = tl.window_quantile(row, name, q);
  if (!v) return "";
  return std::string(", \"") + key + "\": " + json_number(*v);
}

}  // namespace

std::string MetricsTimeline::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << "{\n" << pad << "  \"samples\": [";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Snapshot& s = samples_[i];
    os << (i ? ",\n" : "\n") << pad << "    {\"t_ms\": "
       << json_number(s.t.milliseconds()) << ", \"sweep_col\": " << s.sweep_col
       << ", \"quarantined_devices\": " << s.quarantined_devices;

    os << ", \"counters\": {";
    bool first = true;
    for (const auto& [name, v] : s.counters) {
      os << (first ? "" : ", ") << json_quoted(name) << ": {\"value\": " << v
         << ", \"delta\": " << counter_delta(i, name)
         << ", \"rate_per_s\": " << json_number(counter_rate_per_s(i, name))
         << "}";
      first = false;
    }
    os << "}";

    os << ", \"gauges\": {";
    first = true;
    for (const auto& [name, g] : s.gauges) {
      os << (first ? "" : ", ") << json_quoted(name)
         << ": {\"mean\": " << json_number(g.mean())
         << ", \"samples\": " << g.samples << "}";
      first = false;
    }
    os << "}";

    os << ", \"histograms\": {";
    first = true;
    for (const auto& [name, h] : s.histograms) {
      os << (first ? "" : ", ") << json_quoted(name)
         << ": {\"count\": " << h.count
         << ", \"sum\": " << json_number(h.sum);
      static constexpr struct {
        const char* key;
        double q;
      } kQuantiles[] = {{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}};
      for (const auto& e : kQuantiles) {
        const auto v = quantile_from_buckets(h.bounds, h.counts, e.q);
        os << ", \"" << e.key << "\": " << json_number(v.value_or(0.0));
      }
      os << ", \"window_count\": " << window_hist_count(i, name)
         << window_quantile_member(*this, i, name, "window_p50", 0.5)
         << window_quantile_member(*this, i, name, "window_p95", 0.95)
         << window_quantile_member(*this, i, name, "window_p99", 0.99) << "}";
      first = false;
    }
    os << "}}";
  }
  os << (samples_.empty() ? "" : "\n" + pad + "  ") << "]\n" << pad << "}";
  return os.str();
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
  std::ostringstream os;
  os << "t_ms,sweep_col,quarantined_devices";
  for (const auto& n : counter_names) os << "," << n << "," << n << ".rate_per_s";
  for (const auto& n : gauge_names) os << "," << n << ".mean";
  for (const auto& n : hist_names)
    os << "," << n << ".count," << n << ".window_count," << n
       << ".window_p50," << n << ".window_p95," << n << ".window_p99";
  os << "\n";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Snapshot& s = samples_[i];
    os << json_number(s.t.milliseconds()) << "," << s.sweep_col << ","
       << s.quarantined_devices;
    for (const auto& n : counter_names) {
      const auto it = s.counters.find(n);
      os << "," << (it == s.counters.end() ? 0 : it->second) << ","
         << json_number(counter_rate_per_s(i, n));
    }
    for (const auto& n : gauge_names) {
      const auto it = s.gauges.find(n);
      os << "," << json_number(it == s.gauges.end() ? 0.0 : it->second.mean());
    }
    for (const auto& n : hist_names) {
      const auto it = s.histograms.find(n);
      os << "," << (it == s.histograms.end() ? 0 : it->second.count) << ","
         << window_hist_count(i, n);
      for (const double q : {0.5, 0.95, 0.99}) {
        const auto v = window_quantile(i, n, q);
        os << "," << (v ? json_number(*v) : "");
      }
    }
    os << "\n";
  }
  return os.str();
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
  std::ostringstream os;
  os << "{\n  \"schema\": " << json_quoted(kMetricsSchema)
     << ",\n  \"sample_interval_ms\": " << json_number(sample_interval_ms)
     << ",\n  \"aggregate\": " << aggregate.to_json(2) << ",\n  \"devices\": [";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    os << (i ? ",\n" : "\n") << "    {\"device\": " << devices[i].first
       << ", \"timeline\": " << devices[i].second->to_json(4) << "}";
  }
  os << (devices.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace relogic::obs
