#include "relogic/obs/prom_export.hpp"

#include "relogic/common/json_writer.hpp"

namespace relogic::obs {

namespace {

std::string sanitize(const std::string& name) {
  std::string metric = name;
  for (char& c : metric) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!metric.empty() && metric.front() >= '0' && metric.front() <= '9')
    metric.insert(metric.begin(), '_');
  return metric;
}

/// "# TYPE <metric> <type>\n<metric> "; the caller appends the value.
void open_sample(JsonWriter& w, const std::string& metric, const char* type) {
  w.raw("# TYPE ").raw(metric).raw(' ').raw(type).raw('\n');
  w.raw(metric).raw(' ');
}

}  // namespace

std::string to_prometheus(const MetricsTimeline::Snapshot& snap,
                          const std::string& prefix) {
  std::string out;
  JsonWriter w(out);
  open_sample(w, prefix + "sim_time_ms", "gauge");
  w.number(snap.t.milliseconds()).raw('\n');
  open_sample(w, prefix + "quarantined_devices", "gauge");
  w.integer(snap.quarantined_devices).raw('\n');
  if (snap.sweep_col >= 0) {
    open_sample(w, prefix + "sweep_col", "gauge");
    w.integer(snap.sweep_col).raw('\n');
  }
  for (const auto& [name, c] : snap.metrics.counters()) {
    open_sample(w, prefix + sanitize(name), "counter");
    w.integer(c.value()).raw('\n');
  }
  for (const auto& [name, g] : snap.metrics.gauges()) {
    open_sample(w, prefix + sanitize(name), "gauge");
    w.number(g.mean()).raw('\n');
  }
  for (const auto& [name, h] : snap.metrics.histograms()) {
    const std::string metric = prefix + sanitize(name);
    w.raw("# TYPE ").raw(metric).raw(" histogram\n");
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
      cumulative += h.bucket_counts()[i];
      w.raw(metric).raw("_bucket{le=\"");
      if (i < h.bounds().size()) {
        w.number(h.bounds()[i]);
      } else {
        w.raw("+Inf");
      }
      w.raw("\"} ").integer(cumulative).raw('\n');
    }
    w.raw(metric).raw("_sum ").number(h.sum()).raw('\n');
    w.raw(metric).raw("_count ").integer(h.count()).raw('\n');
  }
  return out;
}

}  // namespace relogic::obs
