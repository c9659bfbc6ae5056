#include "relogic/runtime/telemetry.hpp"

#include <algorithm>
#include <cmath>

#include "relogic/common/audit.hpp"
#include "relogic/common/error.hpp"
#include "relogic/common/json_writer.hpp"

namespace relogic::runtime {

std::vector<double> Histogram::default_latency_bounds_ms() {
  return {0.01, 0.02, 0.05, 0.1, 0.2,  0.5,  1.0,    2.0,
          5.0,  10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
          2000.0, 5000.0, 10000.0};
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  RELOGIC_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  RELOGIC_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "histogram bounds must be sorted");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

namespace {

/// The bucket holding the q-th of `total` (> 0) observations counted in
/// `counts`: the first whose running count reaches rank ceil(q * total).
std::size_t rank_bucket(const std::vector<std::int64_t>& counts,
                        std::int64_t total, double q) {
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::clamp(q, 0.0, 1.0) *
                                             static_cast<double>(total))));
  std::int64_t seen = 0;
  std::size_t i = 0;
  for (; i + 1 < counts.size(); ++i)
    if ((seen += counts[i]) >= rank) break;
  return i;
}

}  // namespace

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const std::size_t i = rank_bucket(counts_, count_, q);
  return i < bounds_.size() ? std::min(bounds_[i], max()) : max();
}

std::optional<double> quantile_from_buckets(
    const std::vector<double>& bounds,
    const std::vector<std::int64_t>& counts, double q) {
  std::int64_t total = 0;
  for (std::int64_t c : counts) total += c;
  if (total <= 0) return std::nullopt;
  const std::size_t i = rank_bucket(counts, total, q);
  if (i < bounds.size()) return bounds[i];
  return bounds.empty() ? 0.0 : bounds.back();
}

void Histogram::merge(const Histogram& other) {
  RELOGIC_CHECK_MSG(bounds_ == other.bounds_,
                    "merging histograms with different bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_) {
    min_ = count_ ? std::min(min_, other.min_) : other.min_;
    max_ = count_ ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::audit(const std::string& what) const {
  RELOGIC_AUDIT_CHECK(counts_.size() == bounds_.size() + 1, "Histogram",
                      what + ": bucket count does not match bounds + overflow");
  std::int64_t bucket_sum = 0;
  for (std::int64_t c : counts_) {
    RELOGIC_AUDIT_CHECK(c >= 0, "Histogram",
                        what + ": negative bucket count");
    bucket_sum += c;
  }
  RELOGIC_AUDIT_CHECK(bucket_sum == count_, "Histogram",
                      what + ": count diverged from the bucket sum (" +
                          std::to_string(count_) + " vs " +
                          std::to_string(bucket_sum) + ")");
  if (count_ > 0) {
    RELOGIC_AUDIT_CHECK(min_ <= max_, "Histogram",
                        what + ": min exceeds max");
    RELOGIC_AUDIT_CHECK(std::isfinite(sum_), "Histogram",
                        what + ": non-finite observation sum");
  }
}

void Telemetry::audit(const std::string& where) const {
  for (const auto& [name, h] : histograms_)
    h.audit(where + "/" + name);
  for (const auto& [name, g] : gauges_)
    RELOGIC_AUDIT_CHECK(g.samples() >= 0, "Telemetry",
                        where + "/" + name + ": negative gauge sample count");
}

Histogram& Telemetry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(name, Histogram()).first;
  return it->second;
}

Histogram& Telemetry::histogram(const std::string& name,
                                std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  return it->second;
}

std::int64_t Telemetry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

void Telemetry::merge(const Telemetry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].add(c.value());
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
      continue;
    }
    RELOGIC_CHECK_MSG(it->second.bounds() == h.bounds(),
                      "merging histogram " + name +
                          " with mismatched bucket bounds");
    it->second.merge(h);
  }
}

std::string Telemetry::to_json(int indent) const {
  std::string out;
  JsonWriter w(out);
  to_json(w, indent);
  return out;
}

void Telemetry::to_json(JsonWriter& w, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  // Starts the line of member `name` in the current section.
  bool first = true;
  auto member = [&](const std::string& name) {
    w.raw(first ? "\n" : ",\n").raw(pad).raw("    ").quoted(name).raw(": ");
    first = false;
  };
  // One section: `head`, the members `body` writes, then `tail` (on its own
  // line unless the section is empty).
  auto section = [&](const char* head, const char* tail, auto&& body) {
    w.raw(pad).raw(head);
    first = true;
    body();
    if (!first) w.raw('\n').raw(pad).raw("  ");
    w.raw(tail);
  };
  w.raw("{\n");
  section("  \"counters\": {", "},\n", [&] {
    for (const auto& [name, c] : counters_) {
      member(name);
      w.integer(c.value());
    }
  });
  section("  \"gauges\": {", "},\n", [&] {
    for (const auto& [name, g] : gauges_) {
      member(name);
      w.raw("{\"mean\": ").number(g.mean());
      w.raw(", \"samples\": ").integer(g.samples()).raw('}');
    }
  });
  section("  \"histograms\": {", "}\n", [&] {
    for (const auto& [name, h] : histograms_) {
      member(name);
      w.raw("{\"count\": ").integer(h.count());
      w.raw(", \"sum\": ").number(h.sum());
      w.raw(", \"min\": ").number(h.min());
      w.raw(", \"max\": ").number(h.max());
      w.raw(", \"mean\": ").number(h.mean());
      w.raw(", \"p50\": ").number(h.quantile(0.5));
      w.raw(", \"p90\": ").number(h.quantile(0.9));
      w.raw(", \"p95\": ").number(h.quantile(0.95));
      w.raw(", \"p99\": ").number(h.quantile(0.99));
      w.raw(", \"buckets\": [");
      const auto& counts = h.bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        w.raw(i ? ", {\"le\": " : "{\"le\": ");
        if (i < h.bounds().size()) {
          w.number(h.bounds()[i]);
        } else {
          w.raw("\"inf\"");
        }
        w.raw(", \"count\": ").integer(counts[i]).raw('}');
      }
      w.raw("]}");
    }
  });
  w.raw(pad).raw('}');
}

}  // namespace relogic::runtime
