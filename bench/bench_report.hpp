// Shared machine-readable bench output: every bench writes a
// BENCH_<name>.json next to its working directory so the performance
// trajectory can be tracked across PRs (and diffed in CI) without parsing
// human-oriented stdout.
//
// Format:
//   {
//     "bench": "<name>",
//     "metrics": [
//       {"name": "...", "value": 12.5, "unit": "ms"},
//       ...
//     ]
//   }
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace bench_report {

/// Smoke mode (a reduced, same-shape run for CI): RELOGIC_BENCH_SMOKE set
/// to ON/on/1/TRUE/true, parsed like the tests' RELOGIC_SLOW_TESTS, so 0,
/// OFF or an empty value select the default mode.
inline bool bench_smoke_enabled() {
  const char* v = std::getenv("RELOGIC_BENCH_SMOKE");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "ON" || s == "on" || s == "1" || s == "TRUE" || s == "true";
}

class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  void add(const std::string& metric, double value, const std::string& unit) {
    metrics_.push_back({metric, value, unit});
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes BENCH_<name>.json; returns true on success.
  bool write() const {
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": [", name_.c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}",
                   i ? "," : "", m.name.c_str(),
                   std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::fprintf(f, "%s]\n}\n", metrics_.empty() ? "" : "\n  ");
    std::fclose(f);
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  std::vector<Metric> metrics_;
};

}  // namespace bench_report
