// Prometheus text-exposition rendering of one MetricsTimeline snapshot —
// the exact payload a future HTTP status endpoint serves for a live fleet.
//
// Mapping, read straight off the row's runtime::Telemetry registry:
// counters render as `# TYPE <p><name> counter`, gauges expose their
// cumulative mean, histograms render the standard cumulative
// `_bucket{le="..."}` series plus `_sum`/`_count`. Metric names are
// sanitised to the Prometheus charset ([a-zA-Z0-9_:]); all numbers use the
// same fixed formatting as the JSON exporters, so output is deterministic.
#pragma once

#include <string>

#include "relogic/obs/timeline.hpp"

namespace relogic::obs {

/// Renders `snap` as Prometheus text exposition (version 0.0.4). `prefix`
/// namespaces every metric. Adds `<prefix>sim_time_ms` and
/// `<prefix>quarantined_devices` gauges, and `<prefix>sweep_col` when the
/// snapshot carries an active sweep position.
std::string to_prometheus(const MetricsTimeline::Snapshot& snap,
                          const std::string& prefix = "relogic_");

}  // namespace relogic::obs
