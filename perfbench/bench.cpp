// perfbench — relogic's end-to-end benchmark.
//
// One process runs one workload for a host-time budget, checks the
// outputs, prints every metric by name and unit, and ends with one JSON
// result line. The workloads drive each layer from outside, through its
// public entry points only:
//
//   fleet_online              runtime::FleetManager submit/dispatch/run
//                             (sched, area, config replay and the
//                             observation planes underneath)
//   reloc_jtag / reloc_icap   reloc::RelocationEngine::relocate_cell on live
//                             ITC'99-class circuits, checked in lockstep by
//                             sim::CircuitHarness
//
// End-to-end metrics come from untraced passes. With --trace 1 a separate
// traced pass wraps every public call in a host-clock span (kept in memory,
// written as Chrome trace-event JSON at the end) and reports per-layer
// metrics. Simulated quantities are named sim_* and repeat exactly for a
// seed; everything else is host time. NOTES.md maps each per-layer metric
// to the end-to-end metric and workload it should move.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/netlist/mapping.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sched/workload.hpp"
#include "relogic/sim/harness.hpp"

namespace {

using namespace relogic;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over the simulated outputs of a pass: equal digests mean equal
/// simulated results.
class Digest {
 public:
  void add(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Host-clock spans around the benchmark's calls into each layer, named
/// `<layer>.<call>`; spans of one op (task or cell index) share an id.
/// Disabled logs still time the call (op latencies need it) but keep
/// nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  template <typename F>
  double time(const char* name, long id, F&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    if (enabled_) spans_.push_back({name, id, t0, t1});
    return seconds_between(t0, t1);
  }

  double total_s(std::string_view name) const {
    double s = 0;
    for (const Span& sp : spans_)
      if (name == sp.name) s += seconds_between(sp.t0, sp.t1);
    return s;
  }

  /// Appends this log's spans as Chrome 'X' events on process `pid`, one
  /// thread lane per layer.
  void append_json(std::string& out, int pid, Clock::time_point epoch) const {
    std::map<std::string, int> lanes;
    for (const Span& sp : spans_) {
      const std::string layer(std::string_view(sp.name).substr(
          0, std::string_view(sp.name).find('.')));
      const auto [it, fresh] =
          lanes.emplace(layer, static_cast<int>(lanes.size()) + 1);
      if (fresh)
        out += ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
               std::to_string(pid) + ",\"tid\":" + std::to_string(it->second) +
               ",\"args\":{\"name\":\"" + layer + "\"}}";
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    ",\n{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%ld}}",
                    layer.c_str(), sp.name, pid, it->second,
                    1e6 * seconds_between(epoch, sp.t0),
                    1e6 * seconds_between(sp.t0, sp.t1), sp.id);
      out += buf;
    }
  }

 private:
  struct Span {
    const char* name;
    long id;
    Clock::time_point t0, t1;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Host-speed probe: a fixed piece of cache-bound work outside the library
/// (random read-modify-writes over a 4 MiB table, more than a core's L2,
/// so no change to the library moves it), run between the ops of every
/// pass. The host is shared: other tenants' traffic in the shared L3 slows
/// this benchmark by up to 50% in phases of 0.1 s to a minute. The probe
/// slows by about the same share: across the passes of a run its time
/// correlated 0.94-0.97 with the relocation workloads' host time, with an
/// elasticity of 0.7-1.1 (a cache-resident sort or a DRAM pointer chase
/// tracked far worse). End-to-end host times are therefore reported at the
/// probe's reference speed: time x kReferenceS / (mean probe time of the
/// pass). NOTES.md has the measured effect on the spread across runs.
class SpeedProbe {
 public:
  /// Runs the probe once and returns its host time in seconds.
  static double run() {
    static std::vector<std::uint64_t> table(kSlots);
    // Pull the table back into the cache first: the timed part then does
    // not depend on how much of it the workload's last op evicted.
    for (std::size_t i = 0; i < kSlots; i += 8) sink_ += table[i];
    std::uint64_t x = 0x9E3779B97F4A7C15ull;  // same accesses every probe
    const auto t0 = Clock::now();
    for (int i = 0; i < kAccesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = table[x & (kSlots - 1)];
      slot = slot * 31 + static_cast<std::uint64_t>(i);
    }
    const auto t1 = Clock::now();
    sink_ += table[x & (kSlots - 1)];
    return seconds_between(t0, t1);
  }

  /// Probe time on the host this was tuned on (4-vCPU VM) in a quiet
  /// phase: scaled host times read as on that host.
  static constexpr double kReferenceS = 0.3e-3;

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 19;
  static constexpr int kAccesses = 40000;
  static inline std::uint64_t sink_ = 0;  ///< keeps the probe's work live
};

/// One pass of a workload: a fresh set-up, then the measured phase.
struct Pass {
  explicit Pass(bool traced) : spans(traced) {}
  /// Runs the speed probe between two ops of the pass.
  void probe() {
    probe_s += SpeedProbe::run();
    ++probes;
  }
  /// Factor that scales the pass's host times to the probe's reference
  /// speed (below 1 when the host ran slow).
  double speed_scale() const {
    return probes ? SpeedProbe::kReferenceS * probes / probe_s : 1.0;
  }
  /// Adds one timed piece of the measured phase.
  void measured(double s) {
    host_s += s;
    pieces_s.push_back(s);
  }

  double setup_s = 0;  ///< inputs, Fabric bring-up, implement, warm-up
  double host_s = 0;   ///< measured phase
  /// The measured phase piece by piece (each call timed), in the same
  /// order in every pass.
  std::vector<double> pieces_s;
  double probe_s = 0;  ///< speed probes run during the pass
  int probes = 0;
  int attempted = 0;   ///< tasks (fleet) or cells (reloc) attempted
  int failed = 0;      ///< of those, rejected or thrown
  int completed = 0;   ///< of those, completed: the ops_per_s numerator
  /// Host latency of each latency-timed op: a whole fleet run, or one
  /// relocate_cell.
  std::vector<double> op_ms;
  std::vector<double> admit_us;  ///< fleet: submit+dispatch of each arrival
  double sim_makespan_ms = 0;
  double sim_reconfig_ms_per_op = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> problems;  ///< failed output checks
  std::string summary;                ///< one human-readable line
  std::map<std::string, double> layer;
  SpanLog spans;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}
double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Element i's median across the passes, each pass's values first scaled
/// to the speed probe's reference speed.
std::vector<double> scaled_medians(const std::vector<Pass>& passes,
                                   std::vector<double> Pass::*values) {
  std::vector<std::vector<double>> runs((passes.front().*values).size());
  for (const Pass& p : passes)
    for (std::size_t i = 0; i < runs.size() && i < (p.*values).size(); ++i)
      runs[i].push_back(p.speed_scale() * (p.*values)[i]);
  std::vector<double> out;
  for (auto& r : runs) out.push_back(median(std::move(r)));
  return out;
}

/// Harrell-Davis estimate of the p-th percentile (p < 100): the mean of all
/// order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density. The op
/// latencies of a relocation workload cluster by circuit, with a gap near
/// the median, so the plain order statistic jumps by 40% when one op
/// crosses the gap; this estimate moves by that op's weight instead.
double hd_percentile(std::vector<double> v, double p) {
  if (v.size() < 2 || p >= 100) return percentile(std::move(v), p);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p / 100.0 * (n + 1), b = (1 - p / 100.0) * (n + 1);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  // Midpoint rule over [0, 1]; order statistic i owns [i/n, (i+1)/n).
  const std::size_t steps = 256 * v.size();
  double sum = 0, weight = 0;
  for (std::size_t s = 0; s < steps; ++s) {
    const double x = (static_cast<double>(s) + 0.5) / static_cast<double>(steps);
    const double w =
        std::exp((a - 1) * std::log(x) + (b - 1) * std::log1p(-x) - log_beta);
    sum += w * v[s * v.size() / steps];
    weight += w;
  }
  return sum / weight;
}

/// The highest percentile of a fixed ladder with at least ten of
/// `per_pass` samples beyond it, or 100 (the maximum) when none has. Chosen
/// from the per-pass op count, which is fixed per workload, so every run
/// reports the same percentile however many passes fit in its budget.
double tail_percentile(int per_pass) {
  for (const double p : {99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0})
    if (per_pass * (1.0 - p / 100.0) >= 10.0) return p;
  return 100.0;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Pass run_pass(bool traced) = 0;
  /// Latency-timed ops per pass (fixed per workload).
  virtual int ops_per_pass() const = 0;
};

// ---- fleet workload -----------------------------------------------------

/// fleet_online: 4 devices of 12x12 CLBs on an ICAP-32 x dirty-frame config
/// plane, online admission with 80 ms rebalancing and transparent
/// relocation, bursty arrivals; the metrics timeline (5 ms sim interval)
/// and the sim-clock tracer are on and exported after every fleet run.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::string out_dir)
      : seed_(seed), out_dir_(std::move(out_dir)) {}

  int ops_per_pass() const override { return kTraces; }

  Pass run_pass(bool traced) override {
    Pass p(traced);
    Digest dg;
    double makespan_ms = 0, wait_ms = 0, port_ms = 0;
    std::int64_t waits = 0;
    int rebalanced = 0, moves = 0;
    for (int j = 0; j < kTraces; ++j) {
      Setup s = setup(p, j);
      const runtime::FleetReport report = run_trace(p, s, j);
      const auto& agg = report.aggregate;
      makespan_ms += report.makespan.milliseconds();
      if (agg.has_histogram("queue_wait_ms")) {
        wait_ms += agg.histograms().at("queue_wait_ms").sum();
        waits += agg.histograms().at("queue_wait_ms").count();
      }
      for (const auto& d : report.devices)
        port_ms += d.stats.config_port_busy.milliseconds();
      rebalanced += report.rebalanced;
      moves += static_cast<int>(agg.counter_value("rearrangement_moves"));
      dg.add(report.to_json());
    }
    p.sim_makespan_ms = makespan_ms / kTraces;
    p.sim_reconfig_ms_per_op = p.completed ? port_ms / p.completed : 0;
    p.digest = dg.value();
    char line[256];
    std::snprintf(line, sizeof line,
                  "%d fleet runs: completed %d rejected %d rebalanced %d "
                  "moves %d, mean sim makespan %.3f ms",
                  kTraces, p.completed, p.failed, rebalanced, moves,
                  p.sim_makespan_ms);
    p.summary = line;
    if (traced) {
      auto& L = p.layer;
      L["runtime.dispatch_us_p50"] = median(p.admit_us);
      L["runtime.dispatch_us_tail"] =
          percentile(p.admit_us, tail_percentile(kTasks * kTraces));
      L["runtime.run_s"] = p.spans.total_s("runtime.run");
      L["runtime.pool_skew"] /= kTraces;
      L["runtime.rebalanced"] = rebalanced;
      L["sched.run_s"] = p.spans.total_s("sched.run_apps");
      L["sched.alloc_delay_ms"] = waits ? wait_ms / static_cast<double>(waits) : 0;
      L["area.frag_avg"] /= kTraces * kDevices;
      L["area.util_avg"] /= kTraces * kDevices;
      L["config.port_ms"] = port_ms;
      L["obs.export_s"] = p.spans.total_s("obs.export");
      L["fabric.bringup_ms"] = 1e3 * p.spans.total_s("fabric.bringup") / kTraces;
    }
    return p;
  }

 private:
  struct Setup {
    std::vector<sched::TaskArrival> arrivals;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<runtime::FleetManager> fleet;
  };

  static runtime::FleetConfig config() {
    runtime::FleetConfig cfg;
    cfg.devices = kDevices;
    cfg.rows = cfg.cols = kSide;
    cfg.admission = runtime::AdmissionMode::kOnline;
    cfg.rebalance_backlog_ms = 80.0;
    cfg.sched.policy = sched::ManagementPolicy::kTransparent;
    cfg.config_plane = {kPort, config::WriteGranularity::kDirtyFrame};
    cfg.metrics.sample_interval_ms = 5.0;
    // One worker: run() executes on the benchmark's thread, where the speed
    // probe runs. With a worker per device (4 on a 4-vCPU host) the pass
    // times tracked the probe at only ~0.5, and the scaled ops_per_s moved
    // 19% between two sessions of the same code.
    cfg.threads = 1;
    return cfg;
  }

  static std::vector<sched::TaskArrival> arrivals(std::uint64_t seed) {
    sched::WorkloadParams wp;
    wp.pattern = sched::ArrivalPattern::kBursty;
    wp.task_count = kTasks;
    wp.mean_interarrival_ms = 0.8;
    wp.seed = seed;
    return sched::WorkloadGenerator(wp).generate();
  }

  std::string trace_path() const { return out_dir_ + "/fleet_sim_trace.json"; }

  Setup setup(Pass& p, int trace) {
    Setup s;
    const auto t0 = Clock::now();
    s.arrivals = arrivals(seed_ * 0x9E3779B97F4A7C15ull + trace);
    // Device bring-up as each fleet worker performs it; the first one also
    // builds the geometry's shared routing skeleton.
    p.spans.time("fabric.bringup", trace, [&] {
      const fabric::Fabric fab(fabric::DeviceGeometry::tiny(kSide, kSide));
    });
    {
      // Warm-up: a planes-off fleet run over a tenth of a trace faults in
      // the allocator arenas the measured run will use. The trace is the
      // same for every seed, so set-up work does not vary with the seed.
      runtime::FleetConfig warm = config();
      warm.metrics = {};
      runtime::FleetManager fleet(warm);
      const auto warm_arrivals = arrivals(kWarmupSeed);
      fleet.submit_all({warm_arrivals.begin(),
                        warm_arrivals.begin() + warm_arrivals.size() / 10});
      fleet.run();
    }
    s.fleet = std::make_unique<runtime::FleetManager>(config());
    s.tracer = std::make_unique<obs::Tracer>();
    s.fleet->set_tracer(s.tracer.get());
    p.setup_s += seconds_between(t0, Clock::now());
    return s;
  }

  /// One fleet run over one arrival trace, the op whose host latency is
  /// measured: each arrival is submitted and dispatched on its own, then
  /// run() executes the devices, and the telemetry, metrics and sim-clock
  /// trace are exported.
  runtime::FleetReport run_trace(Pass& p, Setup& s, int trace) {
    runtime::FleetManager& fleet = *s.fleet;
    SpanLog& spans = p.spans;
    double op_s = 0;
    for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
      const long id = trace * 100000L + static_cast<long>(i);
      double admit_s = spans.time("runtime.submit", id,
                                  [&] { fleet.submit(s.arrivals[i]); });
      admit_s += spans.time("runtime.dispatch", id, [&] { fleet.dispatch(); });
      p.admit_us.push_back(1e6 * admit_s);
      p.measured(admit_s);
      op_s += admit_s;
      if (i % kProbeEvery == 0) p.probe();
    }
    // dispatch() is idempotent until the next submit: this returns the
    // final assignment, rebalancing included, without new work.
    const std::vector<int> assignment = fleet.dispatch();
    try {
      fleet.audit_admission();
    } catch (const std::exception& e) {
      p.problems.push_back(std::string("audit_admission: ") + e.what());
    }

    runtime::FleetReport report;
    const double run_s =
        spans.time("runtime.run", trace, [&] { report = fleet.run(); });
    std::size_t export_bytes = 0;
    const double export_s = spans.time("obs.export", trace, [&] {
      const std::string telemetry = report.to_json();
      const std::string metrics = report.metrics_json();
      if (!s.tracer->write_json(trace_path()))
        throw std::runtime_error("cannot write " + trace_path());
      export_bytes = telemetry.size() + metrics.size() +
                     std::filesystem::file_size(trace_path());
    });
    p.measured(run_s);
    p.measured(export_s);
    op_s += run_s + export_s;
    p.op_ms.push_back(1e3 * op_s);
    for (int i = 0; i < kProbesAfterRun; ++i) p.probe();

    const std::int64_t admission_rejected =
        report.aggregate.counter_value("admission_rejected");
    if (report.admitted !=
        report.completed + report.rejected - admission_rejected)
      p.problems.push_back("counting identity: admitted " +
                           std::to_string(report.admitted) + " != completed " +
                           std::to_string(report.completed) + " + rejected " +
                           std::to_string(report.rejected) + " - admission " +
                           std::to_string(admission_rejected));
    if (report.completed + report.rejected != kTasks)
      p.problems.push_back("tasks lost: " + std::to_string(report.completed) +
                           " completed + " + std::to_string(report.rejected) +
                           " rejected of " + std::to_string(kTasks));
    p.attempted += kTasks;
    p.failed += report.rejected;
    p.completed += report.completed;
    if (spans.enabled())
      record_layers(p, report, assignment, s, run_s, export_bytes);
    return report;
  }

  /// Re-drives Scheduler::run_apps per device on its dispatched apps (the
  /// scheduling share of runtime.run_s), checks it reproduces the fleet's
  /// DeviceReport.stats exactly, and adds this run's layer counts.
  void record_layers(Pass& p, const runtime::FleetReport& report,
                     const std::vector<int>& assignment, const Setup& s,
                     double run_s, std::size_t export_bytes) {
    const runtime::FleetConfig cfg = config();
    const auto geom = fabric::DeviceGeometry::tiny(cfg.rows, cfg.cols);
    const auto port = config::make_port(kPort);
    const reloc::RelocationCostModel cost(geom, *port, {},
                                          cfg.config_plane.granularity);
    std::vector<std::vector<sched::AppSpec>> apps(
        static_cast<std::size_t>(cfg.devices));
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      if (assignment[i] < 0) continue;
      const sched::TaskArrival& t = s.arrivals[i];
      apps[static_cast<std::size_t>(assignment[i])].push_back(
          sched::AppSpec{t.fn.name, {t.fn}, t.arrival});
    }
    std::vector<double> device_s;
    for (int d = 0; d < cfg.devices; ++d) {
      sched::Scheduler scheduler(cfg.rows, cfg.cols, cost, cfg.sched);
      sched::RunStats stats;
      device_s.push_back(p.spans.time("sched.run_apps", d, [&] {
        stats = scheduler.run_apps(apps[static_cast<std::size_t>(d)],
                                   cfg.overlap);
      }));
      const sched::RunStats& want =
          report.devices[static_cast<std::size_t>(d)].stats;
      if (stats.makespan != want.makespan ||
          stats.rearrangement_moves != want.rearrangement_moves ||
          stats.rejected != want.rejected)
        p.problems.push_back("device " + std::to_string(d) +
                             ": Scheduler::run_apps re-drive diverged from "
                             "the fleet's DeviceReport.stats");
    }
    const double sched_s =
        std::accumulate(device_s.begin(), device_s.end(), 0.0);
    const double slowest_s = *std::max_element(device_s.begin(), device_s.end());
    // run() has a single worker (config()), so all scheduling is on its
    // critical path; pool_skew is what a worker per device would wait for.
    const auto& agg = report.aggregate;
    auto& L = p.layer;
    L["runtime.replay_s"] += run_s - sched_s;
    L["runtime.pool_skew"] += slowest_s / (sched_s / cfg.devices);
    for (const auto& d : report.devices) {
      L["area.moves"] += d.stats.rearrangement_moves;
      L["area.moved_clbs"] += d.stats.moved_clbs;
      L["area.frag_avg"] += d.stats.fragmentation_avg;
      L["area.util_avg"] += d.stats.utilization_avg;
    }
    L["config.txns"] += static_cast<double>(agg.counter_value("config_transactions"));
    L["config.txns_unbatched"] +=
        static_cast<double>(agg.counter_value("config_transactions_unbatched"));
    L["config.frames_written"] += static_cast<double>(agg.counter_value("frame_writes"));
    L["config.frames_skipped"] +=
        static_cast<double>(agg.counter_value("frame_writes_dirty_skipped"));
    L["obs.export_bytes"] += static_cast<double>(export_bytes);
    L["obs.timeline_rows"] += static_cast<double>(report.timeline.size());
  }

  static constexpr int kDevices = 4;
  static constexpr int kSide = 12;  ///< CLB rows = cols per device
  static constexpr config::PortBackend kPort = config::PortBackend::kIcap32;
  static constexpr int kTasks = 2000;  ///< arrivals per trace
  /// Independent arrival traces, one fleet run each, per pass. Averaging
  /// several keeps the seed-to-seed spread of the simulated statistics small.
  static constexpr int kTraces = 4;
  static constexpr std::uint64_t kWarmupSeed = 1;
  /// Speed probes: one every kProbeEvery arrivals and kProbesAfterRun after
  /// each fleet run, so the admission loop and run() are sampled alike.
  static constexpr std::size_t kProbeEvery = 250;
  static constexpr int kProbesAfterRun = 8;

  std::uint64_t seed_;
  std::string out_dir_;
};

// ---- relocation workloads -----------------------------------------------

struct RelocSpec {
  config::PortBackend port;
  std::vector<config::WriteGranularity> granularities;
  int cells_per_circuit;
  /// Rigs per circuit, each with its own stimulus stream. Which state a
  /// circuit sits in while it is reconfigured sets how many events the
  /// simulator processes per edge, so with a single stream per circuit the
  /// host time of its moves and routing pass hung on the seed's luck.
  int stimuli_per_circuit;
  bool optimize_routing;  ///< one optimize_function_routing per circuit
  /// User clock of the circuits: a move's port time spans port time /
  /// period clock edges.
  SimTime clock_period;
  /// Circuits allowed to lose state (lockstep mismatch or glitch after a
  /// move); more is a failed check. kAnyLoss leaves the loss measured only.
  int max_lost_circuits;
};
constexpr int kAnyLoss = std::numeric_limits<int>::max();

/// One implemented circuit on an XCV200 with its simulator, relocation
/// engine and lockstep harness — the Fig. 4 set-up.
class CircuitRig {
 public:
  CircuitRig(const netlist::bench::SuiteEntry& entry, const RelocSpec& spec,
             config::WriteGranularity g, std::uint64_t stimulus_seed,
             SpanLog& spans, long id)
      : nl_(&entry.circuit),
        port_(config::make_port(spec.port)),
        rng_(stimulus_seed) {
    spans.time("fabric.bringup", id, [&] {
      fab_ = std::make_unique<fabric::Fabric>(fabric::DeviceGeometry::xcv200());
    });
    controller_ = std::make_unique<config::ConfigController>(*fab_, *port_, g);
    sim_ = std::make_unique<sim::FabricSim>(*fab_, dm_);
    sim_->add_clock(sim::ClockSpec{0, spec.clock_period, spec.clock_period});
    router_ = std::make_unique<place::Router>(*fab_, dm_);
    engine_ = std::make_unique<reloc::RelocationEngine>(*controller_, *router_,
                                                        sim_.get());
    spans.time("place.implement", id, [&] {
      place::Implementer implementer(*fab_, dm_);
      const auto mapped = netlist::map_netlist(entry.circuit);
      place::ImplementOptions opts;
      opts.region =
          place::suggest_region(mapped, ClbCoord{2, 2}, fab_->geometry());
      impl_ = implementer.implement(mapped, opts);
    });
    harness_ = std::make_unique<sim::CircuitHarness>(*sim_, entry.circuit, impl_);
    harness_->watch_registered_outputs();
  }

  /// Eight lockstep cycles before the first move; true when all agree.
  bool warm_up() {
    bool ok = true;
    for (int i = 0; i < 8; ++i) ok = step() && ok;
    return ok;
  }

  /// One lockstep cycle under random stimulus, with the clock enable held
  /// high so the circuit captures while its next cell moves (Fig. 4); true
  /// when fabric and golden model agree.
  bool step() {
    std::vector<bool> in;
    for (const netlist::SigId s : nl_->inputs())
      in.push_back(nl_->node(s).name == "ce" || rng_.next_bool());
    return harness_->step(in).ok();
  }

  place::Implementation& impl() { return impl_; }
  sim::FabricSim& sim() { return *sim_; }
  sim::CircuitHarness& harness() { return *harness_; }
  reloc::RelocationEngine& engine() { return *engine_; }
  config::ConfigController& controller() { return *controller_; }

 private:
  const netlist::Netlist* nl_;
  // Declaration order is destruction-order-critical: the simulator
  // unsubscribes from the fabric, the harness reads the implementation.
  fabric::DelayModel dm_;
  std::unique_ptr<config::ConfigPort> port_;
  std::unique_ptr<fabric::Fabric> fab_;
  std::unique_ptr<config::ConfigController> controller_;
  std::unique_ptr<sim::FabricSim> sim_;
  std::unique_ptr<place::Router> router_;
  std::unique_ptr<reloc::RelocationEngine> engine_;
  place::Implementation impl_;
  std::unique_ptr<sim::CircuitHarness> harness_;
  Rng rng_;
};

class RelocWorkload final : public Workload {
 public:
  RelocWorkload(RelocSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)),
        seed_(seed),
        suite_(netlist::bench::itc99_suite(
            netlist::bench::ClockingStyle::kGatedClock)) {}

  int ops_per_pass() const override {
    return static_cast<int>(spec_.granularities.size() * suite_.size()) *
           spec_.stimuli_per_circuit * spec_.cells_per_circuit;
  }

  Pass run_pass(bool traced) override {
    Pass p(traced);
    Digest dg;
    int steps = 0;
    // Circuits whose lockstep broke after a move, each with the first cell
    // after which it did. The golden model is never resynchronised, so a
    // circuit that lost state stays out of step: later cells say nothing.
    std::string lost;
    int lost_circuits = 0;
    std::int64_t edges = 0, events = 0;
    double config_ms = 0, wall_ms = 0;
    int frames = 0, txns = 0;
    config::ConfigTotals totals;
    int considered = 0, rerouted = 0;
    long rig_id = 0;
    const auto streams = static_cast<std::size_t>(spec_.stimuli_per_circuit);
    for (const auto g : spec_.granularities) {
      for (std::size_t slot = 0; slot < suite_.size() * streams;
           ++slot, ++rig_id) {
        const std::size_t c = slot / streams;
        const int st = static_cast<int>(slot % streams);
        std::string rig_name = suite_[c].name + "/" + config::to_string(g);
        if (spec_.stimuli_per_circuit > 1) rig_name += "#" + std::to_string(st);
        const auto t0 = Clock::now();
        CircuitRig rig(suite_[c], spec_, g, stimulus_seed(c, st), p.spans,
                       rig_id);
        bool in_step = rig.warm_up();  // lockstep held so far on this circuit
        p.setup_s += seconds_between(t0, Clock::now());
        if (!in_step) {
          p.problems.push_back(rig_name + ": lockstep failed in warm-up");
          report_loss(rig, rig_name, "in warm-up");
        }

        // The Fig. 4 protocol: cells 0..n-1, each to the next free site of a
        // block offset from the circuit's region by 12..15 rows and 16..20
        // columns. The offset varies by circuit, not by seed: which columns
        // a move touches sets most of its host time, and a seed that also
        // chose the block made the op latencies of two seeds incomparable.
        // The seed drives the stimulus, and so the state each cell carries.
        const int n = std::min(spec_.cells_per_circuit, rig.impl().cell_count());
        const int ci = static_cast<int>(c);
        const ClbCoord block{rig.impl().region.row + 12 + ci % 4,
                             rig.impl().region.col + 16 + ci % 5};
        const SimTime sim_start = rig.sim().now();
        // Requests arrive asynchronously to the circuit's clock: before each
        // move the circuit runs on for a seed-drawn part of a clock period,
        // which sets how long the engine waits for clock edges.
        Rng phase_rng(~stimulus_seed(c, st));
        const int period_ps =
            static_cast<int>(spec_.clock_period.picoseconds());
        for (int k = 0; k < n; ++k) {
          rig.sim().run_until(rig.sim().now() +
                              SimTime::ps(phase_rng.next_int(0, period_ps - 1)));
          const long id = rig_id * 1000 + k;
          const place::CellSite dest{ClbCoord{block.row, block.col + k / 4},
                                     k % 4};
          const std::int64_t edges0 = rig.sim().edges_seen(0);
          const std::int64_t events0 = rig.sim().events_processed();
          const std::size_t violations0 =
              rig.sim().monitor().violations().size();
          ++p.attempted;
          reloc::RelocationReport rep;
          std::string error;
          const double s = p.spans.time("reloc.relocate_cell", id, [&] {
            try {
              rep = rig.engine().relocate_cell(rig.impl(), k, dest);
            } catch (const std::exception& e) {
              error = e.what();
            }
          });
          p.op_ms.push_back(1e3 * s);
          p.measured(s);
          if (!error.empty()) {
            ++p.failed;
            std::fprintf(stderr, "[%s] cell %d: relocation failed: %s\n",
                         suite_[c].name.c_str(), k, error.c_str());
            continue;
          }
          ++p.completed;
          edges += rig.sim().edges_seen(0) - edges0;
          events += rig.sim().events_processed() - events0;
          bool ok = false;
          p.measured(p.spans.time("sim.step", id, [&] { ok = rig.step(); }));
          ++steps;
          ok = ok && rig.sim().monitor().violations().size() == violations0;
          if (!ok && in_step) {
            in_step = false;
            ++lost_circuits;
            lost += " " + rig_name + ":" + std::to_string(k);
            report_loss(rig, rig_name, "after relocating cell " + std::to_string(k));
          }
          config_ms += rep.config_time.milliseconds();
          wall_ms += rep.wall_time.milliseconds();
          frames += rep.frames_written;
          txns += rep.columns_touched;
          for (const std::int64_t v :
               {rep.config_time.picoseconds(), rep.wall_time.picoseconds(),
                std::int64_t{rep.frames_written}, std::int64_t{rep.ops},
                std::int64_t{rep.columns_touched}, std::int64_t{ok}})
            dg.add(v);
        }
        if (spec_.optimize_routing) {
          reloc::RelocationEngine::RouteOptimizationReport r;
          p.measured(p.spans.time("reloc.optimize_function_routing", rig_id,
                                  [&] {
                                    r = rig.engine().optimize_function_routing(
                                        rig.impl());
                                  }));
          considered += r.sinks_considered;
          rerouted += r.sinks_rerouted;
          for (const std::int64_t v :
               {std::int64_t{r.sinks_considered}, std::int64_t{r.sinks_rerouted},
                r.config_time.picoseconds(), std::int64_t{r.frames_written}})
            dg.add(v);
        }
        // Probed between rigs, not between cells: the probe evicts the
        // core's L2, and a probe after every cell made each next cell start
        // cold, which spread the short cells' latency (op_p50_ms) by 0.19.
        for (int i = 0; i < kProbesPerCircuit; ++i) p.probe();
        p.sim_makespan_ms += (rig.sim().now() - sim_start).milliseconds();
        const config::ConfigTotals& t = rig.controller().totals();
        totals.ops += t.ops;
        totals.frames_written += t.frames_written;
        totals.frames_skipped += t.frames_skipped;
        totals.columns_touched += t.columns_touched;
        totals.time += t.time;
      }
    }
    const double cells = std::max(1, p.completed);
    p.sim_reconfig_ms_per_op = wall_ms / cells;
    p.digest = dg.value();
    if (lost_circuits > spec_.max_lost_circuits)
      p.problems.push_back(
          std::to_string(lost_circuits) + " of " + std::to_string(rig_id) +
          " circuits lost state after a move, more than the " +
          std::to_string(spec_.max_lost_circuits) + " allowed:" + lost);
    char line[256];
    std::snprintf(line, sizeof line,
                  "cells %d relocated, sim reconfig %.4f ms/cell; %d of %ld "
                  "circuits lost state (circuit:first cell)",
                  p.completed, p.sim_reconfig_ms_per_op, lost_circuits, rig_id);
    p.summary = line + lost;

    if (traced) {
      auto& L = p.layer;
      L["config.txns"] = totals.ops;
      L["config.txns_unbatched"] = totals.ops;
      L["config.frames_written"] = totals.frames_written;
      L["config.frames_skipped"] = totals.frames_skipped;
      L["config.port_ms"] = totals.time.milliseconds();
      L["sim.cycle_us"] =
          steps ? 1e6 * p.spans.total_s("sim.step") / steps : 0;
      L["sim.edges_per_cell"] = static_cast<double>(edges) / cells;
      L["sim.events_per_cell"] = static_cast<double>(events) / cells;
      L["reloc.txns_per_cell"] = txns / cells;
      L["reloc.frames_per_cell"] = frames / cells;
      L["reloc.wait_ms_per_cell"] = (wall_ms - config_ms) / cells;
      L["reloc.lost_circuits"] = lost_circuits;
      const double rigs = static_cast<double>(rig_id);
      L["place.implement_ms"] = 1e3 * p.spans.total_s("place.implement") / rigs;
      L["place.reroute_s"] = p.spans.total_s("reloc.optimize_function_routing");
      L["place.sinks_considered"] = considered;
      L["place.sinks_rerouted"] = rerouted;
      L["fabric.bringup_ms"] = 1e3 * p.spans.total_s("fabric.bringup") / rigs;
    }
    return p;
  }

 private:
  std::uint64_t stimulus_seed(std::size_t circuit, int stream) const {
    return seed_ * 0x9E3779B97F4A7C15ull + circuit +
           0x100 * static_cast<std::uint64_t>(stream);
  }

  static void report_loss(CircuitRig& rig, const std::string& name,
                          const std::string& when) {
    std::fprintf(stderr, "[%s] state loss %s:\n", name.c_str(), when.c_str());
    for (const auto& l : rig.harness().mismatch_log())
      std::fprintf(stderr, "    %s\n", l.c_str());
    for (const auto& v : rig.sim().monitor().violations())
      std::fprintf(stderr, "    %s: %s\n", sim::to_string(v.kind).c_str(),
                   v.description.c_str());
  }

  static constexpr int kProbesPerCircuit = 5;

  RelocSpec spec_;
  std::uint64_t seed_;
  std::vector<netlist::bench::SuiteEntry> suite_;
};

// ---- metric catalogue ---------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"sim_makespan_ms", "ms"},
    {"sim_reconfig_ms_per_op", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"runtime.dispatch_us_p50", "us"},
    {"runtime.dispatch_us_tail", "us"},
    {"runtime.run_s", "s"},
    {"runtime.replay_s", "s"},
    {"runtime.pool_skew", "ratio"},
    {"runtime.rebalanced", "count"},
    {"sched.run_s", "s"},
    {"sched.alloc_delay_ms", "ms"},
    {"area.moves", "count"},
    {"area.moved_clbs", "count"},
    {"area.frag_avg", "ratio"},
    {"area.util_avg", "ratio"},
    {"config.txns", "count"},
    {"config.txns_unbatched", "count"},
    {"config.frames_written", "count"},
    {"config.frames_skipped", "count"},
    {"config.port_ms", "ms"},
    {"sim.cycle_us", "us"},
    {"sim.edges_per_cell", "count"},
    {"sim.events_per_cell", "count"},
    {"reloc.txns_per_cell", "count"},
    {"reloc.frames_per_cell", "count"},
    {"reloc.wait_ms_per_cell", "ms"},
    {"reloc.lost_circuits", "count"},
    {"place.implement_ms", "ms"},
    {"place.reroute_s", "s"},
    {"place.sinks_considered", "count"},
    {"place.sinks_rerouted", "count"},
    {"obs.export_s", "s"},
    {"obs.export_bytes", "bytes"},
    {"obs.timeline_rows", "count"},
    {"fabric.bringup_ms", "ms"},
    {"bench.trace_overhead", "s"},
};

constexpr std::uint64_t kDefaultSeed = 2003;
/// reloc_icap rigs (of 32) that lose state at the default seed (the known
/// column x icap32 and dirty-frame x icap32 hazard). A run of that seed that loses more fails its
/// check; other seeds report their loss, unchecked.
constexpr int kIcapLostAtDefaultSeed = 10;

// The three workloads (NOTES.md has the measured reasons):
//  fleet_online  an operator's full path: 4 ICAP devices, online admission
//                with rebalancing, transparent moves, observation planes on.
//  reloc_jtag    the paper's Fig. 4 set-up over Boundary Scan; a 125 kHz
//                user clock so a run holds many passes, and four stimulus
//                streams per circuit (cells 0-2 each) so the op latencies do
//                not hang on the state one stream leaves a circuit in. Must
//                not lose state.
//  reloc_icap    the same circuits on a port ~150x faster, so engine, router
//                and config plane dominate; two stimulus streams per circuit
//                (cells 0-4 each) for the same reason as reloc_jtag, since
//                the routing pass still waits out its moves on a live
//                circuit. Counts the rigs that lose state.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
  using config::PortBackend;
  using config::WriteGranularity;
  if (name == "fleet_online")
    return std::make_unique<FleetWorkload>(seed, out_dir);
  if (name == "reloc_jtag")
    return std::make_unique<RelocWorkload>(
        RelocSpec{PortBackend::kJtag, {WriteGranularity::kColumn}, 3, 4, false,
                  SimTime::us(8), 0},
        seed);
  if (name == "reloc_icap")
    return std::make_unique<RelocWorkload>(
        RelocSpec{PortBackend::kIcap32,
                  {WriteGranularity::kColumn, WriteGranularity::kDirtyFrame},
                  5, 2, true, SimTime::ns(100),
                  seed == kDefaultSeed ? kIcapLostAtDefaultSeed : kAnyLoss},
        seed);
  return nullptr;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".bench_out";
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::stoull(val);
    else if (key == "--seconds") seconds = std::stod(val);
    else if (key == "--trace") trace = val == "1";
    else if (key == "--out") out_dir = val;
    else return usage(argv[0]);
  }
  if (argc % 2 == 0) return usage(argv[0]);
  std::unique_ptr<Workload> w = make_workload(workload, seed, out_dir);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage(argv[0]);
  }
  std::filesystem::create_directories(out_dir);
  SpeedProbe::run();  // faults the probe's table in before the first pass

  // Untraced passes fill the budget (half of it when tracing), at least
  // three of them; traced passes fill the rest. Every pass set-up is fresh,
  // so each one is also a set-up sample.
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::vector<Pass> plain, traced;
  do plain.push_back(w->run_pass(false));
  while (plain.size() < 3 || elapsed() < (trace ? seconds / 2 : seconds));
  if (trace) {
    do traced.push_back(w->run_pass(true));
    while (elapsed() < seconds);
  }

  // ---- checks ---------------------------------------------------------
  int attempted = 0, failed = 0;
  std::vector<std::string> problems;
  for (const auto* set : {&plain, &traced})
    for (const Pass& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      problems.insert(problems.end(), p.problems.begin(), p.problems.end());
      if (p.digest != plain.front().digest)
        problems.push_back("simulated outputs differ between passes");
    }
  for (const std::string& pr : problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", pr.c_str());

  // ---- end-to-end metrics (untraced passes) ---------------------------
  // Host times are scaled to the speed probe's reference speed, pass by
  // pass, then the median across passes is taken. Every pass runs the same
  // ops in the same order, so each op's latency, and each timed piece of
  // the measured phase, is its median over the passes; the rate divides a
  // pass's ops by the sum of those pieces. A slow burst of a fraction of a
  // second then moves the pieces it hit in one pass, not that pass's total.
  const double tail_p = tail_percentile(w->ops_per_pass());
  std::vector<double> setups, scales, raw_host_s;
  for (const Pass& p : plain) {
    setups.push_back(p.speed_scale() * p.setup_s);
    scales.push_back(p.speed_scale());
    raw_host_s.push_back(p.host_s);
  }
  const std::vector<double> op_ms = scaled_medians(plain, &Pass::op_ms);
  const std::vector<double> pieces_s = scaled_medians(plain, &Pass::pieces_s);
  const Pass& first = plain.front();
  const std::map<std::string, double> e2e = {
      {"setup_s", median(setups)},
      {"ops_per_s", first.completed /
                        std::accumulate(pieces_s.begin(), pieces_s.end(), 0.0)},
      {"op_p50_ms", hd_percentile(op_ms, 50)},
      {"op_tail_ms", hd_percentile(op_ms, tail_p)},
      {"peak_rss_mb", peak_rss_mb()},
      {"sim_makespan_ms", first.sim_makespan_ms},
      {"sim_reconfig_ms_per_op", first.sim_reconfig_ms_per_op},
  };

  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes, %d "
              "ops per pass\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plain.size(), traced.size(), w->ops_per_pass());
  std::printf("digest %s seed %llu %016llx: %s\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(first.digest),
              first.summary.c_str());
  std::printf("ops attempted %d failed %d (fail_share %.4f)\n", attempted,
              failed, static_cast<double>(failed) / std::max(1, attempted));
  std::printf("host speed: scale %.3f median (%.3f-%.3f) over %d probes per "
              "pass; unscaled measured phase %.4f s median\n",
              median(scales), *std::min_element(scales.begin(), scales.end()),
              *std::max_element(scales.begin(), scales.end()), first.probes,
              median(raw_host_s));
  for (const MetricDef& m : kEndToEnd)
    std::printf("  %-28s %16.6f %s\n", m.name, e2e.at(m.name), m.unit);
  std::printf("  (host times at the probe's reference speed, medians of %zu "
              "passes; op_tail_ms is p%g of %d ops; sim_* = simulated time)\n",
              plain.size(), tail_p, w->ops_per_pass());

  std::map<std::string, double> layer;
  if (trace) {
    // Host times: median across traced passes; counts repeat exactly.
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> v;
      for (const Pass& p : traced) {
        const auto it = p.layer.find(m.name);
        v.push_back(it == p.layer.end() ? 0.0 : it->second);
      }
      layer[m.name] = median(v);
    }
    // Both sides at the probe's reference speed, like the end-to-end times.
    std::vector<double> plain_s, traced_s;
    for (const Pass& p : plain) plain_s.push_back(p.speed_scale() * p.host_s);
    for (const Pass& p : traced) traced_s.push_back(p.speed_scale() * p.host_s);
    layer["bench.trace_overhead"] = median(traced_s) - median(plain_s);
    for (const MetricDef& m : kPerLayer)
      std::printf("  %-28s %16.6f %s\n", m.name, layer.at(m.name), m.unit);

    std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                       "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                       "\"args\":{\"name\":\"perfbench\"}}";
    for (std::size_t i = 0; i < traced.size(); ++i)
      traced[i].spans.append_json(json, static_cast<int>(i) + 1, start);
    json += "\n]}\n";
    const std::string path = out_dir + "/perfbench_" + workload + ".trace.json";
    std::ofstream(path) << json;
    std::printf("host-clock spans of the traced passes: %s\n", path.c_str());
  }

  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  const std::map<std::string, double>& values = trace ? layer : e2e;
  std::string result = "{\"correct\": ";
  result += problems.empty() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (const MetricDef& m : defs)
    result += std::string(&m == defs.data() ? "" : ", ") + "\"" + m.name +
              "\": {\"value\": " + json_number(values.at(m.name)) +
              ", \"unit\": \"" + m.unit + "\"}";
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
