// relogic-cli — the FPGA rearrangement and programming tool (paper Sec. 4).
//
// Command-line equivalent of the JBits-based tool: given a device, a set of
// live circuits and relocation requests (source/destination CLB
// coordinates, or a whole-function move), it
//   * generates the partial configuration op sequence automatically,
//   * executes it against the fabric model while the circuits run,
//   * prints the configuration script (frames, columns, per-op time),
//   * optionally writes the partial bitstream image to a file,
//   * keeps a recovery snapshot of the full configuration throughout.
//
// Examples:
//   relogic-cli --device XCV200 --load b01@2,2 --load counter8@2,12
//               --move b01:16,2 --script
//   relogic-cli --load b02@1,1 --relocate 2,2.0:9,9.0 --out patch.bit
//   relogic-cli --load b01@2,2 --load b06@2,10 --defrag 8x8 --script
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relogic/area/defrag.hpp"
#include "relogic/area/manager.hpp"
#include "relogic/common/logging.hpp"
#include "relogic/config/bitstream.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/config/snapshot.hpp"
#include "relogic/health/fault.hpp"
#include "relogic/health/rover.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/obs/prom_export.hpp"
#include "relogic/obs/timeline.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/workload.hpp"
#include "relogic/sim/harness.hpp"

namespace {

using namespace relogic;
using netlist::bench::ClockingStyle;

struct Options {
  std::string device = "XCV200";
  std::vector<std::pair<std::string, ClbCoord>> loads;
  std::vector<std::pair<std::string, ClbCoord>> moves;      // function moves
  std::vector<std::pair<place::CellSite, place::CellSite>> cell_moves;
  std::optional<std::pair<int, int>> defrag_request;
  std::string out_file;
  bool script = false;
  bool gated = false;
  bool verbose = false;
  bool map = false;

  // Configuration plane (both single-device and fleet modes): which port
  // backend prices configuration traffic, and at what write granularity
  // the controller issues frames.
  config::PortBackend port = config::PortBackend::kJtag;
  config::WriteGranularity granularity = config::WriteGranularity::kColumn;
  // Per-device overrides for heterogeneous fleets (--device-plane).
  std::map<int, runtime::ConfigPlaneSpec> device_planes;

  // Fleet mode (--fleet N): multi-device runtime instead of the
  // single-device rearrangement tool.
  int fleet = 0;
  int random_tasks = 200;
  runtime::FleetConfig fleet_cfg;
  sched::ArrivalPattern workload = sched::ArrivalPattern::kPoisson;
  std::uint64_t seed = 1;
  double mean_interarrival_ms = 2.0;
  double mean_duration_ms = 20.0;
  std::string telemetry_file;

  // Health mode (both single-device and fleet): roving self-test sweep,
  // deterministic fault injection, quarantine.
  bool selftest = false;
  double fault_rate = 0.0;
  std::optional<std::uint64_t> fault_seed;  // defaults to --seed
  double quarantine_threshold = 0.0;
  int sweep_window = 1;
  double sweep_period_ms = 5.0;

  // Observability: deterministic trace spans (Chrome trace-event JSON,
  // Perfetto loadable). --trace-wall additionally stamps each event with
  // the wall clock, which breaks byte-identical output across runs.
  std::string trace_file;
  bool trace_wall = false;
  // Metrics timeline (--metrics-out): sim-clock sampled time series. Fleet
  // mode samples every metrics_interval_ms of simulated time inside each
  // device's DES run; single-device mode samples at phase boundaries on the
  // configuration-port clock.
  std::string metrics_file;
  double metrics_interval_ms = 5.0;
  std::string metrics_format = "json";  // json | csv | prom
};

[[noreturn]] void usage(int code) {
  std::puts(
      "relogic-cli — FPGA rearrangement and programming tool\n"
      "\n"
      "  --device NAME          XCV50..XCV1000 (default XCV200)\n"
      "  --load CIRCUIT@r,c     implement a circuit with its region origin\n"
      "                         at CLB (r,c); circuits: b01 b02 b06 b03c\n"
      "                         b08c b09c b10c b13c counterN shiftN grayN\n"
      "  --gated                use gated-clock (clock-enable) styles\n"
      "  --relocate r,c.k:r,c.k relocate one logic cell (source:dest)\n"
      "  --move NAME:r,c        relocate a whole loaded function\n"
      "  --defrag HxW           rearrange so an HxW CLB request fits\n"
      "  --out FILE             write the partial bitstream image\n"
      "  --script               print the configuration script\n"
      "  --map                  print the occupancy map before and after\n"
      "  --verbose              narrate every engine step\n"
      "\n"
      "configuration plane (single-device and fleet modes):\n"
      "  --port P               config port backend: jtag (default, the\n"
      "                         paper's 20 MHz Boundary-Scan) | selectmap8\n"
      "                         | icap32\n"
      "  --granularity G        write granularity: column (default, the\n"
      "                         JBits regime) | frame | dirty (skip frames\n"
      "                         whose bytes are unchanged)\n"
      "  --device-plane D:P:G   fleet: override port/granularity for device\n"
      "                         D (repeatable; heterogeneous fleets)\n"
      "\n"
      "fleet mode (multi-device runtime):\n"
      "  --fleet N              run the fleet runtime with N devices\n"
      "  --random-tasks M       admit M random tasks (default 200)\n"
      "  --workload W           arrival pattern: poisson (default) |\n"
      "                         bursty | diurnal | heavy-tail\n"
      "  --grid RxC             per-device CLB grid (default 24x24)\n"
      "  --dispatch P           round-robin | least-loaded | best-fit\n"
      "  --admission M          online (default) | offline batch planning\n"
      "  --rebalance MS         online: migrate queued requests off a\n"
      "                         device whose backlog exceeds MS (0 = off)\n"
      "  --mgmt P               none | halt | transparent (default)\n"
      "  --seed S               workload seed (default 1)\n"
      "  --mean-interarrival MS --mean-duration MS\n"
      "                         workload shape (defaults 2 / 20)\n"
      "  --no-batch             disable config-transaction batching\n"
      "  --batch-ops K          max ops coalesced per transaction\n"
      "  --threads N            worker threads (default: one per device)\n"
      "  --telemetry FILE       write the fleet telemetry JSON to FILE\n"
      "\n"
      "health (roving on-line self-test):\n"
      "  --selftest             sweep a test window across each device while\n"
      "                         it serves traffic (single-device mode: run a\n"
      "                         fabric-level rotation over the loaded\n"
      "                         circuits with the relocation engine)\n"
      "  --fault-rate R         inject stuck config-bit faults on each cell\n"
      "                         with probability R (deterministic per seed)\n"
      "  --fault-seed S         fault population seed (default: --seed)\n"
      "  --quarantine-threshold F\n"
      "                         fleet: quarantine a device once its detected\n"
      "                         faulty-CLB density exceeds F (0 = off)\n"
      "  --sweep-window N       test window width in CLB columns (default 1)\n"
      "  --sweep-period MS      fleet: interval between window advances\n"
      "                         (default 5; the single-device rover runs one\n"
      "                         continuous rotation instead)\n"
      "\n"
      "observability:\n"
      "  --trace FILE           record deterministic trace spans on the\n"
      "                         simulated clock and write Chrome trace-event\n"
      "                         JSON (load in ui.perfetto.dev)\n"
      "  --trace-wall           also stamp events with the wall clock (adds\n"
      "                         a wall_us arg; output is no longer\n"
      "                         byte-identical across runs)\n"
      "  --metrics-out FILE     write the sim-clock metrics timeline to FILE\n"
      "                         (fleet: sampled every --metrics-interval-ms\n"
      "                         of simulated time per device plus a folded\n"
      "                         fleet aggregate; single-device: sampled at\n"
      "                         phase boundaries on the port clock)\n"
      "  --metrics-interval-ms N\n"
      "                         fleet sampling period in simulated ms\n"
      "                         (default 5)\n"
      "  --metrics-format F     json (default, schema-versioned document) |\n"
      "                         csv (aggregate timeline) | prom (Prometheus\n"
      "                         text exposition of the final snapshot)\n");
  std::exit(code);
}

ClbCoord parse_coord(const std::string& s) {
  const auto comma = s.find(',');
  RELOGIC_CHECK_MSG(comma != std::string::npos, "bad coordinate: " + s);
  return ClbCoord{std::stoi(s.substr(0, comma)), std::stoi(s.substr(comma + 1))};
}

place::CellSite parse_site(const std::string& s) {
  const auto dot = s.rfind('.');
  RELOGIC_CHECK_MSG(dot != std::string::npos, "bad cell site: " + s);
  return place::CellSite{parse_coord(s.substr(0, dot)),
                         std::stoi(s.substr(dot + 1))};
}

fabric::DeviceGeometry parse_device(const std::string& name) {
  using fabric::DevicePreset;
  static const std::pair<const char*, DevicePreset> table[] = {
      {"XCV50", DevicePreset::kXCV50},   {"XCV100", DevicePreset::kXCV100},
      {"XCV150", DevicePreset::kXCV150}, {"XCV200", DevicePreset::kXCV200},
      {"XCV300", DevicePreset::kXCV300}, {"XCV400", DevicePreset::kXCV400},
      {"XCV600", DevicePreset::kXCV600}, {"XCV800", DevicePreset::kXCV800},
      {"XCV1000", DevicePreset::kXCV1000}};
  for (const auto& [n, p] : table) {
    if (name == n) return fabric::DeviceGeometry::preset(p);
  }
  throw ContractError("unknown device: " + name);
}

netlist::Netlist make_circuit(const std::string& name, bool gated) {
  using namespace netlist::bench;
  const ClockingStyle style =
      gated ? ClockingStyle::kGatedClock : ClockingStyle::kFreeRunning;
  if (name == "b01") return b01(style);
  if (name == "b02") return b02(style);
  if (name == "b06") return b06(style);
  if (name == "b03c") return random_fsm("b03c", 30, 4, 4, 0xB03, style);
  if (name == "b08c") return random_fsm("b08c", 21, 9, 4, 0xB08, style);
  if (name == "b09c") return random_fsm("b09c", 28, 1, 1, 0xB09, style);
  if (name == "b10c") return random_fsm("b10c", 17, 11, 6, 0xB10, style);
  if (name == "b13c") return random_fsm("b13c", 53, 10, 10, 0xB13, style);
  if (name.rfind("counter", 0) == 0)
    return counter(std::stoi(name.substr(7)), style);
  if (name.rfind("shift", 0) == 0)
    return shift_register(std::stoi(name.substr(5)), style);
  if (name.rfind("gray", 0) == 0)
    return gray_counter(std::stoi(name.substr(4)), style);
  throw ContractError("unknown circuit: " + name);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool no_batch = false;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--device") {
      opt.device = need(i);
    } else if (arg == "--load") {
      const std::string v = need(i);
      const auto at = v.find('@');
      RELOGIC_CHECK_MSG(at != std::string::npos, "--load CIRCUIT@r,c");
      opt.loads.emplace_back(v.substr(0, at), parse_coord(v.substr(at + 1)));
    } else if (arg == "--move") {
      const std::string v = need(i);
      const auto colon = v.find(':');
      RELOGIC_CHECK_MSG(colon != std::string::npos, "--move NAME:r,c");
      opt.moves.emplace_back(v.substr(0, colon),
                             parse_coord(v.substr(colon + 1)));
    } else if (arg == "--relocate") {
      const std::string v = need(i);
      const auto colon = v.find(':');
      RELOGIC_CHECK_MSG(colon != std::string::npos,
                        "--relocate r,c.k:r,c.k");
      opt.cell_moves.emplace_back(parse_site(v.substr(0, colon)),
                                  parse_site(v.substr(colon + 1)));
    } else if (arg == "--defrag") {
      const std::string v = need(i);
      const auto x = v.find('x');
      RELOGIC_CHECK_MSG(x != std::string::npos, "--defrag HxW");
      opt.defrag_request = {std::stoi(v.substr(0, x)),
                            std::stoi(v.substr(x + 1))};
    } else if (arg == "--fleet") {
      opt.fleet = std::stoi(need(i));
      RELOGIC_CHECK_MSG(opt.fleet >= 1, "--fleet needs at least 1 device");
    } else if (arg == "--random-tasks") {
      opt.random_tasks = std::stoi(need(i));
    } else if (arg == "--workload") {
      const std::string v = need(i);
      const auto p = sched::parse_arrival_pattern(v);
      RELOGIC_CHECK_MSG(p.has_value(), "unknown workload pattern: " + v);
      opt.workload = *p;
    } else if (arg == "--admission") {
      const std::string v = need(i);
      const auto m = runtime::parse_admission_mode(v);
      RELOGIC_CHECK_MSG(m.has_value(), "unknown admission mode: " + v);
      opt.fleet_cfg.admission = *m;
    } else if (arg == "--rebalance") {
      opt.fleet_cfg.rebalance_backlog_ms = std::stod(need(i));
    } else if (arg == "--grid") {
      const std::string v = need(i);
      const auto x = v.find('x');
      RELOGIC_CHECK_MSG(x != std::string::npos, "--grid RxC");
      opt.fleet_cfg.rows = std::stoi(v.substr(0, x));
      opt.fleet_cfg.cols = std::stoi(v.substr(x + 1));
    } else if (arg == "--dispatch") {
      const std::string v = need(i);
      const auto p = runtime::parse_dispatch_policy(v);
      RELOGIC_CHECK_MSG(p.has_value(), "unknown dispatch policy: " + v);
      opt.fleet_cfg.dispatch = *p;
    } else if (arg == "--mgmt") {
      const std::string v = need(i);
      if (v == "none") {
        opt.fleet_cfg.sched.policy = sched::ManagementPolicy::kNoRearrange;
      } else if (v == "halt") {
        opt.fleet_cfg.sched.policy = sched::ManagementPolicy::kHaltAndMove;
      } else if (v == "transparent") {
        opt.fleet_cfg.sched.policy = sched::ManagementPolicy::kTransparent;
      } else {
        throw ContractError("unknown management policy: " + v);
      }
    } else if (arg == "--seed") {
      opt.seed = std::stoull(need(i));
    } else if (arg == "--mean-interarrival") {
      opt.mean_interarrival_ms = std::stod(need(i));
    } else if (arg == "--mean-duration") {
      opt.mean_duration_ms = std::stod(need(i));
    } else if (arg == "--no-batch") {
      no_batch = true;
    } else if (arg == "--batch-ops") {
      opt.fleet_cfg.batch.max_ops = std::stoi(need(i));
    } else if (arg == "--port") {
      const std::string v = need(i);
      const auto p = config::parse_port_backend(v);
      RELOGIC_CHECK_MSG(p.has_value(), "unknown port backend: " + v);
      opt.port = *p;
    } else if (arg == "--granularity") {
      const std::string v = need(i);
      const auto g = config::parse_write_granularity(v);
      RELOGIC_CHECK_MSG(g.has_value(), "unknown write granularity: " + v);
      opt.granularity = *g;
    } else if (arg == "--device-plane") {
      // D:PORT:GRAN, e.g. 2:icap32:dirty
      const std::string v = need(i);
      const auto c1 = v.find(':');
      const auto c2 = v.find(':', c1 == std::string::npos ? c1 : c1 + 1);
      RELOGIC_CHECK_MSG(c1 != std::string::npos && c2 != std::string::npos,
                        "--device-plane D:PORT:GRANULARITY");
      const int dev = std::stoi(v.substr(0, c1));
      const auto p = config::parse_port_backend(v.substr(c1 + 1, c2 - c1 - 1));
      const auto g = config::parse_write_granularity(v.substr(c2 + 1));
      RELOGIC_CHECK_MSG(p.has_value() && g.has_value(),
                        "--device-plane D:PORT:GRANULARITY, bad value: " + v);
      opt.device_planes[dev] = runtime::ConfigPlaneSpec{*p, *g};
    } else if (arg == "--threads") {
      opt.fleet_cfg.threads = std::stoi(need(i));
    } else if (arg == "--telemetry") {
      opt.telemetry_file = need(i);
    } else if (arg == "--trace") {
      opt.trace_file = need(i);
    } else if (arg == "--trace-wall") {
      opt.trace_wall = true;
    } else if (arg == "--metrics-out") {
      opt.metrics_file = need(i);
    } else if (arg == "--metrics-interval-ms") {
      opt.metrics_interval_ms = std::stod(need(i));
      RELOGIC_CHECK_MSG(opt.metrics_interval_ms > 0.0,
                        "--metrics-interval-ms must be > 0");
    } else if (arg == "--metrics-format") {
      opt.metrics_format = need(i);
      RELOGIC_CHECK_MSG(opt.metrics_format == "json" ||
                            opt.metrics_format == "csv" ||
                            opt.metrics_format == "prom",
                        "--metrics-format json|csv|prom");
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--fault-rate") {
      opt.fault_rate = std::stod(need(i));
    } else if (arg == "--fault-seed") {
      opt.fault_seed = std::stoull(need(i));
    } else if (arg == "--quarantine-threshold") {
      opt.quarantine_threshold = std::stod(need(i));
    } else if (arg == "--sweep-window") {
      opt.sweep_window = std::stoi(need(i));
    } else if (arg == "--sweep-period") {
      opt.sweep_period_ms = std::stod(need(i));
    } else if (arg == "--out") {
      opt.out_file = need(i);
    } else if (arg == "--script") {
      opt.script = true;
    } else if (arg == "--map") {
      opt.map = true;
    } else if (arg == "--gated") {
      opt.gated = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(2);
    }
  }
  // Fault injection / quarantine only mean anything with the sweep running;
  // silently ignoring them would fake a healthy fleet.
  if (!opt.selftest &&
      (opt.fault_rate > 0.0 || opt.quarantine_threshold > 0.0)) {
    std::fprintf(stderr,
                 "note: --fault-rate / --quarantine-threshold imply "
                 "--selftest; enabling the roving self-test\n");
    opt.selftest = true;
  }
  if (no_batch) opt.fleet_cfg.batch.max_ops = 1;  // beats --batch-ops
  return opt;
}

std::unique_ptr<obs::Tracer> make_tracer(const Options& opt) {
  if (opt.trace_file.empty()) return nullptr;
  obs::Tracer::Options topt;
  topt.wall_clock = opt.trace_wall;
  return std::make_unique<obs::Tracer>(topt);
}

/// Renders the metrics timeline in the requested --metrics-format and
/// writes it to --metrics-out. `devices` feeds the per-device section of
/// the JSON document (empty in single-device mode).
int write_metrics(
    const Options& opt, const obs::MetricsTimeline& timeline,
    const std::vector<std::pair<int, const obs::MetricsTimeline*>>& devices,
    double sample_interval_ms) {
  std::string payload;
  if (opt.metrics_format == "json") {
    payload = obs::metrics_json_document(timeline, devices,
                                         sample_interval_ms);
  } else if (opt.metrics_format == "csv") {
    payload = timeline.to_csv();
  } else if (timeline.empty()) {
    std::fprintf(stderr, "no metrics samples to export as %s\n",
                 opt.metrics_format.c_str());
    return 1;
  } else {
    payload = obs::to_prometheus(timeline.samples().back());
  }
  std::ofstream out(opt.metrics_file);
  out << payload;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "failed to write metrics to %s\n",
                 opt.metrics_file.c_str());
    return 1;
  }
  std::printf("metrics written to %s (%s)\n", opt.metrics_file.c_str(),
              opt.metrics_format.c_str());
  return 0;
}

int finish_trace(const Options& opt, const obs::Tracer& tracer) {
  if (!tracer.write_json(opt.trace_file)) {
    std::fprintf(stderr, "failed to write trace to %s\n",
                 opt.trace_file.c_str());
    return 1;
  }
  std::printf("trace written to %s (open in ui.perfetto.dev)%s\n",
              opt.trace_file.c_str(),
              tracer.dropped_events() > 0 ? " [ring buffer dropped events]"
                                          : "");
  return 0;
}

int run_fleet(const Options& opt) {
  runtime::FleetConfig cfg = opt.fleet_cfg;
  cfg.devices = opt.fleet;
  cfg.config_plane = runtime::ConfigPlaneSpec{opt.port, opt.granularity};
  cfg.device_config_planes = opt.device_planes;
  cfg.health.selftest = {opt.selftest, opt.sweep_window, opt.sweep_period_ms};
  cfg.health.fault_rate = opt.fault_rate;
  cfg.health.fault_seed = opt.fault_seed.value_or(opt.seed);
  cfg.health.quarantine_threshold = opt.quarantine_threshold;
  if (!opt.metrics_file.empty())
    cfg.metrics.sample_interval_ms = opt.metrics_interval_ms;

  sched::WorkloadParams params;
  params.pattern = opt.workload;
  params.task_count = opt.random_tasks;
  params.mean_interarrival_ms = opt.mean_interarrival_ms;
  params.mean_duration_ms = opt.mean_duration_ms;
  params.max_side = std::min(10, std::min(cfg.rows, cfg.cols));
  params.seed = opt.seed;

  runtime::FleetManager fleet(cfg);
  const std::unique_ptr<obs::Tracer> tracer = make_tracer(opt);
  if (tracer) fleet.set_tracer(tracer.get());
  fleet.submit_all(sched::WorkloadGenerator(params).generate());

  // Operator-facing wall time for the run banner below — simulation results
  // and the JSON export never see it.
  // lint-allow(wall-clock): wall time feeds the human banner, not the export
  const auto wall_start = std::chrono::steady_clock::now();
  const auto report = fleet.run();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          // lint-allow(wall-clock): same banner-only measurement
          std::chrono::steady_clock::now() - wall_start)
          .count();

  std::printf(
      "fleet run: %d devices (%dx%d), %s admission, dispatch %s, policy %s, "
      "workload %s, port %s, granularity %s\n",
      cfg.devices, cfg.rows, cfg.cols,
      runtime::to_string(cfg.admission).c_str(),
      runtime::to_string(cfg.dispatch).c_str(),
      sched::to_string(cfg.sched.policy).c_str(),
      sched::to_string(opt.workload).c_str(),
      config::to_string(cfg.config_plane.port).c_str(),
      config::to_string(cfg.config_plane.granularity).c_str());
  for (const auto& d : report.devices) {
    std::printf(
        "  device %d: %4lld admitted, %4lld done, %3lld rejected, "
        "%3lld moves, makespan %s, config txns %lld (unbatched %lld)\n",
        d.device,
        static_cast<long long>(d.telemetry.counter_value("tasks_admitted")),
        static_cast<long long>(d.telemetry.counter_value("tasks_completed")),
        static_cast<long long>(d.telemetry.counter_value("tasks_rejected")),
        static_cast<long long>(
            d.telemetry.counter_value("rearrangement_moves")),
        d.stats.makespan.to_string().c_str(),
        static_cast<long long>(
            d.telemetry.counter_value("config_transactions")),
        static_cast<long long>(
            d.telemetry.counter_value("config_transactions_unbatched")));
  }
  std::printf(
      "aggregate: %d admitted, %d completed, %d rejected, %d rebalanced, "
      "makespan %s\n",
      report.admitted, report.completed, report.rejected, report.rebalanced,
      report.makespan.to_string().c_str());
  if (cfg.health.enabled()) {
    std::printf(
        "health: %lld CLBs swept (%lld rotations), %d tested, %d faulty "
        "cells detected (%lld CLBs masked), %d devices quarantined\n",
        static_cast<long long>(
            report.aggregate.counter_value("swept_clbs")),
        static_cast<long long>(
            report.aggregate.counter_value("sweep_rotations")),
        report.tested_clbs, report.faulty_cells,
        static_cast<long long>(
            report.aggregate.counter_value("faulty_clbs")),
        report.quarantined);
  }
  std::printf(
      "throughput: %.1f tasks/s (model), wall %.1f ms; config txns %lld vs "
      "%lld unbatched\n",
      report.throughput_tasks_per_s(), wall_ms,
      static_cast<long long>(
          report.aggregate.counter_value("config_transactions")),
      static_cast<long long>(
          report.aggregate.counter_value("config_transactions_unbatched")));

  if (!opt.telemetry_file.empty()) {
    std::ofstream out(opt.telemetry_file);
    out << report.to_json();
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed to write telemetry to %s\n",
                   opt.telemetry_file.c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", opt.telemetry_file.c_str());
  } else {
    std::printf("\n%s", report.to_json().c_str());
  }
  if (!opt.metrics_file.empty()) {
    std::vector<std::pair<int, const obs::MetricsTimeline*>> parts;
    parts.reserve(report.devices.size());
    for (const auto& d : report.devices)
      parts.emplace_back(d.device, &d.timeline);
    const int rc = write_metrics(opt, report.timeline, parts,
                                 cfg.metrics.sample_interval_ms);
    if (rc != 0) return rc;
  }
  if (tracer) return finish_trace(opt, *tracer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    if (opt.verbose) set_log_level(LogLevel::kInfo);
    if (opt.fleet > 0) return run_fleet(opt);

    fabric::Fabric fab(parse_device(opt.device));
    const fabric::DelayModel dm;
    const std::unique_ptr<config::ConfigPort> port_owner =
        config::make_port(opt.port);
    const config::ConfigPort& port = *port_owner;
    config::ConfigController controller(fab, port, opt.granularity);
    // Single-device tracing: one pid with a config-port lane (every
    // transaction the controller applies) and a health lane (the rover's
    // window spans), both on the cumulative port-busy clock.
    const std::unique_ptr<obs::Tracer> tracer = make_tracer(opt);
    obs::TraceTrack tr_health;
    if (tracer) {
      controller.set_trace(tracer->track(0, 0, opt.device, "config-port"));
      tr_health = tracer->track(0, 1, opt.device, "health");
    }
    sim::FabricSim sim(fab, dm);
    sim.add_clock(sim::ClockSpec{});
    place::Implementer implementer(fab, dm);
    place::Router router(fab, dm);
    reloc::RelocationEngine engine(controller, router, &sim);
    config::SnapshotKeeper snapshots(fab);

    // ---- load circuits ------------------------------------------------------
    std::vector<netlist::Netlist> netlists;
    std::vector<place::Implementation> impls;
    std::vector<std::unique_ptr<sim::CircuitHarness>> harnesses;
    for (const auto& [name, origin] : opt.loads) {
      netlists.push_back(make_circuit(name, opt.gated));
    }
    for (std::size_t i = 0; i < netlists.size(); ++i) {
      const auto mapped = netlist::map_netlist(netlists[i]);
      place::ImplementOptions iopt;
      iopt.region =
          place::suggest_region(mapped, opt.loads[i].second, fab.geometry());
      impls.push_back(implementer.implement(mapped, iopt));
      std::printf("loaded %-10s %4d cells in %s\n",
                  impls.back().name.c_str(), impls.back().cell_count(),
                  impls.back().region.to_string().c_str());
    }
    for (std::size_t i = 0; i < impls.size(); ++i) {
      harnesses.push_back(std::make_unique<sim::CircuitHarness>(
          sim, netlists[i], impls[i]));
    }

    // Warm the circuits up so relocations happen against live state.
    Rng rng(2003);
    for (auto& h : harnesses) {
      for (int c = 0; c < 10; ++c) {
        if (!h->step_random(rng).ok()) {
          std::fprintf(stderr, "circuit failed pre-relocation lockstep\n");
          return 1;
        }
      }
    }

    // Occupancy map rendering (the Fig. 7 floorplan view, textually).
    auto print_map = [&](const char* when) {
      if (!opt.map) return;
      area::AreaManager view(fab.geometry().clb_rows, fab.geometry().clb_cols);
      for (const auto& impl : impls) view.allocate_at(impl.name, impl.region);
      std::printf("\n%s (fragmentation %.3f)\n%s", when, view.fragmentation(),
                  view.to_ascii().c_str());
    };
    print_map("occupancy before rearrangement");

    snapshots.take("before-rearrangement");  // the recovery copy

    const auto totals_before = controller.totals();

    // Phase-boundary metrics sampling: the single-device tool has no DES
    // run, so each completed phase lands one cumulative snapshot of the
    // controller's totals at the port-busy instant it finished (phases that
    // moved nothing coalesce into the previous row).
    runtime::Telemetry metrics_live;
    obs::MetricsTimeline metrics_timeline;
    const auto sample_metrics = [&] {
      if (opt.metrics_file.empty()) return;
      const auto tot = controller.totals();
      const auto set_abs = [&](const char* name, std::int64_t v) {
        auto& c = metrics_live.counter(name);
        c.add(v - c.value());
      };
      set_abs("config_transactions", tot.ops);
      set_abs("frame_writes", tot.frames_written);
      set_abs("frame_writes_clean_skipped", tot.frames_skipped);
      set_abs("column_writes", tot.columns_touched);
      metrics_live.gauge("port_busy_ms").set(tot.time.milliseconds());
      metrics_timeline.record(tot.time, metrics_live);
    };
    sample_metrics();  // baseline: the initial circuit configurations

    // ---- explicit cell relocations ----------------------------------------
    for (const auto& [from, to] : opt.cell_moves) {
      place::Implementation* owner = nullptr;
      int index = -1;
      for (auto& impl : impls) {
        for (int k = 0; k < impl.cell_count(); ++k) {
          if (impl.sites[static_cast<std::size_t>(k)] == from) {
            owner = &impl;
            index = k;
          }
        }
      }
      if (owner == nullptr) {
        std::fprintf(stderr, "no loaded cell at %s\n",
                     from.to_string().c_str());
        return 1;
      }
      const auto report = engine.relocate_cell(*owner, index, to);
      std::printf("relocated %s\n", report.to_string().c_str());
    }
    sample_metrics();  // after cell relocations

    // ---- whole-function moves ----------------------------------------------
    for (const auto& [name, origin] : opt.moves) {
      place::Implementation* impl = nullptr;
      for (auto& candidate : impls) {
        if (candidate.name == name) impl = &candidate;
      }
      if (impl == nullptr) {
        std::fprintf(stderr, "no loaded function named %s\n", name.c_str());
        return 1;
      }
      const ClbRect dest{origin.row, origin.col, impl->region.height,
                         impl->region.width};
      const auto report = engine.relocate_function(*impl, dest);
      std::printf("moved %-10s -> %s: %d cells, %d frames, config %s\n",
                  name.c_str(), dest.to_string().c_str(),
                  static_cast<int>(report.cells.size()),
                  report.frames_written,
                  report.config_time.to_string().c_str());
    }
    sample_metrics();  // after whole-function moves

    // ---- defragmentation -----------------------------------------------------
    if (opt.defrag_request) {
      area::AreaManager mgr(fab.geometry().clb_rows, fab.geometry().clb_cols);
      std::vector<area::RegionId> region_of(impls.size());
      for (std::size_t i = 0; i < impls.size(); ++i) {
        region_of[i] = mgr.allocate_at(impls[i].name, impls[i].region);
      }
      const auto [h, w] = *opt.defrag_request;
      std::printf("fragmentation before: %.3f, largest free %s\n",
                  mgr.fragmentation(),
                  mgr.largest_free_rect().to_string().c_str());
      const auto plan = area::plan_for_request(mgr, h, w);
      if (!plan) {
        std::fprintf(stderr, "no rearrangement makes %dx%d fit\n", h, w);
        return 1;
      }
      for (const auto& mv : plan->moves) {
        for (std::size_t i = 0; i < impls.size(); ++i) {
          if (region_of[i] == mv.region) {
            const auto report = engine.relocate_function(impls[i], mv.to);
            mgr.move(mv.region, mv.to);
            std::printf("defrag move %-10s %s -> %s (%s config)\n",
                        impls[i].name.c_str(), mv.from.to_string().c_str(),
                        mv.to.to_string().c_str(),
                        report.config_time.to_string().c_str());
          }
        }
      }
      std::printf("request slot: %s\n", plan->request_slot.to_string().c_str());
    }
    sample_metrics();  // after defragmentation

    // ---- roving self-test (single-device): a full fabric-level rotation ---
    if (opt.selftest) {
      const auto& geom = fab.geometry();
      health::FaultMap fault_map(geom.clb_rows, geom.clb_cols,
                                 geom.cells_per_clb);
      if (opt.fault_rate > 0.0) {
        health::FaultInjector injector(geom.clb_rows, geom.clb_cols,
                                       geom.cells_per_clb, opt.fault_rate,
                                       opt.fault_seed.value_or(opt.seed));
        // Faults land on currently-free cells only: a defect under already
        // running logic is a functional failure the structural self-test
        // cannot (and should not pretend to) catch — injecting there would
        // just corrupt the live circuits before the sweep ever starts.
        for (const auto& rec : injector.generate().records()) {
          if (!fab.cell(rec.clb, rec.cell).used)
            fault_map.inject(rec.clb, rec.cell, rec.fault);
        }
        fault_map.install(fab);
        std::printf("injected %d faulty cells (rate %.4f, seed %llu)\n",
                    fault_map.injected_count(), opt.fault_rate,
                    static_cast<unsigned long long>(
                        opt.fault_seed.value_or(opt.seed)));
      }
      health::RovingTester rover(engine, fault_map);
      rover.set_trace(tr_health);
      health::RoverOptions ropt;
      ropt.window_cols = opt.sweep_window;
      std::vector<place::Implementation*> live;
      for (auto& impl : impls) live.push_back(&impl);
      const auto sweep = rover.sweep(live, ropt);
      std::printf("%s\n", sweep.to_string().c_str());
      std::printf("selftest: %d/%d injected faults detected\n",
                  fault_map.detected_count(), fault_map.injected_count());
    }
    sample_metrics();  // after the self-test rotation

    print_map("occupancy after rearrangement");

    // ---- post-checks: circuits still in lockstep ---------------------------
    for (auto& h : harnesses) {
      for (int c = 0; c < 10; ++c) {
        if (!h->step_random(rng).ok()) {
          std::fprintf(stderr,
                       "lockstep failure after rearrangement — restoring "
                       "recovery copy\n");
          snapshots.restore_latest();
          return 1;
        }
      }
    }

    const auto totals = controller.totals();
    std::printf(
        "\nconfiguration summary: %d transactions, %d frames (%d "
        "clean-skipped), %d columns, port busy %s (%s, %s granularity)\n",
        totals.ops - totals_before.ops,
        totals.frames_written - totals_before.frames_written,
        totals.frames_skipped - totals_before.frames_skipped,
        totals.columns_touched - totals_before.columns_touched,
        (totals.time - totals_before.time).to_string().c_str(),
        port.name().c_str(),
        config::to_string(controller.granularity()).c_str());
    if (!sim.monitor().clean()) {
      std::printf("monitor violations: %zu\n",
                  sim.monitor().violations().size());
      return 1;
    }
    std::puts("monitor: no glitches, no drive conflicts, no state loss");

    if (opt.script || !opt.out_file.empty()) {
      // Re-render the executed rearrangement as a bitstream/script. Ops are
      // not captured during execution (the engine applies them directly),
      // so synthesise a summary op per loaded function region instead.
      config::BitstreamWriter writer(controller);
      std::vector<config::ConfigOp> ops;
      for (const auto& impl : impls) {
        config::ConfigOp op("final configuration of " + impl.name);
        for (int i = 0; i < impl.cell_count(); ++i) {
          const auto& site = impl.sites[static_cast<std::size_t>(i)];
          op.write_cell(site.clb, site.cell,
                        fab.cell(site.clb, site.cell));
        }
        ops.push_back(std::move(op));
      }
      if (opt.script) {
        std::printf("\n%s", writer.script(ops).c_str());
      }
      if (!opt.out_file.empty()) {
        const auto image = writer.render(ops);
        std::ofstream out(opt.out_file, std::ios::binary);
        out.write(reinterpret_cast<const char*>(image.bytes.data()),
                  static_cast<std::streamsize>(image.bytes.size()));
        out.flush();
        if (!out) {
          std::fprintf(stderr, "failed to write bitstream to %s\n",
                       opt.out_file.c_str());
          return 1;
        }
        std::printf("wrote %zu bytes (%d frames, crc %08x) to %s\n",
                    image.bytes.size(), image.frame_count, image.crc,
                    opt.out_file.c_str());
      }
    }
    if (!opt.metrics_file.empty()) {
      sample_metrics();  // closing row at the final port-busy instant
      // Phase-driven sampling has no fixed period; 0 marks that in the
      // schema (the fleet document carries the real interval instead).
      const int rc = write_metrics(opt, metrics_timeline, {}, 0.0);
      if (rc != 0) return rc;
    }
    if (tracer) return finish_trace(opt, *tracer);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "relogic-cli: %s\n", e.what());
    return 1;
  }
}
