// bench_microperf — google-benchmark micro-performance of the library's
// hot paths: routing-graph construction, maze routing, event-driven
// simulation throughput, and the relocation engine itself.
//
// These are tooling benchmarks (how fast is the *simulator*), not paper
// reproductions; they bound how large an experiment the repository can
// drive and catch performance regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "relogic/area/defrag.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/netlist/golden.hpp"
#include "relogic/obs/timeline.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/scheduler.hpp"
#include "relogic/sched/workload.hpp"
#include "relogic/sim/harness.hpp"

namespace {

using namespace relogic;

// ---- routing skeleton / device bring-up -------------------------------------
// Three measurements bracket the skeleton-cache design (DESIGN.md §2
// addendum): Cold is the two-pass counting CSR build paid once per
// geometry; Staging is the seed's vector-of-vectors builder kept as the
// audit reference — the within-run gate in check_perf_baseline.py holds
// Cold at XCV1000 to ≤ Staging/5; FabricAcquireCached is what every device
// after the first actually pays (gated absolute: ≤ 1 ms at XCV1000).

void BM_RoutingGraphBuildCold(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  for (auto _ : state) {
    auto skel = fabric::RoutingSkeleton::build(geom);
    benchmark::DoNotOptimize(skel->edge_count());
  }
  state.SetLabel(geom.name);
}
BENCHMARK(BM_RoutingGraphBuildCold)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Unit(benchmark::kMillisecond);

void BM_RoutingGraphBuildStaging(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  for (auto _ : state) {
    auto skel = fabric::RoutingSkeleton::build_reference(geom);
    benchmark::DoNotOptimize(skel->edge_count());
  }
  state.SetLabel(geom.name);
}
BENCHMARK(BM_RoutingGraphBuildStaging)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Unit(benchmark::kMillisecond);

void BM_FabricAcquireCached(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  // Warm the process-wide skeleton cache; the loop then measures the
  // steady-state bring-up of one more device of an already-seen geometry
  // (cache lookup + occupancy/cell-state allocation, no edge work).
  fabric::Fabric warmup(geom);
  for (auto _ : state) {
    fabric::Fabric fab(geom);
    benchmark::DoNotOptimize(fab.skeleton().node_count());
  }
  state.SetLabel(geom.name);
}
BENCHMARK(BM_FabricAcquireCached)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

void BM_MazeRoute(benchmark::State& state) {
  const int span = static_cast<int>(state.range(0));
  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  place::Router router(fab, dm);
  const auto& g = fab.skeleton();
  int k = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto net = fab.create_net("n" + std::to_string(k));
    const int row = 2 + (k % 20);
    fab.attach_source(net, g.out_pin({row, 2}, k % 4, false));
    state.ResumeTiming();
    router.route_sink(net,
                      g.in_pin({row, 2 + span}, k % 4, fabric::CellPort::kI0));
    state.PauseTiming();
    fab.destroy_net(net);
    state.ResumeTiming();
    ++k;
  }
}
BENCHMARK(BM_MazeRoute)->Arg(4)->Arg(16)->Arg(38)->Unit(benchmark::kMicrosecond);

// One Sec. 3 routing-optimisation pass in the Fig. 5 set-up: a Gray
// counter bounced across a 16x16 device so its nets stretch, then every
// sink is priced and the profitable ones rerouted live.
void BM_RouteOptimization(benchmark::State& state) {
  int rerouted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fabric::Fabric fab(fabric::DeviceGeometry::tiny(16, 16));
    const fabric::DelayModel dm;
    config::BoundaryScanPort jtag;
    config::ConfigController controller(fab, jtag);
    sim::FabricSim sim(fab, dm);
    sim.add_clock(sim::ClockSpec{});
    place::Implementer implementer(fab, dm);
    place::Router router(fab, dm);
    reloc::RelocationEngine engine(controller, router, &sim);
    const auto nl = netlist::bench::gray_counter(4);
    auto impl = implementer.implement(
        netlist::map_netlist(nl),
        place::ImplementOptions{ClbRect{1, 1, 3, 3}, 0});
    sim::CircuitHarness harness(sim, nl, impl);
    for (int i = 0; i < 5; ++i) harness.step({});
    engine.relocate_function(impl, ClbRect{11, 11, 3, 3});
    engine.relocate_function(impl, ClbRect{1, 11, 3, 3});
    state.ResumeTiming();

    rerouted += engine.optimize_function_routing(impl).sinks_rerouted;
  }
  state.counters["rerouted_per_pass"] =
      static_cast<double>(rerouted) / static_cast<double>(state.iterations());
}
// Each iteration pays ~20 ms of untimed set-up, so a short minimum time.
BENCHMARK(BM_RouteOptimization)->MinTime(0.1)->Unit(benchmark::kMillisecond);

// The same small FSM on two device sizes: a clock edge visits only its
// domain's FF sites (DESIGN.md §11), so the time per cycle should not grow
// with the device.
void BM_SimulatorCycles(benchmark::State& state, fabric::DeviceGeometry geom) {
  fabric::Fabric fab(std::move(geom));
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  const auto nl = netlist::bench::random_fsm("perf", 24, 4, 4, 5);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{1, 1, 6, 6}, 0});
  // Free-running stimulus through pads.
  Rng rng(1);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    for (const auto& [sig, pad] : impl.input_pads) {
      sim.drive_pad(pad, rng.next_bool());
    }
    sim.run_cycles(10);
    cycles += 10;
  }
  state.SetItemsProcessed(cycles);
}
BENCHMARK_CAPTURE(BM_SimulatorCycles, tiny16,
                  fabric::DeviceGeometry::tiny(16, 16));
BENCHMARK_CAPTURE(BM_SimulatorCycles, xcv200, fabric::DeviceGeometry::xcv200());

// One pad driving a net of several hundred FF sinks spread over an XCV200,
// toggled every cycle: each toggle schedules a pin event per sink, so the
// pending set holds hundreds of events and per-event cost (sink lookup,
// queue step) dominates.
void BM_SimulatorFanout(benchmark::State& state) {
  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  place::Router router(fab, dm);
  const auto& g = fab.skeleton();
  const auto& geom = fab.geometry();
  auto ff = fabric::LogicCellConfig{};
  ff.lut = fabric::luts::kBufI0;
  ff.reg = fabric::RegMode::kFF;
  ff.used = true;
  const fabric::NodeId pad = g.pad(ClbCoord{0, geom.clb_cols / 2}, 0);
  const auto net = fab.create_net("fanout");
  fab.attach_source(net, pad);
  int sinks = 0;
  for (int r = 1; r < geom.clb_rows; r += 3) {
    for (int c = 1; c < geom.clb_cols; c += 3) {
      for (int k = 0; k < 2; ++k) {
        fab.set_cell_config(ClbCoord{r, c}, k, ff);
        router.route_sink(net, g.in_pin({r, c}, k, fabric::CellPort::kI0));
        ++sinks;
      }
    }
  }
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  bool level = false;
  std::int64_t cycles = 0;
  for (auto _ : state) {
    for (int i = 0; i < 10; ++i) {
      level = !level;
      sim.drive_pad(pad, level);
      sim.run_cycles(1);
    }
    benchmark::DoNotOptimize(sim.events_processed());
    cycles += 10;
  }
  state.SetItemsProcessed(cycles);
  state.counters["sinks"] = sinks;
}
BENCHMARK(BM_SimulatorFanout)->Unit(benchmark::kMicrosecond);

// One Fig. 4 port wait: a gated-clock FSM on an XCV200 capturing with CE
// high, new held inputs, then one run_until over 2900 edges of a 125 kHz
// clock (the ~23 ms a cell takes over Boundary Scan). Steady-state
// fast-forward (DESIGN.md §11) skips the edges after the state repeats.
void BM_SimulatorPortWait(benchmark::State& state) {
  fabric::Fabric fab(fabric::DeviceGeometry::xcv200());
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  const SimTime period = SimTime::us(8);
  sim.add_clock(sim::ClockSpec{0, period, period});
  place::Implementer implementer(fab, dm);
  const auto nl = netlist::bench::random_fsm(
      "perf", 24, 4, 4, 5, netlist::bench::ClockingStyle::kGatedClock);
  auto impl = implementer.implement(
      netlist::map_netlist(nl),
      place::ImplementOptions{ClbRect{1, 1, 6, 6}, 0});
  Rng rng(1);
  std::int64_t edges = 0;
  for (auto _ : state) {
    for (const auto& [sig, pad] : impl.input_pads)
      sim.drive_pad(pad, nl.node(sig).name == "ce" || rng.next_bool());
    const std::int64_t before = sim.edges_seen(0);
    sim.run_until(sim.now() + period * 2900);
    benchmark::DoNotOptimize(sim.events_processed());
    edges += sim.edges_seen(0) - before;
  }
  state.SetItemsProcessed(edges);
  state.counters["skipped_share"] =
      edges == 0 ? 0.0
                 : static_cast<double>(sim.edges_fast_forwarded()) /
                       static_cast<double>(edges);
}
BENCHMARK(BM_SimulatorPortWait)->Unit(benchmark::kMicrosecond);

// The golden model's cost per clock cycle, driven the way
// CircuitHarness::step drives it alongside the fabric: new inputs, settle,
// one edge. The FSM is BM_SimulatorCycles's, gated-clock style.
void BM_GoldenClock(benchmark::State& state) {
  const auto nl = netlist::bench::random_fsm(
      "perf", 24, 4, 4, 5, netlist::bench::ClockingStyle::kGatedClock);
  netlist::GoldenSim golden(nl);
  const netlist::SigId out = nl.outputs().front().signal;
  Rng rng(1);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    for (int i = 0; i < 10; ++i) {
      for (const netlist::SigId in : nl.inputs())
        golden.set_input(in, rng.next_bool());
      golden.settle();
      golden.clock();
    }
    benchmark::DoNotOptimize(golden.value(out));
    cycles += 10;
  }
  state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_GoldenClock)->Unit(benchmark::kMicrosecond);

void BM_GatedCellRelocation(benchmark::State& state) {
  // Wall-clock cost of one full gated-clock relocation (engine + sim),
  // not the modelled configuration time.
  for (auto _ : state) {
    state.PauseTiming();
    fabric::Fabric fab(fabric::DeviceGeometry::tiny(14, 14));
    const fabric::DelayModel dm;
    config::BoundaryScanPort port;
    config::ConfigController controller(fab, port);
    sim::FabricSim sim(fab, dm);
    sim.add_clock(sim::ClockSpec{});
    place::Implementer implementer(fab, dm);
    place::Router router(fab, dm);
    reloc::RelocationEngine engine(controller, router, &sim);
    const auto nl = netlist::bench::shift_register(
        2, netlist::bench::ClockingStyle::kGatedClock);
    auto impl = implementer.implement(
        netlist::map_netlist(nl),
        place::ImplementOptions{ClbRect{2, 2, 2, 2}, 0});
    sim::CircuitHarness harness(sim, nl, impl);
    harness.step({true, true});
    state.ResumeTiming();

    benchmark::DoNotOptimize(
        engine.relocate_cell(impl, 0, place::CellSite{ClbCoord{10, 10}, 0}));
  }
}
BENCHMARK(BM_GatedCellRelocation)->Unit(benchmark::kMillisecond);

// ---- config-plane data path -------------------------------------------------
// The hot path every relocation costing, defrag plan, health sweep and fleet
// replay funnels through: ConfigController::apply / preview and the
// transaction batcher. Swept across device scales because the old set/map
// path degraded with frame-set size (preview re-scanned the whole frame set
// per touched column).

/// An op writing one cell in every `stride`-th CLB column — many columns,
/// many frames, the shape that exposed the quadratic preview. `phase` varies
/// the content so successive applies stay effective (never dirty-skipped).
config::ConfigOp spread_op(const fabric::DeviceGeometry& geom, int stride,
                           int phase) {
  config::ConfigOp op("spread" + std::to_string(phase));
  for (int c = 0; c < geom.clb_cols; c += stride) {
    fabric::LogicCellConfig cfg;
    cfg.used = true;
    cfg.reg = fabric::RegMode::kFF;
    cfg.lut = static_cast<std::uint16_t>(0x1111u * (1 + (phase & 3)) + c);
    op.write_cell(ClbCoord{c % geom.clb_rows, c}, c % geom.cells_per_clb, cfg);
  }
  return op;
}

void BM_ConfigApply(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  const config::ConfigOp ops[2] = {spread_op(geom, 2, 0), spread_op(geom, 2, 1)};
  int phase = 0;
  std::int64_t applied = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.apply(ops[phase & 1]).frames_written);
    ++phase;
    ++applied;
  }
  state.SetItemsProcessed(applied);
  state.SetLabel(geom.name);
}
BENCHMARK(BM_ConfigApply)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

void BM_DirtyPreview(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  const config::ConfigOp op = spread_op(geom, 2, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.preview(op).frames_written);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(geom.name);
}
BENCHMARK(BM_DirtyPreview)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

void BM_BatcherFlush(benchmark::State& state) {
  const auto geom = fabric::DeviceGeometry::preset(
      static_cast<fabric::DevicePreset>(state.range(0)));
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  runtime::BatchOptions bopt;
  bopt.max_ops = 8;
  runtime::TransactionBatcher batcher(ctl, bopt);
  // Eight ops per flush, each touching a different eighth of the columns.
  std::vector<config::ConfigOp> ops[2];
  for (int phase = 0; phase < 2; ++phase) {
    for (int k = 0; k < 8; ++k) {
      config::ConfigOp op("op" + std::to_string(k));
      for (int c = k; c < geom.clb_cols; c += 8) {
        fabric::LogicCellConfig cfg;
        cfg.used = true;
        cfg.lut = static_cast<std::uint16_t>(0x2222u * (1 + (phase & 1)) + c);
        op.write_cell(ClbCoord{(c + k) % geom.clb_rows, c},
                      k % geom.cells_per_clb, cfg);
      }
      ops[phase].push_back(std::move(op));
    }
  }
  int phase = 0;
  std::int64_t flushed = 0;
  for (auto _ : state) {
    for (const auto& op : ops[phase & 1]) batcher.enqueue(op);
    batcher.flush();
    ++phase;
    ++flushed;
  }
  state.SetItemsProcessed(flushed);
  state.SetLabel(geom.name);
}
BENCHMARK(BM_BatcherFlush)
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV50))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV200))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV1000))
    ->Arg(static_cast<int>(fabric::DevicePreset::kXCV4000))
    ->Unit(benchmark::kMicrosecond);

// ---- tracer overhead --------------------------------------------------------
// The observability contract (DESIGN.md §7): a disabled tracer costs one
// untaken branch per emission site. All three variants run the exact
// BM_ConfigApply XCV200 workload: _base never touches the tracer API,
// _off explicitly installs the null-object handle, _on attaches a live
// tracer (arg rendering + ring write). CI gates _off within 5% of _base
// on back-to-back repetitions (register_off_pair below), which a gate
// against the distant BM_ConfigApply_3 measurement could not match.

/// check_perf_baseline.py holds each disabled plane's _off benchmark within
/// 5% of its untouched _base twin. Each side runs this many times, in
/// back-to-back pairs of alternating order (base/off, off/base, ...), and
/// the report carries the median of the pairs' off/base ratios as
/// `<off>_vs_base` (ReportingConsole), which the gate reads. The ratio of
/// the two sides' medians tripped the gate on noise: a shared host's speed
/// shifts over a few repetitions, and a shift that spans several pairs
/// moves one side's median, while it moves only the pair ratios it cuts.
constexpr int kOffPairRepetitions = 11;

using BenchFn = void (*)(benchmark::State&);

/// The registered (base, off) name pairs, for ReportingConsole.
std::vector<std::pair<std::string, std::string>>& off_pairs() {
  static std::vector<std::pair<std::string, std::string>> pairs;
  return pairs;
}

bool register_off_pair(const char* base_name, BenchFn base,
                       const char* off_name, BenchFn off,
                       benchmark::TimeUnit unit) {
  off_pairs().emplace_back(base_name, off_name);
  for (int r = 0; r < kOffPairRepetitions; ++r) {
    const bool base_first = r % 2 == 0;
    benchmark::RegisterBenchmark(base_first ? base_name : off_name,
                                 base_first ? base : off)
        ->Unit(unit);
    benchmark::RegisterBenchmark(base_first ? off_name : base_name,
                                 base_first ? off : base)
        ->Unit(unit);
  }
  return true;
}

enum class TraceMode { kBase, kOff, kOn };

void trace_overhead_run(benchmark::State& state, TraceMode mode) {
  const auto geom =
      fabric::DeviceGeometry::preset(fabric::DevicePreset::kXCV200);
  fabric::Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port,
                               config::WriteGranularity::kDirtyFrame);
  obs::Tracer tracer;
  if (mode == TraceMode::kOff) ctl.set_trace(obs::TraceTrack{});
  if (mode == TraceMode::kOn)
    ctl.set_trace(tracer.track(0, 0, "bench", "config-port"));
  const config::ConfigOp ops[2] = {spread_op(geom, 2, 0),
                                   spread_op(geom, 2, 1)};
  int phase = 0;
  std::int64_t applied = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.apply(ops[phase & 1]).frames_written);
    ++phase;
    ++applied;
  }
  state.SetItemsProcessed(applied);
  state.SetLabel(geom.name);
}

void BM_TraceOverhead_base(benchmark::State& state) {
  trace_overhead_run(state, TraceMode::kBase);
}

void BM_TraceOverhead_off(benchmark::State& state) {
  trace_overhead_run(state, TraceMode::kOff);
}
[[maybe_unused]] const bool kTraceOffPair = register_off_pair(
    "BM_TraceOverhead_base", BM_TraceOverhead_base, "BM_TraceOverhead_off",
    BM_TraceOverhead_off, benchmark::kMicrosecond);

void BM_TraceOverhead_on(benchmark::State& state) {
  trace_overhead_run(state, TraceMode::kOn);
}
BENCHMARK(BM_TraceOverhead_on)->Unit(benchmark::kMicrosecond);

// Metrics plane overhead on the scheduler's event loop: base never mentions
// metrics, off attaches a null sampler (one `if (metrics_)` per tick site),
// on snapshots the run's registry every 1 ms of simulated time. The perf gate
// (check_perf_baseline.py) holds off within 5% of base, on back-to-back
// repetitions: a disabled metrics plane must be free on the request path,
// mirroring BM_TraceOverhead.
enum class MetricsMode { kBase, kOff, kOn };

void metrics_overhead_run(benchmark::State& state, MetricsMode mode) {
  sched::RandomTaskParams params;
  params.task_count = 60;
  params.mean_interarrival_ms = 1.0;
  params.seed = 11;
  const auto tasks = sched::random_tasks(params);
  const auto geom = fabric::DeviceGeometry::xcv200();
  const config::SelectMapPort port;
  const reloc::RelocationCostModel cost(geom, port);
  sched::Scheduler sched(16, 16, cost, sched::SchedulerConfig{});
  if (mode == MetricsMode::kOff) sched.set_metrics(nullptr);
  std::int64_t completed = 0;
  for (auto _ : state) {
    // The sampler is per-run state (samples are recorded in time order and
    // every run restarts the simulated clock), so the on mode pays its
    // construction too — that cost is part of enabling the plane.
    obs::MetricsTimeline timeline;
    obs::TimelineSampler sampler(&timeline, SimTime::ms(1));
    if (mode == MetricsMode::kOn) sched.set_metrics(&sampler);
    const auto stats = sched.run_tasks(tasks);
    benchmark::DoNotOptimize(stats.makespan);
    completed += static_cast<std::int64_t>(stats.tasks.size()) - stats.rejected;
    if (mode == MetricsMode::kOn) sched.set_metrics(nullptr);
  }
  state.SetItemsProcessed(completed);
  state.SetLabel(geom.name);
}

void BM_MetricsOverhead_base(benchmark::State& state) {
  metrics_overhead_run(state, MetricsMode::kBase);
}

void BM_MetricsOverhead_off(benchmark::State& state) {
  metrics_overhead_run(state, MetricsMode::kOff);
}
[[maybe_unused]] const bool kMetricsOffPair = register_off_pair(
    "BM_MetricsOverhead_base", BM_MetricsOverhead_base,
    "BM_MetricsOverhead_off", BM_MetricsOverhead_off,
    benchmark::kMillisecond);

void BM_MetricsOverhead_on(benchmark::State& state) {
  metrics_overhead_run(state, MetricsMode::kOn);
}
BENCHMARK(BM_MetricsOverhead_on)->Unit(benchmark::kMillisecond);

// ---- export path ------------------------------------------------------------
// The end-of-run exports of one fleet run shaped like perfbench's
// fleet_online op (4 ICAP-32 devices of 12x12 CLBs, online admission with
// rebalancing, 2000 bursty arrivals, metrics every 5 ms, trace on): ≈440
// aggregate metrics rows plus the 4 device timelines, and ≈25k trace
// events, ≈9k of them counter samples. The run is made once, on first use.

struct ExportFixture {
  obs::Tracer tracer;
  runtime::FleetReport report;
};

const ExportFixture& export_fixture() {
  static const ExportFixture* fixture = [] {
    auto* f = new ExportFixture;
    runtime::FleetConfig cfg;
    cfg.devices = 4;
    cfg.rows = cfg.cols = 12;
    cfg.admission = runtime::AdmissionMode::kOnline;
    cfg.rebalance_backlog_ms = 80.0;
    cfg.sched.policy = sched::ManagementPolicy::kTransparent;
    cfg.config_plane = {config::PortBackend::kIcap32,
                        config::WriteGranularity::kDirtyFrame};
    cfg.metrics.sample_interval_ms = 5.0;
    cfg.threads = 1;
    sched::WorkloadParams wp;
    wp.pattern = sched::ArrivalPattern::kBursty;
    wp.task_count = 2000;
    wp.mean_interarrival_ms = 0.8;
    wp.seed = 2003;
    runtime::FleetManager fleet(cfg);
    fleet.set_tracer(&f->tracer);
    for (const auto& a : sched::WorkloadGenerator(wp).generate()) {
      fleet.submit(a);
      fleet.dispatch();
    }
    f->report = fleet.run();
    return f;
  }();
  return *fixture;
}

void BM_MetricsJson(benchmark::State& state) {
  const runtime::FleetReport& report = export_fixture().report;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = report.metrics_json();
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.SetLabel(std::to_string(report.timeline.size()) + " rows");
}
BENCHMARK(BM_MetricsJson)->Unit(benchmark::kMillisecond);

void BM_TraceJson(benchmark::State& state) {
  const obs::Tracer& tracer = export_fixture().tracer;
  std::size_t events = 0;
  for (const auto& t : tracer.tracks()) events += t.buf.size();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = tracer.to_json();
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  state.SetLabel(std::to_string(events) + " events");
}
BENCHMARK(BM_TraceJson)->Unit(benchmark::kMillisecond);

void BM_DefragPlan(benchmark::State& state) {
  // Planning cost on a fragmented grid: 32x32 (one 64-bit word per CLB
  // row) and XCV1000's 64x96 (two words per row).
  const int rows = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  area::AreaManager mgr(rows, cols);
  Rng rng(3);
  std::vector<area::RegionId> live;
  for (int i = 0; i < 40 * (rows * cols) / (32 * 32); ++i) {
    const auto id =
        mgr.allocate("r", rng.next_int(2, 7), rng.next_int(2, 7));
    if (id != area::kNoRegion) live.push_back(id);
  }
  for (std::size_t i = 0; i < live.size(); i += 2) mgr.release(live[i]);
  // The request scales with the grid (12x12 on 32x32) so it never fits
  // without rearranging.
  const int h = rows * 12 / 32;
  const int w = cols * 12 / 32;
  RELOGIC_CHECK(!mgr.can_fit(h, w));
  for (auto _ : state) {
    benchmark::DoNotOptimize(area::plan_for_request(mgr, h, w));
  }
}
BENCHMARK(BM_DefragPlan)
    ->Args({32, 32})
    ->Args({64, 96})
    ->Unit(benchmark::kMillisecond);

/// The on-line scheduler's common case: a 12x12 device at 75% utilisation
/// where a request has enough free CLBs but no slot, and no plan.
area::AreaManager failing_plan_state() {
  area::AreaManager mgr(12, 12);
  Rng rng(32);
  std::vector<area::RegionId> live;
  for (int i = 0; i < 60; ++i) {
    const auto id = mgr.allocate("r", rng.next_int(1, 4), rng.next_int(1, 4));
    if (id != area::kNoRegion) live.push_back(id);
  }
  while (mgr.utilization() > 0.75) {
    const std::size_t k = rng.next_below(live.size());
    mgr.release(live[k]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
  }
  RELOGIC_CHECK(mgr.used_clbs() * 4 == mgr.total_clbs() * 3);
  return mgr;
}

/// Asserts that h x w is a failing request on `mgr`: enough free CLBs, no
/// slot, and both greedy move sequences and the full-compaction packing
/// fail.
void check_failing_shape(const area::AreaManager& mgr, int h, int w) {
  RELOGIC_CHECK(mgr.free_clbs() >= h * w && !mgr.can_fit(h, w));
  RELOGIC_CHECK(!area::plan_full_compaction(mgr, {{h, w}}));
  RELOGIC_CHECK(!area::plan_for_request(mgr, h, w));
}

void BM_FailingPlan(benchmark::State& state) {
  // One failing request against a fresh planner. BM_DefragPlan measures
  // planning that succeeds.
  const area::AreaManager mgr = failing_plan_state();
  const int h = 3;
  const int w = 6;
  check_failing_shape(mgr, h, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(area::plan_for_request(mgr, h, w));
  }
}
BENCHMARK(BM_FailingPlan)->Unit(benchmark::kMicrosecond);

void BM_FailingPlanShapes(benchmark::State& state) {
  // The scheduler's retry loop asks one planner for every waiting shape;
  // on fleet_online that is about four per area state. One planner on
  // BM_FailingPlan's state, queried with four failing shapes: the
  // candidate tables, sequences and packing input of the first query
  // serve the other three.
  const area::AreaManager mgr = failing_plan_state();
  const std::pair<int, int> shapes[] = {{3, 6}, {4, 5}, {5, 5}, {6, 4}};
  for (const auto& [h, w] : shapes) check_failing_shape(mgr, h, w);
  for (auto _ : state) {
    const area::RequestPlanner planner(mgr);
    for (const auto& [h, w] : shapes)
      benchmark::DoNotOptimize(planner.plan(h, w));
  }
}
BENCHMARK(BM_FailingPlanShapes)->Unit(benchmark::kMicrosecond);

/// google-benchmark 1.8.0 replaced Run::error_occurred with Run::skipped;
/// these overloads pick whichever member the system library has.
template <typename R>
auto run_failed(const R& run, int)
    -> decltype(static_cast<bool>(run.error_occurred)) {
  return run.error_occurred;
}
template <typename R>
auto run_failed(const R& run, long)
    -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}

/// Console output as usual, plus every run captured for the shared
/// machine-readable report (BENCH_microperf.json). A name that runs more
/// than once (the off-gate pairs) is reported as its median.
class ReportingConsole : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run_failed(run, 0)) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/' || c == ':') c = '_';
      }
      Samples* s = find(name);
      if (s == nullptr) {
        samples_.push_back(
            {name, benchmark::GetTimeUnitString(run.time_unit), {}});
        s = &samples_.back();
      }
      s->values.push_back(run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Adds each benchmark's median time to `report`, in first-run order,
  /// then each off pair's median off/base ratio as `<off>_vs_base`. The
  /// k-th runs of a pair's two names are the k-th back-to-back pair.
  void add_medians(bench_report::Report& report) {
    std::vector<Samples> ratios;
    for (const auto& [base_name, off_name] : off_pairs()) {
      const Samples* base = find(base_name);
      const Samples* off = find(off_name);
      if (base == nullptr || off == nullptr) continue;  // filtered out
      Samples& r = ratios.emplace_back(Samples{off_name + "_vs_base", "x", {}});
      for (std::size_t k = 0;
           k < std::min(base->values.size(), off->values.size()); ++k)
        r.values.push_back(off->values[k] / base->values[k]);
    }
    for (Samples& s : samples_) report.add(s.name, median(s.values), s.unit);
    for (Samples& s : ratios) report.add(s.name, median(s.values), s.unit);
  }

 private:
  struct Samples {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };

  Samples* find(const std::string& name) {
    auto it = std::find_if(samples_.begin(), samples_.end(),
                           [&](const Samples& s) { return s.name == name; });
    return it == samples_.end() ? nullptr : &*it;
  }

  static double median(std::vector<double>& values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return (values[(n - 1) / 2] + values[n / 2]) / 2;
  }

  std::vector<Samples> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ReportingConsole console;
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  bench_report::Report report("microperf");
  console.add_medians(report);
  if (!report.write()) {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  std::printf("wrote %s\n", report.path().c_str());
  return 0;
}
