// On-line run-time manager: schedules functions onto the FPGA area,
// queueing or rearranging when fragmentation defeats a request.
//
// Three management policies are compared (the paper's contribution is the
// third — the first two are the baselines it argues against):
//
//  * kNoRearrange — allocation failure queues the task until departures
//    happen to open a large-enough hole (Sec. 1: unused small pools).
//  * kHaltAndMove — rearrangement by stopping the functions to be moved,
//    reconfiguring them at their new position and resuming (what [5]
//    assumed: "no physical execution of these rearrangements is proposed
//    other than halting those functions"). Moved tasks accrue downtime.
//  * kTransparent — the paper's dynamic relocation: moves cost
//    configuration-port time only; running functions never stop.
//
// The scheduler is a discrete-event simulation at area granularity; all
// configuration and relocation times — move costing, the
// max_move_cost_fraction gate, defrag plan pricing, and the self-test
// sweep's vacate/claim pricing — come from the RelocationCostModel it is
// constructed with, which carries both the port backend (JTAG /
// SelectMAP-8 / ICAP-32) and the write granularity (DESIGN.md §6.1), so
// its numbers stay consistent with the fabric-level engine benchmarks on
// every configuration plane the fleet supports.
#pragma once

#include <deque>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "relogic/area/defrag.hpp"
#include "relogic/area/manager.hpp"
#include "relogic/health/fault.hpp"
#include "relogic/obs/trace.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/runtime/telemetry.hpp"
#include "relogic/sched/workload.hpp"

namespace relogic::obs {
class TimelineSampler;  // obs/timeline.hpp
}

namespace relogic::sched {

enum class ManagementPolicy { kNoRearrange, kHaltAndMove, kTransparent };

std::string to_string(ManagementPolicy p);

struct SchedulerConfig {
  ManagementPolicy policy = ManagementPolicy::kTransparent;
  area::DefragOptions defrag;
  /// Configure the next function of an application while its predecessor
  /// still runs (the rt interval of Fig. 1).
  bool prefetch = true;
  /// A queued task older than this is counted as rejected and dropped
  /// (never() = wait forever).
  SimTime max_wait = SimTime::never();
  /// Rearrangement cost gate: a plan is executed only if its total
  /// configuration-port cost does not exceed this fraction of the
  /// requesting task's duration (otherwise moving costs more than the
  /// task is worth; the request queues instead). <= 0 disables the gate.
  double max_move_cost_fraction = 0.5;
  /// Proactive defragmentation (DESIGN.md §6.3): after a departure, if
  /// fragmentation exceeds this threshold, compact toward one free
  /// rectangle using idle port time (bounded by defrag.max_moves).
  /// <= 0 disables proactive mode (rearrangement happens on demand only).
  double proactive_frag_threshold = 0.0;
};

/// Roving on-line self-test, at the scheduler's area granularity. The
/// fabric-level procedure (relocate the window's occupants with the
/// two-phase engine, write complementary patterns, read back) lives in
/// health::RovingTester; inside the discrete-event run the scheduler models
/// its cost and consequences: the window's regions are relocated out of the
/// way (port time, transparent or halting per the management policy), the
/// freed CLBs are held out of circulation while the patterns are driven,
/// and injected faults inside the tested window become *detected* — masked
/// out of occupancy, placement and defrag planning from that moment on.
struct SelfTestConfig {
  bool enabled = false;
  /// Test window width in CLB columns.
  int window_cols = 1;
  /// Interval between window advances; also the retry interval when the
  /// window cannot be vacated yet (occupied under no-rearrangement, or no
  /// free destination for a vacating move).
  double step_period_ms = 5.0;
};

struct TaskRecord {
  std::string name;
  int clbs = 0;
  /// Rectangle the task was initially configured into (empty if it never
  /// placed). Rearrangements may move it later; this is the slot its
  /// initial partial configuration was written to.
  ClbRect slot;
  SimTime ready = SimTime::zero();     ///< became eligible to configure
  /// Earliest moment execution could have begun (for chained functions:
  /// the predecessor's end; prefetching earlier does not count as delay).
  SimTime eligible = SimTime::zero();
  SimTime config_start = SimTime::zero();
  SimTime run_start = SimTime::zero();  ///< execution actually began
  SimTime finish = SimTime::zero();
  SimTime halted = SimTime::zero();     ///< downtime from halt-and-move
  bool rejected = false;

  /// Queueing + rearrangement + configuration delay before execution.
  SimTime allocation_delay() const { return run_start - eligible; }
};

struct RunStats {
  std::vector<TaskRecord> tasks;
  /// The run's event counts and latency histograms, written at the event
  /// sites as the DES executes: the one record of them (README "Fleet
  /// telemetry schema" lists the keys).
  runtime::Telemetry telemetry;
  SimTime makespan = SimTime::zero();
  SimTime config_port_busy = SimTime::zero();
  SimTime total_halted = SimTime::zero();
  int rearrangement_moves = 0;  ///< telemetry's rearrangement_moves
  int moved_clbs = 0;           ///< telemetry's moved_clbs
  int rejected = 0;             ///< telemetry's tasks_rejected
  double utilization_avg = 0.0;   ///< time-weighted mean CLB occupancy
  double fragmentation_avg = 0.0; ///< time-weighted mean fragmentation
  double fragmentation_max = 0.0;

  double avg_allocation_delay_ms() const;
  double max_allocation_delay_ms() const;
};

/// Trace lanes the discrete-event run emits into (all on the device's
/// simulated clock; see DESIGN.md §7). Default-constructed lanes disable
/// their emissions at the cost of one branch per event.
struct SchedulerTrace {
  /// Placement instants, rearrangement planning, 'config' spans (function
  /// configuration on the port), 'relocation' spans (two-phase moves), and
  /// one B/E envelope around the whole run.
  obs::TraceTrack sched;
  /// Per-task 'queue' (eligible -> run start) and 'task' (execution) spans.
  obs::TraceTrack tasks;
  /// Self-test sweep: test-window spans, fault detections, rotations.
  obs::TraceTrack health;
};

class Scheduler {
 public:
  Scheduler(int rows, int cols, reloc::RelocationCostModel cost,
            SchedulerConfig config);

  /// Attaches trace lanes for subsequent runs (copies the handles).
  void set_trace(const SchedulerTrace& trace) { trace_ = trace; }

  /// Attaches a metrics sampler for subsequent runs (nullptr detaches).
  /// The sampler snapshots the run's telemetry registry (RunStats::telemetry)
  /// every sampler->interval() of simulated time, scheduled as DES tick
  /// events — sample times are part of the deterministic event order, never
  /// wall time (DESIGN.md §7.5). The sampler must outlive the runs and is
  /// written only from the thread running them.
  void set_metrics(obs::TimelineSampler* sampler) { metrics_ = sampler; }

  /// Enables the roving self-test for subsequent runs. `faults` carries the
  /// injected ground truth and receives detections; it must outlive the
  /// runs. Pass nullptr to sweep a fault-free device (coverage only).
  void enable_selftest(const SelfTestConfig& selftest,
                       health::FaultMap* faults);

  /// Independent one-shot tasks (defragmentation experiments).
  RunStats run_tasks(const std::vector<TaskArrival>& tasks);

  /// Applications as function chains (Fig. 1). `overlap` is the degree of
  /// parallelism within one application: how many of its consecutive
  /// functions may be resident simultaneously (1 = strictly sequential
  /// swapping, higher values demand more area at once).
  RunStats run_apps(const std::vector<AppSpec>& apps, int overlap = 1);

 private:
  int rows_;
  int cols_;
  reloc::RelocationCostModel cost_;
  SchedulerConfig cfg_;
  SelfTestConfig selftest_;
  health::FaultMap* faults_ = nullptr;
  SchedulerTrace trace_;
  obs::TimelineSampler* metrics_ = nullptr;
};

}  // namespace relogic::sched
