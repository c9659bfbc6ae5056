#include "relogic/sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"
#include "relogic/obs/timeline.hpp"

namespace relogic::sched {

std::string to_string(ManagementPolicy p) {
  switch (p) {
    case ManagementPolicy::kNoRearrange:
      return "no-rearrangement";
    case ManagementPolicy::kHaltAndMove:
      return "halt-and-move";
    case ManagementPolicy::kTransparent:
      return "transparent-relocation";
  }
  return "?";
}

double RunStats::avg_allocation_delay_ms() const {
  double sum = 0;
  int n = 0;
  for (const auto& t : tasks) {
    if (t.rejected) continue;
    sum += t.allocation_delay().milliseconds();
    ++n;
  }
  return n ? sum / n : 0.0;
}

double RunStats::max_allocation_delay_ms() const {
  double mx = 0;
  for (const auto& t : tasks) {
    if (!t.rejected) mx = std::max(mx, t.allocation_delay().milliseconds());
  }
  return mx;
}

namespace {

/// Full-device self-test rotations guaranteed to complete even after the
/// workload drains (the sweep also keeps roving while tasks are resident).
constexpr std::int64_t kMinSweepRotations = 1;

/// Where a task's first slot, and a region moved out of the self-test
/// window, go: the lowest, then leftmost free rectangle.
constexpr area::PlacePolicy kPlacement = area::PlacePolicy::kBottomLeft;

struct Job {
  int id = 0;
  FunctionSpec fn;
  SimTime ready = SimTime::zero();
  // Chain bookkeeping (run_apps): this job may not *run* before pred_end,
  // but may be configured earlier (prefetch).
  std::optional<int> predecessor;

  // runtime state
  area::RegionId region = area::kNoRegion;
  ClbRect slot;  // initial placement rectangle
  SimTime config_start = SimTime::zero();
  SimTime config_done = SimTime::zero();
  SimTime run_start = SimTime::zero();
  SimTime end = SimTime::zero();
  SimTime halted = SimTime::zero();
  bool running = false;
  bool done = false;
  bool rejected = false;
  bool placed = false;
  int end_version = 0;
};

enum class EvKind { kReady, kConfigDone, kRunBegin, kEnd, kSweepStep,
                    kSweepDone, kMetricsTick };

struct Ev {
  SimTime time;
  std::uint64_t seq;
  EvKind kind;
  int job;  ///< -1 for the self-test sweep events
  int version = 0;
  bool operator>(const Ev& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

/// The whole discrete-event run, shared by run_tasks and run_apps.
class Engine {
 public:
  Engine(int rows, int cols, const reloc::RelocationCostModel& cost,
         const SchedulerConfig& cfg, const SelfTestConfig& selftest,
         health::FaultMap* faults, const SchedulerTrace& trace,
         obs::TimelineSampler* metrics)
      : mgr_(rows, cols),
        cost_(&cost),
        cfg_(&cfg),
        st_(&selftest),
        faults_(faults),
        tr_(trace),
        metrics_(metrics) {}

  std::vector<Job> jobs;
  /// Jobs whose readiness is triggered by another job's end (prefetch
  /// windows in application chains): trigger job id -> dependent job id.
  std::multimap<int, int> ready_after;

  RunStats run() {
    if (tr_.sched)
      tr_.sched.begin("sched", "des-run", SimTime::zero(),
                      {obs::arg("jobs", jobs.size()),
                       obs::arg("policy", to_string(cfg_->policy))});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].ready == SimTime::never()) continue;  // chained readiness
      push(Ev{jobs[i].ready, seq_++, EvKind::kReady, static_cast<int>(i)});
    }
    if (st_->enabled) {
      push(Ev{sweep_period(), seq_++, EvKind::kSweepStep, -1});
    }
    if (metrics_) {
      RELOGIC_CHECK_MSG(metrics_->interval() > SimTime::zero(),
                        "metrics sampler needs a positive interval");
      sample_metrics();  // t = 0 baseline row
      push(Ev{metrics_->interval(), seq_++, EvKind::kMetricsTick, -1});
    }
    while (!queue_.empty()) {
      const Ev ev = queue_.top();
      queue_.pop();
      // A metrics tick that outlived every other event would stretch the
      // makespan past the last real event; drop it instead — finalize takes
      // the closing sample at the true makespan.
      if (ev.kind == EvKind::kMetricsTick && queue_.empty()) break;
      advance_to(ev.time);
      dispatch(ev);
    }
    finalize();
    if (tr_.sched) {
      tr_.sched.end(stats_.makespan);
      clear_log_context();
    }
    return std::move(stats_);
  }

 private:
  void push(Ev e) { queue_.push(e); }

  void advance_to(SimTime t) {
    if (t > now_) {
      const double dt = (t - now_).milliseconds();
      util_integral_ += mgr_.utilization() * dt;
      frag_integral_ += mgr_.fragmentation() * dt;
      elapsed_ms_ += dt;
      now_ = t;
      if (tr_.sched) set_log_context("sched", now_);
    }
    stats_.fragmentation_max =
        std::max(stats_.fragmentation_max, mgr_.fragmentation());
  }

  void dispatch(const Ev& ev) {
    if (ev.kind == EvKind::kSweepStep) {
      on_sweep_step();
      return;
    }
    if (ev.kind == EvKind::kSweepDone) {
      on_sweep_done();
      return;
    }
    if (ev.kind == EvKind::kMetricsTick) {
      sample_metrics();
      // Keep ticking while other work remains; when the tick was the last
      // event the cadence ends (finalize takes the closing sample).
      if (!queue_.empty())
        push(Ev{now_ + metrics_->interval(), seq_++, EvKind::kMetricsTick, -1});
      return;
    }
    Job& job = jobs[static_cast<std::size_t>(ev.job)];
    switch (ev.kind) {
      case EvKind::kReady:
        // First (and only) readiness event of this job: it is now in the
        // device's hands, whatever happens to it later.
        tel().counter("tasks_admitted").add(1);
        try_start(job);
        break;
      case EvKind::kConfigDone:
        on_config_done(job);
        break;
      case EvKind::kRunBegin:
        begin_run(job);
        break;
      case EvKind::kEnd:
        if (ev.version == job.end_version) on_end(job);
        break;
      case EvKind::kSweepStep:
      case EvKind::kSweepDone:
      case EvKind::kMetricsTick:
        break;  // handled above
    }
  }

  /// The run's event registry (RunStats::telemetry), written at the event
  /// sites below whether or not a metrics sampler is attached.
  runtime::Telemetry& tel() { return stats_.telemetry; }

  /// Snapshots the registry into the timeline at now_, together with the
  /// instantaneous area state (sampler-side gauges: every row carries the
  /// occupancy, the run's telemetry does not).
  void sample_metrics() {
    metrics_->sample(now_, tel(), mgr_.utilization(),
                     mgr_.fragmentation(), st_->enabled ? sweep_col_ : -1);
  }

  /// Marks `job` rejected and counts it. finalize() uses this alone:
  /// releasing regions there would change the closing metrics sample.
  void count_rejected(Job& job) {
    job.rejected = true;
    tel().counter("tasks_rejected").add(1);
  }

  /// Rejects `job` mid-run. A successor configured ahead of it and waiting
  /// for it to end can never run: it is rejected too, cascading, and its
  /// region released at once.
  void reject(Job& job) {
    count_rejected(job);
    const auto range = pending_run_.equal_range(job.id);
    std::vector<int> successors;
    for (auto it = range.first; it != range.second; ++it)
      successors.push_back(it->second);
    pending_run_.erase(range.first, range.second);
    for (const int id : successors)
      reject_orphan(jobs[static_cast<std::size_t>(id)]);
  }

  /// Rejects a placed `job` whose predecessor was rejected.
  void reject_orphan(Job& job) {
    release(job);
    if (tr_.tasks)
      tr_.tasks.instant("queue", job.fn.name + " rejected", now_,
                        {obs::arg("reason", "predecessor")});
    reject(job);
  }

  void release(Job& job) {
    mgr_.release(job.region);
    ++area_gen_;
    --placed_live_;
    region_job_.erase(job.region);
  }

  void try_start(Job& job) {
    if (job.placed || job.done || job.rejected) return;
    if (job.fn.height > mgr_.rows() || job.fn.width > mgr_.cols()) {
      reject(job);
      if (tr_.tasks)
        tr_.tasks.instant("queue", job.fn.name + " rejected", now_,
                          {obs::arg("reason", "oversized")});
      return;
    }
    // Expired waiters are rejected.
    if (cfg_->max_wait != SimTime::never() &&
        now_ - job.ready > cfg_->max_wait) {
      reject(job);
      if (tr_.tasks)
        tr_.tasks.instant("queue", job.fn.name + " rejected", now_,
                          {obs::arg("reason", "max-wait")});
      return;
    }
    // Fewer free CLBs than the task needs: no slot exists, and the planner
    // refuses at its own free-CLB check, so skip both searches.
    if (mgr_.free_clbs() < job.fn.height * job.fn.width) {
      waiting_.push_back(job.id);
      return;
    }

    auto slot = mgr_.find_free_rect(job.fn.height, job.fn.width,
                                    kPlacement);
    // While a self-test transaction holds the configuration port, the
    // window's claim regions are immovable (they are not tasks): planning
    // waits for the test to finish; retry_waiting() runs at sweep-done.
    if (!slot && cfg_->policy != ManagementPolicy::kNoRearrange &&
        !sweep_testing_) {
      const auto plan = plan_request(job.fn.height, job.fn.width);
      if (plan && plan_affordable(*plan, job)) {
        if (tr_.sched)
          tr_.sched.instant("placement", "rearrange for " + job.fn.name, now_,
                            {obs::arg("moves", plan->moves.size()),
                             obs::arg("height", job.fn.height),
                             obs::arg("width", job.fn.width)});
        execute_moves(*plan);
        slot = plan->request_slot;
      }
    }
    if (!slot) {
      waiting_.push_back(job.id);
      return;
    }

    job.region = mgr_.allocate_at(job.fn.name, *slot);
    ++area_gen_;
    job.slot = *slot;
    job.placed = true;
    ++placed_live_;
    region_job_[job.region] = job.id;

    job.config_start = std::max(now_, port_free_at_);
    job.config_done = job.config_start + cost_->configure_time(job.fn.cells());
    port_free_at_ = job.config_done;
    stats_.config_port_busy += job.config_done - job.config_start;
    if (tr_.sched) {
      tr_.sched.instant("placement", job.fn.name, now_,
                        {obs::arg("slot", job.slot.to_string()),
                         obs::arg("clbs", job.fn.clbs())});
      tr_.sched.complete("config", job.fn.name, job.config_start,
                         job.config_done - job.config_start,
                         {obs::arg("cells", job.fn.cells()),
                          obs::arg("slot", job.slot.to_string())});
    }
    push(Ev{job.config_done, seq_++, EvKind::kConfigDone, job.id});
  }

  void on_config_done(Job& job) {
    // Execution begins once the predecessor (if any) has finished.
    SimTime start = now_;
    if (job.predecessor) {
      const Job& pred = jobs[static_cast<std::size_t>(*job.predecessor)];
      if (pred.rejected) {  // while this job was configuring
        reject_orphan(job);
        return;
      }
      if (!pred.done) {
        pending_run_.emplace(*job.predecessor, job.id);
        return;
      }
      start = std::max(start, pred.end);
    }
    push(Ev{start, seq_++, EvKind::kRunBegin, job.id});
  }

  void begin_run(Job& job) {
    job.run_start = now_;
    job.running = true;
    job.end = now_ + job.fn.duration;
    // Eligibility: ready, or the predecessor's end for chained functions
    // (prefetching earlier does not count as delay).
    SimTime eligible = job.ready;
    if (job.predecessor) {
      const Job& pred = jobs[static_cast<std::size_t>(*job.predecessor)];
      if (pred.done) eligible = std::max(eligible, pred.end);
    }
    tel().histogram("queue_wait_ms").observe((now_ - eligible).milliseconds());
    if (tr_.tasks) {
      // Queue-wait span: eligibility until execution begins.
      tr_.tasks.complete("queue", job.fn.name, eligible, now_ - eligible,
                         {obs::arg_ms("config_start", job.config_start)});
    }
    push(Ev{job.end, seq_++, EvKind::kEnd, job.id, job.end_version});
  }

  void on_end(Job& job) {
    job.running = false;
    job.done = true;
    job.end = now_;
    tel().counter("tasks_completed").add(1);
    tel().histogram("turnaround_ms").observe((now_ - job.ready).milliseconds());
    if (tr_.tasks)
      tr_.tasks.complete("task", job.fn.name, job.run_start,
                         now_ - job.run_start,
                         {obs::arg("slot", job.slot.to_string()),
                          obs::arg_ms("halted", job.halted)});
    release(job);

    // Successor may begin (it might still be configuring; kConfigDone
    // handles the synchronisation in that case).
    auto range = pending_run_.equal_range(job.id);
    for (auto it = range.first; it != range.second; ++it) {
      push(Ev{now_, seq_++, EvKind::kRunBegin, it->second});
    }
    pending_run_.erase(range.first, range.second);

    // Chained readiness (prefetch windows).
    auto ready_range = ready_after.equal_range(job.id);
    for (auto it = ready_range.first; it != ready_range.second; ++it) {
      Job& dep = jobs[static_cast<std::size_t>(it->second)];
      dep.ready = now_;
      push(Ev{now_, seq_++, EvKind::kReady, it->second});
    }
    ready_after.erase(ready_range.first, ready_range.second);

    maybe_proactive_defrag();
    retry_waiting();
  }

  void maybe_proactive_defrag() {
    if (cfg_->proactive_frag_threshold <= 0 ||
        cfg_->policy == ManagementPolicy::kNoRearrange || sweep_testing_)
      return;
    if (mgr_.fragmentation() <= cfg_->proactive_frag_threshold) return;
    // Only spend idle port time: skip if the port is already backed up.
    if (port_free_at_ > now_) return;
    auto plan = area::plan_full_compaction(mgr_);
    if (!plan) return;
    if (static_cast<int>(plan->moves.size()) > cfg_->defrag.max_moves) {
      plan->moves.resize(static_cast<std::size_t>(cfg_->defrag.max_moves));
      // A truncated compaction is still executable: moves were ordered to
      // be sequentially legal, prefixes included — but only apply moves
      // whose destinations are free after truncation.
      std::vector<area::Move> ok_moves;
      for (const auto& mv : plan->moves) {
        if (mgr_.can_move(mv.region, mv.to)) {
          ok_moves.push_back(mv);
          mgr_.move(mv.region, mv.to);
        }
      }
      // Roll the bookkeeping back; execute_moves re-applies with costs.
      for (auto it = ok_moves.rbegin(); it != ok_moves.rend(); ++it) {
        mgr_.move(it->region, it->from);
      }
      ++area_gen_;  // trial moves were rolled back, but stay conservative
      plan->moves = std::move(ok_moves);
    }
    if (plan->moves.empty()) return;
    execute_moves(*plan);
  }

  void retry_waiting() {
    // FIFO retry; tasks that still do not fit go back to the queue.
    std::deque<int> again;
    std::swap(again, waiting_);
    for (int id : again) {
      Job& job = jobs[static_cast<std::size_t>(id)];
      if (!job.placed && !job.done && !job.rejected) try_start(job);
    }
  }

  /// Planning is deterministic in the area state, and that state only
  /// changes on allocate/release/move — yet the retry loop used to re-plan
  /// from scratch for every waiting task at every departure. Two layers of
  /// reuse, both invalidated when the area generation advances:
  ///  * a RequestPlanner shares the greedy move-sequence search across all
  ///    request shapes queried against one area state,
  ///  * a per-shape memo caches each query's final plan outright.
  /// Affordability is still judged per task — it depends on the requesting
  /// task's own duration, not just the plan.
  std::optional<area::DefragPlan> plan_request(int h, int w) {
    if (plan_gen_ != area_gen_) {
      plan_cache_.clear();
      planner_.emplace(mgr_, cfg_->defrag);
      plan_gen_ = area_gen_;
    }
    auto [it, inserted] = plan_cache_.try_emplace({h, w});
    if (inserted) it->second = planner_->plan(h, w);
    return it->second;
  }

  SimTime move_cost(const area::Move& mv) const {
    auto it = region_job_.find(mv.region);
    RELOGIC_CHECK_MSG(it != region_job_.end(), "plan moves an unknown region");
    const Job& victim = jobs[static_cast<std::size_t>(it->second)];
    return cost_->function_time(victim.fn.cells(), victim.fn.reg,
                                victim.fn.gated_clock);
  }

  /// Cost gate: rearranging must not cost more port time than a fraction
  /// of the requesting task's own execution (otherwise waiting is cheaper
  /// for everyone; the unconstrained variant is measured as an ablation).
  bool plan_affordable(const area::DefragPlan& plan, const Job& job) const {
    if (cfg_->max_move_cost_fraction <= 0) return true;
    SimTime total = SimTime::zero();
    for (const auto& mv : plan.moves) total += move_cost(mv);
    const double budget_ms =
        job.fn.duration.milliseconds() * cfg_->max_move_cost_fraction;
    return total.milliseconds() <= budget_ms;
  }

  /// One relocation, shared by on-demand rearrangement and the self-test
  /// sweep (`selftest` only changes which move counter records it; both
  /// land in moved_clbs and relocation_ms).
  void apply_move(const area::Move& mv, bool selftest) {
    auto it = region_job_.find(mv.region);
    RELOGIC_CHECK_MSG(it != region_job_.end(), "plan moves an unknown region");
    Job& victim = jobs[static_cast<std::size_t>(it->second)];

    const SimTime start = std::max(now_, port_free_at_);
    const SimTime cost = move_cost(mv);
    const SimTime done = start + cost;
    port_free_at_ = done;
    stats_.config_port_busy += cost;
    tel().counter(selftest ? "selftest_moves" : "rearrangement_moves").add(1);
    tel().counter("moved_clbs").add(mv.from.area());
    tel().histogram("relocation_ms").observe(cost.milliseconds());
    if (tr_.sched)
      tr_.sched.complete(
          "relocation", victim.fn.name, start, cost,
          {obs::arg("from", mv.from.to_string()),
           obs::arg("to", mv.to.to_string()), obs::arg("clbs", mv.from.area()),
           obs::arg("selftest", selftest),
           obs::arg("halts_victim", cfg_->policy ==
                                        ManagementPolicy::kHaltAndMove &&
                                    victim.running)});

    mgr_.move(mv.region, mv.to);
    ++area_gen_;

    if (cfg_->policy == ManagementPolicy::kHaltAndMove && victim.running) {
      // The victim is stopped while it is being moved: its remaining
      // execution shifts by the move duration.
      victim.halted += cost;
      stats_.total_halted += cost;
      victim.end += cost;
      ++victim.end_version;
      push(Ev{victim.end, seq_++, EvKind::kEnd, victim.id,
              victim.end_version});
    }
    // Transparent relocation: zero time overhead for the running
    // function — only the configuration port was busy.
  }

  void execute_moves(const area::DefragPlan& plan) {
    for (const auto& mv : plan.moves) apply_move(mv, /*selftest=*/false);
  }

  // ---- roving self-test ----------------------------------------------------

  SimTime sweep_period() const {
    return SimTime::ps(static_cast<std::int64_t>(
        st_->step_period_ms * 1e9));
  }

  ClbRect sweep_window() const {
    const int width = std::min(st_->window_cols, mgr_.cols() - sweep_col_);
    return ClbRect{0, sweep_col_, mgr_.rows(), width};
  }

  /// Relocates every region overlapping the window to free space outside
  /// it. Returns true once the window holds no region (faulty-masked CLBs
  /// are fine — they are skipped by the test itself). Under
  /// no-rearrangement the sweep cannot move anyone and simply waits for
  /// departures to clear the window.
  bool vacate_window(const ClbRect& window) {
    bool clear = true;
    // Moves rewrite the table's rects in place, so each region's id and
    // rect are read before it moves, by index into the live table.
    const std::vector<area::Region>& table = mgr_.regions();
    for (std::size_t i = 0; i < table.size(); ++i) {
      const area::RegionId id = table[i].id;
      const ClbRect rect = table[i].rect;
      if (!rect.overlaps(window)) continue;
      if (cfg_->policy == ManagementPolicy::kNoRearrange) {
        clear = false;
        continue;
      }
      const auto dest = mgr_.find_free_rect(rect.height, rect.width,
                                            kPlacement, &window);
      if (!dest) {
        clear = false;
        continue;
      }
      apply_move(area::Move{id, rect, *dest}, /*selftest=*/true);
    }
    return clear;
  }

  void on_sweep_step() {
    // Sweep boundary: in audit builds, recount the occupancy ledger before
    // the window vacate/claim churn starts from it.
    if constexpr (relogic::audit_enabled()) mgr_.audit();
    const ClbRect window = sweep_window();
    if (!vacate_window(window)) {
      // Retry after one period; the window does not advance until every
      // CLB of it has been visited — zero missed CLBs per rotation.
      push(Ev{now_ + sweep_period(), seq_++, EvKind::kSweepStep, -1});
      return;
    }

    // Claim the window's free CLBs (per-column strips around any masked
    // cells) so nothing is placed into them while patterns are driven.
    sweep_claimed_ = 0;
    for (int c = window.col; c < window.col_end(); ++c) {
      int run_start = -1;
      for (int r = 0; r <= mgr_.rows(); ++r) {
        const bool free =
            r < mgr_.rows() && mgr_.at(ClbCoord{r, c}) == area::kNoRegion;
        if (free && run_start < 0) run_start = r;
        if (!free && run_start >= 0) {
          sweep_regions_.push_back(mgr_.allocate_at(
              "selftest", ClbRect{run_start, c, r - run_start, 1}));
          sweep_claimed_ += r - run_start;
          run_start = -1;
        }
      }
    }
    ++area_gen_;

    // Port cost: two complementary patterns written and read back over the
    // claimed cells (readback priced like the write — both stream the same
    // frames through the same port).
    const SimTime test_time =
        4 * cost_->configure_time(sweep_claimed_ *
                                  cost_->geometry().cells_per_clb);
    const SimTime start = std::max(now_, port_free_at_);
    const SimTime done = start + test_time;
    port_free_at_ = done;
    stats_.config_port_busy += test_time;
    sweep_testing_ = true;
    if (tr_.health)
      tr_.health.complete("health", "sweep-test", start, test_time,
                          {obs::arg("col", window.col),
                           obs::arg("cols", window.width),
                           obs::arg("claimed_clbs", sweep_claimed_)});
    push(Ev{done, seq_++, EvKind::kSweepDone, -1});
  }

  void on_sweep_done() {
    const ClbRect window = sweep_window();
    sweep_testing_ = false;
    // Release the claimed strips, remembering exactly which CLBs were
    // pattern-tested (a region departing mid-test does not make its CLBs
    // tested — they are caught on a later rotation).
    std::vector<ClbRect> tested;
    tested.reserve(sweep_regions_.size());
    for (const area::RegionId id : sweep_regions_) {
      tested.push_back(mgr_.region(id).rect);
      mgr_.release(id);
    }
    sweep_regions_.clear();
    ++area_gen_;

    // Injected faults inside the tested CLBs become detected: masked out
    // of occupancy, placement and defrag planning from this moment.
    if (faults_ != nullptr) {
      for (const ClbRect& strip : tested) {
        for (int r = strip.row; r < strip.row_end(); ++r) {
          for (int c = strip.col; c < strip.col_end(); ++c) {
            const ClbCoord clb{r, c};
            const int fresh = faults_->detect_all_in(clb);
            if (fresh > 0) {
              mgr_.mask_faulty(clb);
              ++area_gen_;
              tel().counter("faulty_cells").add(fresh);
              tel().counter("faulty_clbs").add(1);
              if (tr_.health)
                tr_.health.instant("health", "fault-detected", now_,
                                   {obs::arg("row", r), obs::arg("col", c),
                                    obs::arg("cells", fresh)});
            }
          }
        }
      }
    }

    tel().counter("swept_clbs").add(window.area());
    tel().counter("tested_clbs").add(sweep_claimed_);
    sweep_col_ += window.width;
    if (sweep_col_ >= mgr_.cols()) {
      sweep_col_ = 0;
      runtime::Counter& rotations = tel().counter("sweep_rotations");
      rotations.add(1);
      if (tr_.health)
        tr_.health.instant("health", "rotation", now_,
                           {obs::arg("rotation", rotations.value())});
    }

    // Sweep-done boundary: the claim strips are released and any detected
    // CLBs masked — the ledger must reconcile before waiters re-place.
    if constexpr (relogic::audit_enabled()) mgr_.audit();

    // Releasing the window may unblock waiters (and masking may have eaten
    // the hole they were promised — they will queue again).
    retry_waiting();

    // Keep roving while work is resident; always finish the rotation quota.
    if (placed_live_ > 0 || sweep_col_ != 0 ||
        tel().counter_value("sweep_rotations") < kMinSweepRotations) {
      push(Ev{now_ + sweep_period(), seq_++, EvKind::kSweepStep, -1});
    }
  }

  void finalize() {
    stats_.makespan = now_;
    if (elapsed_ms_ > 0) {
      stats_.utilization_avg = util_integral_ / elapsed_ms_;
      stats_.fragmentation_avg = frag_integral_ / elapsed_ms_;
    }
    // Each job's fate is decided by now. A chained function whose readiness
    // never fired (an ancestor never finished) was still handed to this
    // device: it is admitted here. Every job that did not finish — still
    // waiting, never ready, or configured behind a predecessor that never
    // ran — is rejected.
    for (Job& job : jobs) {
      if (job.ready == SimTime::never()) tel().counter("tasks_admitted").add(1);
      if (!job.done && !job.rejected) count_rejected(job);
    }
    // The closing row carries both counters even when zero.
    tel().counter("tasks_admitted");
    tel().counter("tasks_rejected");
    if (metrics_) sample_metrics();  // closing row at the makespan
    // Keys the telemetry always carries, zero if they never fired. Added
    // after the closing row, so timeline rows hold only metrics that fired.
    for (const char* name :
         {"tasks_completed", "rearrangement_moves", "moved_clbs"})
      tel().counter(name);
    if (st_->enabled) {
      for (const char* name : {"swept_clbs", "tested_clbs", "sweep_rotations",
                               "selftest_moves", "faulty_cells", "faulty_clbs"})
        tel().counter(name);
    }
    stats_.rearrangement_moves =
        static_cast<int>(tel().counter_value("rearrangement_moves"));
    stats_.moved_clbs = static_cast<int>(tel().counter_value("moved_clbs"));
    stats_.rejected = static_cast<int>(tel().counter_value("tasks_rejected"));
    for (const Job& job : jobs) {
      TaskRecord r;
      r.name = job.fn.name;
      r.clbs = job.fn.clbs();
      r.slot = job.slot;
      r.ready = job.ready;
      r.eligible = job.ready;
      if (job.predecessor) {
        const Job& pred = jobs[static_cast<std::size_t>(*job.predecessor)];
        if (pred.done) r.eligible = std::max(job.ready, pred.end);
      }
      r.config_start = job.config_start;
      r.run_start = job.run_start;
      r.finish = job.end;
      r.halted = job.halted;
      r.rejected = job.rejected;
      stats_.tasks.push_back(r);
    }
  }

  area::AreaManager mgr_;
  const reloc::RelocationCostModel* cost_;
  const SchedulerConfig* cfg_;
  const SelfTestConfig* st_;
  health::FaultMap* faults_;
  SchedulerTrace tr_;
  obs::TimelineSampler* metrics_;  ///< nullptr = metrics plane off
  int sweep_col_ = 0;
  int sweep_claimed_ = 0;       ///< CLBs held by the current test window
  bool sweep_testing_ = false;  ///< a test transaction holds the port
  std::vector<area::RegionId> sweep_regions_;  ///< claimed window strips
  int placed_live_ = 0;         ///< regions currently on the device
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue_;
  std::uint64_t seq_ = 0;
  SimTime now_ = SimTime::zero();
  SimTime port_free_at_ = SimTime::zero();
  std::deque<int> waiting_;
  std::uint64_t area_gen_ = 0;
  std::uint64_t plan_gen_ = std::numeric_limits<std::uint64_t>::max();
  std::optional<area::RequestPlanner> planner_;
  std::map<std::pair<int, int>, std::optional<area::DefragPlan>> plan_cache_;
  std::map<area::RegionId, int> region_job_;
  std::multimap<int, int> pending_run_;  // predecessor job -> successor job
  RunStats stats_;
  double util_integral_ = 0.0;
  double frag_integral_ = 0.0;
  double elapsed_ms_ = 0.0;
};

}  // namespace

Scheduler::Scheduler(int rows, int cols, reloc::RelocationCostModel cost,
                     SchedulerConfig config)
    : rows_(rows), cols_(cols), cost_(std::move(cost)), cfg_(std::move(config)) {
  RELOGIC_CHECK(rows_ >= 1 && cols_ >= 1);
}

void Scheduler::enable_selftest(const SelfTestConfig& selftest,
                                health::FaultMap* faults) {
  RELOGIC_CHECK(selftest.window_cols >= 1);
  RELOGIC_CHECK(selftest.step_period_ms > 0.0);
  selftest_ = selftest;
  faults_ = faults;
}

RunStats Scheduler::run_tasks(const std::vector<TaskArrival>& tasks) {
  // A task is a one-function application: ready at its arrival, with no
  // predecessor and no chained readiness.
  std::vector<AppSpec> apps;
  apps.reserve(tasks.size());
  for (const TaskArrival& task : tasks)
    apps.push_back(AppSpec{task.fn.name, {task.fn}, task.arrival});
  return run_apps(apps);
}

RunStats Scheduler::run_apps(const std::vector<AppSpec>& apps, int overlap) {
  RELOGIC_CHECK(overlap >= 1);
  Engine engine(rows_, cols_, cost_, cfg_, selftest_, faults_, trace_,
                metrics_);
  int id = 0;
  for (const AppSpec& app : apps) {
    int first_of_app = id;
    for (std::size_t f = 0; f < app.functions.size(); ++f) {
      Job j;
      j.id = id;
      j.fn = app.functions[f];
      if (f > 0) j.predecessor = id - 1;
      // Readiness (= when it may start being configured): with prefetch the
      // function is eligible `overlap` positions ahead of the chain; the
      // run itself still waits for the predecessor's end.
      if (f == 0) {
        j.ready = app.start;
      } else if (cfg_.prefetch) {
        // Ready to configure when its (f - overlap)-th ancestor ends; with
        // overlap >= f it is ready at application start. The execution
        // order itself is enforced through `predecessor` regardless —
        // early readiness only permits configuring in advance (the rt
        // interval of Fig. 1).
        const int ancestor = static_cast<int>(f) - overlap;
        if (ancestor < 0) {
          j.ready = app.start;
        } else {
          j.ready = SimTime::never();
          engine.ready_after.emplace(first_of_app + ancestor, id);
        }
      } else {
        j.ready = SimTime::never();
        engine.ready_after.emplace(id - 1, id);
      }
      engine.jobs.push_back(std::move(j));
      ++id;
    }
  }
  return engine.run();
}

}  // namespace relogic::sched
