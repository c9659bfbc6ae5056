// Unit tests: relogic::sched (workloads, policies, event engine).
#include <gtest/gtest.h>

#include <cmath>

#include "relogic/config/port.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/sched/scheduler.hpp"

namespace relogic::sched {
namespace {

reloc::RelocationCostModel fast_cost() {
  static const auto geom = fabric::DeviceGeometry::xcv200();
  static const config::SelectMapPort port;
  return reloc::RelocationCostModel(geom, port);
}

TEST(Workload, RandomTasksDeterministic) {
  RandomTaskParams p;
  p.task_count = 50;
  const auto a = random_tasks(p);
  const auto b = random_tasks(p);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].fn.height, b[i].fn.height);
  }
  // Arrivals are nondecreasing.
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i].arrival, a[i - 1].arrival);
}

TEST(Workload, GeneratorPoissonMatchesRandomTasks) {
  // random_tasks() delegates to the generator; same seed, same trace —
  // existing experiment seeds stay meaningful.
  RandomTaskParams p;
  p.task_count = 40;
  p.seed = 5;
  const auto legacy = random_tasks(p);
  WorkloadParams wp;
  wp.task_count = 40;
  wp.seed = 5;
  const auto gen = WorkloadGenerator(wp).generate();
  ASSERT_EQ(gen.size(), legacy.size());
  for (std::size_t i = 0; i < gen.size(); ++i) {
    EXPECT_EQ(gen[i].arrival, legacy[i].arrival);
    EXPECT_EQ(gen[i].fn.name, legacy[i].fn.name);
    EXPECT_EQ(gen[i].fn.height, legacy[i].fn.height);
    EXPECT_EQ(gen[i].fn.width, legacy[i].fn.width);
    EXPECT_EQ(gen[i].fn.duration, legacy[i].fn.duration);
    EXPECT_EQ(gen[i].fn.gated_clock, legacy[i].fn.gated_clock);
  }
}

TEST(Workload, AllPatternsDeterministicPerSeed) {
  for (const auto pattern :
       {ArrivalPattern::kPoisson, ArrivalPattern::kBursty,
        ArrivalPattern::kDiurnal, ArrivalPattern::kHeavyTail}) {
    WorkloadParams wp;
    wp.pattern = pattern;
    wp.task_count = 100;
    wp.seed = 9;
    const auto a = WorkloadGenerator(wp).generate();
    const auto b = WorkloadGenerator(wp).generate();
    ASSERT_EQ(a.size(), 100u) << to_string(pattern);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].arrival, b[i].arrival) << to_string(pattern);
      EXPECT_EQ(a[i].fn.duration, b[i].fn.duration) << to_string(pattern);
    }
    for (std::size_t i = 1; i < a.size(); ++i)
      EXPECT_GE(a[i].arrival, a[i - 1].arrival) << to_string(pattern);

    wp.seed = 10;
    const auto c = WorkloadGenerator(wp).generate();
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
      differs = differs || a[i].arrival != c[i].arrival;
    EXPECT_TRUE(differs) << to_string(pattern);
  }
}

TEST(Workload, BurstyTraceHasBurstsAndGaps) {
  WorkloadParams wp;
  wp.pattern = ArrivalPattern::kBursty;
  wp.task_count = 200;
  wp.seed = 3;
  const auto t = WorkloadGenerator(wp).generate();
  double max_gap = 0.0;
  int fast = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double gap = (t[i].arrival - t[i - 1].arrival).milliseconds();
    max_gap = std::max(max_gap, gap);
    if (gap < wp.mean_interarrival_ms) ++fast;
  }
  // Bursts: most interarrivals are far below the long-run mean...
  EXPECT_GT(fast, static_cast<int>(t.size()) * 3 / 4);
  // ...separated by gaps far above it.
  EXPECT_GT(max_gap, 5.0 * wp.mean_interarrival_ms);
}

TEST(Workload, HeavyTailDurationsBoundedButSpread) {
  WorkloadParams wp;
  wp.pattern = ArrivalPattern::kHeavyTail;
  wp.task_count = 300;
  wp.seed = 4;
  const auto t = WorkloadGenerator(wp).generate();
  double max_ms = 0.0;
  int below_mean = 0;
  for (const auto& task : t) {
    const double d = task.fn.duration.milliseconds();
    EXPECT_LE(d, wp.tail_cap * wp.mean_duration_ms);
    max_ms = std::max(max_ms, d);
    if (d < wp.mean_duration_ms) ++below_mean;
  }
  // Heavy tail: most tasks are short, a few are very long.
  EXPECT_GT(below_mean, static_cast<int>(t.size()) * 2 / 3);
  EXPECT_GT(max_ms, 5.0 * wp.mean_duration_ms);
}

TEST(Workload, DiurnalWaveModulatesArrivalRate) {
  WorkloadParams wp;
  wp.pattern = ArrivalPattern::kDiurnal;
  wp.task_count = 400;
  wp.seed = 6;
  const auto t = WorkloadGenerator(wp).generate();
  // The first half of each period carries the positive half of the sine:
  // with amplitude 0.8 it should receive markedly more arrivals.
  int peak = 0, trough = 0;
  for (const auto& task : t) {
    const double phase =
        std::fmod(task.arrival.milliseconds(), wp.wave_period_ms);
    (phase < wp.wave_period_ms / 2 ? peak : trough)++;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(Workload, Fig1ShapeMatchesPaper) {
  const auto apps = fig1_applications();
  ASSERT_EQ(apps.size(), 3u);
  EXPECT_EQ(apps[0].functions.size(), 2u);  // A1, A2
  EXPECT_EQ(apps[1].functions.size(), 2u);  // B1, B2
  EXPECT_EQ(apps[2].functions.size(), 4u);  // C1..C4
  EXPECT_EQ(apps[2].functions[1].name, "C2");
}

TEST(Scheduler, SingleTaskRunsToCompletion) {
  SchedulerConfig cfg;
  Scheduler sched(16, 16, fast_cost(), cfg);
  FunctionSpec fn;
  fn.name = "t";
  fn.height = 4;
  fn.width = 4;
  fn.duration = SimTime::ms(10);
  const auto stats = sched.run_tasks({TaskArrival{fn, SimTime::ms(1)}});
  ASSERT_EQ(stats.tasks.size(), 1u);
  const auto& t = stats.tasks[0];
  EXPECT_FALSE(t.rejected);
  EXPECT_GE(t.run_start, t.ready);
  EXPECT_EQ(t.finish - t.run_start, SimTime::ms(10));
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GT(stats.config_port_busy, SimTime::zero());
}

TEST(Scheduler, OversizedTaskRejected) {
  SchedulerConfig cfg;
  Scheduler sched(8, 8, fast_cost(), cfg);
  FunctionSpec fn;
  fn.name = "big";
  fn.height = 9;
  fn.width = 2;
  const auto stats = sched.run_tasks({TaskArrival{fn, SimTime::zero()}});
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_TRUE(stats.tasks[0].rejected);
}

TEST(Scheduler, QueueDrainsOnDepartures) {
  // Two 8x8 tasks on an 8x8 device: strictly sequential.
  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kNoRearrange;
  Scheduler sched(8, 8, fast_cost(), cfg);
  FunctionSpec fn;
  fn.height = 8;
  fn.width = 8;
  fn.duration = SimTime::ms(5);
  fn.name = "a";
  std::vector<TaskArrival> tasks{{fn, SimTime::zero()}, {fn, SimTime::zero()}};
  tasks[1].fn.name = "b";
  const auto stats = sched.run_tasks(tasks);
  EXPECT_EQ(stats.rejected, 0);
  const auto& a = stats.tasks[0];
  const auto& b = stats.tasks[1];
  EXPECT_GE(b.run_start, a.finish);
}

TEST(Scheduler, TransparentPolicyNeverHalts) {
  RandomTaskParams p;
  p.task_count = 120;
  p.min_side = 4;
  p.max_side = 12;
  p.mean_interarrival_ms = 10.0;
  p.mean_duration_ms = 200.0;
  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kTransparent;
  Scheduler sched(20, 20, fast_cost(), cfg);
  const auto stats = sched.run_tasks(random_tasks(p));
  EXPECT_EQ(stats.total_halted, SimTime::zero());
}

TEST(Scheduler, HaltAndMoveChargesDowntimeWhenItMoves) {
  RandomTaskParams p;
  p.task_count = 120;
  p.min_side = 4;
  p.max_side = 12;
  p.mean_interarrival_ms = 10.0;
  p.mean_duration_ms = 200.0;
  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kHaltAndMove;
  Scheduler sched(20, 20, fast_cost(), cfg);
  const auto stats = sched.run_tasks(random_tasks(p));
  if (stats.rearrangement_moves > 0) {
    EXPECT_GT(stats.total_halted, SimTime::zero());
  }
}

TEST(Scheduler, RearrangementImprovesOnNone) {
  // Moderate load (~85% offered area): fragmentation blocks requests now
  // and then, and rearrangement has the headroom to pay off. (Under heavy
  // overload no policy helps — see bench_defrag_policies' load sweep.)
  RandomTaskParams p;
  p.task_count = 150;
  p.min_side = 5;
  p.max_side = 12;
  p.mean_interarrival_ms = 25.0;
  p.mean_duration_ms = 180.0;
  p.seed = 9;
  const auto tasks = random_tasks(p);

  auto run = [&](ManagementPolicy policy) {
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.max_wait = SimTime::ms(500);
    Scheduler sched(20, 20, fast_cost(), cfg);
    return sched.run_tasks(tasks);
  };
  const auto none = run(ManagementPolicy::kNoRearrange);
  const auto transparent = run(ManagementPolicy::kTransparent);
  // The paper's core claim at scheduler level: rearrangement admits at
  // least as many tasks.
  EXPECT_LE(transparent.rejected, none.rejected);
  EXPECT_GT(transparent.rearrangement_moves, 0);
}

TEST(Scheduler, AppChainsRunInOrder) {
  SchedulerConfig cfg;
  Scheduler sched(28, 42, fast_cost(), cfg);
  const auto stats = sched.run_apps(fig1_applications(6), 1);
  // Within each application, functions finish in sequence.
  auto find = [&](const std::string& name) {
    for (const auto& t : stats.tasks)
      if (t.name == name) return t;
    throw std::runtime_error("missing " + name);
  };
  EXPECT_LE(find("A1").finish, find("A2").run_start);
  EXPECT_LE(find("C1").finish, find("C2").run_start);
  EXPECT_LE(find("C3").finish, find("C4").run_start);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(Scheduler, PrefetchHidesConfigurationLatency) {
  // The Fig. 1 rt interval: the next function is configured while its
  // predecessor still runs, which requires two resident functions
  // (overlap = 2). With overlap = 1 prefetch cannot start early by
  // construction.
  const auto apps = fig1_applications(6);
  auto run = [&](bool prefetch) {
    SchedulerConfig cfg;
    cfg.prefetch = prefetch;
    Scheduler sched(28, 42, fast_cost(), cfg);
    return sched.run_apps(apps, 2);
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_LE(with.makespan, without.makespan);
  EXPECT_LT(with.avg_allocation_delay_ms(),
            without.avg_allocation_delay_ms());
}

TEST(Scheduler, HigherParallelismNeedsMoreAreaOrDelays) {
  // A device where the applications fit sequentially but not three-deep:
  // the paper's "an increase in the degree of parallelism may retard the
  // reconfiguration of incoming functions, due to lack of space".
  const auto apps = fig1_applications(8);
  auto run = [&](int overlap) {
    SchedulerConfig cfg;
    Scheduler sched(12, 16, fast_cost(), cfg);
    return sched.run_apps(apps, overlap);
  };
  const auto seq = run(1);
  const auto par = run(3);
  EXPECT_EQ(seq.rejected, 0);
  EXPECT_GT(par.avg_allocation_delay_ms() + par.rejected,
            seq.avg_allocation_delay_ms() + seq.rejected);
}

TEST(Scheduler, PrefetchedSuccessorOfRejectedFunctionIsRejected) {
  // App A holds the left half of a 4x4 device for 100 ms. App B arrives at
  // 10 ms; with overlap 2 both of its functions are ready at once. b0 needs
  // the whole device, waits past max_wait and is rejected; b1 fits beside A
  // and is configured, but can never run: its predecessor never finishes.
  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kNoRearrange;
  cfg.max_wait = SimTime::ms(5);
  Scheduler sched(4, 4, fast_cost(), cfg);
  const auto fn = [](const char* name, int height, int width, double ms) {
    FunctionSpec f;
    f.name = name;
    f.height = height;
    f.width = width;
    f.duration = SimTime::ms(ms);
    return f;
  };
  const std::vector<AppSpec> apps{
      {"A", {fn("a0", 4, 2, 100)}, SimTime::zero()},
      {"B", {fn("b0", 4, 4, 10), fn("b1", 1, 1, 10)}, SimTime::ms(10)}};
  const auto stats = sched.run_apps(apps, 2);
  ASSERT_EQ(stats.tasks.size(), 3u);
  EXPECT_FALSE(stats.tasks[0].rejected);  // a0 ran
  EXPECT_TRUE(stats.tasks[1].rejected);   // b0 timed out
  EXPECT_TRUE(stats.tasks[2].rejected);   // b1 never ran
  for (const auto& t : stats.tasks) {
    if (!t.rejected) {
      EXPECT_GE(t.allocation_delay(), SimTime::zero()) << t.name;
    }
  }
  EXPECT_GE(stats.avg_allocation_delay_ms(), 0.0);
  // Completed == the jobs that ran; every job is counted exactly once.
  EXPECT_EQ(static_cast<int>(stats.tasks.size()) - stats.rejected, 1);
  EXPECT_EQ(stats.telemetry.counter_value("tasks_completed"), 1);
  EXPECT_EQ(stats.telemetry.counter_value("tasks_rejected"), 2);
  EXPECT_EQ(stats.telemetry.counter_value("tasks_admitted"), 3);
}

FunctionSpec function(const char* name, int height, int width, double ms) {
  FunctionSpec f;
  f.name = name;
  f.height = height;
  f.width = width;
  f.duration = SimTime::ms(ms);
  return f;
}

TEST(Scheduler, RejectedPredecessorReleasesPrefetchedSuccessor) {
  // The set-up above plus app C, which needs the whole device at 150 ms.
  // b1 can never run once b0 is rejected, so its region is released then:
  // by the time C arrives the device is empty and c0 runs.
  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kNoRearrange;
  cfg.max_wait = SimTime::ms(5);
  Scheduler sched(4, 4, fast_cost(), cfg);
  const std::vector<AppSpec> apps{
      {"A", {function("a0", 4, 2, 100)}, SimTime::zero()},
      {"B", {function("b0", 4, 4, 10), function("b1", 1, 1, 10)},
       SimTime::ms(10)},
      {"C", {function("c0", 4, 4, 10)}, SimTime::ms(150)}};
  const auto stats = sched.run_apps(apps, 2);
  ASSERT_EQ(stats.tasks.size(), 4u);
  EXPECT_FALSE(stats.tasks[0].rejected);  // a0 ran
  EXPECT_TRUE(stats.tasks[1].rejected);   // b0 timed out
  EXPECT_TRUE(stats.tasks[2].rejected);   // b1 never ran
  EXPECT_FALSE(stats.tasks[3].rejected);  // c0 found the device empty
  EXPECT_EQ(stats.tasks[3].config_start, SimTime::ms(150));  // no wait
  EXPECT_EQ(stats.telemetry.counter_value("tasks_completed"), 2);
  EXPECT_EQ(stats.telemetry.counter_value("tasks_rejected"), 2);
  EXPECT_EQ(stats.telemetry.counter_value("tasks_admitted"), 4);
}

TEST(Scheduler, PredecessorRejectedWhileSuccessorConfigures) {
  // b0 is larger than the device and rejected on arrival, while b1 is
  // placed and still configuring: b1 is rejected, and its region released,
  // when its configuration completes. c0 then finds the device empty.
  SchedulerConfig cfg;
  cfg.policy = ManagementPolicy::kNoRearrange;
  Scheduler sched(4, 4, fast_cost(), cfg);
  const std::vector<AppSpec> apps{
      {"B", {function("b0", 5, 5, 10), function("b1", 1, 1, 10)},
       SimTime::zero()},
      {"C", {function("c0", 4, 4, 10)}, SimTime::ms(50)}};
  const auto stats = sched.run_apps(apps, 2);
  ASSERT_EQ(stats.tasks.size(), 3u);
  EXPECT_TRUE(stats.tasks[0].rejected);   // b0 oversized
  EXPECT_TRUE(stats.tasks[1].rejected);   // b1 never ran
  EXPECT_FALSE(stats.tasks[2].rejected);  // c0 ran
  EXPECT_EQ(stats.tasks[2].config_start, SimTime::ms(50));
  EXPECT_EQ(stats.telemetry.counter_value("tasks_completed"), 1);
  EXPECT_EQ(stats.telemetry.counter_value("tasks_rejected"), 2);
}

TEST(Scheduler, UtilizationBoundedAndPositive) {
  RandomTaskParams p;
  p.task_count = 80;
  SchedulerConfig cfg;
  Scheduler sched(20, 20, fast_cost(), cfg);
  const auto stats = sched.run_tasks(random_tasks(p));
  EXPECT_GT(stats.utilization_avg, 0.0);
  EXPECT_LE(stats.utilization_avg, 1.0);
  EXPECT_GE(stats.fragmentation_avg, 0.0);
  EXPECT_LE(stats.fragmentation_max, 1.0);
}

}  // namespace
}  // namespace relogic::sched
