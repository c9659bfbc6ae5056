// Unit tests: relogic::obs (trace ring buffers, Chrome trace-event export,
// the determinism contract, and the fleet instrumentation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "relogic/obs/trace.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/workload.hpp"

namespace relogic::obs {
namespace {

// ---- ring buffer ------------------------------------------------------------

TEST(TraceBuffer, InsertionOrderAndOverwrite) {
  TraceBuffer buf(3);
  EXPECT_EQ(buf.capacity(), 3u);
  for (int i = 0; i < 5; ++i) {
    TraceEvent& e = buf.push();
    e.name = "e" + std::to_string(i);
  }
  // 5 pushes into 3 slots: the oldest two were overwritten.
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dropped(), 2);
  EXPECT_EQ(buf.at(0).name, "e2");
  EXPECT_EQ(buf.at(1).name, "e3");
  EXPECT_EQ(buf.at(2).name, "e4");
}

TEST(TraceBuffer, LazySlotsMatchEagerRingAcrossWrap) {
  // Slots are constructed on first push; before, during and after the wrap
  // the ring must read exactly like a pre-filled one: a fixed array of
  // `capacity` slots written round-robin.
  constexpr std::size_t kCap = 3;
  TraceBuffer buf(kCap);
  EXPECT_EQ(buf.capacity(), kCap);
  EXPECT_EQ(buf.size(), 0u);
  std::vector<std::string> eager(kCap);
  std::size_t next = 0;
  for (int i = 0; i < 7; ++i) {
    buf.push().name = "e" + std::to_string(i);
    eager[next] = "e" + std::to_string(i);
    next = (next + 1) % kCap;
    const std::size_t pushed = static_cast<std::size_t>(i) + 1;
    const std::size_t size = std::min(pushed, kCap);
    ASSERT_EQ(buf.size(), size);
    ASSERT_EQ(buf.dropped(), static_cast<std::int64_t>(pushed - size));
    ASSERT_EQ(buf.capacity(), kCap);
    const std::size_t oldest = pushed < kCap ? 0 : next;
    for (std::size_t k = 0; k < size; ++k)
      EXPECT_EQ(buf.at(k).name, eager[(oldest + k) % kCap])
          << "after push " << i << ", slot " << k;
  }
  EXPECT_EQ(buf.at(0).name, "e4");
  EXPECT_EQ(buf.at(2).name, "e6");
}

TEST(TraceTrack, DefaultHandleIsDisabledNoOp) {
  TraceTrack track;
  EXPECT_FALSE(static_cast<bool>(track));
  // Every emission on a null handle is a no-op, not a crash.
  track.complete("cat", "name", SimTime::ms(1), SimTime::ms(2));
  track.begin("cat", "name", SimTime::zero());
  track.end(SimTime::ms(1));
  track.instant("cat", "name", SimTime::zero());
  track.counter("c", SimTime::zero(), 1.0);
  EXPECT_EQ(track.dropped(), 0);
}

// ---- JSON export ------------------------------------------------------------

TEST(Tracer, JsonShapeAndArgRendering) {
  Tracer tracer;
  TraceTrack t = tracer.track(7, 3, "proc", "lane");
  EXPECT_TRUE(static_cast<bool>(t));
  t.complete("config", "apply \"x\"", SimTime::us(2), SimTime::us(5),
             {arg("frames", 4), arg("ratio", 0.5), arg("ok", true),
              arg("label", std::string("a\nb"))});
  t.instant("queue", "rejected", SimTime::ms(1), {arg("reason", "oversized")});
  t.begin("sched", "des-run", SimTime::zero());
  t.end(SimTime::ms(3));
  t.counter("frames_written", SimTime::ms(2), 42.0);

  const std::string json = tracer.to_json();
  // Track metadata names the pid/tid lanes.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"proc\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"lane\"}"), std::string::npos);
  // The complete span: µs timestamps exact from picoseconds, args rendered
  // at the emission site (ints bare, strings quoted+escaped).
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":7,\"tid\":3,\"ts\":2.000000,"
                      "\"dur\":5.000000,\"cat\":\"config\","
                      "\"name\":\"apply \\\"x\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"frames\":4,\"ratio\":0.5,\"ok\":true,"
                      "\"label\":\"a\\nb\""),
            std::string::npos);
  // Instant carries thread scope; counter carries its value.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"counter\",\"name\":\"frames_written\","
                      "\"args\":{\"value\":42}"),
            std::string::npos);
  // Wall clock is off by default: no wall_us anywhere.
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
  // Export is deterministic.
  EXPECT_EQ(json, tracer.to_json());
}

TEST(Tracer, WallClockOptInAddsWallUsArg) {
  Tracer::Options opt;
  opt.wall_clock = true;
  Tracer tracer(opt);
  TraceTrack t = tracer.track(0, 0, "p", "t");
  t.instant("cat", "tick", SimTime::zero());
  EXPECT_NE(tracer.to_json().find("\"wall_us\":"), std::string::npos);
}

TEST(Tracer, NonFiniteArgsAndControlCharactersStayValidJson) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Tracer tracer;
  TraceTrack t = tracer.track(1, 2, "proc\r", "lane\b");
  t.complete("config", "line\rfeed\f", SimTime::us(1), SimTime::us(2),
             {arg("x", nan), arg("big", HUGE_VAL), arg("neg", -HUGE_VAL)});
  t.counter("level\r", SimTime::us(3), nan);

  const std::string json = tracer.to_json();
  // Non-finite numbers print 0, the telemetry's rule; bare nan/inf tokens
  // are not JSON.
  EXPECT_NE(json.find("\"args\":{\"x\":0,\"big\":0,\"neg\":0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"level\\r\",\"args\":{\"value\":0}"),
            std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  // Control characters use the short escapes, as in every other export.
  EXPECT_NE(json.find("\"name\":\"line\\rfeed\\f\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"proc\\r\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"lane\\b\"}"), std::string::npos);

  const std::string path = testing::TempDir() + "obs_test_nonfinite.json";
  ASSERT_TRUE(tracer.write_json(path));
#ifdef RELOGIC_TRACE_CHECKER
  const std::string cmd = std::string(RELOGIC_PYTHON) + " " +
                          RELOGIC_TRACE_CHECKER + " " + path;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
#else
  GTEST_SKIP() << "python3 not found: trace validator not run";
#endif
}

TEST(Tracer, WriteJsonStreamsTheSameBytesAsToJson) {
  // Enough events for several 64 KiB flushes of the streamed writer.
  Tracer tracer;
  TraceTrack a = tracer.track(0, 0, "p", "a");
  TraceTrack b = tracer.track(0, 1, "p", "b");
  for (int i = 0; i < 5000; ++i) {
    a.complete("sched", "task " + std::to_string(i), SimTime::ns(i),
               SimTime::ns(3), {arg("i", i), arg_ms("at", SimTime::ns(7 * i))});
    b.counter("depth", SimTime::ns(i), 0.1 * i);
  }
  const std::string path = testing::TempDir() + "obs_test_streamed.json";
  ASSERT_TRUE(tracer.write_json(path));
  std::ifstream f(path, std::ios::binary);
  std::ostringstream file;
  file << f.rdbuf();
  const std::string json = tracer.to_json();
  EXPECT_GT(json.size(), 4u << 16);
  EXPECT_EQ(file.str(), json);
}

// ---- fleet traces -----------------------------------------------------------

runtime::FleetConfig traced_fleet_config() {
  runtime::FleetConfig cfg;
  cfg.devices = 3;
  cfg.rows = cfg.cols = 12;
  cfg.admission = runtime::AdmissionMode::kOnline;
  cfg.rebalance_backlog_ms = 40.0;
  cfg.sched.policy = sched::ManagementPolicy::kTransparent;
  cfg.health.selftest.enabled = true;
  cfg.health.fault_rate = 0.002;
  cfg.health.fault_seed = 7;
  return cfg;
}

std::vector<sched::TaskArrival> traced_workload() {
  sched::WorkloadParams wp;
  wp.pattern = sched::ArrivalPattern::kPoisson;
  wp.task_count = 60;
  wp.mean_interarrival_ms = 0.8;
  wp.seed = 7;
  wp.max_side = 10;
  return sched::WorkloadGenerator(wp).generate();
}

std::string traced_fleet_json(int threads) {
  runtime::FleetConfig cfg = traced_fleet_config();
  cfg.threads = threads;
  Tracer tracer;
  runtime::FleetManager fleet(cfg);
  fleet.set_tracer(&tracer);
  fleet.submit_all(traced_workload());
  fleet.run();
  return tracer.to_json();
}

TEST(FleetTrace, SameSeedSameConfigIsByteIdentical) {
  const std::string a = traced_fleet_json(1);
  const std::string b = traced_fleet_json(1);
  EXPECT_EQ(a, b);
}

TEST(FleetTrace, ThreadCountDoesNotChangeTheTrace) {
  const std::string one = traced_fleet_json(1);
  const std::string four = traced_fleet_json(4);
  EXPECT_EQ(one, four);
}

/// Minimal line-oriented scan of the exported JSON: every event is on its
/// own line, so the shape checks don't need a JSON parser.
struct EventScan {
  std::map<std::pair<int, int>, int> depth;  // (pid,tid) -> open B count
  std::set<std::string> cats;
  int spans = 0;
  bool negative_dur = false;
  std::vector<std::string> lines;
};

EventScan scan_events(const std::string& json) {
  EventScan scan;
  std::size_t pos = 0;
  while (pos < json.size()) {
    const std::size_t eol = json.find('\n', pos);
    const std::string line = json.substr(pos, eol - pos);
    pos = eol == std::string::npos ? json.size() : eol + 1;
    if (line.rfind("{\"", 0) != 0) continue;
    const auto field = [&line](const std::string& key) -> std::string {
      const std::string tag = "\"" + key + "\":";
      const std::size_t at = line.find(tag);
      if (at == std::string::npos) return "";
      const std::size_t start = at + tag.size();
      std::size_t end = start;
      if (line[start] == '"') {
        end = line.find('"', start + 1) + 1;
        return line.substr(start + 1, end - start - 2);
      }
      while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
      return line.substr(start, end - start);
    };
    const std::string ph = field("ph");
    if (ph.empty() || ph == "M") continue;
    scan.lines.push_back(line);
    const std::pair<int, int> lane{std::stoi(field("pid")),
                                   std::stoi(field("tid"))};
    if (ph == "B") ++scan.depth[lane];
    if (ph == "E") --scan.depth[lane];
    if (ph == "X") {
      ++scan.spans;
      scan.negative_dur =
          scan.negative_dur || field("dur").rfind('-', 0) == 0;
    }
    if (ph != "E" && ph != "C") scan.cats.insert(field("cat"));
  }
  return scan;
}

TEST(FleetTrace, NestingBalancedAndSpansNonNegative) {
  const EventScan scan = scan_events(traced_fleet_json(1));
  EXPECT_GT(scan.spans, 0);
  EXPECT_FALSE(scan.negative_dur);
  for (const auto& [lane, depth] : scan.depth) {
    EXPECT_EQ(depth, 0) << "unbalanced B/E on pid " << lane.first << " tid "
                        << lane.second;
  }
}

TEST(FleetTrace, CoversTheRequestPathCategories) {
  const EventScan scan = scan_events(traced_fleet_json(1));
  // The whole request path: admission -> queue -> dispatch -> placement ->
  // config transactions -> task execution, plus the health sweep and the
  // DES envelope. ≥ 6 distinct categories is the acceptance floor.
  for (const char* cat :
       {"admission", "queue", "dispatch", "placement", "config", "task",
        "health", "sched"}) {
    EXPECT_TRUE(scan.cats.contains(cat)) << "missing category " << cat;
  }
}

TEST(FleetTrace, DispatchAndConfigSpansCarryArgs) {
  const std::string json = traced_fleet_json(1);
  // Dispatch spans name the policy and the chosen device.
  bool dispatch_args = false;
  // Config-apply spans carry the write granularity and frame accounting.
  bool config_args = false;
  for (const auto& line : scan_events(json).lines) {
    if (line.find("\"cat\":\"dispatch\"") != std::string::npos &&
        line.find("\"policy\":") != std::string::npos &&
        line.find("\"device\":") != std::string::npos) {
      dispatch_args = true;
    }
    if (line.find("\"cat\":\"config\"") != std::string::npos &&
        line.find("\"granularity\":") != std::string::npos &&
        line.find("\"frames_written\":") != std::string::npos) {
      config_args = true;
    }
  }
  EXPECT_TRUE(dispatch_args);
  EXPECT_TRUE(config_args);
}

}  // namespace
}  // namespace relogic::obs
