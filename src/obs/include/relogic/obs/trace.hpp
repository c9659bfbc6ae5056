// relogic::obs — deterministic trace spans on the simulated clock.
//
// The tracer records spans ('X' complete events, 'B'/'E' nesting pairs),
// instants ('i') and counter samples ('C') into pre-sized per-track ring
// buffers and exports Chrome trace-event JSON loadable in chrome://tracing
// and ui.perfetto.dev. Timestamps are SimTime (integer picoseconds), so a
// run with the same seed and config produces byte-identical JSON — traces
// diff across PRs exactly like telemetry. Wall-clock stamping is opt-in
// per Tracer and off by default because it breaks that contract.
//
// Threading/determinism contract (DESIGN.md §7): every track has exactly
// one writer. Register all tracks (Tracer::track) before spawning worker
// threads, in a fixed order; export walks tracks in registration order and
// events in insertion order, so the JSON is independent of how device runs
// interleave across threads.
//
// Instrumented components hold a TraceTrack handle whose default state is
// null; the disabled path of every emission is a single branch on that
// pointer. Hot call sites guard with `if (track)` so argument rendering is
// never paid when tracing is off.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "relogic/common/audit.hpp"
#include "relogic/common/thread_annotations.hpp"
#include "relogic/common/time.hpp"

#if RELOGIC_AUDIT
#include <atomic>
#endif

namespace relogic {
class JsonWriter;
}

namespace relogic::obs {

/// One key/value attached to a trace event. The value is stored already
/// rendered as JSON (quoted string or bare number), so export is a straight
/// copy and numeric formatting is fixed at the emission site.
struct TraceArg {
  const char* key = "";
  std::string value;
};

TraceArg arg(const char* key, const std::string& v);
TraceArg arg(const char* key, const char* v);
TraceArg arg(const char* key, std::int64_t v);
TraceArg arg(const char* key, int v);
TraceArg arg(const char* key, std::size_t v);
TraceArg arg(const char* key, double v);
TraceArg arg(const char* key, bool v);
/// Simulated durations/timestamps as milliseconds with fixed precision.
TraceArg arg_ms(const char* key, SimTime t);

/// One Chrome trace event. Phases used: 'X' (complete span with duration),
/// 'B'/'E' (begin/end pair), 'i' (instant), 'C' (counter sample).
struct TraceEvent {
  char phase = 'X';
  const char* cat = "";
  std::string name;
  SimTime ts = SimTime::zero();
  SimTime dur = SimTime::zero();  ///< 'X' only
  double wall_us = -1.0;          ///< emission wall clock; < 0 = not stamped
  std::vector<TraceArg> args;
};

/// Fixed-capacity single-writer ring of trace events. When full, the oldest
/// events are overwritten (the most recent window survives) and `dropped`
/// counts the casualties — deterministically, since insertion order is.
///
/// Single-writer contract (DESIGN.md §7): exactly one thread pushes into a
/// given ring at a time, and readers (export) run only after the writer is
/// joined. The contract cannot be expressed as a clang capability (there is
/// no lock to name), so RELOGIC_AUDIT builds enforce it dynamically: push()
/// trips an AuditError when two writers ever overlap.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

#if RELOGIC_AUDIT
  // The concurrent-writer flag is an atomic, which is not movable — and the
  // owning Tracer::Track is moved into its deque on registration. The flag
  // is meaningless before the first post-registration push, so moves reset
  // it. Audit builds only: the unconditional members keep the default move.
  TraceBuffer(TraceBuffer&& other) noexcept
      : events_(std::move(other.events_)),
        capacity_(other.capacity_),
        next_(other.next_),
        size_(other.size_),
        dropped_(other.dropped_) {}
#endif

  /// Slot for the next event; the caller fills it in place. Reuses the
  /// oldest slot once the ring is full.
  TraceEvent& push();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::int64_t dropped() const { return dropped_; }
  /// Event `i` in insertion order (0 = oldest retained).
  const TraceEvent& at(std::size_t i) const;

 private:
  /// Grown block by block up to capacity_: slots stay put (push_back never
  /// moves deque elements), and no megabytes of reserved, untouched heap
  /// per track make peak RSS depend on incidental allocation order.
  std::deque<TraceEvent> events_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::int64_t dropped_ = 0;
#if RELOGIC_AUDIT
  std::atomic<bool> busy_{false};  ///< single-writer audit (see above)
#endif
};

class Tracer;

/// Nullable handle to one track of a Tracer — the null-object default every
/// instrumented component carries. All emission methods are no-ops (one
/// branch on a null pointer) until the handle comes from Tracer::track.
class TraceTrack {
 public:
  TraceTrack() = default;

  explicit operator bool() const { return buf_ != nullptr; }

  void complete(const char* cat, std::string name, SimTime ts, SimTime dur,
                std::vector<TraceArg> args = {}) const;
  void begin(const char* cat, std::string name, SimTime ts,
             std::vector<TraceArg> args = {}) const;
  void end(SimTime ts) const;
  void instant(const char* cat, std::string name, SimTime ts,
               std::vector<TraceArg> args = {}) const;
  void counter(std::string name, SimTime ts, double value) const;

  std::int64_t dropped() const { return buf_ ? buf_->dropped() : 0; }

 private:
  friend class Tracer;
  TraceEvent* emit(char phase, SimTime ts) const;
  TraceBuffer* buf_ = nullptr;
  const Tracer* tracer_ = nullptr;
};

/// Owns the tracks and renders the Chrome trace-event JSON. Tracks live in
/// a deque so handles stay valid as more are registered.
class Tracer {
 public:
  /// Ring capacity per track, in events.
  static constexpr std::size_t kTrackCapacity = 1 << 14;

  struct Options {
    /// Stamp each event with the wall clock at emission (exported as a
    /// "wall_us" arg). Off by default: it breaks byte-identical output.
    bool wall_clock = false;
  };

  Tracer();  ///< default Options
  explicit Tracer(Options opt);

  /// Registers a track and returns its handle. `process`/`thread` name the
  /// pid/tid lanes in the viewer. Must be called before the track's writer
  /// thread starts; one writer per track. Registration mutates the track
  /// registry under mu_ — handles stay valid (deque), but the export order
  /// is fixed by registration order, so register everything up front on one
  /// thread (FleetManager::set_tracer does).
  TraceTrack track(int pid, int tid, std::string process, std::string thread)
      RELOGIC_EXCLUDES(mu_);

  struct Track {
    int pid = 0;
    int tid = 0;
    std::string process;
    std::string thread;
    TraceBuffer buf;
  };

  /// Registered tracks. The reference outlives the internal lock: callers
  /// must be quiescent (no concurrent track()) — in practice export/tests
  /// run after every writer joined.
  const std::deque<Track>& tracks() const RELOGIC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return tracks_;
  }
  bool wall_clock() const { return opt_.wall_clock; }
  /// Microseconds since tracer construction (wall clock).
  double wall_now_us() const;
  /// Events overwritten across all tracks.
  std::int64_t dropped_events() const RELOGIC_EXCLUDES(mu_);

  /// Chrome trace-event JSON: metadata events naming each track, then every
  /// retained event, one per line, in track-registration + insertion order.
  std::string to_json() const RELOGIC_EXCLUDES(mu_);
  /// Writes to_json()'s document into `path`, streamed through a 64 KiB
  /// buffer rather than built whole. Returns false on I/O failure.
  bool write_json(const std::string& path) const RELOGIC_EXCLUDES(mu_);

 private:
  std::int64_t dropped_locked() const RELOGIC_REQUIRES(mu_);
  void write_events(JsonWriter& w) const RELOGIC_REQUIRES(mu_);

  Options opt_;
  /// Guards the registry *structure* (registration, export walk). Ring
  /// contents are single-writer by contract, not lock-protected — see
  /// TraceBuffer.
  mutable Mutex mu_;
  std::deque<Track> tracks_ RELOGIC_GUARDED_BY(mu_);
  std::int64_t epoch_ns_ = 0;
};

}  // namespace relogic::obs
