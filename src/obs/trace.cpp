#include "relogic/obs/trace.hpp"

#include <chrono>
#include <fstream>

#include "relogic/common/json_writer.hpp"

namespace relogic::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceArg arg(const char* key, const std::string& v) {
  TraceArg a{key, {}};
  JsonWriter(a.value).quoted(v);
  return a;
}
TraceArg arg(const char* key, const char* v) {
  TraceArg a{key, {}};
  JsonWriter(a.value).quoted(v);
  return a;
}
TraceArg arg(const char* key, std::int64_t v) {
  TraceArg a{key, {}};
  JsonWriter(a.value).integer(v);
  return a;
}
TraceArg arg(const char* key, int v) {
  return arg(key, static_cast<std::int64_t>(v));
}
TraceArg arg(const char* key, std::size_t v) {
  return arg(key, static_cast<std::int64_t>(v));
}
TraceArg arg(const char* key, double v) {
  TraceArg a{key, {}};
  JsonWriter(a.value).number(v);
  return a;
}
TraceArg arg(const char* key, bool v) {
  return {key, v ? "true" : "false"};
}
TraceArg arg_ms(const char* key, SimTime t) {
  TraceArg a{key, {}};
  JsonWriter(a.value).fixed6(t.milliseconds());
  return a;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceEvent& TraceBuffer::push() {
#if RELOGIC_AUDIT
  // Single-writer audit: a second thread entering while a push is in flight
  // is a determinism-contract violation whatever the interleaving. The flag
  // stays set on failure — every subsequent writer trips too.
  RELOGIC_AUDIT_CHECK(!busy_.exchange(true, std::memory_order_acquire),
                      "TraceBuffer",
                      "concurrent push() on a single-writer ring "
                      "(DESIGN.md §7: one writer per track)");
#endif
  if (events_.size() < capacity_) events_.emplace_back();
  TraceEvent& e = events_[next_];
  next_ = (next_ + 1) % capacity_;
  if (size_ < capacity_) {
    ++size_;
  } else {
    ++dropped_;
  }
#if RELOGIC_AUDIT
  busy_.store(false, std::memory_order_release);
#endif
  return e;
}

const TraceEvent& TraceBuffer::at(std::size_t i) const {
  const std::size_t oldest = size_ < capacity_ ? 0 : next_;
  return events_[(oldest + i) % capacity_];
}

TraceEvent* TraceTrack::emit(char phase, SimTime ts) const {
  if (!buf_) return nullptr;
  TraceEvent& e = buf_->push();
  e.phase = phase;
  e.cat = "";
  e.name.clear();
  e.ts = ts;
  e.dur = SimTime::zero();
  e.wall_us = tracer_ && tracer_->wall_clock() ? tracer_->wall_now_us() : -1.0;
  e.args.clear();
  return &e;
}

void TraceTrack::complete(const char* cat, std::string name, SimTime ts,
                          SimTime dur, std::vector<TraceArg> args) const {
  TraceEvent* e = emit('X', ts);
  if (!e) return;
  e->cat = cat;
  e->name = std::move(name);
  e->dur = dur;
  e->args = std::move(args);
}

void TraceTrack::begin(const char* cat, std::string name, SimTime ts,
                       std::vector<TraceArg> args) const {
  TraceEvent* e = emit('B', ts);
  if (!e) return;
  e->cat = cat;
  e->name = std::move(name);
  e->args = std::move(args);
}

void TraceTrack::end(SimTime ts) const { emit('E', ts); }

void TraceTrack::instant(const char* cat, std::string name, SimTime ts,
                         std::vector<TraceArg> args) const {
  TraceEvent* e = emit('i', ts);
  if (!e) return;
  e->cat = cat;
  e->name = std::move(name);
  e->args = std::move(args);
}

void TraceTrack::counter(std::string name, SimTime ts, double value) const {
  TraceEvent* e = emit('C', ts);
  if (!e) return;
  e->cat = "counter";
  e->name = std::move(name);
  e->args.push_back(arg("value", value));
}

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options opt) : opt_(opt), epoch_ns_(steady_ns()) {}

TraceTrack Tracer::track(int pid, int tid, std::string process,
                         std::string thread) {
  MutexLock lock(mu_);
  tracks_.push_back(Track{pid, tid, std::move(process), std::move(thread),
                          TraceBuffer(kTrackCapacity)});
  TraceTrack handle;
  handle.buf_ = &tracks_.back().buf;
  handle.tracer_ = this;
  return handle;
}

double Tracer::wall_now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

std::int64_t Tracer::dropped_locked() const {
  std::int64_t n = 0;
  for (const auto& t : tracks_) n += t.buf.dropped();
  return n;
}

std::int64_t Tracer::dropped_events() const {
  MutexLock lock(mu_);
  return dropped_locked();
}

void Tracer::write_events(JsonWriter& w) const {
  w.raw("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"generator\": "
        "\"relogic::obs\", \"dropped_events\": ")
      .integer(dropped_locked())
      .raw("},\n\"traceEvents\": [\n");
  bool first = true;
  // Opens the next event object and writes its "pid"/"tid" members.
  auto open = [&](const Track& t, std::string_view lead) {
    w.raw(first ? "{" : ",\n{").raw(lead);
    first = false;
    w.raw("\"pid\":").integer(t.pid).raw(",\"tid\":").integer(t.tid);
  };
  for (const auto& t : tracks_) {
    open(t, "\"name\":\"process_name\",\"ph\":\"M\",");
    w.raw(",\"args\":{\"name\":").quoted(t.process).raw("}}");
    open(t, "\"name\":\"thread_name\",\"ph\":\"M\",");
    w.raw(",\"args\":{\"name\":").quoted(t.thread).raw("}}");
  }
  for (const auto& t : tracks_) {
    for (std::size_t i = 0; i < t.buf.size(); ++i) {
      const TraceEvent& e = t.buf.at(i);
      const char ph[] = {'"', 'p', 'h', '"', ':', '"', e.phase, '"', ','};
      open(t, std::string_view(ph, sizeof ph));
      w.raw(",\"ts\":").us_from_ps(e.ts.picoseconds());
      if (e.phase == 'X') w.raw(",\"dur\":").us_from_ps(e.dur.picoseconds());
      if (e.phase != 'E') {
        w.raw(",\"cat\":").quoted(e.cat);
        w.raw(",\"name\":").quoted(e.name);
      }
      if (e.phase == 'i') w.raw(",\"s\":\"t\"");
      if (e.phase != 'E' && (!e.args.empty() || e.wall_us >= 0.0)) {
        w.raw(",\"args\":{");
        bool first_arg = true;
        for (const auto& a : e.args) {
          if (!first_arg) w.raw(',');
          first_arg = false;
          w.quoted(a.key).raw(':').raw(a.value);
        }
        if (e.wall_us >= 0.0) {
          if (!first_arg) w.raw(',');
          w.raw("\"wall_us\":").number(e.wall_us);
        }
        w.raw('}');
      }
      w.raw('}');
    }
  }
  w.raw("\n]\n}\n");
}

std::string Tracer::to_json() const {
  MutexLock lock(mu_);
  std::string out;
  JsonWriter w(out);
  write_events(w);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  MutexLock lock(mu_);
  std::string buffer;
  JsonWriter w(buffer, f);
  write_events(w);
  return w.flush();
}

}  // namespace relogic::obs
