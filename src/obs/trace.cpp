#include "relogic/obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace relogic::obs {

namespace {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Picoseconds -> microseconds with 6 decimals (i.e. exact to the ps).
std::string us_from_ps(std::int64_t ps) {
  char buf[48];
  const char* sign = ps < 0 ? "-" : "";
  const std::int64_t abs = ps < 0 ? -ps : ps;
  std::snprintf(buf, sizeof(buf), "%s%" PRId64 ".%06" PRId64, sign,
                abs / 1000000, abs % 1000000);
  return buf;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceArg arg(const char* key, const std::string& v) {
  return {key, json_quote(v)};
}
TraceArg arg(const char* key, const char* v) {
  return {key, json_quote(v)};
}
TraceArg arg(const char* key, std::int64_t v) {
  return {key, std::to_string(v)};
}
TraceArg arg(const char* key, int v) { return {key, std::to_string(v)}; }
TraceArg arg(const char* key, std::size_t v) {
  return {key, std::to_string(v)};
}
TraceArg arg(const char* key, double v) { return {key, json_number(v)}; }
TraceArg arg(const char* key, bool v) {
  return {key, v ? "true" : "false"};
}
TraceArg arg_ms(const char* key, SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", t.milliseconds());
  return {key, buf};
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
                          TraceBuffer(opt_.track_capacity)});
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

std::string Tracer::to_json() const {
  MutexLock lock(mu_);
  std::string out;
  out.reserve(1 << 16);
  out += "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"generator\": "
         "\"relogic::obs\", \"dropped_events\": ";
  out += std::to_string(dropped_locked());
  out += "},\n\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& t : tracks_) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
           ",\"args\":{\"name\":" + json_quote(t.process) + "}}";
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
           ",\"args\":{\"name\":" + json_quote(t.thread) + "}}";
  }
  for (const auto& t : tracks_) {
    for (std::size_t i = 0; i < t.buf.size(); ++i) {
      const TraceEvent& e = t.buf.at(i);
      sep();
      out += "{\"ph\":\"";
      out += e.phase;
      out += "\",\"pid\":" + std::to_string(t.pid) +
             ",\"tid\":" + std::to_string(t.tid) +
             ",\"ts\":" + us_from_ps(e.ts.picoseconds());
      if (e.phase == 'X')
        out += ",\"dur\":" + us_from_ps(e.dur.picoseconds());
      if (e.phase != 'E') {
        out += ",\"cat\":" + json_quote(e.cat);
        out += ",\"name\":" + json_quote(e.name);
      }
      if (e.phase == 'i') out += ",\"s\":\"t\"";
      if (e.phase != 'E' && (!e.args.empty() || e.wall_us >= 0.0)) {
        out += ",\"args\":{";
        bool first_arg = true;
        for (const auto& a : e.args) {
          if (!first_arg) out += ',';
          first_arg = false;
          out += json_quote(a.key) + ":" + a.value;
        }
        if (e.wall_us >= 0.0) {
          if (!first_arg) out += ',';
          out += "\"wall_us\":" + json_number(e.wall_us);
        }
        out += '}';
      }
      out += '}';
    }
  }
  out += "\n]\n}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json();
  return f.good();
}

}  // namespace relogic::obs
