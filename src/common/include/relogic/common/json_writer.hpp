// JsonWriter: the one number formatter and string quoter behind every
// relogic export (trace, metrics timeline, Prometheus text, telemetry,
// fleet report).
//
// The writer appends to a caller-owned std::string. Numbers go through
// std::to_chars straight into it, with no temporary strings or streams.
// to_chars with (chars_format::general, 6) is specified to print exactly
// what printf("%.6g") prints, and (chars_format::fixed, 6) what "%.6f"
// prints, so every export keeps printf's bytes (DESIGN.md §7.6).
//
// With a sink attached, the buffer is written out whenever it passes
// kFlushBytes, so a multi-megabyte document streams to its file through a
// 64 KiB window instead of being built whole first.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace relogic {

class JsonWriter {
 public:
  /// Buffer size at which an attached sink receives the buffered bytes.
  static constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

  /// Appends to `out`. Nothing is cleared: the writer continues whatever
  /// `out` already holds.
  explicit JsonWriter(std::string& out) : out_(&out) {}
  /// Appends to `buffer` and hands it to `sink` (then clears it) every
  /// kFlushBytes. Call flush() at the end to write the rest.
  JsonWriter(std::string& buffer, std::ostream& sink)
      : out_(&buffer), sink_(&sink) {}

  /// Verbatim bytes (punctuation, keys, pre-rendered fragments).
  JsonWriter& raw(std::string_view s) {
    out_->append(s);
    return spill();
  }
  JsonWriter& raw(char c) {
    out_->push_back(c);
    return spill();
  }

  /// printf("%.6g") rendering; a non-finite value prints 0, so the output
  /// stays valid JSON.
  JsonWriter& number(double v) {
    if (!std::isfinite(v)) return raw('0');
    // Integral values below 1e6 print as their digits under %.6g; most
    // exported numbers (counts, rates of whole events per window, bucket
    // bounds) are such. -0 keeps its sign through the general path.
    if (v > -1e6 && v < 1e6) {
      const auto i = static_cast<std::int64_t>(v);
      if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v)))
        return integer(i);
    }
    char buf[32];
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
    out_->append(buf, r.ptr);
    return spill();
  }

  /// printf("%.6f") rendering; a non-finite value prints 0.
  JsonWriter& fixed6(double v);

  JsonWriter& integer(std::int64_t v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out_->append(buf, r.ptr);
    return spill();
  }

  /// Picoseconds as microseconds with exactly six decimals (exact to the
  /// picosecond), e.g. -1500000 -> "-1.500000". Safe for INT64_MIN.
  JsonWriter& us_from_ps(std::int64_t ps);

  /// JSON string literal. Escapes `"` `\` and the control characters
  /// (\n \t \r \b \f by name, the rest as \u00XX); every other byte,
  /// UTF-8 included, is copied as is.
  JsonWriter& quoted(std::string_view s);

  /// Writes the buffered bytes to the sink and clears the buffer. Returns
  /// false when the sink is in a failed state. Without a sink, a no-op
  /// that returns true.
  bool flush();

 private:
  JsonWriter& spill() {
    if (sink_ != nullptr && out_->size() >= kFlushBytes) flush();
    return *this;
  }

  std::string* out_;
  std::ostream* sink_ = nullptr;
};

}  // namespace relogic
