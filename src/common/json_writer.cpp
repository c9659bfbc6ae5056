#include "relogic/common/json_writer.hpp"

#include <array>
#include <ostream>

namespace relogic {

namespace {

/// Per byte: 0 when it is copied as is, else the character after the
/// backslash ('u' for the \u00XX form).
constexpr std::array<char, 256> kEscape = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[static_cast<std::size_t>(c)] = 'u';
  t['"'] = '"';
  t['\\'] = '\\';
  t['\n'] = 'n';
  t['\t'] = 't';
  t['\r'] = 'r';
  t['\b'] = 'b';
  t['\f'] = 'f';
  return t;
}();

}  // namespace

JsonWriter& JsonWriter::fixed6(double v) {
  if (!std::isfinite(v)) return raw('0');
  // DBL_MAX in fixed notation: 309 integer digits, '.', 6 decimals, sign.
  char buf[320];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 6);
  out_->append(buf, r.ptr);
  return spill();
}

JsonWriter& JsonWriter::us_from_ps(std::int64_t ps) {
  // Both parts truncate toward zero and share the sign of ps. Their
  // magnitudes (< 1e13 and < 1e6) negate safely even for INT64_MIN.
  const std::int64_t whole = ps / 1000000;
  std::int64_t frac = ps % 1000000;
  if (ps < 0) out_->push_back('-');
  char buf[32];
  char* p = std::to_chars(buf, buf + sizeof buf, whole < 0 ? -whole : whole).ptr;
  *p++ = '.';
  if (frac < 0) frac = -frac;
  for (int i = 5; i >= 0; --i, frac /= 10) p[i] = static_cast<char>('0' + frac % 10);
  out_->append(buf, p + 6);
  return spill();
}

JsonWriter& JsonWriter::quoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_->push_back('"');
  std::size_t plain = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    const char e = kEscape[c];
    if (e == 0) continue;
    out_->append(s.data() + plain, i - plain);
    plain = i + 1;
    if (e == 'u') {
      const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
      out_->append(esc, sizeof esc);
    } else {
      const char esc[] = {'\\', e};
      out_->append(esc, sizeof esc);
    }
  }
  out_->append(s.data() + plain, s.size() - plain);
  out_->push_back('"');
  return spill();
}

bool JsonWriter::flush() {
  if (sink_ == nullptr) return true;
  sink_->write(out_->data(), static_cast<std::streamsize>(out_->size()));
  out_->clear();
  return sink_->good();
}

}  // namespace relogic
