// Unit tests: relogic::common (time, geometry, rng, logging, errors, JSON
// writer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "relogic/common/error.hpp"
#include "relogic/common/geometry.hpp"
#include "relogic/common/json_writer.hpp"
#include "relogic/common/logging.hpp"
#include "relogic/common/rng.hpp"
#include "relogic/common/time.hpp"

namespace relogic {
namespace {

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::ns(1).picoseconds(), 1000);
  EXPECT_EQ(SimTime::us(1).picoseconds(), 1000000);
  EXPECT_EQ(SimTime::ms(1).picoseconds(), 1000000000);
  EXPECT_DOUBLE_EQ(SimTime::ms(22).milliseconds(), 22.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::ns(3);
  const SimTime b = SimTime::ns(2);
  EXPECT_EQ((a + b).picoseconds(), 5000);
  EXPECT_EQ((a - b).picoseconds(), 1000);
  EXPECT_EQ((a * 4).picoseconds(), 12000);
  EXPECT_EQ(a / b, 1);
  EXPECT_LT(b, a);
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::ms(22).to_string(), "22.000 ms");
  EXPECT_EQ(SimTime::ns(1).to_string(), "1.000 ns");
  EXPECT_EQ(SimTime::ps(1).to_string(), "1 ps");
}

TEST(Geometry, ManhattanDistance) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
  EXPECT_EQ(manhattan({2, 2}, {2, 2}), 0);
}

TEST(Geometry, RectContainsAndOverlaps) {
  const ClbRect r{2, 3, 4, 5};  // rows 2..5, cols 3..7
  EXPECT_TRUE(r.contains(ClbCoord{2, 3}));
  EXPECT_TRUE(r.contains(ClbCoord{5, 7}));
  EXPECT_FALSE(r.contains(ClbCoord{6, 3}));
  EXPECT_FALSE(r.contains(ClbCoord{2, 8}));
  EXPECT_EQ(r.area(), 20);

  EXPECT_TRUE(r.overlaps(ClbRect{5, 7, 1, 1}));
  EXPECT_FALSE(r.overlaps(ClbRect{6, 3, 2, 2}));
  EXPECT_TRUE(r.contains(ClbRect{3, 4, 2, 2}));
  EXPECT_FALSE(r.contains(ClbRect{3, 4, 4, 2}));
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextIntInRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.next_int(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Logging, SinkCapturesLinesWithContextPrefix) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&captured](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  set_log_level(LogLevel::kInfo);

  RELOGIC_LOG(kInfo) << "plain";
  set_log_context("sched", SimTime::ms(12));
  RELOGIC_LOG(kInfo) << "ctx";
  RELOGIC_LOG(kDebug) << "below threshold, dropped";
  clear_log_context();
  RELOGIC_LOG(kWarn) << "after clear";

  set_log_level(LogLevel::kOff);
  set_log_sink(nullptr);
  RELOGIC_LOG(kError) << "after sink reset";  // to stderr, not captured

  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[0].second, "plain");
  // Context-tagged line: simulated timestamp + component, then the message.
  EXPECT_EQ(captured[1].second, "[t=12.000ms sched] ctx");
  EXPECT_EQ(captured[2].first, LogLevel::kWarn);
  EXPECT_EQ(captured[2].second, "after clear");
}

TEST(Error, CheckMacroThrowsContractError) {
  EXPECT_THROW(RELOGIC_CHECK(false), ContractError);
  EXPECT_NO_THROW(RELOGIC_CHECK(true));
  try {
    RELOGIC_CHECK_MSG(false, "extra context");
    FAIL();
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("extra context"), std::string::npos);
  }
}

// ---- JsonWriter ------------------------------------------------------------
// The writer replaced snprintf-based exporters byte for byte, so each case
// checks it against the printf conversion it stands in for.

std::string printf_g6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string printf_f6(double v) {
  std::vector<char> buf(400);
  std::snprintf(buf.data(), buf.size(), "%.6f", v);
  return buf.data();
}

std::string number(double v) {
  std::string out;
  JsonWriter(out).number(v);
  return out;
}

std::string fixed6(double v) {
  std::string out;
  JsonWriter(out).fixed6(v);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(JsonWriter, NumberMatchesPrintfG6OnEdgeCases) {
  std::vector<double> edge = {0.0,
                              1.0,
                              0.5,
                              1e-5,
                              1e-4,
                              9.99999e-5,
                              9.999995e-5,
                              9.9999949e-5,
                              std::nextafter(1e-4, 0.0),
                              std::nextafter(1e-5, 1.0),
                              999999.0,
                              999999.5,
                              999999.4999,
                              999999.5000001,
                              9999995.0,
                              1e6,
                              1e15,
                              1e16,
                              1e21,
                              0.1,
                              1.0 / 3.0,
                              2.5,
                              1234565.0,
                              DBL_MIN,
                              DBL_MIN / 2,
                              DBL_TRUE_MIN,
                              std::nextafter(DBL_MIN, 0.0),
                              DBL_MAX,
                              DBL_EPSILON};
  // Whole numbers take the writer's integer path below 1e6.
  for (int k = 0; k <= 2000000; k += 997) edge.push_back(k);
  for (const double v : {999999.0, 1000000.0, 1000001.0, 4503599627370496.0})
    edge.push_back(v);
  for (int k = -310; k <= 310; ++k) {
    edge.push_back(9.999995 * std::pow(10.0, k));
    edge.push_back(std::nextafter(9.999995 * std::pow(10.0, k), 0.0));
    edge.push_back(std::nextafter(9.999995 * std::pow(10.0, k), HUGE_VAL));
    edge.push_back(std::pow(10.0, k));
  }
  for (const double v : edge) {
    for (const double s : {v, -v}) {
      if (!std::isfinite(s)) continue;
      EXPECT_EQ(number(s), printf_g6(s));
    }
  }
  EXPECT_EQ(number(-0.0), "-0");  // as printf prints it
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(number(-std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(number(HUGE_VAL), "0");
  EXPECT_EQ(number(-HUGE_VAL), "0");
}

TEST(JsonWriter, NumberMatchesPrintfG6OnRandomBitPatterns) {
  Rng rng(0x6a736f6e);
  int mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double v = from_bits(rng.next_u64());
    const std::string want = std::isfinite(v) ? printf_g6(v) : "0";
    if (number(v) != want && ++mismatches <= 5)
      ADD_FAILURE() << number(v) << " != printf " << want;
  }
  // Bit patterns cluster at huge and tiny magnitudes; cover the everyday
  // range too (|v| within 1e-30 .. 1e30).
  for (int i = 0; i < 200000; ++i) {
    const double v = (rng.next_double() - 0.5) *
                     std::pow(10.0, rng.next_int(-30, 30));
    if (number(v) != printf_g6(v) && ++mismatches <= 5)
      ADD_FAILURE() << number(v) << " != printf " << printf_g6(v);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriter, Fixed6MatchesPrintfF6) {
  Rng rng(0x66697836);
  int mismatches = 0;
  auto check = [&](double v) {
    const std::string want = std::isfinite(v) ? printf_f6(v) : "0";
    if (fixed6(v) != want && ++mismatches <= 5)
      ADD_FAILURE() << fixed6(v) << " != printf " << want;
  };
  for (const double v : {0.0, -0.0, 0.5, 1e-7, 5e-7, 4.9999995e-7, 0.0000005,
                         0.0000015, 2.5e-6, 123.4564999, 1e15, 1e22, DBL_MAX,
                         -DBL_MAX, DBL_TRUE_MIN, 22.6, 0.1})
    check(v);
  for (int i = 0; i < 200000; ++i) {
    // SimTime::milliseconds() of a random picosecond count, as arg_ms sees.
    const auto ps =
        static_cast<std::int64_t>(rng.next_u64() >> rng.next_int(1, 63));
    check(static_cast<double>(ps) / 1e9);
    check(from_bits(rng.next_u64()));
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(fixed6(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(fixed6(-HUGE_VAL), "0");
}

TEST(JsonWriter, IntegerAndMicrosecondsFromPicoseconds) {
  // The exporters' former rendering, with the magnitude taken unsigned so
  // that INT64_MIN has a defined reference too.
  auto printf_us = [](std::int64_t ps) {
    const std::uint64_t abs = ps < 0 ? 0 - static_cast<std::uint64_t>(ps)
                                     : static_cast<std::uint64_t>(ps);
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%" PRIu64 ".%06" PRIu64,
                  ps < 0 ? "-" : "", abs / 1000000, abs % 1000000);
    return std::string(buf);
  };
  auto us = [](std::int64_t ps) {
    std::string out;
    JsonWriter(out).us_from_ps(ps);
    return out;
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> values = {0, 1, 999999, 1000000, 1000001,
                                      123456789, kMax, kMax - 1};
  Rng rng(0x7073);
  for (int i = 0; i < 100000; ++i)
    values.push_back(
        static_cast<std::int64_t>(rng.next_u64() >> rng.next_int(0, 63)));
  const std::vector<std::int64_t> positive = values;
  for (const std::int64_t v : positive) values.push_back(-v);
  values.push_back(kMin);
  values.push_back(kMin + 1);
  for (const std::int64_t v : values) {
    ASSERT_EQ(us(v), printf_us(v)) << v;
    std::string out;
    JsonWriter(out).integer(v);
    ASSERT_EQ(out, std::to_string(v));
  }
  EXPECT_EQ(us(-1), "-0.000001");
  EXPECT_EQ(us(-999999), "-0.999999");
  EXPECT_EQ(us(-1000000), "-1.000000");
  EXPECT_EQ(us(kMin), "-9223372036854.775808");
  EXPECT_EQ(us(kMax), "9223372036854.775807");
}

TEST(JsonWriter, QuotedEscapesEveryByteOnce) {
  // Reference: the escape set of the former telemetry quoting.
  auto reference = [](unsigned char c) -> std::string {
    switch (c) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      case '\n': return "\\n";
      case '\t': return "\\t";
      case '\r': return "\\r";
      case '\b': return "\\b";
      case '\f': return "\\f";
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          return buf;
        }
        return std::string(1, static_cast<char>(c));
    }
  };
  std::string all, all_want = "\"";
  for (int b = 0; b < 256; ++b) {
    const auto c = static_cast<unsigned char>(b);
    const std::string raw = std::string("ab") + static_cast<char>(c) + "cd";
    std::string got;
    JsonWriter(got).quoted(raw);
    EXPECT_EQ(got, "\"ab" + reference(c) + "cd\"") << "byte " << b;
    all += static_cast<char>(c);
    all_want += reference(c);
  }
  std::string got;
  JsonWriter(got).quoted(all);
  EXPECT_EQ(got, all_want + "\"");
  got.clear();
  JsonWriter(got).quoted("").quoted("\n");
  EXPECT_EQ(got, "\"\"\"\\n\"");
}

TEST(JsonWriter, SinkReceivesEverythingThroughABoundedBuffer) {
  std::ostringstream sink;
  std::string buffer, whole;
  JsonWriter streamed(buffer, sink);
  JsonWriter direct(whole);
  std::size_t peak = 0;
  for (int i = 0; i < 50000; ++i) {
    for (JsonWriter* w : {&streamed, &direct}) {
      w->raw("{\"i\":").integer(i).raw(",\"v\":").number(i * 0.37);
      w->raw(",\"s\":").quoted("x\ty").raw("},\n");
    }
    peak = std::max(peak, buffer.size());
  }
  EXPECT_TRUE(streamed.flush());
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(sink.str(), whole);
  EXPECT_GT(whole.size(), 4 * JsonWriter::kFlushBytes);
  EXPECT_LT(peak, JsonWriter::kFlushBytes + 64);

  std::ostringstream failed;
  failed.setstate(std::ios::badbit);
  std::string unused;
  JsonWriter broken(unused, failed);
  broken.raw("x");
  EXPECT_FALSE(broken.flush());
  // Without a sink, flush() leaves the buffer alone.
  EXPECT_TRUE(direct.flush());
  EXPECT_EQ(whole.size(), sink.str().size());
}

}  // namespace
}  // namespace relogic
