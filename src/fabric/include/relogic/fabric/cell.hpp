// Logic cell configuration: the static (configuration-memory-held) part of
// one LUT4 + storage-element pair. A Virtex CLB contains four such cells
// (2 slices x 2), and the paper's relocation procedure treats each cell
// individually.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

namespace relogic::fabric {

/// Storage element mode of a logic cell.
enum class RegMode : std::uint8_t {
  kNone,   ///< purely combinational: the cell output is the LUT output
  kFF,     ///< edge-triggered D flip-flop (optionally clock-enabled)
  kLatch,  ///< transparent data latch, gated by the CE pin (asynchronous use)
};

/// How the LUT is used.
enum class LutMode : std::uint8_t {
  kLogic,  ///< 16x1 truth table
  kRam,    ///< distributed RAM — NOT relocatable on-line (paper, Sec. 2)
};

/// Where the storage element's D input comes from. The bypass (the BX pin
/// of a Virtex slice) is what lets the auxiliary relocation circuit of
/// Fig. 3 feed a replica FF while its LUT keeps computing the cell's
/// combinational function.
enum class DSrc : std::uint8_t {
  kLut,     ///< D = LUT output (normal operation)
  kBypass,  ///< D = the BX input pin (temporary transfer path)
};

/// Configuration of one logic cell. Equality is bit-equality; the
/// configuration controller uses it to detect identical rewrites, which are
/// glitch-free by construction on the real device.
struct LogicCellConfig {
  /// Truth table: bit i gives the output for input vector i (I3..I0).
  std::uint16_t lut = 0;
  RegMode reg = RegMode::kNone;
  LutMode lut_mode = LutMode::kLogic;
  DSrc d_src = DSrc::kLut;
  /// When true the FF only captures when the CE input pin is high.
  bool uses_ce = false;
  /// Power-up / configuration value of the storage element.
  bool init = false;
  /// Global clock domain the storage element listens to.
  std::uint8_t clock_domain = 0;
  /// True if the cell is configured at all (occupies fabric resources).
  bool used = false;

  constexpr auto operator<=>(const LogicCellConfig&) const = default;

  /// Constant-driver helper: a used cell whose LUT outputs `value`
  /// regardless of inputs. Used for control signals that the paper drives
  /// "through the reconfiguration memory".
  static LogicCellConfig constant(bool value) {
    LogicCellConfig c;
    c.lut = value ? 0xFFFF : 0x0000;
    c.used = true;
    return c;
  }

  /// LUT evaluation on a 4-bit input vector (bit0 = I0).
  constexpr bool eval(unsigned input_vector) const {
    return ((lut >> (input_vector & 0xF)) & 1u) != 0;
  }
};

/// Upper bound on DeviceGeometry::cells_per_clb that the fabric can store.
/// Virtex CLBs hold 4 cells; denser (Virtex-II-style) geometries may ask for
/// up to 8. Storage is fixed-size so ClbConfig stays trivially copyable;
/// cells beyond the geometry's cells_per_clb remain default (unused).
inline constexpr int kMaxCellsPerClb = 8;

/// Configuration of one CLB: its logic cells (geometry decides how many of
/// the slots are real; the rest stay default-initialised and unused).
struct ClbConfig {
  std::array<LogicCellConfig, kMaxCellsPerClb> cells;

  constexpr auto operator<=>(const ClbConfig&) const = default;

  bool any_used() const {
    for (const auto& c : cells)
      if (c.used) return true;
    return false;
  }
};

/// A permanent configuration-memory defect of one logic cell: one LUT
/// truth-table bit reads back stuck at `stuck_value` no matter what is
/// written. This is the fault model of the roving on-line self-test
/// (relogic::health): structural, deterministic, and observable through a
/// write/readback mismatch — the way Gericota's companion DATE-era work
/// detects faults by sweeping a test region across the live fabric.
struct CellFault {
  std::uint8_t lut_bit = 0;  ///< which truth-table bit is stuck (0..15)
  bool stuck_value = false;

  constexpr auto operator<=>(const CellFault&) const = default;

  /// The value the configuration memory actually holds after `cfg` is
  /// written through this fault.
  LogicCellConfig corrupt(LogicCellConfig cfg) const {
    const std::uint16_t mask = static_cast<std::uint16_t>(1u << (lut_bit & 0xF));
    cfg.lut = stuck_value ? static_cast<std::uint16_t>(cfg.lut | mask)
                          : static_cast<std::uint16_t>(cfg.lut & ~mask);
    return cfg;
  }
};

/// Common LUT truth tables for up to 4 inputs (I0..I3).
namespace luts {
constexpr std::uint16_t kConst0 = 0x0000;
constexpr std::uint16_t kConst1 = 0xFFFF;
constexpr std::uint16_t kBufI0 = 0xAAAA;   ///< out = I0
constexpr std::uint16_t kNotI0 = 0x5555;   ///< out = !I0
constexpr std::uint16_t kAnd2 = 0x8888;    ///< out = I0 & I1
constexpr std::uint16_t kOr2 = 0xEEEE;     ///< out = I0 | I1
constexpr std::uint16_t kXor2 = 0x6666;    ///< out = I0 ^ I1
constexpr std::uint16_t kNand2 = 0x7777;   ///< out = !(I0 & I1)
constexpr std::uint16_t kNor2 = 0x1111;    ///< out = !(I0 | I1)
constexpr std::uint16_t kXnor2 = 0x9999;   ///< out = !(I0 ^ I1)
constexpr std::uint16_t kAnd3 = 0x8080;    ///< out = I0 & I1 & I2
constexpr std::uint16_t kOr3 = 0xFEFE;     ///< out = I0 | I1 | I2
/// out = I2 ? I1 : I0 — the 2:1 multiplexer of the auxiliary relocation
/// circuit (Fig. 3): select = I2, data0 = I0, data1 = I1.
constexpr std::uint16_t kMux21 = 0xCACA;
}  // namespace luts

inline std::string to_string(RegMode m) {
  switch (m) {
    case RegMode::kNone:
      return "none";
    case RegMode::kFF:
      return "ff";
    case RegMode::kLatch:
      return "latch";
  }
  return "?";
}

inline std::string to_string(LutMode m) {
  return m == LutMode::kLogic ? "logic" : "ram";
}

}  // namespace relogic::fabric
