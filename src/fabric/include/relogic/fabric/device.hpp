// Device geometry: array dimensions, per-CLB cell count, routing-pool
// parameters and configuration-memory geometry for Virtex-style devices.
//
// The configuration-memory formulas follow the Virtex data sheet: one-bit
// wide vertical frames spanning the array top-to-bottom, grouped into
// columns; a CLB column holds 48 frames; the frame length is
// 18 * (rows + 2) bits rounded up to a whole number of 32-bit words.
#pragma once

#include <cstdint>
#include <string>

#include "relogic/common/geometry.hpp"

namespace relogic::fabric {

/// Named presets corresponding to the Xilinx Virtex family.
enum class DevicePreset {
  kXCV50,
  kXCV100,
  kXCV150,
  kXCV200,  // the device used in the paper's experiments
  kXCV300,
  kXCV400,
  kXCV600,
  kXCV800,
  kXCV1000,
  /// Synthetic beyond-family size point (no Virtex part this large existed;
  /// the 4000-class geometry extrapolates the XCV row/col progression) used
  /// to measure how the config-plane data path scales past XCV1000.
  kXCV4000,
};

struct DeviceGeometry {
  std::string name = "XCV200";
  int clb_rows = 28;
  int clb_cols = 42;

  /// Logic cells per CLB (2 slices x 2 LUT/FF pairs in Virtex).
  int cells_per_clb = 4;

  // Routing pool parameters (simplified Virtex-style: single-length lines,
  // hex lines and long lines; see DESIGN.md section 3).
  int singles_per_dir = 8;
  int hexes_per_dir = 2;
  int longs_per_track = 2;
  /// Hex lines span this many tiles.
  int hex_span = 6;
  /// IOB pads available per boundary tile.
  int pads_per_tile = 2;

  // Configuration memory geometry (Virtex data sheet values).
  int frames_per_clb_column = 48;
  int frames_per_iob_column = 54;
  int frames_center_column = 8;
  /// Frames that hold a single logic cell's LUT/FF configuration within its
  /// CLB column (the remaining frames of the column carry routing bits).
  int frames_per_cell_config = 4;

  int clb_count() const { return clb_rows * clb_cols; }
  int cell_count() const { return clb_count() * cells_per_clb; }

  /// Frame length in bits: 18 bits per CLB row plus two pad rows (IOBs),
  /// rounded up to 32-bit configuration words.
  int frame_length_bits() const {
    const int raw = 18 * (clb_rows + 2);
    return ((raw + 31) / 32) * 32;
  }

  /// Total number of configuration frames across all column types.
  int total_frames() const {
    return frames_center_column + clb_cols * frames_per_clb_column +
           2 * frames_per_iob_column;
  }

  bool in_bounds(ClbCoord c) const {
    return c.row >= 0 && c.row < clb_rows && c.col >= 0 && c.col < clb_cols;
  }
  bool is_boundary(ClbCoord c) const {
    return c.row == 0 || c.col == 0 || c.row == clb_rows - 1 ||
           c.col == clb_cols - 1;
  }

  ClbRect full_rect() const { return ClbRect{0, 0, clb_rows, clb_cols}; }

  static DeviceGeometry preset(DevicePreset p);
  /// The paper's validation device.
  static DeviceGeometry xcv200() { return preset(DevicePreset::kXCV200); }
  /// A small device convenient for unit tests.
  static DeviceGeometry tiny(int rows = 8, int cols = 8);
  /// A Virtex-II-style dense variant: 8 logic cells per CLB (4 slices x 2).
  /// Exists to exercise configuration-layer code that must scale with
  /// cells_per_clb instead of assuming the Virtex value of 4 — notably the
  /// configuration controller's cell keys, whose old (col * 4 + cell)
  /// packing aliased distinct cells on exactly this geometry. NOTE: the
  /// routing pool still models 4 cells of pins per tile, so dense
  /// geometries are for fabric/config-level tests, not place-and-route.
  static DeviceGeometry tiny_dense(int rows = 8, int cols = 8);
};

}  // namespace relogic::fabric
