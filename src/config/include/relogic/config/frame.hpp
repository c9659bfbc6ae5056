// Configuration-frame addressing.
//
// Virtex organises its configuration memory as one-bit-wide vertical frames
// spanning the device top-to-bottom, grouped into columns: the centre
// (clock) column, one column per CLB column, and two IOB columns. A frame
// is the smallest unit that can be written or read. Because a frame spans
// an entire column, writing the configuration of one CLB rewrites bits
// belonging to every other CLB in that column — harmless only because
// rewriting identical data is glitch-free (paper, Sec. 2), and the root of
// the LUT-RAM column exclusion rule.
//
// FrameMapper assigns every fabric resource its controlling frame:
//  * logic cell k of a CLB -> frames [k*4, k*4+4) of its column
//    (LUT truth table + FF mode bits),
//  * FF/latch mode extras -> the same cell frame group,
//  * a PIP -> one of the routing frames [16, 48) of the column of the tile
//    that hosts the controlling mux (the sink node's tile).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "relogic/fabric/device.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/fabric/routing.hpp"

namespace relogic::config {

enum class ColumnType : std::uint8_t { kCenter, kClb, kIob };

struct FrameAddress {
  ColumnType type = ColumnType::kClb;
  /// CLB column index for kClb; 0/1 for the two IOB columns; 0 for centre.
  std::int16_t column = 0;
  /// Frame index within the column.
  std::int16_t frame = 0;

  constexpr auto operator<=>(const FrameAddress&) const = default;

  std::string to_string() const;
};

class FrameMapper {
 public:
  explicit FrameMapper(const fabric::DeviceGeometry& geom) : geom_(&geom) {}

  const fabric::DeviceGeometry& geometry() const { return *geom_; }

  /// Frames holding the configuration of one logic cell.
  std::vector<FrameAddress> cell_frames(ClbCoord clb, int cell) const;

  /// The frame controlling one PIP. The mapping depends only on node
  /// identity, which the immutable skeleton holds.
  FrameAddress pip_frame(const fabric::RoutingSkeleton& skeleton,
                         fabric::RouteEdge edge) const;

  /// First routing frame index within a CLB column (frames below this hold
  /// logic-cell configuration).
  int first_routing_frame() const {
    return geom_->cells_per_clb * geom_->frames_per_cell_config;
  }

  /// All frames of one CLB column (for column-granular write models).
  std::vector<FrameAddress> column_frames(int clb_column) const;

 private:
  const fabric::DeviceGeometry* geom_;
};

}  // namespace relogic::config
