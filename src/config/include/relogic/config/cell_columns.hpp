// CellColumns: SoA mirror of the fabric's per-cell configuration tokens,
// laid out in FrameIndex order.
//
// The fabric stores cells as an array-of-structs (ClbConfig rows), which is
// the right shape for structural queries but the wrong one for the config
// plane: computing a transaction's frame deltas means visiting the cells of
// a (column, cell) frame group, and in AoS order those are strided across
// the whole CLB array. This class keeps one flat column, indexed by
//
//   slot(col, cell, row) = (col * cells_per_clb + cell) * rows + row
//
// — i.e. the cells of one frame group are `rows` contiguous slots, and
// groups follow each other exactly in FrameIndex id order. Each slot holds
// FrameImage::cell_token(row, cfg) of the cell's current configuration.
// The controller's apply loop reads the before-token here, writes the
// fabric, and reads the after-token back (the listener updated it) — the
// XOR of the two is the frame-group delta, no AoS walk or rehash needed.
//
// The mirror registers itself as a FabricListener; every cell mutation —
// including restore() and the re-corruption write of inject_fault — funnels
// through Fabric::set_cell_config, so on_cell_changed sees every effective
// change and the column stays exact.
#pragma once

#include <cstdint>
#include <vector>

#include "relogic/config/frame_image.hpp"
#include "relogic/fabric/fabric.hpp"

namespace relogic::config {

class CellColumns : public fabric::FabricListener {
 public:
  explicit CellColumns(fabric::Fabric& fab);
  ~CellColumns() override;

  CellColumns(const CellColumns&) = delete;
  CellColumns& operator=(const CellColumns&) = delete;

  int slot_count() const { return static_cast<int>(tokens_.size()); }
  int slot(int row, int col, int cell) const {
    return (col * cells_ + cell) * rows_ + row;
  }

  /// Current configuration token per slot.
  const std::uint64_t* tokens() const { return tokens_.data(); }

  // FabricListener:
  void on_cell_changed(ClbCoord clb, int cell,
                       const fabric::LogicCellConfig& before,
                       const fabric::LogicCellConfig& after) override;
  void on_net_changed(fabric::NetId) override {}

 private:
  fabric::Fabric& fab_;
  int rows_ = 0;
  int cells_ = 0;
  std::vector<std::uint64_t> tokens_;
};

}  // namespace relogic::config
