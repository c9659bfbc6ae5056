// Flat, index-addressable configuration-frame structures.
//
// The config plane's hot path — ConfigController::frames_of / preview /
// apply and the dirty diffing in FrameImage — used to run on node-based
// std::set<FrameAddress> / std::map<FrameAddress, uint64_t>. Every
// relocation costing, defrag plan, health sweep and fleet replay funnels
// through that path millions of times, so it is rebuilt here on three
// flat types:
//
//  * FrameIndex — a perfect, geometry-derived bijection between every
//    FrameAddress of a device and a dense contiguous frame id. Ids are laid
//    out column-contiguously (centre frames first, then each CLB column's
//    frames, then the two IOB columns), so sorting by id groups frames by
//    column — the property that lets pricing bucket per column in ONE pass
//    over a sorted id range. The id order equals FrameAddress's <=> order,
//    so iterating a sorted id set visits addresses exactly as the old
//    std::set did (byte-identical reports and renders).
//  * FrameSet — a sorted vector of frame ids with contiguous iteration: the
//    output of ConfigController::frames_of and of a preview_sequence step,
//    never an input of the controller. Built push()-then-normalize();
//    callers keep instances around as scratch so steady-state operations
//    allocate nothing.
//  * FrameDeltaMap — a flat map from frame id to a 64-bit XOR content
//    delta, direct-indexed over the device's bounded frame universe
//    (DeviceGeometry::total_frames(), a few thousand even on the XCV1000).
//    The delta array is zero-invariant (every untouched entry holds 0) and
//    a word bitmap mirrors the touched set, so the controller scans for
//    dirty frames word-at-a-time, in ascending id order, instead of
//    walking and sorting a stamp array; clear() is O(touched).
//    Replaces the per-op std::map<FrameAddress, uint64_t> allocations in
//    delta simulation and apply.
//
// tests/flatpath_test.cpp pins the equivalence against a reference
// implementation of the old set/map semantics on randomized op streams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "relogic/config/frame.hpp"

namespace relogic::config {

/// Dense-id addressing of every configuration frame of one geometry.
class FrameIndex {
 public:
  FrameIndex() = default;
  explicit FrameIndex(const fabric::DeviceGeometry& geom)
      : clb_cols_(geom.clb_cols),
        frames_clb_(geom.frames_per_clb_column),
        frames_iob_(geom.frames_per_iob_column),
        frames_cell_(geom.frames_per_cell_config),
        clb_base_(geom.frames_center_column),
        iob_base_(geom.frames_center_column +
                  geom.clb_cols * geom.frames_per_clb_column),
        total_(geom.frames_center_column +
               geom.clb_cols * geom.frames_per_clb_column +
               2 * geom.frames_per_iob_column) {}

  int total_frames() const { return total_; }
  /// Centre + CLB columns + two IOB columns.
  int total_columns() const { return 1 + clb_cols_ + 2; }

  std::int32_t id(const FrameAddress& f) const {
    switch (f.type) {
      case ColumnType::kCenter:
        return f.frame;
      case ColumnType::kClb:
        return clb_frame_id(f.column, f.frame);
      case ColumnType::kIob:
        return iob_frame_id(f.column, f.frame);
    }
    return -1;
  }

  std::int32_t clb_frame_id(int column, int frame) const {
    return static_cast<std::int32_t>(clb_base_ + column * frames_clb_ + frame);
  }
  std::int32_t iob_frame_id(int column, int frame) const {
    return static_cast<std::int32_t>(iob_base_ + column * frames_iob_ + frame);
  }
  /// First frame id of logic cell `cell`'s frame group in a CLB column
  /// (the group is the frames_per_cell_config ids from here, contiguous).
  std::int32_t cell_frame_base(int column, int cell) const {
    return clb_frame_id(column, cell * frames_cell_);
  }

  FrameAddress address(std::int32_t id) const {
    if (id < clb_base_) {
      return FrameAddress{ColumnType::kCenter, 0,
                          static_cast<std::int16_t>(id)};
    }
    if (id < iob_base_) {
      const int rel = id - clb_base_;
      return FrameAddress{ColumnType::kClb,
                          static_cast<std::int16_t>(rel / frames_clb_),
                          static_cast<std::int16_t>(rel % frames_clb_)};
    }
    const int rel = id - iob_base_;
    return FrameAddress{ColumnType::kIob,
                        static_cast<std::int16_t>(rel / frames_iob_),
                        static_cast<std::int16_t>(rel % frames_iob_)};
  }

  /// Dense column id: centre = 0, CLB column c = 1 + c, IOB column c =
  /// 1 + clb_cols + c. Monotone in frame id — equal-column frames are
  /// contiguous in id order.
  std::int32_t column_of(std::int32_t id) const {
    if (id < clb_base_) return 0;
    if (id < iob_base_) return 1 + (id - clb_base_) / frames_clb_;
    return 1 + clb_cols_ + (id - iob_base_) / frames_iob_;
  }

  /// First frame id of dense column `column` (the inverse of column_of on
  /// a column's first frame).
  std::int32_t column_first_id(std::int32_t column) const {
    if (column == 0) return 0;
    if (column <= clb_cols_) return clb_frame_id(column - 1, 0);
    return iob_frame_id(column - 1 - clb_cols_, 0);
  }

  bool is_clb(std::int32_t id) const {
    return id >= clb_base_ && id < iob_base_;
  }
  bool is_iob(std::int32_t id) const { return id >= iob_base_; }

 private:
  int clb_cols_ = 0;
  int frames_clb_ = 0;
  int frames_iob_ = 0;
  int frames_cell_ = 0;
  int clb_base_ = 0;
  int iob_base_ = 0;
  int total_ = 0;
};

/// Sorted set of frame ids. Build with push() (duplicates and arbitrary
/// order allowed) followed by normalize(); all read accessors assume the
/// set is normalized. Reuse instances to keep the hot path allocation-free.
class FrameSet {
 public:
  void clear() { ids_.clear(); }
  bool empty() const { return ids_.empty(); }
  std::size_t size() const { return ids_.size(); }

  void push(std::int32_t id) { ids_.push_back(id); }
  /// Append a contiguous id run [base, base + count).
  void push_run(std::int32_t base, int count) {
    for (int i = 0; i < count; ++i) ids_.push_back(base + i);
  }
  void normalize() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  const std::int32_t* begin() const { return ids_.data(); }
  const std::int32_t* end() const { return ids_.data() + ids_.size(); }

  /// Direct access to the underlying id vector so bulk fills (the
  /// controller's bitmap expansion) can append without per-id call
  /// overhead. The caller must leave the vector sorted and unique, or
  /// normalize().
  std::vector<std::int32_t>& raw_ids() { return ids_; }

 private:
  std::vector<std::int32_t> ids_;
};

/// Flat frame-id -> XOR-delta map, direct-indexed over the device's frame
/// universe: reset() sizes it once per geometry, clear() is O(touched),
/// and lookups are a single array read.
///
/// Invariant: delta_[id] == 0 for every id not touched since the last
/// clear(), and words_ has a set bit exactly for the touched ids — so a
/// dirty scan can sweep (words, delta) directly without a stamp
/// indirection, and delta(id) is an unconditional load.
class FrameDeltaMap {
 public:
  /// Sizes the map for a universe of `total_frames` ids and clears it.
  void reset(int total_frames) {
    if (static_cast<int>(delta_.size()) != total_frames) {
      delta_.assign(static_cast<std::size_t>(total_frames), 0);
      words_.assign(static_cast<std::size_t>((total_frames + 63) / 64), 0);
      touched_.clear();
    }
    clear();
  }

  void clear() {
    for (std::int32_t id : touched_) {
      delta_[static_cast<std::size_t>(id)] = 0;
      // Every set bit of this word belongs to a touched id, so zeroing the
      // whole word (possibly more than once) restores the invariant.
      words_[static_cast<std::size_t>(id) >> 6] = 0;
    }
    touched_.clear();
  }

  /// Records `id` as touched, leaving its delta as it is.
  void touch(std::int32_t id) {
    const std::size_t w = static_cast<std::size_t>(id) >> 6;
    const std::uint64_t m = std::uint64_t{1} << (id & 63);
    if (!(words_[w] & m)) {
      words_[w] |= m;
      touched_.push_back(id);
    }
  }

  void xor_delta(std::int32_t id, std::uint64_t d) {
    if (d == 0) return;
    touch(id);
    delta_[static_cast<std::size_t>(id)] ^= d;
  }

  std::uint64_t delta(std::int32_t id) const {
    return delta_[static_cast<std::size_t>(id)];
  }

  /// Ids ever touched since the last clear(), in first-touch order; a
  /// touched id's delta may have XOR-cancelled back to zero.
  const std::vector<std::int32_t>& touched() const { return touched_; }

  /// Touched-id bitmap, one bit per id (ascending-order dirty scans).
  const std::uint64_t* words() const { return words_.data(); }
  int word_count() const { return static_cast<int>(words_.size()); }

 private:
  std::vector<std::uint64_t> delta_;
  std::vector<std::uint64_t> words_;  ///< touched-id bitmap
  std::vector<std::int32_t> touched_;
};

}  // namespace relogic::config
