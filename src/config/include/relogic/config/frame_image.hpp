// FrameImage: a shadow copy of the device's configuration-frame contents.
//
// The controller needs to know which frames a ConfigOp actually *changes*
// (the kDirtyFrame write granularity skips the rest). Storing literal frame
// bytes would force a full re-serialisation of every touched column per op;
// instead each frame's content is tracked as a 64-bit XOR-composable
// digest: the XOR of one token per resource value the frame holds —
//
//   * a logic cell's configuration contributes cell_token(row, cfg) to each
//     of its cell frames (a frame spans the column, so one frame holds that
//     cell slice for every row);
//   * an "on" PIP contributes edge_token(edge) to its controlling routing
//     frame;
//   * an attached net source contributes source_token(node) to the frame of
//     the output mux.
//
// XOR composition makes updates incremental and order-independent: changing
// a cell from `a` to `b` XORs the frame with token(a) ^ token(b); turning a
// PIP on or off toggles the same token. A frame is dirty under an op iff
// the accumulated XOR delta of the op's effective actions is non-zero — so
// an op that rewrites identical bytes (delta 0), or adds and then removes
// the same PIP, dirties nothing. Token collisions (two distinct contents
// with equal digests) are possible in principle but need a 64-bit hash
// collision; the consequence would be an over-skipped frame in the *timing*
// model only — structural state never flows through this class.
//
// Note the dirty decision itself is per-op (delta != 0) and never reads the
// accumulated digests; the digest store is the *mirror* of the device's
// frame contents. Its only readers are ConfigController::audit_image, which
// checks it against a recompute from the fabric, and tests.
//
// Storage is a flat array indexed by dense frame id (config::FrameIndex) —
// the frame universe is bounded by the device geometry, so the mirror is a
// single contiguous allocation sized once at construction, and apply-time
// delta commits are a single array XOR instead of a std::map walk.
//
// The shadow stays consistent as long as every fabric mutation goes through
// the owning ConfigController, which feeds apply-time before/after values
// (so injected configuration-memory faults — Fabric::inject_fault — are
// reflected exactly).
#pragma once

#include <cstdint>
#include <vector>

#include "relogic/config/frame.hpp"
#include "relogic/config/frame_index.hpp"
#include "relogic/fabric/cell.hpp"
#include "relogic/fabric/fabric.hpp"

namespace relogic::config {

class FrameImage {
 public:
  explicit FrameImage(const FrameIndex& index)
      : index_(index),
        hash_(static_cast<std::size_t>(index.total_frames()), 0),
        touched_(static_cast<std::size_t>(index.total_frames()), 0) {}

  const FrameIndex& index() const { return index_; }

  /// Current content digest of a frame (0 until first touched — the digest
  /// of the erased configuration memory).
  std::uint64_t digest(const FrameAddress& f) const {
    return digest_id(index_.id(f));
  }
  std::uint64_t digest_id(std::int32_t id) const {
    return hash_[static_cast<std::size_t>(id)];
  }

  /// XORs a content delta into a frame's digest (no-op when delta == 0).
  void apply_delta_id(std::int32_t id, std::uint64_t delta) {
    if (delta == 0) return;
    hash_[static_cast<std::size_t>(id)] ^= delta;
    if (!touched_[static_cast<std::size_t>(id)]) {
      touched_[static_cast<std::size_t>(id)] = 1;
      ++tracked_;
    }
  }

  /// XORs one delta into every frame of the contiguous id run [base, base +
  /// count) — a cell write's frame group (no-op when delta == 0).
  void apply_delta_run(std::int32_t base, int count, std::uint64_t delta) {
    if (delta == 0) return;
    for (int i = 0; i < count; ++i) apply_delta_id(base + i, delta);
  }

  /// Frames whose digest has ever moved away from the erased state.
  std::size_t tracked_frames() const { return tracked_; }
  /// Whether one frame has ever been touched (its digest may since have
  /// returned to the erased state). Used by ConfigController::audit_image:
  /// a frame whose recomputed content differs from the baseline must have
  /// seen at least one delta.
  bool ever_touched_id(std::int32_t id) const {
    return touched_[static_cast<std::size_t>(id)] != 0;
  }

  // ---- content tokens (XOR-composable) ------------------------------------
  // Defined inline so the per-action token computation in the controller's
  // hot loops inlines instead of paying a cross-TU call per cell — a
  // measured cost of the old out-of-line definitions at XCV1000 op rates.

  /// splitmix64 finaliser — the standard 64-bit avalanche mix.
  static constexpr std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Token of one logic cell's configuration at a given row. Tokens of the
  /// default (erased) configuration are non-zero; only *differences* matter.
  static constexpr std::uint64_t cell_token(
      int row, const fabric::LogicCellConfig& cfg) {
    // Pack every configuration field; two configs differing in any field get
    // different pre-mix words, so equal tokens <=> equal (row, cfg) up to a
    // 64-bit hash collision. The fields are ORed in at fixed offsets (row
    // from bit 31, lut from 15, reg 13, lut_mode 12, d_src 11, uses_ce 10,
    // init 9, clock_domain 1, used 0) so the shifts run in parallel.
    const std::uint64_t w =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 31) |
        (static_cast<std::uint64_t>(cfg.lut) << 15) |
        (static_cast<std::uint64_t>(cfg.reg) << 13) |
        (static_cast<std::uint64_t>(cfg.lut_mode) << 12) |
        (static_cast<std::uint64_t>(cfg.d_src) << 11) |
        (static_cast<std::uint64_t>(cfg.uses_ce) << 10) |
        (static_cast<std::uint64_t>(cfg.init) << 9) |
        (static_cast<std::uint64_t>(cfg.clock_domain) << 1) |
        static_cast<std::uint64_t>(cfg.used);
    return mix64(w);
  }

  /// Token of one "on" PIP.
  static constexpr std::uint64_t edge_token(fabric::RouteEdge e) {
    return mix64((static_cast<std::uint64_t>(e.from) << 32) ^
                 static_cast<std::uint64_t>(e.to) ^ 0xedfe0b5ull);
  }

  /// Token of one attached net source.
  static constexpr std::uint64_t source_token(fabric::NodeId n) {
    return mix64(static_cast<std::uint64_t>(n) ^ 0x50a7ce00ull);
  }

 private:
  FrameIndex index_;
  std::vector<std::uint64_t> hash_;
  std::vector<std::uint8_t> touched_;
  std::size_t tracked_ = 0;
};

}  // namespace relogic::config
