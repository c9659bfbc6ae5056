// TransactionBatcher: coalesces adjacent ConfigOps into single
// configuration-port transactions.
//
// The controller issues one port transaction per touched column (the frame
// address register must be rewritten when the column changes), and every
// transaction pays the fixed TAP-walking / header / pad-frame overhead of
// the port model (config/port.hpp). Back-to-back ConfigOps bound for the
// same device frequently touch overlapping frame sets — consecutive task
// configurations packed bottom-left share columns, and a relocation's op
// sequence revisits its source and destination frames several times. By
// concatenating adjacent ops and applying them as one ConfigOp, each shared
// frame is written once instead of once per op, amortising the
// per-transaction overhead, the full column rewrite (in the column-granular
// JBits regime), and — under kDirtyFrame — letting writes that a later op
// undoes cancel out entirely (the merged op's content delta is zero, so the
// frame is never written at all).
//
// Coalescing preserves semantics: a ConfigOp's actions apply in order,
// concatenation keeps the order across ops, so the fabric end state is
// identical to applying the ops one by one — and ops that write LUT-RAM
// cell configs are applied alone so the controller's live-LUT-RAM column
// check sees exactly the states a per-op sequence would. The batcher
// tracks what the unbatched sequence would have cost (via
// ConfigController::preview) so callers can report the saving honestly;
// under kDirtyFrame that baseline is an estimate — each op is previewed
// against the fabric as it stands at enqueue, before the pending batch has
// applied.
//
// The batcher hands the controller ConfigOps only and keeps no frame sets:
// enqueue checks LUT-RAM legality (check_lut_ram_columns) and prices the
// unbatched baseline (preview), and flush applies the merged op (apply),
// which maps its frames once. The pending op and its exemption keys live
// in reusable members.
//
// Threading contract: a batcher (and the ConfigController + Fabric behind
// it) belongs to exactly one device run and is confined to that worker
// thread — nothing here locks (DESIGN.md §8.1). In audit builds every
// transaction boundary (each flush, solo ops included) cross-checks the
// controller's frame-digest mirror against a full recompute
// (ConfigController::audit_image, DESIGN.md §8.4).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relogic/config/controller.hpp"

namespace relogic::runtime {

struct BatchOptions {
  /// Flush automatically once this many ops are pending. <= 1 disables
  /// coalescing (every op is its own transaction).
  int max_ops = 8;
};

struct BatchStats {
  int ops_in = 0;        ///< ConfigOps enqueued
  int transactions = 0;  ///< coalesced ConfigOps actually applied
  /// Per-column port transactions issued / frames written / port time, for
  /// the batched stream and for the unbatched baseline (each op applied
  /// alone) on the same workload.
  int column_writes = 0;
  int unbatched_column_writes = 0;
  int frames_written = 0;
  int unbatched_frames = 0;
  /// Frames kDirtyFrame skipped because their contents were unchanged
  /// (0 under kColumn / kFrame). The unbatched figure is the per-op
  /// enqueue-time estimate.
  int frames_skipped = 0;
  int unbatched_frames_skipped = 0;
  SimTime time = SimTime::zero();
  SimTime unbatched_time = SimTime::zero();

  int merged_ops() const { return ops_in - transactions; }
  SimTime saved() const { return unbatched_time - time; }
};

class TransactionBatcher {
 public:
  explicit TransactionBatcher(config::ConfigController& controller,
                              BatchOptions options = {});

  /// Queues an op, coalescing it with the pending batch; flushes once
  /// max_ops are pending. Empty ops are dropped. An op the controller
  /// would refuse (illegal LUT-RAM column, bad coordinates, a net that
  /// does not exist) throws here, before it is counted or queued.
  void enqueue(const config::ConfigOp& op);

  /// Applies the pending batch as one transaction. No-op when empty.
  void flush();

  int pending_ops() const { return pending_ops_; }
  const BatchStats& stats() const { return stats_; }

 private:
  config::ConfigController* controller_;
  BatchOptions options_;
  config::ConfigOp pending_;
  /// Cells written by the pending batch (config::pack_cell_key, unsorted,
  /// duplicates allowed) — the exemption set that makes the enqueue-time
  /// LUT-RAM legality check match the per-op sequence. A plain append: the
  /// check only reads it when the fabric holds live LUT-RAM.
  std::vector<std::uint64_t> pending_rewrites_;
  int pending_ops_ = 0;
  BatchStats stats_;
};

}  // namespace relogic::runtime
