#include "relogic/runtime/batcher.hpp"

#include <utility>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::runtime {

TransactionBatcher::TransactionBatcher(config::ConfigController& controller,
                                       BatchOptions options)
    : controller_(&controller), options_(options) {}

void TransactionBatcher::enqueue(const config::ConfigOp& op) {
  if (op.empty()) return;
  // An op that writes a LUT-RAM cell config must apply alone: the live
  // LUT-RAM column check runs once per transaction against the fabric
  // state at apply time, and this is the one case where checking a merged
  // op diverges from checking each op in sequence (a later op touching the
  // column of a RAM cell an earlier pending op just created would slip
  // through the merged check's exemption set). A solo op is "flush, queue,
  // flush": with the pending batch applied first, its unbatched preview is
  // exact under kDirtyFrame too. max_ops <= 1 flushes after every op.
  bool writes_lut_ram = false;
  for (const config::ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
      if (cw->cfg.used && cw->cfg.lut_mode == fabric::LutMode::kRam)
        writes_lut_ram = true;
    }
  }
  if (writes_lut_ram) flush();

  // Exact per-op legality: check this op now, against the current fabric
  // with the pending batch's cell writes as extra exemptions. Pending ops
  // never create LUT-RAM cells (isolated above), so a RAM cell rewritten
  // by a pending op is guaranteed dead by the time this op would apply in
  // the unbatched sequence — exempting exactly those cells reproduces the
  // per-op check's verdict. The merged apply()'s own check is strictly
  // weaker and serves as a safety net only.
  controller_->check_lut_ram_columns(op, &pending_rewrites_);

  // Unbatched baseline, previewed against the fabric as it stands at
  // enqueue (before the pending batch applies) — an estimate under
  // kDirtyFrame, exact otherwise (see the header comment). The preview
  // checks the op as apply would, so a malformed op throws here, before
  // it is counted or queued.
  const auto alone = controller_->preview(op);

  ++stats_.ops_in;
  stats_.unbatched_column_writes += alone.columns_touched;
  stats_.unbatched_frames += alone.frames_written;
  stats_.unbatched_frames_skipped += alone.frames_skipped;
  stats_.unbatched_time += alone.time;

  if (pending_ops_ == 0) {
    pending_ = op;
  } else {
    pending_.label += " + " + op.label;
    pending_.actions.insert(pending_.actions.end(), op.actions.begin(),
                            op.actions.end());
  }
  ++pending_ops_;
  for (const config::ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<config::CellWrite>(&a))
      pending_rewrites_.push_back(
          config::pack_cell_key(cw->clb.row, cw->clb.col, cw->cell));
  }
  if (writes_lut_ram || pending_ops_ >= options_.max_ops) flush();
}

void TransactionBatcher::flush() {
  if (pending_ops_ == 0) return;
  const int batched = std::exchange(pending_ops_, 0);
  config::ConfigOp op = std::move(pending_);
  pending_ = config::ConfigOp{};
  pending_rewrites_.clear();
  const auto r = controller_->apply(op);
  ++stats_.transactions;
  stats_.column_writes += r.columns_touched;
  stats_.frames_written += r.frames_written;
  stats_.frames_skipped += r.frames_skipped;
  stats_.time += r.time;
  RELOGIC_LOG(kDebug) << "batched " << batched << " config ops into one "
                      << r.columns_touched << "-column transaction ("
                      << r.time.to_string() << ")";
  // Flush boundary: in audit builds, cross-check the digest mirror against
  // a full recompute now that the merged transaction has committed.
  if constexpr (relogic::audit_enabled()) controller_->audit_image();
}

}  // namespace relogic::runtime
