#include "relogic/config/controller.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::config {

namespace {

/// Calls `visit(id, delta)` in ascending id order for every touched id of
/// `deltas` whose delta is still non-zero (XOR-cancelled frames drop out).
template <typename Visit>
void for_each_dirty(const FrameDeltaMap& deltas, Visit&& visit) {
  if (deltas.touched().empty()) return;
  const std::uint64_t* words = deltas.words();
  for (int w = 0; w < deltas.word_count(); ++w) {
    std::uint64_t bits = words[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const std::int32_t id = static_cast<std::int32_t>(w * 64 + b);
      const std::uint64_t d = deltas.delta(id);
      if (d != 0) visit(id, d);
    }
  }
}

/// Refuses an added edge that is not a PIP of the skeleton. The action walk
/// and the dirty-frame delta pass run it before any write, so such an op
/// changes nothing (Fabric::add_edges would refuse it mid-op).
void check_pip(const fabric::RoutingSkeleton& skel, const EdgeChange& ec) {
  RELOGIC_CHECK_MSG(!ec.add || skel.has_edge(ec.edge.from, ec.edge.to),
                    "no such PIP: " + skel.info(ec.edge.from).to_string() +
                        " -> " + skel.info(ec.edge.to).to_string());
}

}  // namespace

ConfigOp& ConfigOp::add_path(fabric::NetId net,
                             const std::vector<fabric::NodeId>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    add_edge(net, fabric::RouteEdge{path[i - 1], path[i]});
  }
  return *this;
}

ConfigController::ConfigController(fabric::Fabric& fabric,
                                   const ConfigPort& port,
                                   WriteGranularity granularity)
    : fabric_(&fabric),
      port_(&port),
      mapper_(fabric.geometry()),
      granularity_(granularity),
      index_(fabric.geometry()),
      image_(index_) {
  const auto& g = fabric.geometry();
  const int total = index_.total_frames();
  deltas_scratch_.reset(total);
  frame_bits_ = g.frame_length_bits();
  max_run_ = std::max({g.frames_center_column, g.frames_per_clb_column,
                       g.frames_per_iob_column});
  col_of_.resize(static_cast<std::size_t>(total));
  for (int id = 0; id < total; ++id)
    col_of_[static_cast<std::size_t>(id)] =
        static_cast<std::uint16_t>(index_.column_of(id));
  time_memo_.assign(static_cast<std::size_t>(max_run_) + 1, SimTime::zero());
  for (int n = 1; n <= max_run_; ++n)
    time_memo_[static_cast<std::size_t>(n)] = port.write_time(n, frame_bits_);
  op_words_.assign(static_cast<std::size_t>((total + 63) / 64), 0);
  op_lo_ = op_words_.size();
  col_words_.assign(static_cast<std::size_t>((g.clb_cols + 63) / 64), 0);
  const std::size_t cells_per_clb = static_cast<std::size_t>(g.cells_per_clb);
  overlay_.assign(static_cast<std::size_t>(g.clb_count()) * cells_per_clb,
                  CellOverlay{0, 0});
  const std::size_t cell_keys =
      static_cast<std::size_t>(g.clb_cols) * cells_per_clb;
  runkey_idx_.assign(cell_keys, 0);
  runkey_stamp_.assign(cell_keys, 0);
  col_count_.assign(static_cast<std::size_t>(index_.total_columns()), 0);
  col_stamp_.assign(static_cast<std::size_t>(index_.total_columns()), 0);
  recompute_digests(audit_baseline_);
}

void ConfigController::recompute_digests(std::vector<std::uint64_t>& out) const {
  const auto& g = fabric_->geometry();
  out.assign(static_cast<std::size_t>(index_.total_frames()), 0);
  const fabric::LogicCellConfig def{};
  for (int row = 0; row < g.clb_rows; ++row) {
    for (int col = 0; col < g.clb_cols; ++col) {
      for (int cell = 0; cell < g.cells_per_clb; ++cell) {
        const fabric::LogicCellConfig& cfg =
            fabric_->cell(ClbCoord{row, col}, cell);
        if (cfg == def) continue;
        const std::uint64_t d = FrameImage::cell_token(row, def) ^
                                FrameImage::cell_token(row, cfg);
        const std::int32_t base = index_.cell_frame_base(col, cell);
        for (int f = 0; f < g.frames_per_cell_config; ++f)
          out[static_cast<std::size_t>(base + f)] ^= d;
      }
    }
  }
  const auto& skel = fabric_->skeleton();
  for (const fabric::NetId n : fabric_->live_nets()) {
    const fabric::RouteTree& tree = fabric_->net(n);
    for (const fabric::RouteEdge& e : tree.edges)
      out[static_cast<std::size_t>(
          index_.id(mapper_.pip_frame(skel, e)))] ^=
          FrameImage::edge_token(e);
    for (const fabric::NodeId s : tree.sources)
      out[static_cast<std::size_t>(index_.id(
          source_frame(SourceChange{n, s, true})))] ^=
          FrameImage::source_token(s);
  }
}

void ConfigController::audit_image() const {
  constexpr const char* kWhere = "FrameImage";
  std::vector<std::uint64_t> current;
  recompute_digests(current);
  for (std::int32_t id = 0; id < index_.total_frames(); ++id) {
    const std::size_t i = static_cast<std::size_t>(id);
    // The image accumulates deltas relative to the construction-time state.
    const std::uint64_t expect = current[i] ^ audit_baseline_[i];
    RELOGIC_AUDIT_CHECK(
        image_.digest_id(id) == expect, kWhere,
        "frame " + std::to_string(id) + " digest " +
            std::to_string(image_.digest_id(id)) + " != recomputed " +
            std::to_string(expect) +
            " (incremental delta bug, or a fabric mutation bypassed the "
            "controller)");
    RELOGIC_AUDIT_CHECK(expect == 0 || image_.ever_touched_id(id), kWhere,
                        "frame " + std::to_string(id) +
                            " holds content but was never touched through "
                            "the controller");
  }
}

FrameAddress ConfigController::source_frame(const SourceChange& sc) const {
  // The output mux of a cell / pad enable lives in the node's own tile.
  const auto& skel = fabric_->skeleton();
  const auto info = skel.info(sc.node);
  if (info.kind == fabric::NodeKind::kPad) {
    const int col = info.tile.col < fabric_->geometry().clb_cols / 2 ? 0 : 1;
    return FrameAddress{ColumnType::kIob, static_cast<std::int16_t>(col), 0};
  }
  return mapper_.pip_frame(skel, fabric::RouteEdge{sc.node, sc.node});
}

template <typename Visit>
void ConfigController::for_each_frame_run(const ConfigOp& op,
                                          Visit&& visit) const {
  const auto& g = fabric_->geometry();
  const auto& skel = fabric_->skeleton();
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      // Arithmetic id derivation must not spill into a neighbouring
      // column region on a malformed op.
      RELOGIC_CHECK(g.in_bounds(cw->clb));
      RELOGIC_CHECK(cw->cell >= 0 && cw->cell < g.cells_per_clb);
      visit(index_.cell_frame_base(cw->clb.col, cw->cell),
            g.frames_per_cell_config);
    } else if (const auto* ec = std::get_if<EdgeChange>(&a)) {
      RELOGIC_CHECK_MSG(fabric_->net_exists(ec->net), "net does not exist");
      check_pip(skel, *ec);
      visit(index_.id(mapper_.pip_frame(skel, ec->edge)), 1);
    } else {
      const auto& sc = std::get<SourceChange>(a);
      RELOGIC_CHECK_MSG(fabric_->net_exists(sc.net), "net does not exist");
      visit(index_.id(source_frame(sc)), 1);
    }
  }
}

void ConfigController::frames_of(const ConfigOp& op, FrameSet& out) const {
  out.clear();
  const auto& g = fabric_->geometry();
  if (granularity_ == WriteGranularity::kColumn) {
    // Collect one marker id per touched column first (the column's first
    // frame id — centre frames pass through as themselves), dedupe, then
    // expand each distinct column to its contiguous frame run. Expansion
    // order follows the sorted markers, and runs are disjoint and laid out
    // in marker order, so `out` needs no second sort.
    columns_scratch_.clear();
    for_each_frame_run(op, [&](std::int32_t base, int) {
      const std::int32_t col = col_of_[static_cast<std::size_t>(base)];
      columns_scratch_.push(col == 0 ? base : index_.column_first_id(col));
    });
    columns_scratch_.normalize();
    for (const std::int32_t marker : columns_scratch_) {
      if (index_.is_clb(marker)) {
        out.push_run(marker, g.frames_per_clb_column);
      } else if (index_.is_iob(marker)) {
        out.push_run(marker, g.frames_per_iob_column);
      } else {
        out.push(marker);  // centre frame: written as mapped, never widened
      }
    }
    return;
  }
  // kFrame / kDirtyFrame: mark each action's frames in the per-op bitmap,
  // then list the marked word range in ascending id order. A cell's frame
  // group is fpc ids starting at a multiple of fpc, so with the Virtex
  // value (4) it never straddles a word and is marked as one mask; the
  // general case takes the per-frame path.
  clear_op_words();
  const auto mark = [&](std::size_t w, std::uint64_t bits) {
    op_words_[w] |= bits;
    op_lo_ = std::min(op_lo_, w);
    op_hi_ = std::max(op_hi_, w + 1);
  };
  for_each_frame_run(op, [&](std::int32_t base, int count) {
    if ((base & 63) + count <= 64) {
      mark(static_cast<std::size_t>(base) >> 6,
           ((std::uint64_t{1} << count) - 1) << (base & 63));
    } else {
      for (std::int32_t id = base; id < base + count; ++id)
        mark(static_cast<std::size_t>(id) >> 6, std::uint64_t{1} << (id & 63));
    }
  });
  std::vector<std::int32_t>& ids = out.raw_ids();
  for (std::size_t w = op_lo_; w < op_hi_; ++w)
    for (std::uint64_t bits = op_words_[w]; bits; bits &= bits - 1)
      ids.push_back(static_cast<std::int32_t>(w * 64) + std::countr_zero(bits));
  clear_op_words();
}

ApplyResult ConfigController::preview(const ConfigOp& op) const {
  if (granularity_ == WriteGranularity::kDirtyFrame) {
    clear_overlays();
    return price_dirty(op);
  }
  frames_of(op, frames_scratch_);
  return price_frames(frames_scratch_);
}

int ConfigController::readback_frames(const ConfigOp& op) const {
  frames_of(op, frames_scratch_);
  return static_cast<int>(frames_scratch_.size());
}

void ConfigController::preview_sequence(
    const std::vector<ConfigOp>& ops,
    const std::function<void(std::size_t, const ApplyResult&,
                             const FrameSet&)>& visit) const {
  // One persistent overlay across the whole sequence: op k's deltas are
  // computed against the fabric plus everything ops 0..k-1 would have
  // written, so per-op dirty decisions match a sequential apply exactly.
  clear_overlays();
  const int fpc = fabric_->geometry().frames_per_cell_config;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (granularity_ != WriteGranularity::kDirtyFrame) {
      frames_of(ops[i], frames_scratch_);
      visit(i, price_frames(frames_scratch_), frames_scratch_);
      continue;
    }
    // price_dirty leaves the net dirty ids in dirty_scratch_ and the cell
    // deltas in the runs; the written set handed to the visitor is
    // materialized from both (disjoint id ranges, so push + normalize
    // dedups nothing).
    const ApplyResult r = price_dirty(ops[i]);
    for (std::size_t k = 0; k < run_base_.size(); ++k)
      if (run_delta_[k] != 0) dirty_scratch_.push_run(run_base_[k], fpc);
    dirty_scratch_.normalize();
    visit(i, r, dirty_scratch_);
  }
}

ApplyResult ConfigController::finish_apply(const ConfigOp& op,
                                           ApplyResult result, int effective) {
  result.effective_actions = effective;

  ++totals_.ops;
  totals_.frames_written += result.frames_written;
  totals_.frames_skipped += result.frames_skipped;
  totals_.columns_touched += result.columns_touched;
  const SimTime span_start = totals_.time;
  totals_.time += result.time;

  if (trace_) {
    trace_.complete("config", op.label, span_start, result.time,
                    {obs::arg("granularity", to_string(granularity_)),
                     obs::arg("frames_written", result.frames_written),
                     obs::arg("frames_skipped", result.frames_skipped),
                     obs::arg("columns", result.columns_touched),
                     obs::arg("effective_actions", result.effective_actions)});
    trace_.counter("frames_written", totals_.time,
                   static_cast<double>(totals_.frames_written));
    set_log_context("config", totals_.time);
  }

  RELOGIC_LOG(kDebug) << "config op '" << op.label << "': "
                      << result.frames_written << " frames ("
                      << result.frames_skipped << " clean-skipped), "
                      << result.columns_touched << " columns, "
                      << result.time.to_string();
  return result;
}

std::size_t ConfigController::run_of(const CellWrite& cw) const {
  const std::size_t key =
      static_cast<std::size_t>(cw.clb.col) *
          static_cast<std::size_t>(fabric_->geometry().cells_per_clb) +
      static_cast<std::size_t>(cw.cell);
  if (runkey_stamp_[key] != op_epoch_) {
    runkey_stamp_[key] = op_epoch_;
    runkey_idx_[key] = static_cast<std::int32_t>(run_base_.size());
    run_base_.push_back(index_.cell_frame_base(cw.clb.col, cw.cell));
    run_delta_.push_back(0);
    run_col_.push_back(1 + cw.clb.col);  // dense column of a CLB col
  }
  return static_cast<std::size_t>(runkey_idx_[key]);
}

void ConfigController::clear_overlays() const {
  if (++overlay_epoch_ == 0) {  // stamp wrap: restart the epoch space
    for (CellOverlay& ov : overlay_) ov.stamp = 0;
    overlay_epoch_ = 1;
  }
  overlay_edges_.clear();
  overlay_sources_.clear();
}

void ConfigController::begin_op() const {
  if (++op_epoch_ == 0) {  // stamp wrap: restart the epoch space
    std::fill(runkey_stamp_.begin(), runkey_stamp_.end(), 0);
    std::fill(col_stamp_.begin(), col_stamp_.end(), 0);
    op_epoch_ = 1;
  }
  run_base_.clear();
  run_delta_.clear();
  run_col_.clear();
}

void ConfigController::clear_op_words() const {
  for (std::size_t w = op_lo_; w < op_hi_; ++w) op_words_[w] = 0;
  op_lo_ = op_words_.size();
  op_hi_ = 0;
}

void ConfigController::accumulate_deltas(const ConfigOp& op,
                                         FrameDeltaMap& net_out) const {
  const auto& skel = fabric_->skeleton();
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      // Fabric::cell checks the coordinates before any index is derived.
      const fabric::LogicCellConfig& current = fabric_->cell(cw->clb, cw->cell);
      const std::size_t run = run_of(*cw);
      CellOverlay& ov = overlay_[static_cast<std::size_t>(
          fabric_->cell_index(cw->clb, cw->cell))];
      const std::uint64_t before =
          ov.stamp == overlay_epoch_
              ? ov.tok
              : FrameImage::cell_token(cw->clb.row, current);
      const std::uint64_t after = FrameImage::cell_token(cw->clb.row, cw->cfg);
      ov.stamp = overlay_epoch_;
      ov.tok = after;
      // before ^ after telescopes across repeated writes to the same slot,
      // leaving op-entry token ^ final token per cell in the run's delta.
      run_delta_[run] ^= before ^ after;
    } else if (const auto* ec = std::get_if<EdgeChange>(&a)) {
      check_pip(skel, *ec);
      const std::int32_t id = index_.id(mapper_.pip_frame(skel, ec->edge));
      net_out.touch(id);
      const EdgeKey key{ec->net, ec->edge.from, ec->edge.to};
      const auto [it, inserted] = overlay_edges_.try_emplace(key, ec->add);
      const bool on =
          inserted ? fabric_->net(ec->net).has_edge(ec->edge) : it->second;
      if (!inserted) it->second = ec->add;
      if (on != ec->add) net_out.xor_delta(id, FrameImage::edge_token(ec->edge));
    } else if (const auto* sc = std::get_if<SourceChange>(&a)) {
      const std::int32_t id = index_.id(source_frame(*sc));
      net_out.touch(id);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(sc->net) << 32) | sc->node;
      const auto [it, inserted] = overlay_sources_.try_emplace(key, sc->attach);
      const bool on =
          inserted ? fabric_->net(sc->net).has_source(sc->node) : it->second;
      if (!inserted) it->second = sc->attach;
      if (on != sc->attach)
        net_out.xor_delta(id, FrameImage::source_token(sc->node));
    }
  }
}

SimTime ConfigController::run_time(int frames) const {
  return frames <= max_run_ ? time_memo_[static_cast<std::size_t>(frames)]
                            : port_->write_time(frames, frame_bits_);
}

ApplyResult ConfigController::price_frames(const FrameSet& frames) const {
  const std::int32_t* ids = frames.begin();
  const int n = static_cast<int>(frames.size());
  ApplyResult result;
  result.frames_written = n;
  int i = 0;
  while (i < n) {
    const std::uint16_t col = col_of_[static_cast<std::size_t>(ids[i])];
    int j = i + 1;
    while (j < n && col_of_[static_cast<std::size_t>(ids[j])] == col) ++j;
    result.time += run_time(j - i);
    ++result.columns_touched;
    i = j;
  }
  return result;
}

ApplyResult ConfigController::price_runs() const {
  // Per-column frame counts instead of a sorted id walk: a column's frames
  // are contiguous in id order, so price_frames would charge exactly one
  // transaction per touched column with the column's total frame count.
  // Column visit order is irrelevant — the frame / column counters and the
  // SimTime sum are all commutative — so touched columns are collected in
  // an epoch-stamped list rather than a sorted bitmap.
  const int fpc = fabric_->geometry().frames_per_cell_config;
  ApplyResult result;
  col_list_.clear();
  const auto count = [&](std::size_t col, int frames) {
    if (col_stamp_[col] != op_epoch_) {
      col_stamp_[col] = op_epoch_;
      col_count_[col] = 0;
      col_list_.push_back(static_cast<std::int32_t>(col));
    }
    col_count_[col] += frames;
    result.frames_written += frames;
  };
  for (std::size_t i = 0; i < run_base_.size(); ++i)
    if (run_delta_[i] != 0) count(static_cast<std::size_t>(run_col_[i]), fpc);
  for (const std::int32_t id : dirty_scratch_)
    count(col_of_[static_cast<std::size_t>(id)], 1);
  for (const std::int32_t c : col_list_)
    result.time += run_time(col_count_[static_cast<std::size_t>(c)]);
  result.columns_touched = static_cast<int>(col_list_.size());
  // The op's frame set is fpc frames per run (one per distinct cell frame
  // group) plus every net frame it touched; the rest of it stays clean.
  result.frames_skipped = static_cast<int>(run_base_.size()) * fpc +
                          static_cast<int>(deltas_scratch_.touched().size()) -
                          result.frames_written;
  return result;
}

ApplyResult ConfigController::price_dirty(const ConfigOp& op) const {
  begin_op();
  deltas_scratch_.reset(index_.total_frames());
  accumulate_deltas(op, deltas_scratch_);
  dirty_scratch_.clear();
  for_each_dirty(deltas_scratch_, [&](std::int32_t id, std::uint64_t) {
    dirty_scratch_.push(id);
  });
  return price_runs();
}

ApplyResult ConfigController::apply(const ConfigOp& op,
                                    bool allow_lut_ram_columns) {
  // The action walk checks every action before anything changes: kColumn
  // and kFrame price the frame set it lists, and kDirtyFrame, which
  // prices from its delta pass, walks it with no bitmap.
  if (granularity_ == WriteGranularity::kDirtyFrame)
    for_each_frame_run(op, [](std::int32_t, int) {});
  else
    frames_of(op, frames_scratch_);
  if (!allow_lut_ram_columns) check_lut_ram_columns(op);
  begin_op();

  const auto& skel = fabric_->skeleton();
  const int fpc = fabric_->geometry().frames_per_cell_config;

  // Apply the structural actions in order. Cell deltas accumulate per RUN
  // (one frames_per_cell run per distinct cell) instead of per frame. Only
  // an effective write is hashed, and its after-token is taken from the
  // value the fabric stored, so an injected fault's corruption reaches the
  // image. Net deltas go to the per-frame map. Every action's run or net
  // frame is recorded, effective or not: price_runs counts them.
  deltas_scratch_.reset(index_.total_frames());
  int effective = 0;
  for (const ConfigAction& a : op.actions) {
    if (const auto* cw = std::get_if<CellWrite>(&a)) {
      // Bounds were validated before any mutation, by the action walk.
      const std::size_t run = run_of(*cw);
      const fabric::LogicCellConfig before = fabric_->cell(cw->clb, cw->cell);
      if (fabric_->set_cell_config(cw->clb, cw->cell, cw->cfg)) {
        ++effective;
        run_delta_[run] ^=
            FrameImage::cell_token(cw->clb.row, before) ^
            FrameImage::cell_token(cw->clb.row,
                                   fabric_->cell(cw->clb, cw->cell));
      }
    } else if (const auto* ec = std::get_if<EdgeChange>(&a)) {
      const std::int32_t id = index_.id(mapper_.pip_frame(skel, ec->edge));
      deltas_scratch_.touch(id);
      const auto& tree = fabric_->net(ec->net);
      if (ec->add ? !tree.has_edge(ec->edge) : tree.has_edge(ec->edge)) {
        if (ec->add)
          fabric_->add_edge(ec->net, ec->edge);
        else
          fabric_->remove_edge(ec->net, ec->edge);
        ++effective;
        deltas_scratch_.xor_delta(id, FrameImage::edge_token(ec->edge));
      }
    } else if (const auto* sc = std::get_if<SourceChange>(&a)) {
      const std::int32_t id = index_.id(source_frame(*sc));
      deltas_scratch_.touch(id);
      const auto& tree = fabric_->net(sc->net);
      if (sc->attach ? !tree.has_source(sc->node) : tree.has_source(sc->node)) {
        if (sc->attach)
          fabric_->attach_source(sc->net, sc->node);
        else
          fabric_->detach_source(sc->net, sc->node);
        ++effective;
        deltas_scratch_.xor_delta(id, FrameImage::source_token(sc->node));
      }
    }
  }

  // Commit the cell runs, then the net deltas fused with the dirty scan.
  // Run frames and net frames are disjoint id ranges.
  for (std::size_t i = 0; i < run_base_.size(); ++i)
    image_.apply_delta_run(run_base_[i], fpc, run_delta_[i]);
  dirty_scratch_.clear();
  for_each_dirty(deltas_scratch_, [&](std::int32_t id, std::uint64_t d) {
    image_.apply_delta_id(id, d);
    dirty_scratch_.push(id);
  });
  return finish_apply(op,
                      granularity_ == WriteGranularity::kDirtyFrame
                          ? price_runs()
                          : price_frames(frames_scratch_),
                      effective);
}

void ConfigController::check_lut_ram_columns(
    const ConfigOp& op,
    const std::vector<std::uint64_t>* extra_rewritten) const {
  // No live LUT-RAM anywhere -> nothing the op touches can violate the
  // paper's Sec. 2 restriction; skip the column derivation entirely.
  if (fabric_->live_lut_ram_total() == 0) return;
  // The CLB-column set of an op's frames equals the CLB-column set of its
  // actions' frame runs (widening only adds frames inside already-touched
  // columns), so the check reads the action walk, not a frame set. The
  // bitmap is cleared first, so a throw never leaks marks into the next
  // op's check.
  const auto& g = fabric_->geometry();
  std::fill(col_words_.begin(), col_words_.end(), 0);
  for_each_frame_run(op, [&](std::int32_t base, int) {
    if (!index_.is_clb(base)) return;
    const std::size_t col = col_of_[static_cast<std::size_t>(base)] - 1u;
    col_words_[col >> 6] |= std::uint64_t{1} << (col & 63);
  });

  // Cells the op itself rewrites (those are intentional, hence exempt),
  // plus any the caller knows are rewritten before this op applies. Built
  // lazily: the fabric's per-column live-LUT-RAM counts short-circuit clean
  // columns, so the common case never touches the exemption set at all.
  bool rewrites_built = false;
  const auto rewritten = [&](int row, int col, int cell) {
    if (!rewrites_built) {
      rewrites_built = true;
      rewrites_scratch_.clear();
      for (const ConfigAction& a : op.actions) {
        if (const auto* cw = std::get_if<CellWrite>(&a))
          rewrites_scratch_.push_back(
              pack_cell_key(cw->clb.row, cw->clb.col, cw->cell));
      }
      if (extra_rewritten != nullptr)
        rewrites_scratch_.insert(rewrites_scratch_.end(),
                                 extra_rewritten->begin(),
                                 extra_rewritten->end());
      std::sort(rewrites_scratch_.begin(), rewrites_scratch_.end());
    }
    return std::binary_search(rewrites_scratch_.begin(),
                              rewrites_scratch_.end(),
                              pack_cell_key(row, col, cell));
  };

  // Touched columns in ascending order.
  for (std::size_t w = 0; w < col_words_.size(); ++w) {
    for (std::uint64_t bits = col_words_[w]; bits; bits &= bits - 1) {
      const int col = static_cast<int>(w * 64) + std::countr_zero(bits);
      if (fabric_->live_lut_ram_in_col(col) == 0) continue;
      for (int row = 0; row < g.clb_rows; ++row) {
        const ClbCoord c{row, col};
        for (int k = 0; k < g.cells_per_clb; ++k) {
          const auto& cell = fabric_->cell(c, k);
          if (cell.used && cell.lut_mode == fabric::LutMode::kRam &&
              !rewritten(row, col, k)) {
            throw IllegalOperationError(
                "config op '" + op.label + "' touches column " +
                std::to_string(col) + " which holds a live LUT-RAM at " +
                c.to_string() + " cell " + std::to_string(k) +
                " (paper Sec. 2: LUT/RAMs must not lie in affected columns)");
          }
        }
      }
    }
  }
}

}  // namespace relogic::config
