// Flat config-plane data-path equivalence.
//
// PR 5 rebuilt ConfigController / FrameImage / TransactionBatcher on flat,
// index-addressable structures (config/frame_index.hpp): dense frame ids,
// sorted-vector frame sets, a flat epoch-cleared delta map, and one-pass
// per-column pricing. These tests pin the refactor to the previous
// std::set<FrameAddress> / std::map<FrameAddress, uint64_t> semantics with
// a literal reference implementation of the old algorithms, driven in
// lockstep on randomized op streams — including the 8-cells-per-CLB
// tiny_dense geometry whose frame layout exercises non-Virtex cell counts.
//
// The controller's bitmap / token data path is swept against that
// reference across all three granularities on tiny, tiny_dense and the
// paper's XCV200 — the byte-identity contract of DESIGN.md §9 — and so is
// the TransactionBatcher, whose merged transactions are priced against the
// reference price of each batch's frame union.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/frame_image.hpp"
#include "relogic/config/frame_index.hpp"
#include "relogic/config/port.hpp"
#include "relogic/runtime/batcher.hpp"

namespace relogic {
namespace {

using config::ApplyResult;
using config::ColumnType;
using config::ConfigOp;
using config::FrameAddress;
using config::FrameDeltaMap;
using config::FrameImage;
using config::FrameIndex;
using config::FrameSet;
using config::WriteGranularity;
using fabric::DeviceGeometry;
using fabric::Fabric;
using fabric::LogicCellConfig;

// ---- the flat primitives ----------------------------------------------------

TEST(FrameIndexTest, BijectionCoversTheWholeUniverseInAddressOrder) {
  for (const auto& geom :
       {DeviceGeometry::tiny(6, 6), DeviceGeometry::tiny_dense(6, 6),
        DeviceGeometry::xcv200()}) {
    const FrameIndex index(geom);
    ASSERT_EQ(index.total_frames(), geom.total_frames());
    FrameAddress prev{};
    for (std::int32_t id = 0; id < index.total_frames(); ++id) {
      const FrameAddress f = index.address(id);
      EXPECT_EQ(index.id(f), id);
      // Dense ids enumerate addresses in FrameAddress's own <=> order, so a
      // sorted id set iterates exactly as the old std::set<FrameAddress>.
      if (id > 0) {
        EXPECT_LT(prev, f);
      }
      prev = f;
      // Column ids are monotone and group-contiguous.
      if (id > 0) {
        EXPECT_GE(index.column_of(id), index.column_of(id - 1));
      }
    }
    EXPECT_EQ(index.column_of(index.total_frames() - 1),
              index.total_columns() - 1);
  }
}

TEST(FrameSetTest, NormalizeSortsAndDedupes) {
  FrameSet a;
  a.push(7);
  a.push(3);
  a.push(7);
  a.push_run(10, 3);
  a.push(11);
  a.normalize();
  const std::vector<std::int32_t> want{3, 7, 10, 11, 12};
  EXPECT_TRUE(std::equal(a.begin(), a.end(), want.begin(), want.end()));
  a.clear();
  EXPECT_TRUE(a.empty());
}

TEST(FrameDeltaMapTest, XorAccumulatesAndClearIsCheap) {
  FrameDeltaMap m;
  m.reset(64);
  m.xor_delta(5, 0xff);
  m.xor_delta(5, 0x0f);
  m.xor_delta(9, 0x1);
  m.xor_delta(9, 0x1);  // cancels back to zero but stays touched
  m.xor_delta(3, 0);    // zero delta: never recorded
  EXPECT_EQ(m.delta(5), 0xf0u);
  EXPECT_EQ(m.delta(9), 0u);
  EXPECT_EQ(m.delta(3), 0u);
  ASSERT_EQ(m.touched().size(), 2u);

  m.clear();
  EXPECT_EQ(m.delta(5), 0u);
  EXPECT_TRUE(m.touched().empty());
  m.xor_delta(5, 0x2);
  EXPECT_EQ(m.delta(5), 0x2u);
}

// ---- reference implementation of the old set/map semantics ------------------

/// The pre-flat-path algorithms, verbatim: std::set frame mapping with
/// column widening, std::map overlay delta simulation, per-column pricing
/// that rescans the whole frame set per column, and a std::map shadow
/// image. Shares the controller's fabric (read-only).
class ReferencePath {
 public:
  ReferencePath(const Fabric& fab, const config::ConfigPort& port,
                WriteGranularity gran)
      : fab_(&fab), port_(&port), mapper_(fab.geometry()), gran_(gran) {}

  std::set<FrameAddress> frames_of(const ConfigOp& op) const {
    std::set<FrameAddress> frames;
    const auto& skel = fab_->skeleton();
    for (const config::ConfigAction& a : op.actions) {
      if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
        for (const FrameAddress& f : mapper_.cell_frames(cw->clb, cw->cell))
          frames.insert(f);
      } else if (const auto* ec = std::get_if<config::EdgeChange>(&a)) {
        frames.insert(mapper_.pip_frame(skel, ec->edge));
      } else if (const auto* sc = std::get_if<config::SourceChange>(&a)) {
        frames.insert(source_frame(*sc));
      }
    }
    if (gran_ != WriteGranularity::kColumn) return frames;
    std::set<FrameAddress> widened;
    std::set<std::int16_t> clb_cols;
    std::set<std::int16_t> iob_cols;
    for (const FrameAddress& f : frames) {
      switch (f.type) {
        case ColumnType::kClb:
          clb_cols.insert(f.column);
          break;
        case ColumnType::kIob:
          iob_cols.insert(f.column);
          break;
        case ColumnType::kCenter:
          widened.insert(f);
          break;
      }
    }
    const auto& g = fab_->geometry();
    for (std::int16_t c : clb_cols) {
      for (int fr = 0; fr < g.frames_per_clb_column; ++fr)
        widened.insert(
            FrameAddress{ColumnType::kClb, c, static_cast<std::int16_t>(fr)});
    }
    for (std::int16_t c : iob_cols) {
      for (int fr = 0; fr < g.frames_per_iob_column; ++fr)
        widened.insert(
            FrameAddress{ColumnType::kIob, c, static_cast<std::int16_t>(fr)});
    }
    return widened;
  }

  /// Overlay-simulated deltas against the *current* fabric (the op has not
  /// applied yet). With no injected faults these equal apply's observed
  /// before/after deltas, so one computation serves preview and apply.
  std::map<FrameAddress, std::uint64_t> deltas_of(const ConfigOp& op) const {
    std::map<FrameAddress, std::uint64_t> deltas;
    std::map<std::tuple<int, int, int>, LogicCellConfig> cells;
    std::map<std::pair<fabric::NetId, fabric::RouteEdge>, bool> edges;
    std::map<std::pair<fabric::NetId, fabric::NodeId>, bool> sources;
    for (const config::ConfigAction& a : op.actions) {
      if (const auto* cw = std::get_if<config::CellWrite>(&a)) {
        const std::tuple<int, int, int> key{cw->clb.row, cw->clb.col,
                                            cw->cell};
        const auto it = cells.find(key);
        const LogicCellConfig before =
            it != cells.end() ? it->second : fab_->cell(cw->clb, cw->cell);
        cells[key] = cw->cfg;
        if (before == cw->cfg) continue;
        const std::uint64_t d = FrameImage::cell_token(cw->clb.row, before) ^
                                FrameImage::cell_token(cw->clb.row, cw->cfg);
        for (const FrameAddress& f : mapper_.cell_frames(cw->clb, cw->cell))
          deltas[f] ^= d;
      } else if (const auto* ec = std::get_if<config::EdgeChange>(&a)) {
        const auto key = std::make_pair(ec->net, ec->edge);
        const auto it = edges.find(key);
        const bool on = it != edges.end()
                            ? it->second
                            : (fab_->net_exists(ec->net) &&
                               fab_->net(ec->net).has_edge(ec->edge));
        edges[key] = ec->add;
        if (on == ec->add) continue;
        deltas[mapper_.pip_frame(fab_->skeleton(), ec->edge)] ^=
            FrameImage::edge_token(ec->edge);
      } else if (const auto* sc = std::get_if<config::SourceChange>(&a)) {
        const auto key = std::make_pair(sc->net, sc->node);
        const auto it = sources.find(key);
        const bool on = it != sources.end()
                            ? it->second
                            : (fab_->net_exists(sc->net) &&
                               fab_->net(sc->net).has_source(sc->node));
        sources[key] = sc->attach;
        if (on == sc->attach) continue;
        deltas[source_frame(*sc)] ^= FrameImage::source_token(sc->node);
      }
    }
    return deltas;
  }

  ApplyResult price_set(const std::set<FrameAddress>& frames) const {
    ApplyResult result;
    result.frames_written = static_cast<int>(frames.size());
    std::set<std::pair<ColumnType, std::int16_t>> columns;
    for (const FrameAddress& f : frames) columns.insert({f.type, f.column});
    result.columns_touched = static_cast<int>(columns.size());
    const int frame_bits = fab_->geometry().frame_length_bits();
    for (const auto& col : columns) {
      int n = 0;
      for (const FrameAddress& f : frames)
        if (f.type == col.first && f.column == col.second) ++n;
      result.time += port_->write_time(n, frame_bits);
    }
    return result;
  }

  ApplyResult price(const std::set<FrameAddress>& frames,
                    const std::map<FrameAddress, std::uint64_t>& deltas) const {
    if (gran_ != WriteGranularity::kDirtyFrame) return price_set(frames);
    std::set<FrameAddress> dirty;
    for (const auto& [f, d] : deltas)
      if (d != 0) dirty.insert(f);
    ApplyResult result = price_set(dirty);
    result.frames_skipped =
        static_cast<int>(frames.size()) - result.frames_written;
    return result;
  }

  /// Commits an op's deltas to the reference shadow image.
  void commit(const std::map<FrameAddress, std::uint64_t>& deltas) {
    for (const auto& [f, d] : deltas) {
      if (d == 0) continue;
      image_[f] ^= d;
      touched_.insert(f);
    }
  }

  std::uint64_t digest(const FrameAddress& f) const {
    const auto it = image_.find(f);
    return it == image_.end() ? 0 : it->second;
  }
  std::size_t tracked() const { return touched_.size(); }
  const std::set<FrameAddress>& touched() const { return touched_; }

 private:
  FrameAddress source_frame(const config::SourceChange& sc) const {
    const auto& skel = fab_->skeleton();
    const auto info = skel.info(sc.node);
    if (info.kind == fabric::NodeKind::kPad) {
      const int col = info.tile.col < fab_->geometry().clb_cols / 2 ? 0 : 1;
      return FrameAddress{ColumnType::kIob, static_cast<std::int16_t>(col), 0};
    }
    return mapper_.pip_frame(skel, fabric::RouteEdge{sc.node, sc.node});
  }

  const Fabric* fab_;
  const config::ConfigPort* port_;
  config::FrameMapper mapper_;
  WriteGranularity gran_;
  std::map<FrameAddress, std::uint64_t> image_;
  std::set<FrameAddress> touched_;
};

std::vector<FrameAddress> to_addresses(const FrameSet& set,
                                       const FrameIndex& index) {
  std::vector<FrameAddress> out;
  for (const std::int32_t id : set) out.push_back(index.address(id));
  return out;
}

ConfigOp random_op(Rng& rng, const DeviceGeometry& geom, fabric::NetId net,
                   const Fabric& fab, int step) {
  ConfigOp op("op" + std::to_string(step));
  const auto& g = fab.skeleton();
  const int actions = 1 + static_cast<int>(rng.next_u64() % 4);
  for (int a = 0; a < actions; ++a) {
    const ClbCoord clb{static_cast<int>(rng.next_u64() %
                                        static_cast<unsigned>(geom.clb_rows)),
                       static_cast<int>(rng.next_u64() %
                                        static_cast<unsigned>(geom.clb_cols))};
    switch (rng.next_u64() % 5) {
      case 0:
        op.clear_cell(clb, static_cast<int>(
                               rng.next_u64() %
                               static_cast<unsigned>(geom.cells_per_clb)));
        break;
      case 1:
      case 2: {
        LogicCellConfig cfg;
        cfg.used = true;
        // Small alphabet so identical rewrites actually happen.
        cfg.lut = static_cast<std::uint16_t>(0x1111 * (1 + rng.next_u64() % 4));
        op.write_cell(clb,
                      static_cast<int>(rng.next_u64() %
                                       static_cast<unsigned>(geom.cells_per_clb)),
                      cfg);
        break;
      }
      case 3: {
        // Toggle a PIP on the shared net (routing pool models 4 cells of
        // pins per tile, so edge endpoints stay on cells 0..3).
        const auto src = g.out_pin(clb, static_cast<int>(rng.next_u64() % 4),
                                   false);
        const auto wire = g.single(
            clb, static_cast<fabric::Dir>(rng.next_u64() % 4),
            static_cast<int>(rng.next_u64() % 2));
        const fabric::RouteEdge e{src, wire};
        const bool on = fab.net_exists(net) && fab.net(net).has_edge(e);
        if (on)
          op.remove_edge(net, e);
        else
          op.add_edge(net, e);
        break;
      }
      case 4: {
        const auto node = g.out_pin(clb, static_cast<int>(rng.next_u64() % 4),
                                    false);
        const bool on = fab.net_exists(net) && fab.net(net).has_source(node);
        if (on)
          op.detach_source(net, node);
        else
          op.attach_source(net, node);
        break;
      }
    }
  }
  return op;
}

// Sweep axes: geometry selector (tiny / tiny_dense / the paper's XCV200)
// and write granularity.
class FlatPathEquivalence
    : public ::testing::TestWithParam<std::tuple<int, WriteGranularity>> {};

TEST_P(FlatPathEquivalence, MatchesSetMapReferenceOnRandomStreams) {
  const auto& [geom_sel, gran] = GetParam();
  const DeviceGeometry geom = geom_sel == 0   ? DeviceGeometry::tiny(6, 6)
                              : geom_sel == 1 ? DeviceGeometry::tiny_dense(6, 6)
                                              : DeviceGeometry::xcv200();
  Fabric fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController ctl(fab, port, gran);
  ReferencePath ref(fab, port, gran);
  const auto net = fab.create_net("n");

  // Seed depends on geometry only: every granularity replays the identical
  // stream for a given geometry.
  Rng rng(geom_sel == 1 ? 0xD15Eu : geom_sel == 2 ? 0x2C00u : 0xF1A7u);
  ApplyResult ref_totals;
  for (int step = 0; step < 150; ++step) {
    const ConfigOp op = random_op(rng, geom, net, fab, step);

    // Reference results against the current fabric, before anything applies.
    const std::set<FrameAddress> ref_frames = ref.frames_of(op);
    const auto ref_deltas = ref.deltas_of(op);
    const ApplyResult ref_result = ref.price(ref_frames, ref_deltas);

    // Frame mapping: same addresses, same order.
    const FrameSet frames = ctl.frames_of(op);
    const auto addrs = to_addresses(frames, ctl.index());
    ASSERT_EQ(addrs.size(), ref_frames.size()) << "step " << step;
    EXPECT_TRUE(std::equal(addrs.begin(), addrs.end(), ref_frames.begin()))
        << "step " << step;

    // Preview agrees field by field.
    const ApplyResult pre = ctl.preview(op);
    EXPECT_EQ(pre.frames_written, ref_result.frames_written) << "step " << step;
    EXPECT_EQ(pre.frames_skipped, ref_result.frames_skipped) << "step " << step;
    EXPECT_EQ(pre.columns_touched, ref_result.columns_touched)
        << "step " << step;
    EXPECT_EQ(pre.time, ref_result.time) << "step " << step;

    // Apply agrees too (no injected faults, so the reference's simulated
    // deltas equal apply's observed ones), and the shadow images stay in
    // lockstep.
    const ApplyResult got = ctl.apply(op);
    ref.commit(ref_deltas);
    EXPECT_EQ(got.frames_written, ref_result.frames_written) << "step " << step;
    EXPECT_EQ(got.frames_skipped, ref_result.frames_skipped) << "step " << step;
    EXPECT_EQ(got.columns_touched, ref_result.columns_touched)
        << "step " << step;
    EXPECT_EQ(got.time, ref_result.time) << "step " << step;

    ref_totals.frames_written += ref_result.frames_written;
    ref_totals.frames_skipped += ref_result.frames_skipped;
    ref_totals.columns_touched += ref_result.columns_touched;
    ref_totals.time += ref_result.time;
  }

  // Shadow image: digest-identical on every frame the stream ever touched,
  // and the same ever-touched count.
  EXPECT_EQ(ctl.image().tracked_frames(), ref.tracked());
  for (const FrameAddress& f : ref.touched())
    EXPECT_EQ(ctl.image().digest(f), ref.digest(f)) << f.to_string();

  // Running totals: identical accounting over the whole stream.
  EXPECT_EQ(ctl.totals().frames_written, ref_totals.frames_written);
  EXPECT_EQ(ctl.totals().frames_skipped, ref_totals.frames_skipped);
  EXPECT_EQ(ctl.totals().columns_touched, ref_totals.columns_touched);
  EXPECT_EQ(ctl.totals().time, ref_totals.time);
}

// Batching on the same random streams (cell, edge and source actions):
// the batched fabric and image end where a twin controller applying each
// op alone ends, every transaction is priced as the reference prices the
// merged op (the union of its ops' frames; under kDirtyFrame the frames its
// net content delta changes), and under kColumn / kFrame the unbatched
// baseline is the sum of the reference's per-op prices.
TEST_P(FlatPathEquivalence, BatcherMatchesPerOpTwinAndBatchUnionPrices) {
  const auto& [geom_sel, gran] = GetParam();
  const DeviceGeometry geom = geom_sel == 0   ? DeviceGeometry::tiny(6, 6)
                              : geom_sel == 1 ? DeviceGeometry::tiny_dense(6, 6)
                                              : DeviceGeometry::xcv200();
  constexpr int kMaxOps = 3;
  Fabric batched_fab(geom);
  Fabric twin_fab(geom);
  config::BoundaryScanPort port;
  config::ConfigController batched_ctl(batched_fab, port, gran);
  config::ConfigController twin_ctl(twin_fab, port, gran);
  runtime::TransactionBatcher batcher(batched_ctl,
                                      runtime::BatchOptions{.max_ops = kMaxOps});
  ReferencePath ref(twin_fab, port, gran);
  const auto net = batched_fab.create_net("n");
  ASSERT_EQ(twin_fab.create_net("n"), net);

  Rng rng(geom_sel == 1 ? 0xBA7Du : geom_sel == 2 ? 0xBA72u : 0xBA70u);
  ApplyResult per_op;   // sum of the reference's per-op prices
  ApplyResult batched;  // sum of the reference's per-batch prices
  int step = 0;
  for (int batch = 0; batch < 40; ++batch) {
    // A batch's ops are drawn against the twin as it stands at the batch
    // start, which is also the batched fabric's state at that point.
    std::vector<ConfigOp> ops;
    ConfigOp merged("batch");
    for (int k = 0; k < kMaxOps; ++k, ++step) {
      ops.push_back(random_op(rng, geom, net, twin_fab, step));
      merged.actions.insert(merged.actions.end(), ops.back().actions.begin(),
                            ops.back().actions.end());
    }
    const ApplyResult whole =
        ref.price(ref.frames_of(merged), ref.deltas_of(merged));
    batched.frames_written += whole.frames_written;
    batched.frames_skipped += whole.frames_skipped;
    batched.columns_touched += whole.columns_touched;
    batched.time += whole.time;

    for (const ConfigOp& op : ops) {
      const ApplyResult alone = ref.price(ref.frames_of(op), ref.deltas_of(op));
      per_op.frames_written += alone.frames_written;
      per_op.frames_skipped += alone.frames_skipped;
      per_op.columns_touched += alone.columns_touched;
      per_op.time += alone.time;
      twin_ctl.apply(op);
      batcher.enqueue(op);
    }
    ASSERT_EQ(batcher.pending_ops(), 0) << "batch " << batch;
  }
  batcher.flush();

  // The streams exercise what batching changes: shared frames written once,
  // and under kDirtyFrame writes a later op undoes within a batch.
  EXPECT_LT(batched.frames_written, per_op.frames_written);
  if (gran == WriteGranularity::kDirtyFrame) {
    EXPECT_GT(batched.frames_skipped, 0);
  }
  EXPECT_FALSE(twin_fab.net(net).edges.empty());

  const runtime::BatchStats& s = batcher.stats();
  EXPECT_EQ(s.ops_in, step);
  EXPECT_EQ(s.transactions, step / kMaxOps);
  EXPECT_EQ(s.frames_written, batched.frames_written);
  EXPECT_EQ(s.frames_skipped, batched.frames_skipped);
  EXPECT_EQ(s.column_writes, batched.columns_touched);
  EXPECT_EQ(s.time, batched.time);
  if (gran != WriteGranularity::kDirtyFrame) {
    EXPECT_EQ(s.unbatched_frames, per_op.frames_written);
    EXPECT_EQ(s.unbatched_frames_skipped, 0);
    EXPECT_EQ(s.unbatched_column_writes, per_op.columns_touched);
    EXPECT_EQ(s.unbatched_time, per_op.time);
  }

  // Same fabric end state and digests as the per-op twin.
  const Fabric::State a = batched_fab.capture();
  const Fabric::State b = twin_fab.capture();
  EXPECT_TRUE(a.clbs == b.clbs);
  EXPECT_EQ(batched_fab.net(net).edges, twin_fab.net(net).edges);
  EXPECT_EQ(batched_fab.net(net).sources, twin_fab.net(net).sources);
  for (std::int32_t id = 0; id < batched_ctl.index().total_frames(); ++id)
    EXPECT_EQ(batched_ctl.image().digest_id(id), twin_ctl.image().digest_id(id))
        << batched_ctl.index().address(id).to_string();
  EXPECT_NO_THROW(batched_ctl.audit_image());
  EXPECT_NO_THROW(twin_ctl.audit_image());
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometriesAndGranularities, FlatPathEquivalence,
    ::testing::Combine(
        ::testing::Values(0, 1, 2),
        ::testing::Values(WriteGranularity::kColumn, WriteGranularity::kFrame,
                          WriteGranularity::kDirtyFrame)),
    [](const auto& pinfo) {
      const int geom_sel = std::get<0>(pinfo.param);
      const char* g = geom_sel == 0   ? "tiny"
                      : geom_sel == 1 ? "tiny_dense"
                                      : "xcv200";
      return std::string(g) + "_" + config::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace relogic
