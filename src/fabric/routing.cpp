#include "relogic/fabric/routing.hpp"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "relogic/common/audit.hpp"
#include "relogic/common/error.hpp"
#include "relogic/common/thread_annotations.hpp"

namespace relogic::fabric {

namespace {
/// Long lines are tappable from singles every this many tiles.
constexpr int kLongTapSpacing = 3;

constexpr int kOutPinsPerTile = 4 * 2;              // 4 cells x {X, XQ}
constexpr int kInPinsPerTile = 4 * kInPorts;        // 4 cells x {I0..I3, CE}
}  // namespace

ClbCoord step(ClbCoord c, Dir d, int n) {
  switch (d) {
    case Dir::kN:
      return ClbCoord{c.row - n, c.col};
    case Dir::kE:
      return ClbCoord{c.row, c.col + n};
    case Dir::kS:
      return ClbCoord{c.row + n, c.col};
    case Dir::kW:
      return ClbCoord{c.row, c.col - n};
  }
  return c;
}

Dir opposite(Dir d) {
  return static_cast<Dir>((static_cast<int>(d) + 2) % 4);
}

std::string NodeInfo::to_string() const {
  switch (kind) {
    case NodeKind::kOutPin:
      return tile.to_string() + ".cell" + std::to_string(a) +
             (b ? ".XQ" : ".X");
    case NodeKind::kInPin: {
      static const char* ports[] = {"I0", "I1", "I2", "I3", "CE", "BX"};
      return tile.to_string() + ".cell" + std::to_string(a) + "." + ports[b];
    }
    case NodeKind::kSingle:
      return tile.to_string() + ".S" + "NESW"[a] + std::to_string(b);
    case NodeKind::kHex:
      return tile.to_string() + ".H" + "NESW"[a] + std::to_string(b);
    case NodeKind::kLongRow:
      return "LR" + std::to_string(tile.row) + "." + std::to_string(a);
    case NodeKind::kLongCol:
      return "LC" + std::to_string(tile.col) + "." + std::to_string(a);
    case NodeKind::kPad:
      return tile.to_string() + ".PAD" + std::to_string(a);
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RoutingSkeleton — node-id layout
// ---------------------------------------------------------------------------

RoutingSkeleton::RoutingSkeleton(const DeviceGeometry& geom) : geom_(geom) {
  const int s = geom_.singles_per_dir;
  const int h = geom_.hexes_per_dir;
  tile_stride_ = kOutPinsPerTile + kInPinsPerTile + 4 * s + 4 * h;
  tile_nodes_ = static_cast<std::size_t>(geom_.clb_rows) * geom_.clb_cols *
                tile_stride_;
  long_row_base_ = tile_nodes_;
  long_col_base_ =
      long_row_base_ + static_cast<std::size_t>(geom_.clb_rows) *
                           geom_.longs_per_track;
  pad_base_ = long_col_base_ + static_cast<std::size_t>(geom_.clb_cols) *
                                   geom_.longs_per_track;
  node_count_ = pad_base_ + static_cast<std::size_t>(geom_.clb_rows) *
                                geom_.clb_cols * geom_.pads_per_tile;

  RELOGIC_CHECK_MSG(geom_.clb_rows <= 0x7FFF && geom_.clb_cols <= 0x7FFF,
                    "tile coordinates exceed the packed node table");
  nodes_.resize(node_count_);
  for (std::size_t n = 0; n < node_count_; ++n) {
    const NodeInfo i = decode(static_cast<NodeId>(n));
    nodes_[n] = PackedNode{i.kind, i.a, i.b,
                           static_cast<std::int16_t>(i.tile.row),
                           static_cast<std::int16_t>(i.tile.col)};
  }
}

NodeId RoutingSkeleton::out_pin(ClbCoord t, int cell, bool registered) const {
  RELOGIC_CHECK(geom_.in_bounds(t) && cell >= 0 && cell < 4);
  const std::size_t base =
      (static_cast<std::size_t>(t.row) * geom_.clb_cols + t.col) *
      tile_stride_;
  return static_cast<NodeId>(base + cell * 2 + (registered ? 1 : 0));
}

NodeId RoutingSkeleton::in_pin(ClbCoord t, int cell, CellPort p) const {
  RELOGIC_CHECK(geom_.in_bounds(t) && cell >= 0 && cell < 4);
  const std::size_t base =
      (static_cast<std::size_t>(t.row) * geom_.clb_cols + t.col) *
      tile_stride_;
  return static_cast<NodeId>(base + kOutPinsPerTile + cell * kInPorts +
                             static_cast<int>(p));
}

NodeId RoutingSkeleton::single(ClbCoord t, Dir d, int index) const {
  RELOGIC_CHECK(geom_.in_bounds(t) && index >= 0 &&
                index < geom_.singles_per_dir);
  const std::size_t base =
      (static_cast<std::size_t>(t.row) * geom_.clb_cols + t.col) *
      tile_stride_;
  return static_cast<NodeId>(base + kOutPinsPerTile + kInPinsPerTile +
                             static_cast<int>(d) * geom_.singles_per_dir +
                             index);
}

NodeId RoutingSkeleton::hex(ClbCoord t, Dir d, int index) const {
  RELOGIC_CHECK(geom_.in_bounds(t) && index >= 0 &&
                index < geom_.hexes_per_dir);
  const std::size_t base =
      (static_cast<std::size_t>(t.row) * geom_.clb_cols + t.col) *
      tile_stride_;
  return static_cast<NodeId>(base + kOutPinsPerTile + kInPinsPerTile +
                             4 * geom_.singles_per_dir +
                             static_cast<int>(d) * geom_.hexes_per_dir +
                             index);
}

NodeId RoutingSkeleton::long_row(int row, int track) const {
  RELOGIC_CHECK(row >= 0 && row < geom_.clb_rows && track >= 0 &&
                track < geom_.longs_per_track);
  return static_cast<NodeId>(long_row_base_ +
                             static_cast<std::size_t>(row) *
                                 geom_.longs_per_track +
                             track);
}

NodeId RoutingSkeleton::long_col(int col, int track) const {
  RELOGIC_CHECK(col >= 0 && col < geom_.clb_cols && track >= 0 &&
                track < geom_.longs_per_track);
  return static_cast<NodeId>(long_col_base_ +
                             static_cast<std::size_t>(col) *
                                 geom_.longs_per_track +
                             track);
}

NodeId RoutingSkeleton::pad(ClbCoord t, int index) const {
  RELOGIC_CHECK(geom_.in_bounds(t) && index >= 0 &&
                index < geom_.pads_per_tile);
  RELOGIC_CHECK_MSG(geom_.is_boundary(t), "pads exist only at the periphery");
  return static_cast<NodeId>(
      pad_base_ +
      (static_cast<std::size_t>(t.row) * geom_.clb_cols + t.col) *
          geom_.pads_per_tile +
      index);
}

NodeInfo RoutingSkeleton::decode(NodeId n) const {
  RELOGIC_CHECK(n < node_count_);
  NodeInfo r{};
  if (n < tile_nodes_) {
    const std::size_t tile_index = n / tile_stride_;
    const int within = static_cast<int>(n % tile_stride_);
    r.tile = ClbCoord{static_cast<int>(tile_index) / geom_.clb_cols,
                      static_cast<int>(tile_index) % geom_.clb_cols};
    if (within < kOutPinsPerTile) {
      r.kind = NodeKind::kOutPin;
      r.a = static_cast<std::uint8_t>(within / 2);
      r.b = static_cast<std::uint8_t>(within % 2);
    } else if (within < kOutPinsPerTile + kInPinsPerTile) {
      const int w = within - kOutPinsPerTile;
      r.kind = NodeKind::kInPin;
      r.a = static_cast<std::uint8_t>(w / kInPorts);
      r.b = static_cast<std::uint8_t>(w % kInPorts);
    } else if (within <
               kOutPinsPerTile + kInPinsPerTile + 4 * geom_.singles_per_dir) {
      const int w = within - kOutPinsPerTile - kInPinsPerTile;
      r.kind = NodeKind::kSingle;
      r.a = static_cast<std::uint8_t>(w / geom_.singles_per_dir);
      r.b = static_cast<std::uint8_t>(w % geom_.singles_per_dir);
    } else {
      const int w = within - kOutPinsPerTile - kInPinsPerTile -
                    4 * geom_.singles_per_dir;
      r.kind = NodeKind::kHex;
      r.a = static_cast<std::uint8_t>(w / geom_.hexes_per_dir);
      r.b = static_cast<std::uint8_t>(w % geom_.hexes_per_dir);
    }
    return r;
  }
  if (n < long_col_base_) {
    const std::size_t w = n - long_row_base_;
    r.kind = NodeKind::kLongRow;
    r.tile = ClbCoord{static_cast<int>(w / geom_.longs_per_track), -1};
    r.a = static_cast<std::uint8_t>(w % geom_.longs_per_track);
    return r;
  }
  if (n < pad_base_) {
    const std::size_t w = n - long_col_base_;
    r.kind = NodeKind::kLongCol;
    r.tile = ClbCoord{-1, static_cast<int>(w / geom_.longs_per_track)};
    r.a = static_cast<std::uint8_t>(w % geom_.longs_per_track);
    return r;
  }
  const std::size_t w = n - pad_base_;
  const std::size_t tile_index = w / geom_.pads_per_tile;
  r.kind = NodeKind::kPad;
  r.tile = ClbCoord{static_cast<int>(tile_index) / geom_.clb_cols,
                    static_cast<int>(tile_index) % geom_.clb_cols};
  r.a = static_cast<std::uint8_t>(w % geom_.pads_per_tile);
  return r;
}

bool RoutingSkeleton::wire_target(ClbCoord t, Dir d, int span,
                                  ClbCoord& out) const {
  ClbCoord far = step(t, d, span);
  if (!geom_.in_bounds(far)) return false;
  out = far;
  return true;
}

std::span<const NodeId> RoutingSkeleton::fanout(NodeId n) const {
  RELOGIC_CHECK(n < node_count_);
  const auto begin = fanout_offsets_[n];
  const auto end = fanout_offsets_[n + 1];
  return {fanout_edges_.data() + begin, fanout_edges_.data() + end};
}

bool RoutingSkeleton::has_edge(NodeId from, NodeId to) const {
  const auto row = fanout(from);
  return std::find(row.begin(), row.end(), to) != row.end();
}

// ---------------------------------------------------------------------------
// RoutingSkeleton — builders
// ---------------------------------------------------------------------------

template <class Emit>
void RoutingSkeleton::enumerate_pips(Emit&& emit) const {
  enumerate_pips_rows(0, geom_.clb_rows, std::forward<Emit>(emit));
}

template <class Emit>
void RoutingSkeleton::enumerate_pips_rows(int row_begin, int row_end,
                                          Emit&& emit) const {
  const DeviceGeometry& g = geom_;
  const int s = g.singles_per_dir;
  const int h = g.hexes_per_dir;
  const int lpt = g.longs_per_track;

  // Emission runs once per edge per builder pass — at XCV1000 that is ten
  // million edges — so ids are formed by pure addition from per-tile bases
  // instead of the checked public constructors (whose bounds checks and
  // per-call tile multiply dominated the seed's build time). The loop
  // structure below guarantees every id is in range; the public API keeps
  // its checks. Emission ORDER is load-bearing: fanout() preserves it and
  // router exploration order (fig5's byte-pinned output) depends on it.
  const std::size_t stride = static_cast<std::size_t>(tile_stride_);
  const auto tile_base = [&](ClbCoord t) {
    return (static_cast<std::size_t>(t.row) * g.clb_cols + t.col) * stride;
  };
  // Offsets of each node family within one tile's id block.
  const std::size_t single0 = kOutPinsPerTile + kInPinsPerTile;
  const std::size_t hex0 = single0 + 4 * static_cast<std::size_t>(s);
  const auto single_at = [&](std::size_t base, int d, int i) {
    return static_cast<NodeId>(base + single0 + d * s + i);
  };
  const auto hex_at = [&](std::size_t base, int d, int i) {
    return static_cast<NodeId>(base + hex0 + d * h + i);
  };

  for (int row = row_begin; row < row_end; ++row) {
    for (int col = 0; col < g.clb_cols; ++col) {
      const ClbCoord t{row, col};
      const std::size_t tb = tile_base(t);

      // OMUX: every cell output drives every single and hex leaving its tile.
      for (int cell = 0; cell < 4; ++cell) {
        for (int q = 0; q < 2; ++q) {
          const NodeId out = static_cast<NodeId>(tb + cell * 2 + q);
          for (int d = 0; d < 4; ++d) {
            for (int i = 0; i < s; ++i) emit(out, single_at(tb, d, i));
            for (int i = 0; i < h; ++i) emit(out, hex_at(tb, d, i));
          }
        }
      }

      // Input pads drive singles leaving the tile.
      if (g.is_boundary(t)) {
        const std::size_t pad0 =
            pad_base_ + (static_cast<std::size_t>(row) * g.clb_cols + col) *
                            g.pads_per_tile;
        for (int p = 0; p < g.pads_per_tile; ++p) {
          const NodeId pd = static_cast<NodeId>(pad0 + p);
          for (int d = 0; d < 4; ++d)
            for (int i = 0; i < s; ++i) emit(pd, single_at(tb, d, i));
        }
      }

      for (int d = 0; d < 4; ++d) {
        const Dir dir = static_cast<Dir>(d);

        // Singles leaving tile t land in the neighbouring tile.
        ClbCoord far;
        if (wire_target(t, dir, 1, far)) {
          const std::size_t fb = tile_base(far);
          const bool far_boundary = g.is_boundary(far);
          const std::size_t far_pad0 =
              pad_base_ + (static_cast<std::size_t>(far.row) * g.clb_cols +
                           far.col) *
                              g.pads_per_tile;
          const std::size_t far_lr =
              long_row_base_ + static_cast<std::size_t>(far.row) * lpt;
          const std::size_t far_lc =
              long_col_base_ + static_cast<std::size_t>(far.col) * lpt;
          for (int i = 0; i < s; ++i) {
            const NodeId w = single_at(tb, d, i);
            // IMUX at the far tile: any input pin.
            for (int cell = 0; cell < 4; ++cell)
              for (int p = 0; p < kInPorts; ++p)
                emit(w, static_cast<NodeId>(fb + kOutPinsPerTile +
                                            cell * kInPorts + p));
            // Output pads at the far tile.
            if (far_boundary)
              for (int p = 0; p < g.pads_per_tile; ++p)
                emit(w, static_cast<NodeId>(far_pad0 + p));
            // Switch matrix: straight, and turns on index i and i^1.
            emit(w, single_at(fb, d, i));
            for (int turn : {1, 3}) {
              const int nd = (d + turn) % 4;
              emit(w, single_at(fb, nd, i));
              if ((i ^ 1) < s) emit(w, single_at(fb, nd, i ^ 1));
            }
            // Entry into hex lines.
            emit(w, hex_at(fb, d, i % h));
            // Taps onto long lines at spaced tiles.
            if ((far.col % kLongTapSpacing) == 0)
              for (int tr = 0; tr < lpt; ++tr)
                emit(w, static_cast<NodeId>(far_lr + tr));
            if ((far.row % kLongTapSpacing) == 0)
              for (int tr = 0; tr < lpt; ++tr)
                emit(w, static_cast<NodeId>(far_lc + tr));
          }

          // Hex lines land hex_span tiles away (clipped hexes do not exist).
          ClbCoord hex_far;
          if (wire_target(t, dir, g.hex_span, hex_far)) {
            const std::size_t hb = tile_base(hex_far);
            const int sj = std::min(s, 4);
            for (int i = 0; i < h; ++i) {
              const NodeId w = hex_at(tb, d, i);
              for (int cell = 0; cell < 4; ++cell)
                for (int p = 0; p < kInPorts; ++p)
                  emit(w, static_cast<NodeId>(hb + kOutPinsPerTile +
                                              cell * kInPorts + p));
              // Chain onward or fan out to singles.
              emit(w, hex_at(hb, d, i));
              for (int dd = 0; dd < 4; ++dd)
                for (int j = 0; j < sj; ++j) emit(w, single_at(hb, dd, j));
            }
          }
        }
      }

      // Long lines drive singles at every tile they cross.
      const std::size_t lr0 =
          long_row_base_ + static_cast<std::size_t>(row) * lpt;
      const std::size_t lc0 =
          long_col_base_ + static_cast<std::size_t>(col) * lpt;
      const int sj = std::min(s, 2);
      for (int tr = 0; tr < lpt; ++tr) {
        for (int d = 0; d < 4; ++d)
          for (int j = 0; j < sj; ++j) {
            emit(static_cast<NodeId>(lr0 + tr), single_at(tb, d, j));
            emit(static_cast<NodeId>(lc0 + tr), single_at(tb, d, j));
          }
      }
    }
  }
}

template <class Emit>
void RoutingSkeleton::enumerate_pips_reference(Emit&& emit) const {
  const DeviceGeometry& g = geom_;
  const int s = g.singles_per_dir;
  const int h = g.hexes_per_dir;

  for (int row = 0; row < g.clb_rows; ++row) {
    for (int col = 0; col < g.clb_cols; ++col) {
      const ClbCoord t{row, col};

      // OMUX: every cell output drives every single and hex leaving its tile.
      for (int cell = 0; cell < 4; ++cell) {
        for (int q = 0; q < 2; ++q) {
          const NodeId out = out_pin(t, cell, q != 0);
          for (int d = 0; d < 4; ++d) {
            for (int i = 0; i < s; ++i)
              emit(out, single(t, static_cast<Dir>(d), i));
            for (int i = 0; i < h; ++i)
              emit(out, hex(t, static_cast<Dir>(d), i));
          }
        }
      }

      // Input pads drive singles leaving the tile.
      if (g.is_boundary(t)) {
        for (int p = 0; p < g.pads_per_tile; ++p) {
          const NodeId pd = pad(t, p);
          for (int d = 0; d < 4; ++d)
            for (int i = 0; i < s; ++i)
              emit(pd, single(t, static_cast<Dir>(d), i));
        }
      }

      for (int d = 0; d < 4; ++d) {
        const Dir dir = static_cast<Dir>(d);

        // Singles leaving tile t land in the neighbouring tile.
        ClbCoord far;
        if (wire_target(t, dir, 1, far)) {
          for (int i = 0; i < s; ++i) {
            const NodeId w = single(t, dir, i);
            // IMUX at the far tile: any input pin.
            for (int cell = 0; cell < 4; ++cell)
              for (int p = 0; p < kInPorts; ++p)
                emit(w, in_pin(far, cell, static_cast<CellPort>(p)));
            // Output pads at the far tile.
            if (g.is_boundary(far))
              for (int p = 0; p < g.pads_per_tile; ++p)
                emit(w, pad(far, p));
            // Switch matrix: straight, and turns on index i and i^1.
            emit(w, single(far, dir, i));
            for (int turn : {1, 3}) {
              const Dir nd = static_cast<Dir>((d + turn) % 4);
              emit(w, single(far, nd, i));
              if ((i ^ 1) < s) emit(w, single(far, nd, i ^ 1));
            }
            // Entry into hex lines.
            emit(w, hex(far, dir, i % h));
            // Taps onto long lines at spaced tiles.
            if ((far.col % kLongTapSpacing) == 0)
              for (int tr = 0; tr < g.longs_per_track; ++tr)
                emit(w, long_row(far.row, tr));
            if ((far.row % kLongTapSpacing) == 0)
              for (int tr = 0; tr < g.longs_per_track; ++tr)
                emit(w, long_col(far.col, tr));
          }

          // Hex lines land hex_span tiles away (clipped hexes do not exist).
          ClbCoord hex_far;
          if (wire_target(t, dir, g.hex_span, hex_far)) {
            for (int i = 0; i < h; ++i) {
              const NodeId w = hex(t, dir, i);
              for (int cell = 0; cell < 4; ++cell)
                for (int p = 0; p < kInPorts; ++p)
                  emit(w, in_pin(hex_far, cell, static_cast<CellPort>(p)));
              // Chain onward or fan out to singles.
              emit(w, hex(hex_far, dir, i));
              for (int dd = 0; dd < 4; ++dd)
                for (int j = 0; j < std::min(s, 4); ++j)
                  emit(w, single(hex_far, static_cast<Dir>(dd), j));
            }
          }
        }
      }

      // Long lines drive singles at every tile they cross.
      for (int tr = 0; tr < g.longs_per_track; ++tr) {
        for (int d = 0; d < 4; ++d)
          for (int j = 0; j < std::min(s, 2); ++j) {
            emit(long_row(row, tr), single(t, static_cast<Dir>(d), j));
            emit(long_col(col, tr), single(t, static_cast<Dir>(d), j));
          }
      }
    }
  }
}

namespace {

/// Fork-join width for the skeleton's pass-2 fill. Bands write disjoint
/// ranges, so ANY width produces byte-identical arrays — the count only
/// trades wall-clock. Small devices stay serial: spawning
/// threads costs more than the work saves, and skeletons for test-sized
/// fabrics are built constantly.
int build_threads(std::size_t edge_count, int rows) {
  if (edge_count < (1u << 21) || rows < 16) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(hw ? hw : 1u, 8u));
}

}  // namespace

std::shared_ptr<const RoutingSkeleton> RoutingSkeleton::build(
    const DeviceGeometry& geom) {
  std::shared_ptr<RoutingSkeleton> s(new RoutingSkeleton(geom));

  // Pass 1: per-node out-degree.
  std::vector<std::uint32_t> degree(s->node_count_, 0);
  s->enumerate_pips([&degree](NodeId from, NodeId) { ++degree[from]; });

  // Prefix sum sizes the CSR arrays exactly.
  s->fanout_offsets_.assign(s->node_count_ + 1, 0);
  std::uint64_t total = 0;
  for (std::size_t n = 0; n < s->node_count_; ++n) {
    s->fanout_offsets_[n] = static_cast<std::uint32_t>(total);
    total += degree[n];
  }
  RELOGIC_CHECK_MSG(total <= 0xFFFFFFFFull,
                    "routing graph exceeds 32-bit edge offsets");
  s->fanout_offsets_[s->node_count_] = static_cast<std::uint32_t>(total);

  // Pass 2: fill in place through per-row cursors. Tile rows partition the
  // emission: every from-node is owned by one tile row — its whole CSR row
  // is written by one band — except long-column lines, which every row
  // crosses in tile order; since each tile contributes exactly
  // 4*min(singles_per_dir, 2) edges per track to each long line, a band
  // starting at tile row r0 starts writing long-column rows at a fixed,
  // precomputable offset. Disjoint writes, byte-identical result at any
  // thread count.
  s->fanout_edges_.resize(total);
  auto* edges = s->fanout_edges_.data();
  const int threads =
      build_threads(static_cast<std::size_t>(total), geom.clb_rows);
  if (threads == 1) {
    std::copy(s->fanout_offsets_.begin(), s->fanout_offsets_.end() - 1,
              degree.begin());
    s->enumerate_pips([&degree, edges](NodeId from, NodeId to) {
      edges[degree[from]++] = to;
    });
  } else {
    const std::uint32_t lc_per_tile =
        4u * static_cast<std::uint32_t>(std::min(geom.singles_per_dir, 2));
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int k = 0; k < threads; ++k) {
      const int r0 = geom.clb_rows * k / threads;
      const int r1 = geom.clb_rows * (k + 1) / threads;
      pool.emplace_back([&s, edges, r0, r1, lc_per_tile] {
        std::vector<std::uint32_t> cur(s->fanout_offsets_.begin(),
                                       s->fanout_offsets_.end() - 1);
        const std::uint32_t lc_skip =
            static_cast<std::uint32_t>(r0) * lc_per_tile;
        for (std::size_t n = s->long_col_base_; n < s->pad_base_; ++n)
          cur[n] += lc_skip;
        s->enumerate_pips_rows(r0, r1, [&cur, edges](NodeId from, NodeId to) {
          edges[cur[from]++] = to;
        });
      });
    }
    for (auto& t : pool) t.join();
  }
  return s;
}

std::shared_ptr<const RoutingSkeleton> RoutingSkeleton::build_reference(
    const DeviceGeometry& geom) {
  std::shared_ptr<RoutingSkeleton> s(new RoutingSkeleton(geom));

  std::vector<std::vector<NodeId>> staging(s->node_count_);
  s->enumerate_pips_reference(
      [&staging](NodeId from, NodeId to) { staging[from].push_back(to); });

  s->fanout_offsets_.assign(s->node_count_ + 1, 0);
  std::size_t total = 0;
  for (std::size_t n = 0; n < s->node_count_; ++n) {
    s->fanout_offsets_[n] = static_cast<std::uint32_t>(total);
    total += staging[n].size();
  }
  s->fanout_offsets_[s->node_count_] = static_cast<std::uint32_t>(total);
  s->fanout_edges_.reserve(total);
  for (std::size_t n = 0; n < s->node_count_; ++n) {
    s->fanout_edges_.insert(s->fanout_edges_.end(), staging[n].begin(),
                            staging[n].end());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Skeleton cache
// ---------------------------------------------------------------------------

namespace {

/// Cache key covering every geometry field: two geometries share a skeleton
/// only if nothing about them differs (including the name and fields the
/// routing pool does not read today — cheap insurance against a future
/// field silently aliasing two distinct pools).
std::string geometry_key(const DeviceGeometry& g) {
  std::string key = g.name;
  for (int v : {g.clb_rows, g.clb_cols, g.cells_per_clb, g.singles_per_dir,
                g.hexes_per_dir, g.longs_per_track, g.hex_span,
                g.pads_per_tile, g.frames_per_clb_column,
                g.frames_per_iob_column, g.frames_center_column,
                g.frames_per_cell_config}) {
    key += '|';
    key += std::to_string(v);
  }
  return key;
}

struct CacheEntry {
  std::shared_ptr<const RoutingSkeleton> skeleton;
  /// RELOGIC_AUDIT builds cross-check the entry against a fresh build on
  /// its first cache hit; later hits skip the (expensive) recheck.
  bool audited = false;
};

Mutex& cache_mutex() {
  static Mutex mu;
  return mu;
}

std::unordered_map<std::string, CacheEntry>& cache()
    RELOGIC_REQUIRES(cache_mutex()) {
  // Leaked intentionally: Fabrics owned by static-duration objects may
  // release their skeleton handles after normal static destruction.
  static auto* map = new std::unordered_map<std::string, CacheEntry>();
  return *map;
}

void audit_entry(const CacheEntry& entry) {
  const auto fresh = RoutingSkeleton::build_reference(entry.skeleton->geometry());
  RELOGIC_AUDIT_CHECK(entry.skeleton->same_adjacency(*fresh),
                      "routing-skeleton cache",
                      "cached skeleton for geometry '" +
                          entry.skeleton->geometry().name +
                          "' diverges from a fresh single-use build");
}

}  // namespace

std::shared_ptr<const RoutingSkeleton> acquire_routing_skeleton(
    const DeviceGeometry& geom) {
  MutexLock lock(cache_mutex());
  auto& entry = cache()[geometry_key(geom)];
  if (!entry.skeleton) {
    entry.skeleton = RoutingSkeleton::build(geom);
    return entry.skeleton;
  }
  if constexpr (audit_enabled()) {
    if (!entry.audited) {
      audit_entry(entry);
      entry.audited = true;
    }
  }
  return entry.skeleton;
}

std::size_t routing_skeleton_cache_size() {
  MutexLock lock(cache_mutex());
  return cache().size();
}

void clear_routing_skeleton_cache() {
  MutexLock lock(cache_mutex());
  cache().clear();
}

void audit_routing_skeleton_cache() {
  MutexLock lock(cache_mutex());
  for (auto& [key, entry] : cache()) {
    audit_entry(entry);
    entry.audited = true;
  }
}

// ---------------------------------------------------------------------------
// RoutingGraph — per-device occupancy overlay
// ---------------------------------------------------------------------------

RoutingGraph::RoutingGraph(const DeviceGeometry& geom)
    : skel_(acquire_routing_skeleton(geom)),
      occupancy_(skel_->node_count(), kNoNet) {}

void RoutingGraph::occupy(NodeId n, NetId net) {
  RELOGIC_CHECK(n < occupancy_.size() && net != kNoNet);
  RELOGIC_CHECK_MSG(occupancy_[n] == kNoNet || occupancy_[n] == net,
                    "routing node " + skel_->info(n).to_string() +
                        " already occupied by another net");
  if (occupancy_[n] == kNoNet) ++occupied_count_;
  occupancy_[n] = net;
}

void RoutingGraph::release(NodeId n) {
  RELOGIC_CHECK(n < occupancy_.size());
  if (occupancy_[n] != kNoNet) --occupied_count_;
  occupancy_[n] = kNoNet;
}

}  // namespace relogic::fabric
