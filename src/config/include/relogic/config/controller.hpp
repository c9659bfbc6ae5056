// ConfigController: the partial-reconfiguration engine.
//
// Every structural change to the fabric that would, on the real device, be
// carried by configuration frames is expressed as a ConfigOp — an ordered
// batch of cell writes and routing (PIP) changes applied atomically in one
// configuration-port transaction. The controller:
//
//  * applies the actions to the Fabric (which suppresses identical
//    rewrites, the glitch-free-rewrite property),
//  * maps each action to its controlling frame(s) via FrameMapper,
//  * selects the frames actually written per its WriteGranularity policy:
//    whole columns (the JBits-era regime; the paper's 22.6 ms figure was
//    measured there — see DESIGN.md §6.1), the op's exact frame set, or
//    only the frames whose contents change (exact per-op XOR content
//    deltas built from FrameImage tokens; the FrameImage member mirrors
//    the device's frame contents),
//  * charges the configuration-port timing model and accumulates totals.
//
// Granularity affects only what is written (frames, columns, port time,
// and the frames_skipped accounting); the structural effect on the fabric
// is byte-identical across all three policies.
//
// The data path runs on the flat structures of config/frame_index.hpp and
// has one apply path at every granularity. Its only input is the ConfigOp:
// no caller hands the controller a frame set, and one walk
// (for_each_frame_run) maps actions to frames. kColumn and kFrame price the
// op's FrameSet (a sorted dense-id vector built from a per-op word
// bitmap). kDirtyFrame prices only the frames whose content changes, and
// counts the rest of the op's frames as skipped from the cell runs and net
// frames its delta pass records, so it builds no FrameSet. Cell deltas are
// the XOR of the before and after FrameImage::cell_token of each write
// (apply: each effective write), read from the Fabric's own cell array
// (the Fabric is the only copy of the cell state), and accumulate per
// frames_per_cell run; routing deltas live in a flat zero-invariant map
// (FrameDeltaMap), the digest commit is fused with the dirty scan, and
// pricing charges one memoized port transaction per touched column —
// O(frames), not O(columns x frames). The controller registers no
// FabricListener. It keeps mutable scratch buffers so steady-state ops
// allocate nothing; like the Fabric it drives, a controller must not be
// shared across threads. tests/flatpath_test.cpp pins every output — frame
// sets, ApplyResult fields, ConfigTotals, digests — to a literal std::set /
// std::map model of the same semantics at every granularity (DESIGN.md §9).
//
// The controller performs *configuration*; it never touches user state. The
// interaction between configuration writes and live user logic is what the
// relocation engine (relogic::reloc) choreographs on top of this class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "relogic/common/time.hpp"
#include "relogic/config/frame.hpp"
#include "relogic/config/frame_image.hpp"
#include "relogic/config/frame_index.hpp"
#include "relogic/config/granularity.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/obs/trace.hpp"

namespace relogic::config {

/// Cell key of the LUT-RAM legality check: {row, col, cell}, 20 bits each,
/// so distinct cells never alias on any geometry (an aliasing key would
/// silently exempt live LUT-RAM from the check; health_test's
/// CellKeyRegression cases pin this).
inline std::uint64_t pack_cell_key(int row, int col, int cell) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(col)) << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cell));
}

/// Write one logic cell's configuration.
struct CellWrite {
  ClbCoord clb;
  int cell = 0;
  fabric::LogicCellConfig cfg;
};

/// Turn one PIP on (add=true) or off for a net.
struct EdgeChange {
  fabric::NetId net = fabric::kNoNet;
  fabric::RouteEdge edge;
  bool add = true;
};

/// Attach or detach a net source (cell output pin / input pad).
struct SourceChange {
  fabric::NetId net = fabric::kNoNet;
  fabric::NodeId node = fabric::kInvalidNode;
  bool attach = true;
};

using ConfigAction = std::variant<CellWrite, EdgeChange, SourceChange>;

/// One partial-reconfiguration transaction.
struct ConfigOp {
  std::string label;
  std::vector<ConfigAction> actions;

  ConfigOp() = default;
  explicit ConfigOp(std::string label_) : label(std::move(label_)) {}

  ConfigOp& write_cell(ClbCoord clb, int cell,
                       const fabric::LogicCellConfig& cfg) {
    actions.push_back(CellWrite{clb, cell, cfg});
    return *this;
  }
  ConfigOp& clear_cell(ClbCoord clb, int cell) {
    actions.push_back(CellWrite{clb, cell, fabric::LogicCellConfig{}});
    return *this;
  }
  ConfigOp& add_edge(fabric::NetId net, fabric::RouteEdge e) {
    actions.push_back(EdgeChange{net, e, true});
    return *this;
  }
  ConfigOp& remove_edge(fabric::NetId net, fabric::RouteEdge e) {
    actions.push_back(EdgeChange{net, e, false});
    return *this;
  }
  ConfigOp& add_path(fabric::NetId net, const std::vector<fabric::NodeId>& path);
  ConfigOp& attach_source(fabric::NetId net, fabric::NodeId node) {
    actions.push_back(SourceChange{net, node, true});
    return *this;
  }
  ConfigOp& detach_source(fabric::NetId net, fabric::NodeId node) {
    actions.push_back(SourceChange{net, node, false});
    return *this;
  }
  bool empty() const { return actions.empty(); }
};

/// Outcome of applying one ConfigOp.
struct ApplyResult {
  int frames_written = 0;
  /// Frames of the op's exact frame set that kDirtyFrame skipped because
  /// their contents were unchanged (always 0 under kColumn / kFrame).
  int frames_skipped = 0;
  /// Port transactions issued: the frame-address register must be rewritten
  /// whenever the column changes, so each touched column is one transaction
  /// paying the full TAP/header/pad overhead of the port model.
  int columns_touched = 0;
  SimTime time = SimTime::zero();
  /// Number of actions that changed fabric state (the rest were identical
  /// rewrites or redundant routing changes).
  int effective_actions = 0;
};

/// Cumulative controller statistics.
struct ConfigTotals {
  int ops = 0;
  int frames_written = 0;
  int frames_skipped = 0;
  /// Total per-column port transactions (see ApplyResult::columns_touched).
  int columns_touched = 0;
  SimTime time = SimTime::zero();
};

class ConfigController {
 public:
  /// The default granularity is whole-column rewrites (kColumn, the JBits
  /// regime the paper measured).
  ConfigController(fabric::Fabric& fabric, const ConfigPort& port,
                   WriteGranularity granularity = WriteGranularity::kColumn);

  fabric::Fabric& fabric() { return *fabric_; }
  const fabric::Fabric& fabric() const { return *fabric_; }
  const FrameMapper& mapper() const { return mapper_; }
  const ConfigPort& port() const { return *port_; }
  WriteGranularity granularity() const { return granularity_; }
  /// The dense frame-id addressing of this device's geometry.
  const FrameIndex& index() const { return index_; }
  /// Per-frame content digests of everything written through this
  /// controller; read by audit_image() and by tests.
  const FrameImage& image() const { return image_; }

  /// Frames a ConfigOp would write, without applying it. Widened to whole
  /// columns under kColumn; the exact mapped frame set otherwise (for
  /// kDirtyFrame this is the upper bound before dirty filtering). The
  /// out-parameter form lets hot callers reuse one FrameSet allocation.
  void frames_of(const ConfigOp& op, FrameSet& out) const;
  FrameSet frames_of(const ConfigOp& op) const {
    FrameSet out;
    frames_of(op, out);
    return out;
  }

  /// Sequence-aware preview: prices `ops` as if applied in order. The value
  /// overlay of earlier ops persists across the sequence, so under
  /// kDirtyFrame a later op's dirty set reflects what earlier ops already
  /// wrote — an op rewriting an earlier op's content prices as skipped,
  /// exactly as applying the sequence would charge it. Invokes
  /// `visit(index, result, written)` per op, where `written` is the frame
  /// set apply would write at that point (valid only for the duration of
  /// the callback). The BitstreamWriter renders and prices through this so
  /// `--script` / `--out` totals match ConfigTotals for arbitrary op
  /// sequences, not just independent ops.
  void preview_sequence(
      const std::vector<ConfigOp>& ops,
      const std::function<void(std::size_t, const ApplyResult&,
                               const FrameSet&)>& visit) const;

  /// Full frame count a readback of the op's footprint must fetch. Readback
  /// is never dirty-skippable — verifying a frame requires reading it
  /// whether or not the preceding write changed its bytes — so this is the
  /// frames_of size at every granularity (whole columns under kColumn).
  /// Sweep pricing (health::RovingTester) uses this instead of write-side
  /// counters so readback cost is identical across kFrame and kDirtyFrame.
  int readback_frames(const ConfigOp& op) const;

  /// Frame/column/port-time accounting of an op without applying it (the
  /// effective_actions field is left 0 — effectiveness is only known at
  /// apply time). Under kDirtyFrame the dirty set is estimated against the
  /// *current* fabric and shadow image, exactly what apply would write if
  /// it ran now. Used by the transaction batcher to price the unbatched
  /// baseline of a coalesced transaction.
  ApplyResult preview(const ConfigOp& op) const;

  /// Applies the op to the fabric and charges the port timing model. Every
  /// action's coordinates, and the net each routing action names, are
  /// checked before anything is written, so a malformed op throws and
  /// changes nothing. `allow_lut_ram_columns` waives the live-LUT-RAM
  /// column rule — legal only while the affected clock domain is stopped
  /// (paper, Sec. 2: the system must be halted to guarantee data
  /// coherency).
  ApplyResult apply(const ConfigOp& op, bool allow_lut_ram_columns = false);

  /// LUT-RAM legality (paper, Sec. 2): throws IllegalOperationError if any
  /// frame of the op lies in a CLB column containing a used LUT-RAM cell
  /// that the op itself does not rewrite. `extra_rewritten` (pack_cell_key
  /// values, any order) extends the exemption set with cells known to be
  /// rewritten before this op applies (the transaction batcher passes its
  /// pending batch's writes so each queued op is checked exactly as the
  /// per-op sequence would be). The column set this checks is identical
  /// across granularities — widening only adds frames within columns the
  /// op already touches — so it is derived from the op's actions, not from
  /// a frame set.
  void check_lut_ram_columns(const ConfigOp& op,
                             const std::vector<std::uint64_t>*
                                 extra_rewritten = nullptr) const;

  const ConfigTotals& totals() const { return totals_; }

  // ---- invariant audit (DESIGN.md §8.4) -------------------------------------
  /// Cross-checks the incremental FrameImage digest mirror against a full
  /// recompute from fabric ground truth (every cell config, live PIP and
  /// attached source, relative to the fabric state at controller
  /// construction — fault installation happens before construction, so the
  /// baseline folds injected corruption in). Throws AuditError on the first
  /// divergent frame: either the incremental delta path dropped/duplicated
  /// a token, or something mutated the fabric behind the controller's back
  /// — both contract violations. Always compiled; periodic call sites
  /// (TransactionBatcher::flush) are gated on RELOGIC_AUDIT.
  void audit_image() const;

  /// Attaches a trace lane: every apply() emits one 'X' span on the
  /// cumulative port-busy clock (ts = totals().time before the op) with
  /// granularity and frame accounting as args. Default-constructed handle
  /// (the default) disables tracing at the cost of one branch per apply.
  void set_trace(obs::TraceTrack track) { trace_ = track; }

 private:
  /// The frame controlling a net-source attach/detach (output mux / pad).
  FrameAddress source_frame(const SourceChange& sc) const;
  /// Run index of a cell write's (col, cell) frame group in the current op,
  /// created on first touch.
  std::size_t run_of(const CellWrite& cw) const;
  /// Accumulates one op's deltas reading before-values through the
  /// sequence-persistent overlays (callers clear them to choose single-op
  /// or sequence semantics); a cell the overlay has not seen yet reads the
  /// token of its current fabric value. Cell deltas come out as
  /// run_base_/run_delta_ RUNS (one frames_per_cell run per distinct
  /// (col, cell) the op touches, delta possibly XOR-cancelled to 0);
  /// edge/source deltas — provably disjoint frame ids, see
  /// FrameMapper::first_routing_frame — go into `net_out`, which also
  /// records every net action's frame as touched, delta or not. Like the
  /// action walk it refuses an added edge that is not a PIP. Injected
  /// configuration-memory faults are not modelled here — apply() observes
  /// the real before/after values.
  void accumulate_deltas(const ConfigOp& op, FrameDeltaMap& net_out) const;
  /// Resets the sequence-persistent overlays (cell epoch bump + edge/source
  /// maps). The per-op run state is reset by begin_op().
  void clear_overlays() const;
  /// Starts a new per-op epoch for the run collectors.
  void begin_op() const;
  /// The one walk from actions to frames. Checks each action's coordinates,
  /// that the net of a routing action exists and that an added edge is a
  /// PIP, and calls
  /// `visit(first_id, count)` with its kFrame / kDirtyFrame frames: the
  /// frames_per_cell ids of a cell write's frame group, or the one frame of
  /// a net action. frames_of, apply's kDirtyFrame pre-pass and
  /// check_lut_ram_columns all map actions through it.
  template <typename Visit>
  void for_each_frame_run(const ConfigOp& op, Visit&& visit) const;
  /// Zeroes the frame bitmap words [op_lo_, op_hi_) and empties the range.
  /// frames_of runs it first, so an op that threw mid-marking leaves
  /// nothing behind for the next one.
  void clear_op_words() const;
  /// Port time of one same-column transaction of `frames` frames.
  SimTime run_time(int frames) const;
  /// Prices a frame set: frames, distinct columns, and one port
  /// transaction per same-column run (ids are column-contiguous).
  ApplyResult price_frames(const FrameSet& frames) const;
  /// kDirtyFrame pricing of the collected cell runs plus the net dirty ids
  /// (dirty_scratch_): per-column frame counts + one port transaction per
  /// touched column — identical to pricing the sorted dirty id list,
  /// because a column's frames are id-contiguous. frames_skipped is the
  /// rest of |frames_of(op)|, which is frames_per_cell per run plus the
  /// net frames touched in deltas_scratch_.
  ApplyResult price_runs() const;
  /// kDirtyFrame preview of one op against the current overlays. Leaves
  /// the op's runs and its net dirty ids (dirty_scratch_) for
  /// preview_sequence.
  ApplyResult price_dirty(const ConfigOp& op) const;
  /// Charges totals, trace and logging for one applied op.
  ApplyResult finish_apply(const ConfigOp& op, ApplyResult result,
                           int effective);
  /// Absolute per-frame content digest of the fabric as it stands, walked
  /// from fabric ground truth: XOR of the diff-from-default token of every
  /// non-default cell config plus the tokens of every live PIP and attached
  /// source. audit_image compares image_ against recompute(now) ^
  /// recompute(construction).
  void recompute_digests(std::vector<std::uint64_t>& out) const;

  fabric::Fabric* fabric_;
  const ConfigPort* port_;
  FrameMapper mapper_;
  WriteGranularity granularity_;
  FrameIndex index_;
  FrameImage image_;
  ConfigTotals totals_;
  obs::TraceTrack trace_;
  /// Fabric content digests at construction — the erased-state baseline the
  /// image's deltas are relative to (see audit_image). One walk at ctor.
  std::vector<std::uint64_t> audit_baseline_;
  /// Dense column id per frame id (pricing reads it per frame).
  std::vector<std::uint16_t> col_of_;
  /// Port write_time by same-column run length (0..max_run_), filled at
  /// construction: the port model is a pure function of (frames,
  /// frame_bits), so the table is byte-identical to calling it per run.
  std::vector<SimTime> time_memo_;
  int max_run_ = 0;
  int frame_bits_ = 0;

  // ---- reusable scratch (not thread-safe; see the header comment) ---------
  mutable FrameSet frames_scratch_;   ///< frames_of(op) of apply / preview
  mutable FrameSet dirty_scratch_;    ///< dirty ids of the current op
  mutable FrameSet columns_scratch_;  ///< distinct column markers (kColumn)
  mutable FrameDeltaMap deltas_scratch_;
  /// Per-op frame bitmap of frames_of + the word range [op_lo_, op_hi_)
  /// it marked, so listing and clearing it cost O(op's span), not
  /// O(device). The range is empty between calls.
  mutable std::vector<std::uint64_t> op_words_;
  mutable std::size_t op_lo_ = 0;
  mutable std::size_t op_hi_ = 0;
  /// Distinct-CLB-column bitmap for the LUT-RAM check.
  mutable std::vector<std::uint64_t> col_words_;
  /// check_lut_ram_columns: packed {row, col, cell} keys the op rewrites.
  mutable std::vector<std::uint64_t> rewrites_scratch_;
  /// Value overlay of earlier actions for preview / preview_sequence. The
  /// routing overlays are hash maps (reused across calls, so buckets are
  /// allocated once): preview_sequence persists them across a whole op
  /// sequence, where a linear scan would go quadratic.
  struct EdgeKey {
    fabric::NetId net;
    fabric::NodeId from;
    fabric::NodeId to;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const {
      std::uint64_t x = (static_cast<std::uint64_t>(k.net) << 32) ^
                        (static_cast<std::uint64_t>(k.from) << 16) ^ k.to;
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }
  };
  mutable std::unordered_map<EdgeKey, bool, EdgeKeyHash> overlay_edges_;
  mutable std::unordered_map<std::uint64_t, bool> overlay_sources_;
  /// Token-level cell overlay: epoch-stamped per cell, indexed by
  /// Fabric::cell_index, packed so one cache line serves both fields. Token
  /// equality stands in for config equality (a 64-bit collision would
  /// only over-skip a frame in the timing model).
  struct CellOverlay {
    std::uint64_t tok;
    std::uint32_t stamp;
  };
  mutable std::vector<CellOverlay> overlay_;
  mutable std::uint32_t overlay_epoch_ = 1;
  /// Per-op run collectors: one entry per distinct (col, cell) the op
  /// writes — a run's frames depend only on the cell's column position,
  /// so every row of the same (col, cell) folds into ONE run (their deltas
  /// can XOR-cancel). run_delta_ accumulates before ^ after per write,
  /// which telescopes to op-entry token ^ final token per touched cell (0
  /// when writes cancel or rewrite identically). runkey_* is indexed by
  /// col * cells_per_clb + cell — small enough to stay cache-hot.
  mutable std::vector<std::int32_t> run_base_;
  mutable std::vector<std::uint64_t> run_delta_;
  /// Dense column of each run, recorded at run creation (1 + CLB col).
  mutable std::vector<std::int32_t> run_col_;
  mutable std::vector<std::int32_t> runkey_idx_;
  mutable std::vector<std::uint32_t> runkey_stamp_;
  mutable std::uint32_t op_epoch_ = 1;
  /// price_runs: per-dense-column frame counts + the touched-column list
  /// (epoch-stamped). Column visit order doesn't affect the result — frame
  /// and column counts and the SimTime sum are all commutative.
  mutable std::vector<std::int32_t> col_count_;
  mutable std::vector<std::uint32_t> col_stamp_;
  mutable std::vector<std::int32_t> col_list_;
};

}  // namespace relogic::config
