// FabricSim: event-driven logic simulation of the configured fabric.
//
// The simulator executes whatever the Fabric currently describes — it
// subscribes as a FabricListener, so partial reconfiguration performed
// *while the simulation runs* (the whole point of the paper) is picked up
// incrementally:
//
//  * identical rewrites never reach the simulator (Fabric suppresses them),
//    reproducing the device property that rewriting the same configuration
//    data generates no transients;
//  * a net change re-propagates the net's current source value to every
//    sink with the routed path delay — a newly paralleled replica path
//    therefore exhibits exactly the Fig. 6 behaviour (the sink settles
//    after the longer of the two delays);
//  * a newly configured cell initialises its storage element to the
//    configured init value and evaluates from its currently-routed inputs.
//
// Timing model: LUTs have a lumped input-to-X delay, storage elements a
// clock-to-XQ delay, and each routed sink its path delay from the
// DelayModel (max over paralleled paths). Evaluation on delivery gives
// inertial-delay semantics: pulses shorter than the LUT delay are absorbed.
//
// Steady-state fast-forward (DESIGN.md §11): with the inputs held and the
// fabric unchanged, a settled circuit is an autonomous FSM. Once its state
// repeats within one run_until call, whole periods are skipped with exactly
// the values, counts and event order of stepping through them.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relogic/common/time.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/fabric/tree_index.hpp"
#include "relogic/sim/event_lanes.hpp"
#include "relogic/sim/monitor.hpp"

namespace relogic::sim {

struct ClockSpec {
  std::uint8_t domain = 0;
  SimTime period = SimTime::ns(100);  ///< 10 MHz user clock by default
  SimTime first_edge = SimTime::ns(100);
};

class FabricSim final : public fabric::FabricListener {
 public:
  FabricSim(fabric::Fabric& fabric, const fabric::DelayModel& dm);
  ~FabricSim() override;

  FabricSim(const FabricSim&) = delete;
  FabricSim& operator=(const FabricSim&) = delete;

  // ---- clocks -------------------------------------------------------------
  void add_clock(ClockSpec spec);
  /// True if a clock generator exists for the domain.
  bool has_clock(std::uint8_t domain) const;
  /// Time of the next rising edge of a domain at or after `from`.
  SimTime next_edge(std::uint8_t domain, SimTime from) const;
  SimTime clock_period(std::uint8_t domain) const;
  /// Rising edges of a domain processed so far. Lets a harness catch its
  /// golden model up across reconfiguration intervals, during which the
  /// fabric keeps clocking (the application never stops).
  std::int64_t edges_seen(std::uint8_t domain) const;

  /// Gates a clock domain (the stop-the-system case of the paper's Sec. 2:
  /// LUT-RAM relocation requires halting to guarantee data coherency).
  /// While halted, the domain's FFs do not capture and its edges are not
  /// counted; other domains keep running.
  void set_clock_running(std::uint8_t domain, bool running);
  bool clock_running(std::uint8_t domain) const;

  // ---- external stimulus ----------------------------------------------------
  /// Drives an input pad to a value (takes effect at current time).
  void drive_pad(fabric::NodeId pad, bool value);
  /// Current value observed at any pad (input or output).
  bool pad_value(fabric::NodeId pad) const;

  // ---- execution ------------------------------------------------------------
  SimTime now() const { return now_; }
  /// Processes events up to and including time `t`; advances now() to `t`.
  /// Repeating clock periods inside the call are fast-forwarded, with the
  /// same result as stepping through them.
  void run_until(SimTime t);
  /// Runs past the next `n` rising edges of domain plus a settle margin.
  void run_cycles(int n, std::uint8_t domain = 0);

  // ---- observation ----------------------------------------------------------
  /// Storage-element (XQ) value of a cell site.
  bool state_of(ClbCoord clb, int cell) const;
  /// Combinational (X) value of a cell site.
  bool comb_of(ClbCoord clb, int cell) const;
  /// Current value seen at a cell input pin.
  bool pin_of(ClbCoord clb, int cell, fabric::CellPort port) const;
  /// Current logic value on a net (value at its first source pin).
  bool net_value(fabric::NetId net) const;

  GlitchMonitor& monitor() { return monitor_; }
  const GlitchMonitor& monitor() const { return monitor_; }

  /// Checks that every multi-source net's sources currently agree; records
  /// kDriveConflict violations. Invoked automatically at each clock edge.
  void check_drive_coherence();

  /// Recomputes the simulator's derived state from a full scan of the
  /// fabric and throws AuditError on any difference (DESIGN.md §8.4, §11):
  /// the cell mirror, the clocked-site index, the multi-source net list,
  /// the source -> net table, every cached sink's site, port and event
  /// lane, the flip-flop state hash, and the event queue's lanes and
  /// heads heap. RELOGIC_AUDIT builds call it after every cell change
  /// (on_cell_changed); run_until checks only its O(1) invariants.
  void audit() const;

  std::int64_t events_processed() const { return events_processed_; }
  /// Clock edges run_until skipped as repeats of a verified period; they
  /// are counted in edges_seen() and events_processed() all the same.
  std::int64_t edges_fast_forwarded() const { return edges_fast_forwarded_; }

  // ---- FabricListener --------------------------------------------------------
  void on_cell_changed(ClbCoord clb, int cell,
                       const fabric::LogicCellConfig& before,
                       const fabric::LogicCellConfig& after) override;
  void on_net_changed(fabric::NetId net) override;

 private:
  enum class EventKind : std::uint8_t { kPinSet, kEval, kClockEdge, kQSet };
  /// One pending event in 24 bytes. Events are processed in the total order
  /// of (time, seq), seq being the schedule() count; `key` holds seq above
  /// eight low bits for the kind, value and port, so ordering by
  /// (time, key) is ordering by (time, seq) (DESIGN.md §11).
  struct Event {
    SimTime time;
    std::uint64_t key = 0;
    fabric::NodeId node = fabric::kInvalidNode;  // kPinSet: pin or pad
    /// kPinSet: site of the pin, -1 for a pad; kEval / kQSet: the site;
    /// kClockEdge: the domain.
    std::int32_t site = -1;

    EventKind kind() const { return static_cast<EventKind>(key & 3u); }
    bool value() const { return ((key >> 2) & 1u) != 0; }
    int port() const { return static_cast<int>((key >> 3) & 7u); }
  };
  static_assert(sizeof(Event) == 24);
  using Queue = EventLanes<Event>;
  using Lane = Queue::Lane;

  /// A routed sink of a net, resolved once when the net changes.
  struct Sink {
    fabric::NodeId node = fabric::kInvalidNode;
    std::int32_t site = -1;  ///< -1 for a pad
    Lane lane = 0;           ///< the event lane of `delay`
    std::uint8_t port = 0;   ///< CellPort of a cell pin
    SimTime delay;           ///< max over paralleled paths
  };
  struct NetCache {
    std::vector<fabric::NodeId> sources;
    std::vector<Sink> sinks;
  };

  int site_index(ClbCoord clb, int cell) const;
  ClbCoord site_clb(int site) const;
  int site_cell(int site) const;
  /// Slot of an out pin in `out_pin_net_`.
  static std::size_t out_slot(int site, bool registered) {
    return static_cast<std::size_t>(site) * 2 + (registered ? 1 : 0);
  }

  /// Queues an event at now() plus the lane's delay, giving it the next
  /// sequence number.
  void schedule(Lane lane, EventKind kind, std::int32_t site,
                bool value = false, fabric::NodeId node = fabric::kInvalidNode,
                int port = 0);
  void schedule_sinks(const NetCache& cache, bool value);
  void process(const Event& e);
  void do_pin_set(const Event& e);
  void do_eval(int site);
  void do_q_set(int site, bool value);
  void do_clock_edge(std::uint8_t domain);
  /// Propagates a new source value to every sink of the net it drives.
  void propagate_net(fabric::NetId net, bool value);
  void rebuild_net_cache(fabric::NetId net);
  /// The net a source node (out pin or pad) drives, kNoNet if none.
  fabric::NetId source_net(fabric::NodeId source) const;
  /// Records (net != kNoNet) or clears the net a source node drives.
  void set_source_net(fabric::NodeId source, fabric::NetId net);
  bool source_pin_value(fabric::NodeId pin) const;
  unsigned lut_input_vector(int site) const;

  // ---- steady-state fast-forward (DESIGN.md §11) ----------------------
  /// The pseudo-random key a site's q contributes to q_hash_ while it is 1.
  static std::uint64_t q_key(int site);
  /// Writes a site's q value, keeping q_hash_ exact.
  void set_q(int site, bool value);
  /// Called at every clock-edge pop of run_until(t) before the edge is
  /// processed: runs the detector, and at the end of a verified period
  /// skips whole periods by advancing now_ and the counters.
  void on_edge_pop(std::uint8_t domain, SimTime t);
  /// One step of Brent's cycle detection over q_hash_ at a quiet edge;
  /// starts the check of a candidate period that fits twice before `t`.
  void detect(std::uint8_t domain, SimTime t);
  /// Ends a period check: clears the journal marks, turns journaling off.
  void end_check();
  /// True when every journaled slot holds its journaled value again.
  bool journal_restored() const;
  /// Journal slots: site * 8 + k, k being a CellPort (0..5), 6 for x, 7
  /// for q.
  static std::uint32_t slot(int site, int k) {
    return static_cast<std::uint32_t>(site * 8 + k);
  }
  /// Records a slot's value before its first change in the checked period.
  void journal(std::uint32_t slot, bool old) {
    if (journaled_[slot] != 0) return;
    journaled_[slot] = 1;
    journal_.push_back(JournalEntry{slot, old});
  }
  void journal_pad(fabric::NodeId pad, bool old);

  fabric::Fabric* fabric_;
  const fabric::DelayModel* dm_;
  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;
  std::int64_t events_processed_ = 0;
  std::int64_t edges_fast_forwarded_ = 0;
  Queue queue_;
  /// Lanes of the fixed delays, resolved at construction (a domain's
  /// period lane lives in its Domain record, a sink's in its Sink).
  Lane now_lane_;
  Lane lut_lane_;
  Lane clk_to_q_lane_;
  Lane latch_lane_;

  // Dense per-site state (4 cells per CLB).
  /// Mirror of every site's Fabric::cell, written by on_cell_changed after
  /// the fabric stores the change.
  std::vector<fabric::LogicCellConfig> cells_;
  std::vector<std::array<bool, 6>> pin_val_;  // I0..I3, CE, BX
  std::vector<std::uint8_t> x_val_;
  std::vector<std::uint8_t> q_val_;

  std::unordered_map<fabric::NodeId, bool> pad_val_;

  std::vector<NetCache> net_cache_;  // by net id
  /// rebuild_net_cache's view of the net it rebuilds; kept to reuse storage.
  fabric::TreeIndex tree_index_;
  std::vector<fabric::TreeIndex::Delay> tree_delays_;
  /// The live net each cell out pin sources, by out_slot(); kNoNet if none.
  /// A routing node belongs to at most one net (RoutingGraph::occupy), so
  /// one slot per pin suffices.
  std::vector<fabric::NetId> out_pin_net_;
  /// The same for pads, the only other sources: (pad, net) pairs.
  std::vector<std::pair<fabric::NodeId, fabric::NetId>> pad_net_;

  /// One clock domain: its generator, if any, and the sites holding a used
  /// FF of the domain in ascending site index, which is the order an edge
  /// visits them in (DESIGN.md §11). Kept exact by on_cell_changed.
  struct Domain {
    bool has_clock = false;
    ClockSpec clock;
    Lane period_lane = 0;  ///< valid once has_clock
    bool halted = false;
    std::int64_t edges_seen = 0;
    std::vector<int> ff_sites;
  };
  /// The record of a domain, created on first use.
  Domain& domain(std::uint8_t d);
  /// The record of a domain, or nullptr if it was never used.
  const Domain* find_domain(std::uint8_t d) const;
  /// The clock of a domain; throws ContractError if it has none.
  const ClockSpec& clock_of(std::uint8_t d) const;

  std::vector<Domain> domains_;  // by domain id
  /// Ids of the live nets with two or more sources, ascending: the nets
  /// check_drive_coherence inspects.
  std::vector<fabric::NetId> multi_source_nets_;
  GlitchMonitor monitor_;

  /// XOR of q_key(site) over the sites whose q is 1: the fingerprint the
  /// detector compares, one XOR per q change.
  std::uint64_t q_hash_ = 0;
  /// Detector state of the current run_until call. Brent's algorithm
  /// (BIT 20, 1980) keeps one tortoise hash and compares each quiet edge's
  /// hash with it; a match proposes a period, which is then checked
  /// exactly over the next `period` edges.
  struct Detector {
    bool armed = false;  ///< tortoise holds the hash of an earlier edge
    std::uint64_t tortoise = 0;
    std::int64_t power = 1;
    std::int64_t lam = 0;
    /// Edge pops left in the period under check; 0 when none is checked.
    std::int64_t check_left = 0;
    std::int64_t period = 0;  ///< edge pops in the period under check
    // Counts at the edge pop that began the check.
    SimTime time0;
    std::int64_t events0 = 0;
    std::int64_t edges0 = 0;
    std::int64_t transitions0 = 0;
    std::uint64_t seq0 = 0;
    std::size_t violations0 = 0;
  };
  Detector detector_;
  struct JournalEntry {
    std::uint32_t slot;
    bool old;
  };
  /// While a period is checked: the first old value of every pin, x and q
  /// slot (journal_) and pad (pad_journal_) that changed since the check
  /// began; journaled_ marks the slots already in journal_. All three are
  /// reused from check to check, so a check allocates nothing once warm.
  bool journaling_ = false;
  std::vector<JournalEntry> journal_;
  std::vector<std::uint8_t> journaled_;
  std::vector<std::pair<fabric::NodeId, bool>> pad_journal_;
};

}  // namespace relogic::sim
