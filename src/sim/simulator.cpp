#include "relogic/sim/simulator.hpp"

#include <algorithm>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"

namespace relogic::sim {

using fabric::NetId;
using fabric::NodeId;
using fabric::NodeKind;

namespace {

/// A used cell whose storage element is an edge-triggered FF: the cells a
/// clock edge of their domain visits.
bool clocked(const fabric::LogicCellConfig& cfg) {
  return cfg.used && cfg.reg == fabric::RegMode::kFF;
}

/// Adds `x` to (member) or removes it from (!member) an ascending vector.
template <typename T>
void set_member(std::vector<T>& v, T x, bool member) {
  const auto pos = std::lower_bound(v.begin(), v.end(), x);
  const bool present = pos != v.end() && *pos == x;
  if (member && !present) v.insert(pos, x);
  if (!member && present) v.erase(pos);
}

}  // namespace

FabricSim::FabricSim(fabric::Fabric& fabric, const fabric::DelayModel& dm)
    : fabric_(&fabric),
      dm_(&dm),
      now_lane_(queue_.lane(SimTime::zero())),
      lut_lane_(queue_.lane(dm.lut_delay)),
      clk_to_q_lane_(queue_.lane(dm.clk_to_q)),
      latch_lane_(queue_.lane(dm.latch_d_to_q)) {
  const auto& geom = fabric_->geometry();
  const std::size_t sites =
      static_cast<std::size_t>(geom.clb_count()) * geom.cells_per_clb;
  cells_.resize(sites);
  pin_val_.assign(sites, {false, false, false, false, false, false});
  x_val_.assign(sites, false);
  q_val_.assign(sites, false);
  out_pin_net_.assign(sites * 2, fabric::kNoNet);
  journaled_.assign(sites * 8, 0);

  fabric_->add_listener(this);

  // Adopt whatever is already configured. The mirror takes free cells too:
  // a stuck configuration bit makes a free cell's stored value differ from
  // the default.
  for (int r = 0; r < geom.clb_rows; ++r) {
    for (int c = 0; c < geom.clb_cols; ++c) {
      const ClbCoord clb{r, c};
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        const auto& cfg = fabric_->cell(clb, k);
        const int site = site_index(clb, k);
        cells_[static_cast<std::size_t>(site)] = cfg;
        if (!cfg.used) continue;
        if (clocked(cfg)) domain(cfg.clock_domain).ff_sites.push_back(site);
        set_q(site, cfg.init);
        schedule(lut_lane_, EventKind::kEval, site);
      }
    }
  }
  for (NetId n : fabric_->live_nets()) on_net_changed(n);
}

FabricSim::~FabricSim() { fabric_->remove_listener(this); }

int FabricSim::site_index(ClbCoord clb, int cell) const {
  const auto& geom = fabric_->geometry();
  return (clb.row * geom.clb_cols + clb.col) * geom.cells_per_clb + cell;
}

ClbCoord FabricSim::site_clb(int site) const {
  const auto& geom = fabric_->geometry();
  const int clb_index = site / geom.cells_per_clb;
  return ClbCoord{clb_index / geom.clb_cols, clb_index % geom.clb_cols};
}

int FabricSim::site_cell(int site) const {
  return site % fabric_->geometry().cells_per_clb;
}

FabricSim::Domain& FabricSim::domain(std::uint8_t d) {
  if (domains_.size() <= d) domains_.resize(static_cast<std::size_t>(d) + 1);
  return domains_[d];
}

const FabricSim::Domain* FabricSim::find_domain(std::uint8_t d) const {
  return d < domains_.size() ? &domains_[d] : nullptr;
}

const ClockSpec& FabricSim::clock_of(std::uint8_t d) const {
  const Domain* dom = find_domain(d);
  if (dom == nullptr || !dom->has_clock)
    throw ContractError("no clock defined for domain " + std::to_string(d));
  return dom->clock;
}

void FabricSim::add_clock(ClockSpec spec) {
  RELOGIC_CHECK(spec.period > SimTime::zero());
  Domain& dom = domain(spec.domain);
  RELOGIC_CHECK_MSG(!dom.has_clock, "clock domain already defined");
  dom.has_clock = true;
  dom.clock = spec;
  dom.period_lane = queue_.lane(spec.period);
  SimTime first = spec.first_edge;
  while (first < now_) first += spec.period;
  schedule(queue_.lane(first - now_), EventKind::kClockEdge, spec.domain);
}

bool FabricSim::has_clock(std::uint8_t domain) const {
  const Domain* dom = find_domain(domain);
  return dom != nullptr && dom->has_clock;
}

SimTime FabricSim::clock_period(std::uint8_t domain) const {
  return clock_of(domain).period;
}

SimTime FabricSim::next_edge(std::uint8_t domain, SimTime from) const {
  const ClockSpec& c = clock_of(domain);
  if (from <= c.first_edge) return c.first_edge;
  const std::int64_t k =
      (from - c.first_edge).picoseconds() / c.period.picoseconds();
  SimTime t = c.first_edge + c.period * k;
  if (t < from) t += c.period;
  return t;
}

void FabricSim::drive_pad(NodeId pad, bool value) {
  RELOGIC_CHECK(fabric_->skeleton().info(pad).kind == NodeKind::kPad);
  auto it = pad_val_.find(pad);
  if (it != pad_val_.end() && it->second == value) return;
  pad_val_[pad] = value;
  monitor_.record_transition(pad, now_);
  propagate_net(source_net(pad), value);
}

bool FabricSim::pad_value(NodeId pad) const {
  auto it = pad_val_.find(pad);
  return it != pad_val_.end() && it->second;
}

void FabricSim::run_until(SimTime t) {
  RELOGIC_CHECK(t >= now_);
  // A period found in one call says nothing of the next.
  detector_ = Detector{};
  while (!queue_.empty() && queue_.top_time() <= t) {
    const Event e = queue_.pop();
    now_ = e.time;
    if (e.kind() == EventKind::kClockEdge)
      on_edge_pop(static_cast<std::uint8_t>(e.site), t);
    process(e);
    ++events_processed_;
  }
  if (journaling_) end_check();
  now_ = t;
  // The O(1) part of audit(): lockstep callers make thousands of short
  // calls, so the O(device) scan runs on fabric changes instead.
  if constexpr (audit_enabled()) {
    RELOGIC_AUDIT_CHECK(
        !journaling_ && journal_.empty() && pad_journal_.empty(), "FabricSim",
        "a period check outlived its run_until call");
    RELOGIC_AUDIT_CHECK(queue_.empty() || queue_.top_time() > t, "FabricSim",
                        "run_until left an event due at or before its end");
  }
}

std::uint64_t FabricSim::q_key(int site) {
  // splitmix64's finaliser over the site index.
  std::uint64_t z =
      (static_cast<std::uint64_t>(site) + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FabricSim::set_q(int site, bool value) {
  auto& q = q_val_[static_cast<std::size_t>(site)];
  if ((q != 0) == value) return;
  q = value;
  q_hash_ ^= q_key(site);
}

// The state an edge pop leaves when it leaves no other event pending is
// every pin, x, q and pad value: the fabric and the held inputs do not
// change inside run_until, only one clock generator exists (a second one
// would be pending), the monitor's windows restart at the edge, and events
// are scheduled relative to now() with relative sequence numbers. Two such
// pops with equal values are therefore a period of everything after them
// (DESIGN.md §11, "Steady-state fast-forward").
void FabricSim::on_edge_pop(std::uint8_t domain, SimTime t) {
  const bool quiet = queue_.empty();
  if (detector_.check_left > 0) {
    if (--detector_.check_left > 0) return;
    const bool periodic = quiet && journal_restored() &&
                          monitor_.violations().size() == detector_.violations0;
    end_check();
    if (periodic) {
      const SimTime span = now_ - detector_.time0;
      const std::int64_t m = (t - now_).picoseconds() / span.picoseconds();
      Domain& dom = domains_[domain];
      now_ += span * m;
      events_processed_ += (events_processed_ - detector_.events0) * m;
      dom.edges_seen += (dom.edges_seen - detector_.edges0) * m;
      seq_ += (seq_ - detector_.seq0) * static_cast<std::uint64_t>(m);
      monitor_.add_transitions(
          (monitor_.transitions_observed() - detector_.transitions0) * m);
      edges_fast_forwarded_ += detector_.period * m;
    }
    detector_ = Detector{};
  }
  if (!quiet) {
    detector_.armed = false;
    return;
  }
  detect(domain, t);
}

void FabricSim::detect(std::uint8_t domain, SimTime t) {
  if (!detector_.armed) {
    detector_.armed = true;
    detector_.tortoise = q_hash_;
    detector_.power = 1;
    detector_.lam = 0;
    return;
  }
  ++detector_.lam;
  // A candidate is worth checking only if a skip can follow the check.
  if (q_hash_ == detector_.tortoise &&
      domains_[domain].clock.period * (2 * detector_.lam) <= t - now_) {
    detector_.check_left = detector_.period = detector_.lam;
    detector_.time0 = now_;
    detector_.events0 = events_processed_;
    detector_.edges0 = domains_[domain].edges_seen;
    detector_.seq0 = seq_;
    detector_.transitions0 = monitor_.transitions_observed();
    detector_.violations0 = monitor_.violations().size();
    journaling_ = true;
    return;
  }
  if (detector_.lam == detector_.power) {
    detector_.tortoise = q_hash_;
    detector_.power *= 2;
    detector_.lam = 0;
  }
}

void FabricSim::journal_pad(NodeId pad, bool old) {
  for (const auto& [p, v] : pad_journal_)
    if (p == pad) return;
  pad_journal_.emplace_back(pad, old);
}

bool FabricSim::journal_restored() const {
  for (const JournalEntry& j : journal_) {
    const std::size_t site = j.slot / 8;
    const std::uint32_t k = j.slot % 8;
    const bool value = k < 6   ? pin_val_[site][k]
                       : k == 6 ? x_val_[site] != 0
                                : q_val_[site] != 0;
    if (value != j.old) return false;
  }
  for (const auto& [pad, old] : pad_journal_)
    if (pad_value(pad) != old) return false;
  return true;
}

void FabricSim::end_check() {
  for (const JournalEntry& j : journal_) journaled_[j.slot] = 0;
  journal_.clear();
  pad_journal_.clear();
  journaling_ = false;
}

void FabricSim::run_cycles(int n, std::uint8_t domain) {
  RELOGIC_CHECK(n >= 0);
  SimTime t = now_;
  for (int i = 0; i < n; ++i) t = next_edge(domain, t + SimTime::ps(1));
  run_until(t + clock_period(domain) / 4);
}

bool FabricSim::state_of(ClbCoord clb, int cell) const {
  return q_val_[static_cast<std::size_t>(
      (clb.row * fabric_->geometry().clb_cols + clb.col) *
          fabric_->geometry().cells_per_clb +
      cell)];
}

bool FabricSim::comb_of(ClbCoord clb, int cell) const {
  return x_val_[static_cast<std::size_t>(
      (clb.row * fabric_->geometry().clb_cols + clb.col) *
          fabric_->geometry().cells_per_clb +
      cell)];
}

bool FabricSim::pin_of(ClbCoord clb, int cell, fabric::CellPort port) const {
  const int site =
      (clb.row * fabric_->geometry().clb_cols + clb.col) *
          fabric_->geometry().cells_per_clb +
      cell;
  return pin_val_[static_cast<std::size_t>(site)]
                 [static_cast<std::size_t>(port)];
}

bool FabricSim::net_value(NetId net) const {
  const auto& tree = fabric_->net(net);
  RELOGIC_CHECK_MSG(!tree.sources.empty(), "net has no source");
  return source_pin_value(tree.sources.front());
}

bool FabricSim::source_pin_value(NodeId pin) const {
  const auto info = fabric_->skeleton().info(pin);
  switch (info.kind) {
    case NodeKind::kOutPin: {
      const int site = site_index(info.tile, info.a);
      return info.b ? q_val_[static_cast<std::size_t>(site)]
                    : x_val_[static_cast<std::size_t>(site)];
    }
    case NodeKind::kPad: {
      auto it = pad_val_.find(pin);
      return it != pad_val_.end() && it->second;
    }
    default:
      throw ContractError("node is not a net source: " + info.to_string());
  }
}

NetId FabricSim::source_net(NodeId source) const {
  const auto info = fabric_->skeleton().info(source);
  if (info.kind == NodeKind::kOutPin)
    return out_pin_net_[out_slot(site_index(info.tile, info.a), info.b != 0)];
  for (const auto& [pad, net] : pad_net_)
    if (pad == source) return net;
  return fabric::kNoNet;
}

void FabricSim::set_source_net(NodeId source, NetId net) {
  const auto info = fabric_->skeleton().info(source);
  if (info.kind == NodeKind::kOutPin) {
    out_pin_net_[out_slot(site_index(info.tile, info.a), info.b != 0)] = net;
    return;
  }
  std::erase_if(pad_net_, [&](const auto& e) { return e.first == source; });
  if (net != fabric::kNoNet) pad_net_.emplace_back(source, net);
}

unsigned FabricSim::lut_input_vector(int site) const {
  const auto& pins = pin_val_[static_cast<std::size_t>(site)];
  unsigned vec = 0;
  for (int i = 0; i < 4; ++i) vec |= (pins[static_cast<std::size_t>(i)] ? 1u : 0u) << i;
  return vec;
}

void FabricSim::schedule(Lane lane, EventKind kind, std::int32_t site,
                         bool value, NodeId node, int port) {
  // The lane's delay is never negative (EventLanes::lane checks it), so no
  // event lands before now() and every lane stays sorted.
  const std::uint64_t key = (++seq_ << 8) |
                            static_cast<std::uint64_t>(port) << 3 |
                            (value ? 4u : 0u) | static_cast<unsigned>(kind);
  queue_.push(lane, Event{now_ + queue_.delay(lane), key, node, site});
}

void FabricSim::schedule_sinks(const NetCache& cache, bool value) {
  for (const Sink& s : cache.sinks)
    schedule(s.lane, EventKind::kPinSet, s.site, value, s.node, s.port);
}

void FabricSim::process(const Event& e) {
  switch (e.kind()) {
    case EventKind::kPinSet:
      do_pin_set(e);
      break;
    case EventKind::kEval:
      do_eval(e.site);
      break;
    case EventKind::kQSet:
      do_q_set(e.site, e.value());
      break;
    case EventKind::kClockEdge:
      do_clock_edge(static_cast<std::uint8_t>(e.site));
      break;
  }
}

void FabricSim::do_pin_set(const Event& e) {
  const NodeId node = e.node;
  const bool value = e.value();
  if (e.site < 0) {  // a pad
    auto it = pad_val_.find(node);
    const bool old = it != pad_val_.end() && it->second;
    if (old == value && it != pad_val_.end()) return;
    pad_val_[node] = value;
    if (old != value) {
      if (journaling_) journal_pad(node, old);
      monitor_.record_transition(node, now_);
    }
    return;
  }
  const int site = e.site;
  const int port = e.port();
  auto& pins = pin_val_[static_cast<std::size_t>(site)];
  if (pins[static_cast<std::size_t>(port)] == value) return;
  if (journaling_) journal(slot(site, port), !value);
  pins[static_cast<std::size_t>(port)] = value;
  monitor_.record_transition(node, now_);

  const auto& cfg = cells_[static_cast<std::size_t>(site)];
  if (!cfg.used) return;
  if (port < 4) {
    schedule(lut_lane_, EventKind::kEval, site);
  } else if (port == 4) {
    // CE pin: latch transparency opening captures the current D value.
    if (cfg.reg == fabric::RegMode::kLatch && value) {
      const bool d = cfg.d_src == fabric::DSrc::kBypass
                         ? pins[5]
                         : x_val_[static_cast<std::size_t>(site)] != 0;
      schedule(latch_lane_, EventKind::kQSet, site, d);
    }
  } else {
    // BX bypass pin: transparent latches in bypass mode follow it.
    if (cfg.reg == fabric::RegMode::kLatch &&
        cfg.d_src == fabric::DSrc::kBypass && pins[4]) {
      schedule(latch_lane_, EventKind::kQSet, site, value);
    }
  }
}

void FabricSim::do_eval(int site) {
  const auto& cfg = cells_[static_cast<std::size_t>(site)];
  if (!cfg.used) return;
  const bool x = cfg.eval(lut_input_vector(site));
  if (x == (x_val_[static_cast<std::size_t>(site)] != 0)) return;
  if (journaling_) journal(slot(site, 6), !x);
  x_val_[static_cast<std::size_t>(site)] = x;
  propagate_net(out_pin_net_[out_slot(site, false)], x);
  if (cfg.reg == fabric::RegMode::kLatch &&
      cfg.d_src == fabric::DSrc::kLut &&
      pin_val_[static_cast<std::size_t>(site)][4]) {
    schedule(latch_lane_, EventKind::kQSet, site, x);
  }
}

void FabricSim::do_q_set(int site, bool value) {
  if ((q_val_[static_cast<std::size_t>(site)] != 0) == value) return;
  if (!cells_[static_cast<std::size_t>(site)].used) return;
  if (journaling_) journal(slot(site, 7), !value);
  set_q(site, value);
  propagate_net(out_pin_net_[out_slot(site, true)], value);
}

std::int64_t FabricSim::edges_seen(std::uint8_t domain) const {
  const Domain* dom = find_domain(domain);
  return dom == nullptr ? 0 : dom->edges_seen;
}

void FabricSim::set_clock_running(std::uint8_t domain, bool running) {
  RELOGIC_CHECK_MSG(has_clock(domain), "no clock defined for the domain");
  domains_[domain].halted = !running;
}

bool FabricSim::clock_running(std::uint8_t domain) const {
  const Domain* dom = find_domain(domain);
  return dom == nullptr || !dom->halted;
}

void FabricSim::do_clock_edge(std::uint8_t domain) {
  Domain& dom = domains_[domain];
  // A halted domain's generator keeps its phase, but nothing captures.
  if (!dom.halted) {
    ++dom.edges_seen;
    monitor_.on_clock_edge(now_);
    check_drive_coherence();
    for (const int site : dom.ff_sites) {
      const auto& cfg = cells_[static_cast<std::size_t>(site)];
      const auto& pins = pin_val_[static_cast<std::size_t>(site)];
      if (cfg.uses_ce && !pins[4]) continue;
      const bool d = cfg.d_src == fabric::DSrc::kBypass
                         ? pins[5]
                         : x_val_[static_cast<std::size_t>(site)] != 0;
      if (d != (q_val_[static_cast<std::size_t>(site)] != 0))
        schedule(clk_to_q_lane_, EventKind::kQSet, site, d);
    }
  }
  schedule(dom.period_lane, EventKind::kClockEdge, domain);
}

void FabricSim::propagate_net(NetId net, bool value) {
  if (net == fabric::kNoNet) return;
  // Multi-source nets: the paralleled drivers are functionally identical
  // (verified by check_drive_coherence), so last-write-wins per sink is
  // the settled value; skew between them is the Fig. 6 fuzziness.
  schedule_sinks(net_cache_[net], value);
}

void FabricSim::rebuild_net_cache(NetId net) {
  if (net_cache_.size() <= net) net_cache_.resize(net + 1);
  NetCache& cache = net_cache_[net];

  // Unregister old source mappings. While Fabric::restore notifies net by
  // net, another net may already have claimed one of them.
  for (NodeId s : cache.sources) {
    if (source_net(s) == net) set_source_net(s, fabric::kNoNet);
  }
  cache = NetCache{};
  const bool exists = fabric_->net_exists(net);
  set_member(multi_source_nets_, net,
             exists && fabric_->net(net).sources.size() >= 2);
  if (!exists) return;

  const auto& tree = fabric_->net(net);
  cache.sources = tree.sources;
  for (NodeId s : cache.sources) set_source_net(s, net);

  // Sinks in ascending node order at their max delay over paralleled paths;
  // only those a source reaches, none behind a transient cycle.
  tree_index_.assign(tree);
  const auto& skel = fabric_->skeleton();
  tree_index_.delays(skel, *dm_, tree_delays_);
  for (std::uint32_t i = 0; i < tree_index_.nodes().size(); ++i) {
    if (!tree_delays_[i].reached) continue;
    const NodeId node = tree_index_.nodes()[i];
    const SimTime d = tree_delays_[i].max;
    const auto info = skel.info(node);
    if (info.kind == NodeKind::kInPin) {
      cache.sinks.push_back(
          Sink{node, site_index(info.tile, info.a), queue_.lane(d), info.b, d});
    } else if (info.kind == NodeKind::kPad && !tree_index_.is_source(i)) {
      cache.sinks.push_back(Sink{node, -1, queue_.lane(d), 0, d});
    }
  }
}

void FabricSim::on_cell_changed(ClbCoord clb, int cell,
                                const fabric::LogicCellConfig& before,
                                const fabric::LogicCellConfig& after) {
  const int site = site_index(clb, cell);
  cells_[static_cast<std::size_t>(site)] = after;
  if (clocked(before) != clocked(after) ||
      before.clock_domain != after.clock_domain) {
    if (clocked(before))
      set_member(domain(before.clock_domain).ff_sites, site, false);
    if (clocked(after))
      set_member(domain(after.clock_domain).ff_sites, site, true);
  }
  if (!before.used && after.used) {
    set_q(site, after.init);
    // Refresh inputs: routed pins read their net's current value; unrouted
    // pins revert to the default level (a previous tenant of this site may
    // have left stale values behind).
    const auto& skel = fabric_->skeleton();
    for (int p = 0; p < fabric::kInPorts; ++p) {
      const NodeId pin =
          skel.in_pin(clb, cell, static_cast<fabric::CellPort>(p));
      const NetId net = fabric_->net_driving(pin);
      bool value = false;
      if (net != fabric::kNoNet && fabric_->net_exists(net) &&
          !fabric_->net(net).sources.empty()) {
        value = source_pin_value(fabric_->net(net).sources.front());
      }
      schedule(now_lane_, EventKind::kPinSet, site, value, pin, p);
    }
  }
  if (after.used) schedule(lut_lane_, EventKind::kEval, site);
  if constexpr (audit_enabled()) audit();
}

void FabricSim::on_net_changed(NetId net) {
  rebuild_net_cache(net);
  if (!fabric_->net_exists(net)) return;
  const NetCache& cache = net_cache_[net];
  if (cache.sources.empty()) return;
  schedule_sinks(cache, source_pin_value(cache.sources.front()));
}

void FabricSim::check_drive_coherence() {
  for (const NetId net : multi_source_nets_) {
    const NetCache& cache = net_cache_[net];
    const bool v0 = source_pin_value(cache.sources.front());
    for (std::size_t i = 1; i < cache.sources.size(); ++i) {
      if (source_pin_value(cache.sources[i]) != v0) {
        monitor_.add_violation(Violation{
            ViolationKind::kDriveConflict, now_, cache.sources[i],
            "paralleled sources of net '" + fabric_->net(net).name +
                "' disagree at a clock edge"});
        break;
      }
    }
  }
}

void FabricSim::audit() const {
  constexpr const char* kWhere = "FabricSim";
  std::vector<std::vector<int>> ff_sites(domains_.size());
  for (int site = 0; site < static_cast<int>(cells_.size()); ++site) {
    const auto& cfg = fabric_->cell(site_clb(site), site_cell(site));
    RELOGIC_AUDIT_CHECK(cells_[static_cast<std::size_t>(site)] == cfg, kWhere,
                        "cell mirror of site " + std::to_string(site) +
                            " differs from the fabric");
    if (!clocked(cfg)) continue;
    RELOGIC_AUDIT_CHECK(cfg.clock_domain < ff_sites.size(), kWhere,
                        "FF of domain " + std::to_string(cfg.clock_domain) +
                            " missing from the clocked-site index");
    ff_sites[cfg.clock_domain].push_back(site);
  }
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    RELOGIC_AUDIT_CHECK(domains_[d].ff_sites == ff_sites[d], kWhere,
                        "clocked-site list of domain " + std::to_string(d) +
                            " differs from a fabric scan");
  }

  const auto& skel = fabric_->skeleton();
  std::vector<NetId> multi;
  std::size_t sources = 0;
  for (const NetId n : fabric_->live_nets()) {
    const auto& tree = fabric_->net(n);
    if (tree.sources.size() >= 2) multi.push_back(n);
    sources += tree.sources.size();
    for (const NodeId s : tree.sources) {
      RELOGIC_AUDIT_CHECK(source_net(s) == n, kWhere,
                          "source " + skel.info(s).to_string() + " of net " +
                              std::to_string(n) +
                              " missing from the source -> net table");
    }
    if (n >= net_cache_.size()) continue;  // created, never changed: empty
    for (const Sink& sink : net_cache_[n].sinks) {
      const auto info = skel.info(sink.node);
      const bool resolved =
          info.kind == NodeKind::kInPin
              ? sink.site == site_index(info.tile, info.a) &&
                    sink.port == info.b
              : info.kind == NodeKind::kPad && sink.site == -1;
      RELOGIC_AUDIT_CHECK(resolved, kWhere,
                          "cached sink " + info.to_string() + " of net " +
                              std::to_string(n) + " has a stale site or port");
      RELOGIC_AUDIT_CHECK(queue_.delay(sink.lane) == sink.delay, kWhere,
                          "cached sink " + info.to_string() + " of net " +
                              std::to_string(n) +
                              " names the event lane of another delay");
    }
  }
  RELOGIC_AUDIT_CHECK(multi_source_nets_ == multi, kWhere,
                      "multi-source net list differs from a fabric scan");
  // Every live source was found above; entries beyond them are stale.
  const auto entries =
      static_cast<std::size_t>(
          std::count_if(out_pin_net_.begin(), out_pin_net_.end(),
                        [](NetId n) { return n != fabric::kNoNet; })) +
      pad_net_.size();
  RELOGIC_AUDIT_CHECK(entries == sources, kWhere,
                      "source -> net table holds " + std::to_string(entries) +
                          " entries for " + std::to_string(sources) +
                          " live sources");

  RELOGIC_AUDIT_CHECK(queue_.delay(now_lane_) == SimTime::zero() &&
                          queue_.delay(lut_lane_) == dm_->lut_delay &&
                          queue_.delay(clk_to_q_lane_) == dm_->clk_to_q &&
                          queue_.delay(latch_lane_) == dm_->latch_d_to_q,
                      kWhere, "a fixed-delay event lane has another delay");
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    RELOGIC_AUDIT_CHECK(!domains_[d].has_clock ||
                            queue_.delay(domains_[d].period_lane) ==
                                domains_[d].clock.period,
                        kWhere,
                        "period lane of domain " + std::to_string(d) +
                            " has another delay");
  }
  std::uint64_t q_hash = 0;
  for (int site = 0; site < static_cast<int>(q_val_.size()); ++site)
    if (q_val_[static_cast<std::size_t>(site)] != 0) q_hash ^= q_key(site);
  RELOGIC_AUDIT_CHECK(q_hash == q_hash_, kWhere,
                      "flip-flop state hash differs from a scan of q");
  RELOGIC_AUDIT_CHECK(
      !journaling_ && journal_.empty() && pad_journal_.empty() &&
          std::find(journaled_.begin(), journaled_.end(), 1) ==
              journaled_.end(),
      kWhere, "a period check outlived its run_until call");
  queue_.audit(now_);
}

}  // namespace relogic::sim
