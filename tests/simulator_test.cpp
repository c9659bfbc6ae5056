// Tests of the logic simulator's own contracts (src/sim/simulator.cpp).
//
// * SimGolden pins, as an FNV-1a digest, everything the simulator shows
//   while live circuits are relocated under it: events processed, edges
//   seen, the state and combinational value of every used site and the
//   value of every pad after each lockstep cycle, and the final violation
//   list. The first three digests were taken before the clocked-site
//   index (DESIGN.md §11) replaced the per-edge device scan, the fourth
//   (pads and mid-run re-sourcing) before the event core resolved sinks
//   and sources once per net change; event order is part of what they
//   pin, so they must never be re-pinned for a performance change. The
//   first two were re-pinned once, for a behaviour change: the lockstep
//   harness's input-timing contract (DESIGN.md §11) waits out an edge
//   closer than T/2 before driving, so it runs the simulator longer.
// * ClockedSiteIndex drives the per-domain FF-site lists through every kind
//   of cell change while clocks run and checks them with FabricSim::audit.
// * EventCoreAudit drives the event core's derived state (the cell mirror,
//   the source -> net table, the resolved sink tables) through every kind
//   of net and cell change while a clock runs and checks it with
//   FabricSim::audit, and checks that a simulator built on a fabric with a
//   stuck bit on a free cell mirrors that cell too.
// * RouteTreeCycle routes a net through a single and a long line that
//   drive each other and checks that the simulator schedules the sinks a
//   source reaches and none behind the cycle (DESIGN.md §2 addendum).
// * DriveConflict checks that a drive conflict is found by the clock edge
//   alone, through the multi-source net list.
// * SimFastForward checks the steady-state fast-forward (DESIGN.md §11)
//   against the same set-up stepped through every edge: each window of
//   thousands of edges runs in one run_until call on one twin and in calls
//   shorter than a clock period, which never hold two edges, on the other.
// * EventLanes checks the event queue against a std::priority_queue on
//   (time, seq) over random monotone schedule streams, and that a lane
//   that never drains keeps a bounded buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "relogic/common/audit.hpp"
#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/fabric/tree_index.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/reloc/net_surgery.hpp"
#include "relogic/sim/event_lanes.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

using netlist::bench::ClockingStyle;
using place::CellSite;

/// 64-bit FNV-1a over little-endian 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// A used cell whose storage element captures the constant LUT output
/// `lut_value` (no CE, D from the LUT), configured to power up at 0.
fabric::LogicCellConfig storage(fabric::RegMode reg, std::uint8_t domain,
                                bool lut_value) {
  auto cfg = fabric::LogicCellConfig::constant(lut_value);
  cfg.reg = reg;
  cfg.clock_domain = domain;
  return cfg;
}

struct Rig {
  fabric::Fabric fab;
  fabric::DelayModel dm;
  config::BoundaryScanPort port;
  config::ConfigController controller{fab, port};
  sim::FabricSim sim{fab, dm};
  place::Implementer implementer{fab, dm};
  place::Router router{fab, dm};
  reloc::RelocationEngine engine{controller, router, &sim};

  explicit Rig(fabric::DeviceGeometry geom) : fab(std::move(geom)) {}
  // The full simulator audit once per rig, at the end of its test: under
  // RELOGIC_AUDIT, run_until checks only O(1) invariants.
  ~Rig() { EXPECT_NO_THROW(sim.audit()); }

  place::Implementation implement(const netlist::Netlist& nl,
                                  ClbCoord origin) {
    const auto mapped = netlist::map_netlist(nl);
    place::ImplementOptions opts;
    opts.region = place::suggest_region(mapped, origin, fab.geometry());
    return implementer.implement(mapped, opts);
  }
};

/// Hashes what the simulator shows after one lockstep cycle.
void observe(Fnv& h, const Rig& rig,
             std::initializer_list<std::uint8_t> domains,
             std::initializer_list<const place::Implementation*> impls) {
  h.add(static_cast<std::uint64_t>(rig.sim.events_processed()));
  h.add(rig.sim.now().picoseconds());
  for (const std::uint8_t d : domains)
    h.add(static_cast<std::uint64_t>(rig.sim.edges_seen(d)));
  const auto& geom = rig.fab.geometry();
  for (int r = 0; r < geom.clb_rows; ++r) {
    for (int c = 0; c < geom.clb_cols; ++c) {
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        if (!rig.fab.cell(ClbCoord{r, c}, k).used) continue;
        h.add((static_cast<std::uint64_t>(r) << 32) |
              (static_cast<std::uint64_t>(c) << 8) |
              static_cast<std::uint64_t>(k));
        h.add(rig.sim.state_of(ClbCoord{r, c}, k));
        h.add(rig.sim.comb_of(ClbCoord{r, c}, k));
      }
    }
  }
  for (const auto* impl : impls) {
    for (const auto& [sig, pad] : impl->input_pads)
      h.add(rig.sim.pad_value(pad));
    for (const auto& [name, pad] : impl->output_pads)
      h.add(rig.sim.pad_value(pad));
  }
}

void observe_violations(Fnv& h, const Rig& rig) {
  const auto& vs = rig.sim.monitor().violations();
  h.add(vs.size());
  for (const auto& v : vs) {
    h.add(static_cast<std::uint64_t>(v.kind));
    h.add(v.time.picoseconds());
    h.add(v.node);
    h.add(v.description);
  }
}

// The Fig. 4 set-up: a gated-clock ITC'99-class circuit on an XCV200,
// relocated cell by cell over Boundary Scan while it captures (CE high).
TEST(SimGolden, GatedClockCircuitRelocatedCellByCellOnXcv200) {
  Rig rig(fabric::DeviceGeometry::xcv200());
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::us(8), SimTime::us(8)});
  const auto nl = netlist::bench::b01(ClockingStyle::kGatedClock);
  auto impl = rig.implement(nl, ClbCoord{2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);
  harness.watch_registered_outputs();

  Fnv h;
  Rng rng(2003);
  auto step = [&] {
    std::vector<bool> in;
    for (const netlist::SigId s : nl.inputs())
      in.push_back(nl.node(s).name == "ce" || rng.next_bool());
    const auto r = harness.step(in);
    h.add(static_cast<std::uint64_t>(r.output_mismatches));
    h.add(static_cast<std::uint64_t>(r.state_mismatches));
    observe(h, rig, {0}, {&impl});
  };
  for (int i = 0; i < 6; ++i) step();
  const ClbCoord block{impl.region.row + 12, impl.region.col + 16};
  for (int k = 0; k < impl.cell_count(); ++k) {
    rig.sim.run_until(rig.sim.now() + SimTime::ns(1300 * (k + 1)));
    rig.engine.relocate_cell(impl, k,
                             CellSite{ClbCoord{block.row, block.col + k / 4},
                                      k % 4});
    step();
  }
  observe_violations(h, rig);
  EXPECT_EQ(harness.total_mismatches(), 0);
  EXPECT_EQ(h.value(), 0x69c6ec6fad4877aaull);
}

// The two-domain rig of extensions_test's MultiClock case, followed by a
// phase in which two nets gain a disagreeing second source so that the
// drive-conflict check records violations at the edges of both domains.
TEST(SimGolden, TwoClockDomainsRelocateAndConflict) {
  Rig rig(fabric::DeviceGeometry::tiny(16, 16));
  rig.sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  rig.sim.add_clock(sim::ClockSpec{1, SimTime::ns(70), SimTime::ns(70)});
  const auto nl_a = netlist::bench::counter(4);
  const auto nl_b = netlist::bench::gray_counter(4);
  place::ImplementOptions oa, ob;
  oa.region = ClbRect{1, 1, 3, 3};
  oa.clock_domain = 0;
  ob.region = ClbRect{1, 8, 3, 3};
  ob.clock_domain = 1;
  auto ia = rig.implementer.implement(netlist::map_netlist(nl_a), oa);
  auto ib = rig.implementer.implement(netlist::map_netlist(nl_b), ob);
  sim::CircuitHarness ha(rig.sim, nl_a, ia);
  sim::CircuitHarness hb(rig.sim, nl_b, ib);

  Fnv h;
  auto step = [&] {
    h.add(static_cast<std::uint64_t>(ha.step({}).ok()));
    h.add(static_cast<std::uint64_t>(hb.step({}).ok()));
    observe(h, rig, {0, 1}, {&ia, &ib});
  };
  for (int i = 0; i < 10; ++i) step();
  rig.engine.relocate_cell(ia, 0, CellSite{ClbCoord{12, 2}, 0});
  rig.engine.relocate_cell(ib, 0, CellSite{ClbCoord{12, 9}, 0});
  for (int i = 0; i < 8; ++i) step();
  EXPECT_EQ(ha.total_mismatches() + hb.total_mismatches(), 0);

  // Parallel two extra FFs of each counter's domain onto its first state
  // net. The pair captures opposite values at the same edge, so both writes
  // reach the net's sinks at the same instant and the value the sinks keep
  // depends on the order the edge visits FF sites in; the disagreement is
  // also a drive conflict at the edges after.
  struct Extra {
    ClbCoord clb;
    const place::Implementation* impl;
    const netlist::Netlist* nl;
    bool value;
  };
  const Extra extras[] = {{ClbCoord{14, 14}, &ia, &nl_a, true},
                          {ClbCoord{14, 15}, &ia, &nl_a, false},
                          {ClbCoord{15, 14}, &ib, &nl_b, true},
                          {ClbCoord{15, 15}, &ib, &nl_b, false}};
  for (const auto& e : extras) {
    auto cfg = storage(fabric::RegMode::kFF, e.impl->clock_domain, e.value);
    cfg.init = !e.value;
    rig.fab.set_cell_config(e.clb, 0, cfg);
    const auto state_net =
        e.impl->signal_nets.at(e.nl->state_elements().front());
    rig.fab.attach_source(state_net,
                          rig.fab.skeleton().out_pin(e.clb, 0, true));
  }
  for (int i = 0; i < 12; ++i) {
    for (const auto& e : extras) {
      auto cfg = rig.fab.cell(e.clb, 0);
      cfg.lut = static_cast<std::uint16_t>(~cfg.lut);
      rig.fab.set_cell_config(e.clb, 0, cfg);
    }
    rig.sim.run_until(rig.sim.now() + SimTime::ns(90));
    observe(h, rig, {0, 1}, {&ia, &ib});
  }
  EXPECT_GT(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
  observe_violations(h, rig);
  EXPECT_EQ(h.value(), 0x8f815352868d4b3full);
}

// The paper's third implementation case: a latch pipeline (no FF, so no
// clocked site) relocated while it holds data, with a clock running.
TEST(SimGolden, LatchPipelineRelocates) {
  Rig rig(fabric::DeviceGeometry::tiny(12, 12));
  rig.sim.add_clock(sim::ClockSpec{});
  const auto nl = netlist::bench::async_pipeline(4);
  auto impl = rig.implement(nl, ClbCoord{2, 2});
  sim::CircuitHarness harness(rig.sim, nl, impl);

  Fnv h;
  auto step = [&](bool din, bool phi1, bool phi2) {
    const auto r = harness.settle_step({din, phi1, phi2});
    h.add(static_cast<std::uint64_t>(r.ok()));
    observe(h, rig, {0}, {&impl});
  };
  step(true, true, false);
  step(true, false, true);
  rig.engine.relocate_cell(impl, 1, CellSite{ClbCoord{9, 9}, 0});
  step(false, true, false);
  step(false, false, true);
  step(false, true, false);
  rig.engine.relocate_cell(impl, 2, CellSite{ClbCoord{9, 9}, 1});
  step(true, true, false);
  step(true, false, true);
  observe_violations(h, rig);
  EXPECT_EQ(harness.total_mismatches(), 0);
  EXPECT_EQ(h.value(), 0x5131ad13fd220b1full);
}

/// Routes `sinks` of a new net driven by `source`.
fabric::NetId route_net(Rig& rig, const std::string& name,
                        fabric::NodeId source,
                        std::initializer_list<fabric::NodeId> sinks) {
  const fabric::NetId net = rig.fab.create_net(name);
  rig.fab.attach_source(net, source);
  for (const fabric::NodeId s : sinks) rig.router.route_sink(net, s);
  return net;
}

/// The path by which a second source `to` joins `net`'s tree: the cheapest
/// (Dijkstra, first popped on ties) from `to` through free wires to any wire
/// the net already occupies. Returns to..join-node.
std::vector<fabric::NodeId> join_path(const Rig& rig, fabric::NetId net,
                                      fabric::NodeId to) {
  using fabric::NodeKind;
  const auto& graph = rig.fab.graph();
  const auto& skel = rig.fab.skeleton();
  auto is_join = [&](fabric::NodeId n) {
    const NodeKind k = skel.info(n).kind;
    return graph.occupant(n) == net &&
           (k == NodeKind::kSingle || k == NodeKind::kHex ||
            k == NodeKind::kLongRow || k == NodeKind::kLongCol);
  };
  struct Item {
    std::int64_t g;
    fabric::NodeId node;
    bool operator>(const Item& o) const { return g > o.g; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> open;
  std::map<fabric::NodeId, std::int64_t> best{{to, 0}};
  std::map<fabric::NodeId, fabric::NodeId> parent;
  open.push({0, to});
  while (!open.empty()) {
    const Item item = open.top();
    open.pop();
    if (is_join(item.node)) {
      std::vector<fabric::NodeId> path{item.node};
      for (auto it = parent.find(item.node); it != parent.end();
           it = parent.find(it->second))
        path.push_back(it->second);
      std::reverse(path.begin(), path.end());
      return path;
    }
    if (item.g > best[item.node]) continue;
    for (const fabric::NodeId next : skel.fanout(item.node)) {
      const NodeKind k = skel.info(next).kind;
      if (!is_join(next) &&
          (k == NodeKind::kInPin || k == NodeKind::kPad ||
           k == NodeKind::kOutPin || graph.occupant(next) != fabric::kNoNet))
        continue;
      const std::int64_t g =
          item.g + (rig.dm.pip_delay + rig.dm.node_delay(k)).picoseconds();
      if (const auto it = best.find(next); it != best.end() && it->second <= g)
        continue;
      best[next] = g;
      parent[next] = item.node;
      open.push({g, next});
    }
  }
  throw ResourceError("no join path into the net's tree");
}

/// Parallels `to` with the current sources of `net`: a path from `to` joins
/// the net's tree, then `to` drives it.
void parallel_source(Rig& rig, fabric::NetId net, fabric::NodeId to) {
  const auto path = join_path(rig, net, to);
  std::vector<fabric::RouteEdge> edges;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    edges.push_back({path[i], path[i + 1]});
  rig.fab.add_edges(net, edges);
  rig.fab.attach_source(net, to);
}

/// Disconnects source `from` of `net` and the branch that served only it.
void drop_source(Rig& rig, fabric::NetId net, fabric::NodeId from) {
  rig.fab.remove_edges(net, reloc::prune_for_removal(rig.fab, net, {from}));
  rig.fab.detach_source(net, from);
}

// Pad-sourced nets feeding LUT, CE and BX pins, cell outputs driving output
// pads, and nets re-sourced mid-run from one out pin to another, first
// through a paralleled agreeing replica and then to a different function.
TEST(SimGolden, PadsAndNetsResourcedMidRun) {
  using fabric::CellPort;
  using fabric::RegMode;
  Rig rig(fabric::DeviceGeometry::tiny(12, 12));
  rig.sim.add_clock(sim::ClockSpec{});
  const auto& g = rig.fab.skeleton();

  // A: FF of pad a.  B: comb a ^ A.  C: CE-gated FF of B ^ A, CE = pad b.
  // D: bypass latch of pad a, gated by pad b.  E: a replica of A.
  const CellSite a{ClbCoord{3, 3}, 0}, b{ClbCoord{3, 6}, 1},
      c{ClbCoord{6, 4}, 2}, d{ClbCoord{7, 7}, 0}, e{ClbCoord{8, 2}, 0};
  auto ff_of_i0 = fabric::LogicCellConfig{};
  ff_of_i0.lut = fabric::luts::kBufI0;
  ff_of_i0.reg = RegMode::kFF;
  ff_of_i0.used = true;
  auto xor2 = fabric::LogicCellConfig{};
  xor2.lut = fabric::luts::kXor2;
  xor2.used = true;
  auto gated = xor2;
  gated.reg = RegMode::kFF;
  gated.uses_ce = true;
  gated.init = true;
  auto bypass_latch = fabric::LogicCellConfig{};
  bypass_latch.reg = RegMode::kLatch;
  bypass_latch.d_src = fabric::DSrc::kBypass;
  bypass_latch.used = true;
  rig.fab.set_cell_config(a.clb, a.cell, ff_of_i0);
  rig.fab.set_cell_config(b.clb, b.cell, xor2);
  rig.fab.set_cell_config(c.clb, c.cell, gated);
  rig.fab.set_cell_config(d.clb, d.cell, bypass_latch);
  rig.fab.set_cell_config(e.clb, e.cell, ff_of_i0);

  const auto in = [&](CellSite s, CellPort p) {
    return g.in_pin(s.clb, s.cell, p);
  };
  const auto out = [&](CellSite s, bool registered) {
    return g.out_pin(s.clb, s.cell, registered);
  };
  const fabric::NodeId pad_a = g.pad(ClbCoord{0, 3}, 0);
  const fabric::NodeId pad_b = g.pad(ClbCoord{0, 6}, 1);
  const fabric::NodeId pad_qa = g.pad(ClbCoord{11, 4}, 0);
  const fabric::NodeId pad_x = g.pad(ClbCoord{6, 11}, 0);
  const fabric::NodeId pad_qc = g.pad(ClbCoord{11, 8}, 1);
  route_net(rig, "a", pad_a,
            {in(a, CellPort::kI0), in(b, CellPort::kI0), in(d, CellPort::kBX),
             in(e, CellPort::kI0)});
  route_net(rig, "b", pad_b, {in(c, CellPort::kCE), in(d, CellPort::kCE)});
  const fabric::NetId qa = route_net(
      rig, "qa", out(a, true), {pad_qa, in(b, CellPort::kI1), in(c, CellPort::kI1)});
  const fabric::NetId x =
      route_net(rig, "x", out(b, false), {pad_x, in(c, CellPort::kI0)});
  route_net(rig, "qc", out(c, true), {pad_qc});

  Fnv h;
  Rng rng(6151);
  auto step = [&] {
    rig.sim.drive_pad(pad_a, rng.next_bool());
    rig.sim.drive_pad(pad_b, rng.next_bool());
    rig.sim.run_cycles(1);
    observe(h, rig, {0}, {});
    for (const fabric::NodeId p : {pad_a, pad_b, pad_qa, pad_x, pad_qc})
      h.add(rig.sim.pad_value(p));
  };
  for (int i = 0; i < 10; ++i) step();
  parallel_source(rig, qa, out(e, true));  // E agrees with A
  for (int i = 0; i < 5; ++i) step();
  drop_source(rig, qa, out(a, true));
  for (int i = 0; i < 5; ++i) step();
  parallel_source(rig, x, out(d, true));  // D disagrees with B: a conflict
  for (int i = 0; i < 3; ++i) step();
  drop_source(rig, x, out(b, false));
  for (int i = 0; i < 6; ++i) step();
  EXPECT_GT(rig.sim.monitor().count(sim::ViolationKind::kDriveConflict), 0);
  observe_violations(h, rig);
  EXPECT_EQ(h.value(), 0x35f8338b70f846c4ull);
}

TEST(ClockedSiteIndex, FollowsEveryCellChangeAndCapturesOnlyInItsDomain) {
  using fabric::RegMode;
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(8, 8));
  const fabric::DelayModel dm;
  const ClbCoord a{1, 1}, b{2, 2}, c{3, 3};
  // A is configured before the simulator exists, B and C before any clock.
  fab.set_cell_config(a, 0, storage(RegMode::kFF, 0, true));
  sim::FabricSim sim(fab, dm);
  sim.audit();
  fab.set_cell_config(b, 1, storage(RegMode::kFF, 1, true));
  fab.set_cell_config(c, 0, storage(RegMode::kLatch, 0, true));
  sim.audit();

  // Domain 0 edges at 100, 200, ... ns; domain 1 at 150, 250, ... ns. Each
  // check samples 20 ns after an edge, when its clk-to-q has settled.
  auto run_to_ns = [&](std::int64_t ns) {
    sim.run_until(SimTime::ns(ns));
    sim.audit();
  };
  sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  run_to_ns(120);
  EXPECT_TRUE(sim.state_of(a, 0));   // domain 0 captured
  EXPECT_FALSE(sim.state_of(b, 1));  // domain 1 has no clock yet
  EXPECT_FALSE(sim.state_of(c, 0));  // a latch is no clocked site
  EXPECT_EQ(sim.edges_seen(0), 1);
  EXPECT_EQ(sim.edges_seen(1), 0);

  sim.add_clock(sim::ClockSpec{1, SimTime::ns(100), SimTime::ns(150)});
  run_to_ns(170);
  EXPECT_TRUE(sim.state_of(b, 1));

  // A moves to domain 1 with a new value: domain 0's edge at 200 must not
  // capture it, domain 1's edge at 250 must.
  fab.set_cell_config(a, 0, storage(RegMode::kFF, 1, false));
  sim.audit();
  run_to_ns(220);
  EXPECT_TRUE(sim.state_of(a, 0));
  run_to_ns(270);
  EXPECT_FALSE(sim.state_of(a, 0));

  // FF -> latch (B, CE low: the latch holds) and latch -> FF (C).
  fab.set_cell_config(b, 1, storage(RegMode::kLatch, 1, false));
  fab.set_cell_config(c, 0, storage(RegMode::kFF, 0, true));
  sim.audit();
  run_to_ns(370);
  EXPECT_TRUE(sim.state_of(b, 1));
  EXPECT_TRUE(sim.state_of(c, 0));

  // FF -> unused -> FF in the other domain: the site powers up at its init
  // value and then follows domain 0 only.
  fab.clear_cell(a, 0);
  sim.audit();
  run_to_ns(420);
  fab.set_cell_config(a, 0, storage(RegMode::kFF, 0, true));
  sim.audit();
  EXPECT_FALSE(sim.state_of(a, 0));
  run_to_ns(470);
  EXPECT_FALSE(sim.state_of(a, 0));  // domain 1's edge at 450
  run_to_ns(520);
  EXPECT_TRUE(sim.state_of(a, 0));

  // A halted domain keeps its sites indexed but neither counts nor
  // captures; the other domain runs on.
  const std::int64_t edges0 = sim.edges_seen(0);
  const std::int64_t edges1 = sim.edges_seen(1);
  sim.set_clock_running(0, false);
  fab.set_cell_config(c, 0, storage(RegMode::kFF, 0, false));
  run_to_ns(820);
  EXPECT_TRUE(sim.state_of(c, 0));
  EXPECT_EQ(sim.edges_seen(0), edges0);
  EXPECT_EQ(sim.edges_seen(1), edges1 + 3);
  sim.set_clock_running(0, true);
  run_to_ns(920);
  EXPECT_FALSE(sim.state_of(c, 0));
  EXPECT_EQ(sim.edges_seen(0), edges0 + 1);
}

TEST(ClockedSiteIndex, AuditCatchesAStaleIndex) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(8, 8));
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  fab.set_cell_config(ClbCoord{1, 1}, 0,
                      storage(fabric::RegMode::kFF, 0, true));
  sim.audit();
  // A change the simulator is not told about leaves its index stale.
  fab.remove_listener(&sim);
  fab.clear_cell(ClbCoord{1, 1}, 0);
  EXPECT_THROW(sim.audit(), AuditError);
  fab.add_listener(&sim);
}

TEST(EventCoreAudit, FollowsEveryNetAndCellChangeWhileClocked) {
  using fabric::CellPort;
  Rig rig(fabric::DeviceGeometry::tiny(10, 10));
  rig.sim.add_clock(sim::ClockSpec{});
  const auto& g = rig.fab.skeleton();
  const ClbCoord one{2, 2}, other{2, 6}, spare{6, 2};
  auto ff = fabric::LogicCellConfig{};
  ff.lut = fabric::luts::kBufI0;
  ff.reg = fabric::RegMode::kFF;
  ff.used = true;
  rig.fab.set_cell_config(one, 0, ff);
  rig.fab.set_cell_config(other, 1, ff);
  rig.fab.set_cell_config(spare, 0, ff);
  SimTime t = SimTime::zero();
  auto run_audited = [&] {
    t += SimTime::ns(250);
    rig.sim.run_until(t);
    rig.sim.audit();
  };
  run_audited();

  // A pad-sourced net feeding cell pins.
  const fabric::NodeId in_pad = g.pad(ClbCoord{0, 4}, 0);
  route_net(rig, "in", in_pad,
            {g.in_pin(one, 0, CellPort::kI0), g.in_pin(other, 1, CellPort::kI0),
             g.in_pin(spare, 0, CellPort::kI0)});
  rig.sim.audit();
  rig.sim.drive_pad(in_pad, true);
  run_audited();
  EXPECT_TRUE(rig.sim.state_of(one, 0));

  // An out pin driving an output pad.
  const fabric::NodeId out_pad = g.pad(ClbCoord{9, 4}, 1);
  const fabric::NetId q =
      route_net(rig, "q", g.out_pin(one, 0, true), {out_pad});
  rig.sim.audit();
  run_audited();
  EXPECT_TRUE(rig.sim.pad_value(out_pad));

  // Re-sourcing the net from one out pin to another.
  parallel_source(rig, q, g.out_pin(other, 1, true));
  rig.sim.audit();
  drop_source(rig, q, g.out_pin(one, 0, true));
  rig.sim.audit();
  rig.sim.drive_pad(in_pad, false);
  run_audited();
  EXPECT_FALSE(rig.sim.pad_value(out_pad));

  // A second paralleled source, attached and detached.
  parallel_source(rig, q, g.out_pin(spare, 0, true));
  rig.sim.audit();
  run_audited();
  drop_source(rig, q, g.out_pin(spare, 0, true));
  rig.sim.audit();
  run_audited();

  // destroy_net.
  rig.fab.destroy_net(q);
  rig.sim.audit();
  run_audited();

  // A cell going used -> unused -> used.
  rig.fab.clear_cell(other, 1);
  rig.sim.audit();
  run_audited();
  rig.fab.set_cell_config(other, 1, ff);
  rig.sim.audit();
  rig.sim.drive_pad(in_pad, true);
  run_audited();
  EXPECT_TRUE(rig.sim.state_of(other, 1));
  EXPECT_TRUE(rig.sim.monitor().clean());
}

TEST(EventCoreAudit, CatchesAStaleMirrorAndSourceTable) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(8, 8));
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  const ClbCoord clb{1, 1};
  fab.set_cell_config(clb, 0, fabric::LogicCellConfig::constant(true));
  const fabric::NetId net = fab.create_net("n");
  sim.audit();

  // Changes the simulator is not told about leave its tables stale: a LUT
  // rewrite (no clocked-site change) and a new source.
  fab.remove_listener(&sim);
  fab.set_cell_config(clb, 0, fabric::LogicCellConfig::constant(false));
  EXPECT_THROW(sim.audit(), AuditError);
  fab.set_cell_config(clb, 0, fabric::LogicCellConfig::constant(true));
  sim.audit();
  fab.attach_source(net, fab.skeleton().out_pin(clb, 0, false));
  EXPECT_THROW(sim.audit(), AuditError);
  fab.add_listener(&sim);
}

TEST(EventCoreAudit, MirrorAdoptsAFaultyFreeCellAtConstruction) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(8, 8));
  fab.inject_fault({2, 2}, 1, fabric::CellFault{2, true});
  ASSERT_FALSE(fab.cell({2, 2}, 1).used);
  ASSERT_NE(fab.cell({2, 2}, 1), fabric::LogicCellConfig{});
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  EXPECT_NO_THROW(sim.audit());
}

// A single and a long line that drive each other: add_edges accepts both
// PIPs, so a route tree can hold a cycle. The tree index reports it,
// sink_delays throws, and the simulator, told in the middle of an op,
// schedules the sinks a source reaches around the cycle and none behind it.
TEST(RouteTreeCycle, NothingBehindTheCycleIsScheduled) {
  using fabric::NodeId;
  using fabric::NodeKind;
  Rig rig(fabric::DeviceGeometry::tiny(8, 8));
  const auto& g = rig.fab.skeleton();
  NodeId single = fabric::kInvalidNode, longline = fabric::kInvalidNode;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    if (g.info(n).kind != NodeKind::kSingle) continue;
    for (const NodeId m : g.fanout(n)) {
      const NodeKind k = g.info(m).kind;
      if ((k == NodeKind::kLongRow || k == NodeKind::kLongCol) &&
          g.has_edge(m, n)) {
        single = n;
        longline = m;
      }
    }
    if (longline != fabric::kInvalidNode) break;
  }
  ASSERT_NE(longline, fabric::kInvalidNode);
  // The cell output of the single's tile drives it (OMUX) and another
  // single that stays off the cycle; each single drives input pins.
  const ClbCoord tile = g.info(single).tile;
  const NodeId src = g.out_pin(tile, 0, false);
  ASSERT_TRUE(g.has_edge(src, single));
  const auto first_pin = [&](NodeId wire, NodeId other) {
    for (const NodeId m : g.fanout(wire))
      if (g.info(m).kind == NodeKind::kInPin && m != other) return m;
    return fabric::kInvalidNode;
  };
  NodeId side = fabric::kInvalidNode;
  for (const NodeId m : g.fanout(src))
    if (g.info(m).kind == NodeKind::kSingle && m != single) side = m;
  ASSERT_NE(side, fabric::kInvalidNode);
  const NodeId behind = first_pin(single, fabric::kInvalidNode);
  const NodeId reached = first_pin(side, behind);
  ASSERT_NE(behind, fabric::kInvalidNode);
  ASSERT_NE(reached, fabric::kInvalidNode);

  const auto site = [&](NodeId pin) {
    const auto info = g.info(pin);
    return std::pair{info.tile, static_cast<int>(info.a)};
  };
  auto buffer = fabric::LogicCellConfig::constant(false);
  buffer.lut = fabric::luts::kBufI0;
  rig.fab.set_cell_config(tile, 0, fabric::LogicCellConfig::constant(true));
  for (const NodeId pin : {behind, reached})
    rig.fab.set_cell_config(site(pin).first, site(pin).second, buffer);

  const fabric::NetId net = rig.fab.create_net("loop");
  rig.fab.attach_source(net, src);
  const std::vector<fabric::RouteEdge> edges{{src, single},
                                             {single, longline},
                                             {longline, single},
                                             {single, behind},
                                             {src, side},
                                             {side, reached}};
  rig.fab.add_edges(net, edges);

  const fabric::TreeIndex index(rig.fab.net(net));
  EXPECT_FALSE(index.acyclic());
  EXPECT_EQ(index.order().size(), 3u);  // src, side, reached
  EXPECT_THROW((void)rig.fab.sink_delays(net, rig.dm), ContractError);

  rig.sim.run_until(SimTime::ns(500));
  const auto pin_value = [&](NodeId pin) {
    const auto info = g.info(pin);
    return rig.sim.pin_of(info.tile, info.a,
                          static_cast<fabric::CellPort>(info.b));
  };
  EXPECT_TRUE(pin_value(reached));
  EXPECT_FALSE(pin_value(behind));
}

TEST(DriveConflict, RecordedByTheClockEdgeAlone) {
  fabric::Fabric fab(fabric::DeviceGeometry::tiny(8, 8));
  const fabric::DelayModel dm;
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)});
  const ClbCoord one{1, 1}, zero{1, 2}, also_one{1, 3};
  fab.set_cell_config(one, 0, fabric::LogicCellConfig::constant(true));
  fab.set_cell_config(zero, 0, fabric::LogicCellConfig::constant(false));
  fab.set_cell_config(also_one, 0, fabric::LogicCellConfig::constant(true));
  const auto x = [&](ClbCoord clb) {
    return fab.skeleton().out_pin(clb, 0, false);
  };
  const fabric::NetId net = fab.create_net("paralleled");
  fab.attach_source(net, x(one));
  auto conflicts = [&] {
    return sim.monitor().count(sim::ViolationKind::kDriveConflict);
  };

  // Two agreeing sources are no conflict.
  fab.attach_source(net, x(also_one));
  sim.run_until(SimTime::ns(150));
  sim.audit();
  EXPECT_EQ(conflicts(), 0);

  // A disagreeing third source: nothing until the next edge, which records
  // one violation naming it, at the edge's time.
  fab.attach_source(net, x(zero));
  sim.audit();
  sim.run_until(SimTime::ns(199));
  EXPECT_EQ(conflicts(), 0);
  sim.run_until(SimTime::ns(201));
  ASSERT_EQ(conflicts(), 1);
  const sim::Violation& v = sim.monitor().violations().back();
  EXPECT_EQ(v.time, SimTime::ns(200));
  EXPECT_EQ(v.node, x(zero));
  sim.run_until(SimTime::ns(301));
  EXPECT_EQ(conflicts(), 2);  // every edge while the conflict lasts

  // Back to agreeing sources: no further violations.
  fab.detach_source(net, x(zero));
  sim.audit();
  sim.run_until(SimTime::ns(601));
  EXPECT_EQ(conflicts(), 2);

  // Conflict again, then the net is destroyed: nothing after that.
  fab.attach_source(net, x(zero));
  sim.run_until(SimTime::ns(701));
  EXPECT_EQ(conflicts(), 3);
  fab.destroy_net(net);
  sim.audit();
  sim.run_until(SimTime::ns(1001));
  EXPECT_EQ(conflicts(), 3);
  EXPECT_EQ(sim.edges_seen(0), 10);
}

// ---- SimFastForward ------------------------------------------------------

/// One circuit implemented on a Rig, under a lockstep harness watching its
/// registered outputs.
struct FfSide {
  Rig rig;
  place::Implementation impl;
  sim::CircuitHarness harness;

  FfSide(const fabric::DeviceGeometry& geom,
         std::initializer_list<sim::ClockSpec> clocks,
         const netlist::Netlist& nl, ClbCoord origin)
      : rig(geom),
        impl(add_clocks_then_implement(rig, clocks, nl, origin)),
        harness(rig.sim, nl, impl) {
    harness.watch_registered_outputs();
  }

  static place::Implementation add_clocks_then_implement(
      Rig& rig, std::initializer_list<sim::ClockSpec> clocks,
      const netlist::Netlist& nl, ClbCoord origin) {
    for (const auto& c : clocks) rig.sim.add_clock(c);
    return rig.implement(nl, origin);
  }
};

/// The same set-up built twice. `fast` runs each window in one run_until
/// call; `ref` runs it in calls shorter than every clock period, so no call
/// holds two edges of a domain, its detector never proposes a period and it
/// steps through every edge.
class FfTwin {
 public:
  FfTwin(const fabric::DeviceGeometry& geom,
         std::initializer_list<sim::ClockSpec> clocks,
         const netlist::Netlist& nl, ClbCoord origin)
      : fast(geom, clocks, nl, origin), ref(geom, clocks, nl, origin) {
    for (const auto& c : clocks)
      slice_ = std::min(slice_, c.period - SimTime::ps(1));
  }

  /// Applies `f` to both sides.
  template <typename F>
  void both(F&& f) {
    f(fast);
    f(ref);
  }
  /// One lockstep cycle on both sides with the same inputs, which both
  /// harnesses must find in agreement with their golden models.
  void step(const std::vector<bool>& inputs) {
    both([&](FfSide& s) {
      const auto r = s.harness.step(inputs);
      EXPECT_TRUE(r.ok()) << (s.harness.mismatch_log().empty()
                                  ? std::string()
                                  : s.harness.mismatch_log().back());
    });
  }
  /// Runs both sides `span` on with the inputs held.
  void run(SimTime span) {
    const SimTime t = fast.rig.sim.now() + span;
    fast.rig.sim.run_until(t);
    while (ref.rig.sim.now() < t)
      ref.rig.sim.run_until(std::min(t, ref.rig.sim.now() + slice_));
  }
  /// Expects every value and count the simulator shows to agree.
  void expect_same(const std::string& where) const {
    const sim::FabricSim& a = fast.rig.sim;
    const sim::FabricSim& b = ref.rig.sim;
    EXPECT_EQ(a.now(), b.now()) << where;
    EXPECT_EQ(a.events_processed(), b.events_processed()) << where;
    for (std::uint8_t d = 0; d < 4; ++d)
      EXPECT_EQ(a.edges_seen(d), b.edges_seen(d)) << where << " dom " << +d;
    EXPECT_EQ(a.monitor().transitions_observed(),
              b.monitor().transitions_observed())
        << where;
    const auto& va = a.monitor().violations();
    const auto& vb = b.monitor().violations();
    ASSERT_EQ(va.size(), vb.size()) << where;
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i].kind, vb[i].kind) << where << " violation " << i;
      EXPECT_EQ(va[i].time, vb[i].time) << where << " violation " << i;
      EXPECT_EQ(va[i].node, vb[i].node) << where << " violation " << i;
    }
    const auto& geom = fast.rig.fab.geometry();
    int differ = 0;
    for (int r = 0; r < geom.clb_rows; ++r) {
      for (int c = 0; c < geom.clb_cols; ++c) {
        for (int k = 0; k < geom.cells_per_clb; ++k) {
          const ClbCoord clb{r, c};
          differ += a.state_of(clb, k) != b.state_of(clb, k);
          differ += a.comb_of(clb, k) != b.comb_of(clb, k);
          for (int p = 0; p < fabric::kInPorts; ++p) {
            const auto port = static_cast<fabric::CellPort>(p);
            differ += a.pin_of(clb, k, port) != b.pin_of(clb, k, port);
          }
        }
      }
    }
    EXPECT_EQ(differ, 0) << where << ": q, x or pin values differ";
    for (const auto& [sig, pad] : fast.impl.input_pads)
      EXPECT_EQ(a.pad_value(pad), b.pad_value(pad)) << where;
    for (const auto& [name, pad] : fast.impl.output_pads)
      EXPECT_EQ(a.pad_value(pad), b.pad_value(pad)) << where << " " << name;
    EXPECT_EQ(b.edges_fast_forwarded(), 0) << where;
  }

  FfSide fast;
  FfSide ref;

 private:
  SimTime slice_ = SimTime::ms(1000);
};

/// Random inputs for a netlist; "ce" is high unless `ce_random`.
std::vector<bool> ff_inputs(const netlist::Netlist& nl, Rng& rng,
                            bool ce_random = false) {
  std::vector<bool> in;
  for (const netlist::SigId s : nl.inputs())
    in.push_back(nl.node(s).name == "ce" && !ce_random ? true
                                                       : rng.next_bool());
  return in;
}

/// Lockstep cycles and held-input windows of 2048 edges, alternately, with
/// both sides compared after every window. A window keeps the clock phase
/// a lockstep cycle ends at, so the next cycle drives its inputs half a
/// period before the edge, as CircuitHarness::step expects.
void ff_windows(FfTwin& twin, const netlist::Netlist& nl, std::uint64_t seed,
                SimTime period, const std::string& name) {
  Rng rng(seed);
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 3; ++i) twin.step(ff_inputs(nl, rng, w == 2));
    twin.run(period * 2048);
    twin.expect_same(name + " window " + std::to_string(w));
  }
  twin.step(ff_inputs(nl, rng));
  twin.expect_same(name + " after the windows");
}

TEST(SimFastForward, Itc99SuiteGatedAndFreeRunningMatchesSteppedEdges) {
  for (const auto style :
       {ClockingStyle::kFreeRunning, ClockingStyle::kGatedClock}) {
    const auto suite = netlist::bench::itc99_suite(style);
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto& e = suite[i];
      const bool gated = style == ClockingStyle::kGatedClock;
      const std::string name = e.name + (gated ? " gated" : " free");
      FfTwin twin(fabric::DeviceGeometry::tiny(12, 12), {sim::ClockSpec{}},
                  e.circuit, ClbCoord{1, 1});
      ff_windows(twin, e.circuit, 0xFF00 + i, SimTime::ns(100), name);
      EXPECT_GT(twin.fast.rig.sim.edges_fast_forwarded(), 0) << name;
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// The paper's Fig. 4 shape: a gated-clock circuit on an XCV200 with CE
// high at 125 kHz, one port wait of ~2900 edges, then a cell relocated over
// Boundary Scan while it captures. The skip must engage, in the plain wait
// and inside the engine's, and the harness must stay in lockstep.
TEST(SimFastForward, Fig4ShapeSkipsAndStaysExact) {
  const SimTime period = SimTime::us(8);
  const auto nl = netlist::bench::b01(ClockingStyle::kGatedClock);
  FfTwin twin(fabric::DeviceGeometry::xcv200(),
              {sim::ClockSpec{0, period, period}}, nl, ClbCoord{2, 2});
  Rng rng(2003);
  for (int i = 0; i < 6; ++i) twin.step(ff_inputs(nl, rng));
  twin.run(SimTime::us(22600));
  twin.expect_same("port wait");
  EXPECT_GT(twin.fast.rig.sim.edges_fast_forwarded(), 2000);

  const std::int64_t before = twin.fast.rig.sim.edges_fast_forwarded();
  FfSide& s = twin.fast;
  s.rig.engine.relocate_cell(
      s.impl, 0,
      CellSite{ClbCoord{s.impl.region.row + 12, s.impl.region.col + 16}, 0});
  EXPECT_GT(s.rig.sim.edges_fast_forwarded(), before);
  for (int i = 0; i < 4; ++i) {
    const auto r = s.harness.step(ff_inputs(nl, rng));
    EXPECT_TRUE(r.ok());
  }
  EXPECT_TRUE(s.rig.sim.monitor().clean());
}

TEST(SimFastForward, LatchPipelineMatchesSteppedEdges) {
  const auto nl = netlist::bench::async_pipeline(4);
  FfTwin twin(fabric::DeviceGeometry::tiny(12, 12), {sim::ClockSpec{}}, nl,
              ClbCoord{2, 2});
  const bool phases[][3] = {{true, true, false},  {true, false, true},
                            {false, true, false}, {false, false, true},
                            {true, true, true},   {false, false, false}};
  for (int i = 0; i < 6; ++i) {
    const auto& ph = phases[i];
    twin.both([&](FfSide& s) {
      EXPECT_TRUE(s.harness.settle_step({ph[0], ph[1], ph[2]}).ok());
    });
    twin.run(SimTime::ns(100) * 2048);
    twin.expect_same("phase " + std::to_string(i));
  }
}

TEST(SimFastForward, HaltedDomainMatchesSteppedEdges) {
  const auto nl = netlist::bench::b06(ClockingStyle::kGatedClock);
  FfTwin twin(fabric::DeviceGeometry::tiny(16, 16), {sim::ClockSpec{}}, nl,
              ClbCoord{2, 2});
  Rng rng(77);
  for (int i = 0; i < 4; ++i) twin.step(ff_inputs(nl, rng));
  twin.run(SimTime::us(150));
  twin.expect_same("running");
  twin.both([](FfSide& s) { s.rig.sim.set_clock_running(0, false); });
  twin.run(SimTime::us(300) + SimTime::ns(50));
  twin.expect_same("halted");
  twin.both([](FfSide& s) { s.rig.sim.set_clock_running(0, true); });
  twin.run(SimTime::us(150));
  twin.expect_same("running again");
  twin.step(ff_inputs(nl, rng));
  twin.expect_same("after the windows");
}

TEST(SimFastForward, TwoClockDomainsMatchSteppedEdges) {
  const auto nl_a = netlist::bench::b01(ClockingStyle::kFreeRunning);
  const auto nl_b = netlist::bench::gray_counter(4);
  FfTwin twin(fabric::DeviceGeometry::tiny(16, 16),
              {sim::ClockSpec{0, SimTime::ns(100), SimTime::ns(100)},
               sim::ClockSpec{1, SimTime::ns(70), SimTime::ns(70)}},
              nl_a, ClbCoord{2, 2});
  // The second circuit, clocked by domain 1, stays unobserved by a harness:
  // the twins' values and counts are compared directly.
  twin.both([&](FfSide& s) {
    place::ImplementOptions opts;
    opts.region = ClbRect{2, 9, 3, 3};
    opts.clock_domain = 1;
    s.rig.implementer.implement(netlist::map_netlist(nl_b), opts);
  });
  ff_windows(twin, nl_a, 0x2D, SimTime::ns(100), "two domains");
  // The other domain's edge is always pending: no edge pop is quiet.
  EXPECT_EQ(twin.fast.rig.sim.edges_fast_forwarded(), 0);
}

// Paralleled outputs that disagree: every edge records a drive conflict,
// so no period is violation-free; the circuit itself keeps running.
TEST(SimFastForward, DriveConflictMatchesSteppedEdges) {
  const auto nl = netlist::bench::b02(ClockingStyle::kGatedClock);
  FfTwin twin(fabric::DeviceGeometry::tiny(16, 16), {sim::ClockSpec{}}, nl,
              ClbCoord{2, 2});
  twin.both([](FfSide& s) {
    auto& fab = s.rig.fab;
    const ClbCoord one{12, 12}, zero{12, 13};
    fab.set_cell_config(one, 0, fabric::LogicCellConfig::constant(true));
    fab.set_cell_config(zero, 0, fabric::LogicCellConfig::constant(false));
    const fabric::NetId net = fab.create_net("paralleled");
    fab.attach_source(net, fab.skeleton().out_pin(one, 0, false));
    fab.attach_source(net, fab.skeleton().out_pin(zero, 0, false));
  });
  ff_windows(twin, nl, 0xDC, SimTime::ns(100), "drive conflict");
  EXPECT_GT(twin.fast.rig.sim.monitor().count(
                sim::ViolationKind::kDriveConflict),
            6000);
  // Every candidate period fails its check on the violations it records.
  EXPECT_EQ(twin.fast.rig.sim.edges_fast_forwarded(), 0);
}

// ---- EventLanes ----------------------------------------------------------

struct LaneEvent {
  SimTime time;
  std::uint64_t key = 0;
};

/// Drives an EventLanes queue and a reference std::priority_queue on
/// (time, seq) with one schedule stream, the way FabricSim does: every
/// event lands a delay after now(), and now() only moves forward, to the
/// time of a popped event or to a run_until target.
class LaneOracle {
 public:
  using Lanes = sim::EventLanes<LaneEvent>;

  Lanes::Lane schedule(SimTime delay) {
    const LaneEvent e{now_ + delay, ++seq_};
    const Lanes::Lane lane = lanes_.lane(delay);
    lanes_.push(lane, e);
    ref_.push(e);
    return lane;
  }
  /// Pops the next event from both queues and checks they agree.
  void pop() {
    ASSERT_FALSE(ref_.empty());
    ASSERT_FALSE(lanes_.empty());
    EXPECT_EQ(lanes_.top_time(), ref_.top().time);
    const LaneEvent got = lanes_.pop();
    const LaneEvent want = ref_.top();
    ref_.pop();
    ASSERT_EQ(got.time, want.time) << "pop " << pops_;
    ASSERT_EQ(got.key, want.key) << "pop " << pops_;
    now_ = got.time;
    ++pops_;
  }
  /// FabricSim::run_until: pops every event up to `t`, then now() = t.
  void run_until(SimTime t) {
    while (!ref_.empty() && ref_.top().time <= t) {
      pop();
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(lanes_.empty() || lanes_.top_time() > t);
    now_ = t;
  }
  void audit() const { lanes_.audit(now_); }

  SimTime now() const { return now_; }
  std::size_t pending() const { return ref_.size(); }
  std::int64_t pops() const { return pops_; }
  const Lanes& lanes() const { return lanes_; }

 private:
  struct Later {
    bool operator()(const LaneEvent& a, const LaneEvent& b) const {
      return a.time != b.time ? a.time > b.time : a.key > b.key;
    }
  };

  Lanes lanes_;
  std::priority_queue<LaneEvent, std::vector<LaneEvent>, Later> ref_;
  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;
  std::int64_t pops_ = 0;
};

TEST(EventLanes, RandomMonotoneStreamsPopInReferenceOrder) {
  // Small delays that are sums of one another, so events of different
  // lanes often share a time; zero (FabricSim's pin refresh); and, now and
  // then, a delay never seen before.
  const std::vector<std::int64_t> common = {0, 1, 2, 3, 5, 8, 13, 100};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LaneOracle q;
    for (int step = 0; step < 4000; ++step) {
      const int burst = rng.next_int(0, 6);
      for (int i = 0; i < burst; ++i) {
        const std::int64_t d =
            rng.next_bool(0.05)
                ? rng.next_int(0, 5000)
                : common[static_cast<std::size_t>(
                      rng.next_int(0, static_cast<int>(common.size()) - 1))];
        q.schedule(SimTime::ps(d));
      }
      if (rng.next_bool(0.2)) {
        q.run_until(q.now() + SimTime::ps(rng.next_int(0, 20)));
      } else {
        for (int i = rng.next_int(0, 8); i > 0 && q.pending() > 0; --i) q.pop();
      }
      if (HasFatalFailure()) return;
      if (step % 97 == 0) {
        EXPECT_NO_THROW(q.audit());
      }
    }
    q.run_until(SimTime::never());  // drain: every lane empties
    EXPECT_TRUE(q.lanes().empty());
    EXPECT_NO_THROW(q.audit());
    EXPECT_GT(q.lanes().lane_count(), common.size());  // unseen delays
  }
}

TEST(EventLanes, LanesDrainRefillAndWrapInOrder) {
  LaneOracle q;
  // Three events in one lane, two popped, then enough pushes to wrap the
  // four-slot ring and grow it while wrapped; a second lane interleaves.
  for (int i = 0; i < 3; ++i) q.schedule(SimTime::ps(10));
  q.pop();
  q.pop();
  for (int i = 0; i < 9; ++i) {
    q.schedule(SimTime::ps(10));
    q.schedule(SimTime::ps(i));
    EXPECT_NO_THROW(q.audit());
  }
  q.run_until(SimTime::ps(1000));
  EXPECT_TRUE(q.lanes().empty());
  // Drained lanes refill and re-enter the heads heap.
  q.schedule(SimTime::ps(10));
  q.schedule(SimTime::ps(0));
  EXPECT_NO_THROW(q.audit());
  q.run_until(SimTime::ps(2000));
  EXPECT_EQ(q.pops(), 3 + 18 + 2);
}

TEST(EventLanes, NeverDrainingLaneStaysBounded) {
  // A clock-like lane keeps ~10 events pending for the whole run (one
  // pushed every 100 ps, each due 1000 ps later), while a second lane
  // drains and refills around it.
  LaneOracle q;
  LaneOracle::Lanes::Lane slow = 0;
  for (int step = 1; step <= 200000; ++step) {
    slow = q.schedule(SimTime::ps(1000));
    q.schedule(SimTime::ps(30));
    q.run_until(q.now() + SimTime::ps(100));
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(q.pending(), 9u);
  EXPECT_LE(q.lanes().capacity(slow), 16u);
  EXPECT_NO_THROW(q.audit());
}

TEST(EventLanes, RejectsNegativeDelaysAndAuditsOrder) {
  sim::EventLanes<LaneEvent> lanes;
  EXPECT_THROW(lanes.lane(SimTime::ps(-1)), ContractError);
  const auto l = lanes.lane(SimTime::ps(5));
  lanes.push(l, LaneEvent{SimTime::ps(10), 1});
  EXPECT_NO_THROW(lanes.audit(SimTime::ps(10)));
  // An event earlier than now() ...
  EXPECT_THROW(lanes.audit(SimTime::ps(11)), AuditError);
  // ... and a lane out of (time, key) order are both caught.
  lanes.push(l, LaneEvent{SimTime::ps(9), 2});
  EXPECT_THROW(lanes.audit(SimTime::zero()), AuditError);
}

}  // namespace
}  // namespace relogic
