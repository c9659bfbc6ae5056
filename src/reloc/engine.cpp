#include "relogic/reloc/engine.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "relogic/common/audit.hpp"
#include "relogic/common/logging.hpp"
#include "relogic/fabric/tree_index.hpp"
#include "relogic/reloc/net_surgery.hpp"

namespace relogic::reloc {

using config::ConfigOp;
using fabric::CellPort;
using fabric::DSrc;
using fabric::LogicCellConfig;
using fabric::NetId;
using fabric::NodeId;
using fabric::RegMode;
using fabric::RouteEdge;
using place::CellSite;

std::string RelocationReport::to_string() const {
  return from.to_string() + " -> " + to.to_string() + " [" +
         fabric::to_string(reg) + (gated_clock ? "+ce" : "") + "] " +
         std::to_string(ops) + " ops, " + std::to_string(frames_written) +
         " frames, config " + config_time.to_string() + ", wall " +
         wall_time.to_string();
}

void FunctionRelocationReport::add(const RelocationReport& r) {
  cells.push_back(r);
  config_time += r.config_time;
  wall_time += r.wall_time;
  frames_written += r.frames_written;
}

namespace {
/// Bound on the Fig. 4 "> 2 CLK pulse" state-transfer wait, in cycles.
constexpr int kMaxStateTransferCycles = 64;
/// Settle time used instead of clock waits for asynchronous circuits.
constexpr SimTime kAsyncSettle = SimTime::ns(300);
/// Search radius (in CLBs) for the free CLB hosting the auxiliary
/// relocation circuit.
constexpr int kAuxSearchRadius = 5;
/// Cycles original and replica outputs stay paralleled (paper: >= 1).
constexpr int kOutputParallelCycles = 1;

/// Paths planned within one transaction are not committed yet, so later
/// searches for *other* nets must avoid their nodes explicitly.
struct PlanTracker {
  std::map<NetId, std::set<NodeId>> planned;

  place::RouteOptions options_for(NetId net,
                                  const place::RouteOptions& base) const {
    place::RouteOptions o = base;
    for (const auto& [n, nodes] : planned) {
      if (n != net) o.avoid_nodes.insert(nodes.begin(), nodes.end());
    }
    return o;
  }
  void add(NetId net, const std::vector<NodeId>& path) {
    planned[net].insert(path.begin(), path.end());
  }
};

/// Keeps a replica path off every node of the branch it parallels, except
/// the shared sink.
void avoid_branch(const std::vector<RouteEdge>& branch, NodeId sink,
                  place::RouteOptions& route) {
  for (const auto& e : branch) {
    if (e.to != sink) route.avoid_nodes.insert(e.to);
  }
}

/// Routing kept out of every column holding live LUT-RAM.
place::RouteOptions avoiding_lut_ram(const fabric::Fabric& fabric) {
  place::RouteOptions route;
  route.avoid_columns = fabric.lut_ram_columns();
  return route;
}

/// The site of `impl`'s cell `cell_index`, after the checks every cell
/// move makes: the cell is configured, and `dest` is another, free site.
CellSite move_source(const fabric::Fabric& fabric,
                     const place::Implementation& impl, int cell_index,
                     CellSite dest) {
  RELOGIC_CHECK(cell_index >= 0 &&
                cell_index < static_cast<int>(impl.sites.size()));
  const CellSite src = impl.sites[static_cast<std::size_t>(cell_index)];
  RELOGIC_CHECK_MSG(fabric.cell(src.clb, src.cell).used,
                    "source cell is not configured");
  RELOGIC_CHECK_MSG(src != dest, "source and destination are the same site");
  RELOGIC_CHECK_MSG(!fabric.cell(dest.clb, dest.cell).used,
                    "destination cell " + dest.to_string() + " is occupied");
  return src;
}

/// Every wait and every verification of a move runs on the simulator.
sim::FabricSim& live(sim::FabricSim* sim) {
  RELOGIC_CHECK_MSG(sim != nullptr, "the relocation engine needs a simulator");
  return *sim;
}

NodeId in_pin_of(const fabric::RoutingSkeleton& skel, CellSite s, int p) {
  return skel.in_pin(s.clb, s.cell, static_cast<CellPort>(p));
}

/// Nets attached around one logic cell, discovered from the fabric itself
/// (the engine needs no netlist knowledge — exactly like the paper's tool,
/// which works from the configuration).
struct CellPorts {
  std::array<NetId, fabric::kInPorts> in{};  // kNoNet when pin unused
  NetId out_x = fabric::kNoNet;
  NetId out_q = fabric::kNoNet;
};

CellPorts discover_ports(const fabric::Fabric& fabric, CellSite site) {
  const auto& skel = fabric.skeleton();
  const auto& graph = fabric.graph();
  CellPorts ports;
  for (int p = 0; p < fabric::kInPorts; ++p) {
    ports.in[static_cast<std::size_t>(p)] =
        graph.occupant(in_pin_of(skel, site, p));
  }
  const NodeId x = skel.out_pin(site.clb, site.cell, false);
  const NodeId q = skel.out_pin(site.clb, site.cell, true);
  const NetId nx = graph.occupant(x);
  const NetId nq = graph.occupant(q);
  if (nx != fabric::kNoNet && fabric.net(nx).has_source(x)) ports.out_x = nx;
  if (nq != fabric::kNoNet && fabric.net(nq).has_source(q)) ports.out_q = nq;
  return ports;
}

// The four rewiring steps of a cell move, shared by the on-line procedure
// and the halted LUT-RAM copy. Each only appends actions to `op`.

/// Parallels the LUT input nets (and `ce` unless kNoNet, onto the CE pin)
/// onto the replica at `dest`.
void add_input_paths(const fabric::Fabric& fabric, place::Router& router,
                     const CellPorts& ports, NetId ce, CellSite dest,
                     const place::RouteOptions& route, PlanTracker& plan,
                     ConfigOp& op) {
  const auto add_planned = [&](NetId n, int p) {
    const auto path =
        router.find_path(n, in_pin_of(fabric.skeleton(), dest, p),
                         plan.options_for(n, route));
    plan.add(n, path);
    op.add_path(n, path);
  };
  for (int p = 0; p < 4; ++p) {
    const NetId n = ports.in[static_cast<std::size_t>(p)];
    if (n != fabric::kNoNet) add_planned(n, p);
  }
  if (ce != fabric::kNoNet) add_planned(ce, static_cast<int>(CellPort::kCE));
}

/// Attaches the replica's outputs as second sources of the cell's output
/// nets and covers every sink from them. Coverage paths may ride existing
/// tree segments; only genuinely new PIPs enter the transaction (riding
/// costs no frames on the device).
void add_output_paths(const fabric::Fabric& fabric, place::Router& router,
                      const CellPorts& ports, CellSite dest,
                      const place::RouteOptions& route, PlanTracker& plan,
                      ConfigOp& op) {
  for (const bool registered : {false, true}) {
    const NetId net = registered ? ports.out_q : ports.out_x;
    if (net == fabric::kNoNet) continue;
    const NodeId pin =
        fabric.skeleton().out_pin(dest.clb, dest.cell, registered);
    op.attach_source(net, pin);
    for (const NodeId s : fabric.net_sinks(net)) {
      const auto path = router.find_path_from({&pin, 1}, net, s,
                                              plan.options_for(net, route));
      plan.add(net, path);
      const auto& tree = fabric.net(net);
      for (std::size_t i = 1; i < path.size(); ++i) {
        const RouteEdge e{path[i - 1], path[i]};
        if (!tree.has_edge(e)) op.add_edge(net, e);
      }
    }
  }
}

/// Prunes the branches only the original cell's outputs at `src` drive and
/// detaches them as sources.
void remove_outputs(const fabric::Fabric& fabric, const CellPorts& ports,
                    CellSite src, ConfigOp& op) {
  for (const bool registered : {false, true}) {
    const NetId net = registered ? ports.out_q : ports.out_x;
    if (net == fabric::kNoNet) continue;
    const NodeId pin =
        fabric.skeleton().out_pin(src.clb, src.cell, registered);
    for (const auto& e : prune_for_removal(fabric, net, {pin}))
      op.remove_edge(net, e);
    op.detach_source(net, pin);
  }
}

/// Prunes the branches that serve only the original cell's input pins.
void remove_inputs(const fabric::Fabric& fabric, const CellPorts& ports,
                   CellSite src, ConfigOp& op) {
  const auto& skel = fabric.skeleton();
  const auto& graph = fabric.graph();
  // A net may feed several pins of the cell; drop them together so
  // shared branch segments are freed exactly once.
  std::map<NetId, std::vector<NodeId>> drops;
  for (int p = 0; p < fabric::kInPorts; ++p) {
    const NetId n = ports.in[static_cast<std::size_t>(p)];
    if (n == fabric::kNoNet || !fabric.net_exists(n)) continue;
    const NodeId pin = in_pin_of(skel, src, p);
    if (graph.occupant(pin) == n) drops[n].push_back(pin);
  }
  for (const auto& [n, pins] : drops) {
    for (const auto& e : prune_for_removal(fabric, n, pins))
      op.remove_edge(n, e);
  }
}
}  // namespace

RelocationEngine::RelocationEngine(config::ConfigController& controller,
                                   place::Router& router, sim::FabricSim* sim)
    : controller_(&controller), router_(&router), sim_(live(sim)) {}

CellSite RelocationEngine::find_aux_site(CellSite near) const {
  const auto& geom = fabric().geometry();
  const std::set<int> lut_ram_cols = fabric().lut_ram_columns();
  for (int radius = 1; radius <= kAuxSearchRadius; ++radius) {
    for (int dr = -radius; dr <= radius; ++dr) {
      for (int dc = -radius; dc <= radius; ++dc) {
        if (std::max(std::abs(dr), std::abs(dc)) != radius) continue;
        const ClbCoord c{near.clb.row + dr, near.clb.col + dc};
        if (!geom.in_bounds(c)) continue;
        if (lut_ram_cols.contains(c.col)) continue;
        if (fabric().clb_free(c)) return CellSite{c, 0};
      }
    }
  }
  throw ResourceError(
      "no free CLB within radius " + std::to_string(kAuxSearchRadius) +
      " of " + near.clb.to_string() + " for the auxiliary relocation circuit");
}

void RelocationEngine::apply(const ConfigOp& op, RelocationReport& report,
                             bool allow_lut_ram_columns) {
  const auto result = controller_->apply(op, allow_lut_ram_columns);
  ++report.ops;
  report.frames_written += result.frames_written;
  report.columns_touched += result.columns_touched;
  report.config_time += result.time;
  report.wall_time += result.time;
  sim_.run_until(sim_.now() + result.time);
  // A net's validity changes only through actions naming it: occupy()
  // refuses foreign nodes and a net releases only its own.
  std::vector<NetId> touched;
  for (const auto& action : op.actions) {
    NetId n = fabric::kNoNet;
    if (const auto* e = std::get_if<config::EdgeChange>(&action)) {
      n = e->net;
    } else if (const auto* s = std::get_if<config::SourceChange>(&action)) {
      n = s->net;
    }
    if (n != fabric::kNoNet && std::ranges::find(touched, n) == touched.end())
      touched.push_back(n);
  }
  for (NetId n : touched) {
    if (!fabric().net_exists(n)) continue;
    try {
      fabric().validate_net(n);
    } catch (const Error& e) {
      throw IllegalOperationError("after op '" + op.label + "': " + e.what());
    }
  }
  RELOGIC_LOG(kDebug) << "reloc op '" << op.label << "': "
                      << result.frames_written << " frames, "
                      << result.time.to_string();
}

void RelocationEngine::wait_cycles(int cycles, std::uint8_t domain,
                                   RelocationReport& report) {
  if (cycles <= 0) return;
  const SimTime before = sim_.now();
  sim_.run_cycles(cycles, domain);
  report.wall_time += sim_.now() - before;
}

void RelocationEngine::wait_time(SimTime t, RelocationReport& report) {
  if (t <= SimTime::zero()) return;
  sim_.run_until(sim_.now() + t);
  report.wall_time += t;
}

RelocationReport RelocationEngine::relocate_cell(place::Implementation& impl,
                                                 int cell_index, CellSite dest) {
  const CellSite src = move_source(fabric(), impl, cell_index, dest);
  const LogicCellConfig cfg = fabric().cell(src.clb, src.cell);
  if (cfg.lut_mode == fabric::LutMode::kRam) {
    throw IllegalOperationError(
        "cell " + src.to_string() +
        " is a LUT-RAM: on-line relocation is not feasible (paper, Sec. 2); "
        "relocate_lut_ram_cell_halted is the stop-the-system alternative");
  }

  RelocationReport report;
  report.from = src;
  report.to = dest;
  report.reg = cfg.reg;
  report.gated_clock = cfg.reg == RegMode::kFF && cfg.uses_ce;
  const bool needs_aux =
      report.gated_clock || cfg.reg == RegMode::kLatch;
  const bool is_async = cfg.reg == RegMode::kLatch;
  const std::uint8_t domain = cfg.clock_domain;

  const place::RouteOptions route = avoiding_lut_ram(fabric());
  const CellPorts ports = discover_ports(fabric(), src);
  const auto& skel = fabric().skeleton();
  const auto& graph = fabric().graph();

  // Clock-cycle waits; an asynchronous circuit settles for a fixed time.
  const auto settle = [&](int cycles) {
    if (is_async) {
      wait_time(kAsyncSettle, report);
    } else {
      wait_cycles(cycles, domain, report);
    }
  };
  // Waits (bounded) until the replica holds the original's state.
  const auto await_state = [&](const std::string& what) {
    int tries = 0;
    while (sim_.state_of(dest.clb, dest.cell) !=
           sim_.state_of(src.clb, src.cell)) {
      if (++tries > kMaxStateTransferCycles) {
        throw IllegalOperationError(what + " did not converge relocating " +
                                    src.to_string());
      }
      settle(1);
    }
    report.state_verified = true;
  };

  // Gated-clock FFs and latches need the auxiliary relocation circuit
  // (Fig. 3) in a free CLB near the destination: find it before any write,
  // so a move that cannot get one changes nothing.
  const NetId ce_net = ports.in[static_cast<std::size_t>(CellPort::kCE)];
  CellSite aux{};
  if (needs_aux) {
    RELOGIC_CHECK_MSG(ce_net != fabric::kNoNet,
                      "gated-clock/latch cell has no CE/gate net");
    aux = find_aux_site(dest);
  }

  // ---------------------------------------------------------------- phase 1
  // Copy the internal configuration of the CLB cell into the new location.
  {
    LogicCellConfig replica = cfg;
    if (needs_aux) replica.d_src = DSrc::kBypass;
    ConfigOp op("copy cell configuration to replica " + dest.to_string());
    op.write_cell(dest.clb, dest.cell, replica);
    apply(op, report);
  }

  // Auxiliary relocation circuit (gated-clock FFs and latches, Fig. 3).
  NetId t_q = fabric::kNoNet;    // original Q -> mux data-0
  NetId t_x = fabric::kNoNet;    // replica comb X -> mux data-1
  NetId t_mux = fabric::kNoNet;  // mux out -> replica BX
  NetId t_ctl = fabric::kNoNet;  // ce-control const -> OR input
  NetId t_or = fabric::kNoNet;   // OR out -> replica CE

  if (needs_aux) {
    // Configure the auxiliary circuit: 2:1 mux, OR gate, and the two
    // control constants driven "through the reconfiguration memory".
    {
      ConfigOp op("configure auxiliary relocation circuit at " +
                  aux.clb.to_string());
      LogicCellConfig mux;
      mux.lut = fabric::luts::kMux21;
      mux.used = true;
      op.write_cell(aux.clb, 0, mux);
      LogicCellConfig org;
      org.lut = fabric::luts::kOr2;
      org.used = true;
      op.write_cell(aux.clb, 1, org);
      op.write_cell(aux.clb, 2, LogicCellConfig::constant(false));  // CE ctl
      op.write_cell(aux.clb, 3, LogicCellConfig::constant(false));  // reloc ctl
      apply(op, report);
    }

    // Temporary transfer paths (free routing resources only).
    {
      ConfigOp op("connect signals to the auxiliary relocation circuit");
      const NodeId mux_i0 = in_pin_of(skel, CellSite{aux.clb, 0}, 0);
      const NodeId mux_i1 = in_pin_of(skel, CellSite{aux.clb, 0}, 1);
      const NodeId mux_i2 = in_pin_of(skel, CellSite{aux.clb, 0}, 2);
      const NodeId or_i0 = in_pin_of(skel, CellSite{aux.clb, 1}, 0);
      const NodeId or_i1 = in_pin_of(skel, CellSite{aux.clb, 1}, 1);

      // Original registered output -> mux data-0. Reuse the cell's Q net if
      // it exists; otherwise build a temporary one.
      const NodeId src_q = skel.out_pin(src.clb, src.cell, true);
      if (ports.out_q != fabric::kNoNet) {
        t_q = ports.out_q;
      } else {
        t_q = fabric().create_net("reloc.t_q");
        op.attach_source(t_q, src_q);
      }
      // Replica combinational output -> mux data-1.
      t_x = fabric().create_net("reloc.t_x");
      op.attach_source(t_x, skel.out_pin(dest.clb, dest.cell, false));
      // Mux output -> replica bypass input.
      t_mux = fabric().create_net("reloc.t_mux");
      op.attach_source(t_mux, skel.out_pin(aux.clb, 0, false));
      // CE-control constant -> OR input 1.
      t_ctl = fabric().create_net("reloc.t_ctl");
      op.attach_source(t_ctl, skel.out_pin(aux.clb, 2, false));
      // OR output -> replica CE.
      t_or = fabric().create_net("reloc.t_or");
      op.attach_source(t_or, skel.out_pin(aux.clb, 1, false));

      apply(op, report);  // sources first: paths grow from them

      ConfigOp routes("route auxiliary transfer paths");
      PlanTracker plan;
      auto planned_path = [&](NetId n, NodeId to) {
        const auto path = router_->find_path(n, to, plan.options_for(n, route));
        plan.add(n, path);
        return path;
      };
      routes.add_path(t_q, planned_path(t_q, mux_i0));
      routes.add_path(t_x, planned_path(t_x, mux_i1));
      routes.add_path(ce_net, planned_path(ce_net, mux_i2));
      routes.add_path(ce_net, planned_path(ce_net, or_i0));
      routes.add_path(t_ctl, planned_path(t_ctl, or_i1));
      routes.add_path(t_mux, planned_path(t_mux, in_pin_of(skel, dest, 5)));
      routes.add_path(t_or, planned_path(t_or, in_pin_of(skel, dest, 4)));
      apply(routes, report);
    }
  }

  // Place CLB input signals in parallel (LUT inputs; CE handled via the
  // auxiliary OR for gated cells and joined later).
  {
    ConfigOp op("place CLB input signals in parallel");
    PlanTracker plan;
    add_input_paths(fabric(), *router_, ports,
                    needs_aux ? fabric::kNoNet : ce_net, dest, route, plan, op);
    if (!op.empty()) apply(op, report);
  }

  // ---------------------------------------------------- state transfer
  if (needs_aux) {
    {
      ConfigOp op("activate relocation and clock enable control");
      op.write_cell(aux.clb, 2, LogicCellConfig::constant(true));
      op.write_cell(aux.clb, 3, LogicCellConfig::constant(true));
      apply(op, report);
    }
    // Fig. 4: wait > 2 CLK pulses (until the replica holds the state).
    settle(2);
    await_state("state transfer");
    {
      ConfigOp op("deactivate clock enable control");
      op.write_cell(aux.clb, 2, LogicCellConfig::constant(false));
      apply(op, report);
    }
    // Connect the clock enable inputs of both CLBs: swap the replica's CE
    // pin from the OR output to the true CE net. Two transactions: the pin
    // must be released before the CE-net path can claim it. Between them
    // the pin holds its last driven value, so no spurious capture can occur.
    {
      const NodeId ce_pin = in_pin_of(skel, dest, 4);
      ConfigOp op_rm("release replica CE pin from the auxiliary OR gate");
      for (const auto& e : prune_for_removal(fabric(), t_or, {ce_pin}))
        op_rm.remove_edge(t_or, e);
      apply(op_rm, report);

      ConfigOp op("connect the clock enable inputs of both CLBs");
      op.add_path(ce_net, router_->find_path(ce_net, ce_pin, route));
      apply(op, report);
    }
    // Disconnect all the auxiliary relocation circuit signals and return
    // the replica storage element to its combinational D path.
    {
      ConfigOp op("disconnect the auxiliary relocation circuit");
      // Temporary nets disappear wholesale (all their edges are transfer
      // paths); taps on *live* nets (CE, original Q) are pruned with full
      // sink-coverage analysis, grouped per net so shared segments and
      // later-routed paths that ride them survive exactly as needed.
      std::map<NetId, std::vector<NodeId>> drops;
      for (const NodeId pin : {in_pin_of(skel, CellSite{aux.clb, 0}, 2),
                               in_pin_of(skel, CellSite{aux.clb, 1}, 0)}) {
        if (graph.occupant(pin) == ce_net) drops[ce_net].push_back(pin);
      }
      if (t_q == ports.out_q && t_q != fabric::kNoNet) {
        const NodeId pin = in_pin_of(skel, CellSite{aux.clb, 0}, 0);
        if (graph.occupant(pin) == t_q) drops[t_q].push_back(pin);
      }
      for (const auto& [net, pins] : drops) {
        for (const auto& e : prune_for_removal(fabric(), net, pins))
          op.remove_edge(net, e);
      }
      for (const NetId tn :
           {t_q == ports.out_q ? fabric::kNoNet : t_q, t_x, t_mux, t_ctl,
            t_or}) {
        if (tn == fabric::kNoNet || !fabric().net_exists(tn)) continue;
        for (const auto& e : fabric().net(tn).edges) op.remove_edge(tn, e);
      }
      // Detach temp-net sources.
      if (t_q != ports.out_q && t_q != fabric::kNoNet)
        op.detach_source(t_q, skel.out_pin(src.clb, src.cell, true));
      op.detach_source(t_x, skel.out_pin(dest.clb, dest.cell, false));
      op.detach_source(t_mux, skel.out_pin(aux.clb, 0, false));
      op.detach_source(t_ctl, skel.out_pin(aux.clb, 2, false));
      op.detach_source(t_or, skel.out_pin(aux.clb, 1, false));
      // Replica D input back to the LUT path.
      LogicCellConfig normal = cfg;
      normal.d_src = DSrc::kLut;
      op.write_cell(dest.clb, dest.cell, normal);
      apply(op, report);
    }
  } else if (cfg.reg == RegMode::kFF) {
    // Free-running clock: the replica acquires the state through its
    // paralleled inputs within one clock cycle (paper, Sec. 2).
    settle(2);
    await_state("free-running state acquisition");
  } else {
    // Combinational: outputs are stable after the inputs parallel + LUT
    // delay; the configuration transaction itself is orders of magnitude
    // longer.
    wait_time(SimTime::ns(50), report);
    // Sample at a quiet instant: surrounding logic keeps switching during
    // the relocation, and original and replica see different path skews,
    // so compare just before the next clock edge when everything settled.
    if (sim_.has_clock(domain)) {
      const SimTime quiet =
          sim_.next_edge(domain, sim_.now() + SimTime::ps(1)) - SimTime::ns(1);
      if (quiet > sim_.now()) wait_time(quiet - sim_.now(), report);
    }
    if (sim_.comb_of(dest.clb, dest.cell) != sim_.comb_of(src.clb, src.cell)) {
      std::string diag = "replica combinational output differs from "
                         "original relocating " + src.to_string() + " -> " +
                         dest.to_string() + "; port net:sv/dv =";
      for (int p = 0; p < 4; ++p) {
        const NodeId sp = in_pin_of(skel, src, p);
        diag += " " + std::to_string(p) + "=" +
                std::to_string(graph.occupant(sp)) + ":" +
                std::to_string(
                    sim_.pin_of(src.clb, src.cell, static_cast<CellPort>(p))) +
                "/" +
                std::to_string(
                    sim_.pin_of(dest.clb, dest.cell, static_cast<CellPort>(p)));
      }
      diag += " x=" + std::to_string(sim_.comb_of(src.clb, src.cell)) + "/" +
              std::to_string(sim_.comb_of(dest.clb, dest.cell));
      throw IllegalOperationError(diag);
    }
    report.state_verified = true;
  }

  // ---------------------------------------------------------------- phase 2
  // Place CLB outputs in parallel.
  {
    ConfigOp op("place CLB outputs in parallel");
    PlanTracker plan;
    add_output_paths(fabric(), *router_, ports, dest, route, plan, op);
    if (!op.empty()) apply(op, report);
  }

  // Both CLBs remain in parallel for at least one clock cycle.
  settle(kOutputParallelCycles);

  // Deactivate relocation control.
  if (needs_aux) {
    ConfigOp op("deactivate relocation control");
    op.write_cell(aux.clb, 3, LogicCellConfig::constant(false));
    apply(op, report);
  }

  // Disconnect the original CLB outputs (first the outputs...).
  {
    ConfigOp op("disconnect the original CLB outputs");
    remove_outputs(fabric(), ports, src, op);
    if (!op.empty()) apply(op, report);
  }

  // ...then the inputs; the original cell joins the pool of free resources.
  {
    ConfigOp op("disconnect the original CLB inputs");
    remove_inputs(fabric(), ports, src, op);
    op.clear_cell(src.clb, src.cell);
    if (needs_aux) {
      for (int k = 0; k < 4; ++k) op.clear_cell(aux.clb, k);
    }
    apply(op, report);
  }

  // Destroy now-empty temporary nets (bookkeeping only, no frames).
  for (NetId n : {t_q == ports.out_q ? fabric::kNoNet : t_q, t_x, t_mux,
                  t_ctl, t_or}) {
    if (n != fabric::kNoNet && fabric().net_exists(n)) fabric().destroy_net(n);
  }

  impl.sites[static_cast<std::size_t>(cell_index)] = dest;

  if constexpr (relogic::audit_enabled()) {
    // Cross-check of the per-transaction validation: the relocation must
    // not have broken connectivity of any impl net.
    for (const auto& [sig, n] : impl.signal_nets) {
      if (fabric().net_exists(n)) fabric().validate_net(n);
    }
  }

  RELOGIC_LOG(kInfo) << "relocated " << report.to_string();
  return report;
}

RelocationReport RelocationEngine::relocate_lut_ram_cell_halted(
    place::Implementation& impl, int cell_index, CellSite dest) {
  const CellSite src = move_source(fabric(), impl, cell_index, dest);
  const LogicCellConfig cfg = fabric().cell(src.clb, src.cell);
  RELOGIC_CHECK_MSG(cfg.lut_mode == fabric::LutMode::kRam,
                    "cell " + src.to_string() + " is not a LUT-RAM");
  RELOGIC_CHECK_MSG(cfg.reg == RegMode::kNone,
                    "LUT-RAM with a registered output is not supported");

  RelocationReport report;
  report.from = src;
  report.to = dest;
  report.reg = cfg.reg;
  const std::uint8_t domain = cfg.clock_domain;

  place::RouteOptions route = avoiding_lut_ram(fabric());
  // The halt waives avoidance for the source/destination columns only.
  route.avoid_columns.erase(src.clb.col);
  route.avoid_columns.erase(dest.clb.col);

  const CellPorts ports = discover_ports(fabric(), src);

  // Stop the system (paper, Sec. 2 / [12]): with the domain halted no
  // write to the RAM can race the copy, and downstream FFs cannot capture
  // transients, so the make-before-break choreography collapses to a
  // plain copy + rewire.
  const SimTime halt_start = sim_.now();
  sim_.set_clock_running(domain, false);

  {
    ConfigOp op("halted copy of LUT-RAM cell to " + dest.to_string());
    op.write_cell(dest.clb, dest.cell, cfg);
    apply(op, report, /*allow_lut_ram_columns=*/true);
  }
  {
    ConfigOp op("rewire LUT-RAM inputs and outputs");
    PlanTracker plan;
    add_input_paths(fabric(), *router_, ports, fabric::kNoNet, dest, route,
                    plan, op);
    add_output_paths(fabric(), *router_, ports, dest, route, plan, op);
    apply(op, report, true);
  }
  {
    ConfigOp op("disconnect and free the original LUT-RAM cell");
    remove_outputs(fabric(), ports, src, op);
    remove_inputs(fabric(), ports, src, op);
    op.clear_cell(src.clb, src.cell);
    apply(op, report, true);
  }

  // Let the last configuration writes land before releasing the clock.
  sim_.run_until(sim_.now() + SimTime::ns(10));
  sim_.set_clock_running(domain, true);
  report.halted = sim_.now() - halt_start;
  report.wall_time = std::max(report.wall_time, report.halted);

  impl.sites[static_cast<std::size_t>(cell_index)] = dest;
  RELOGIC_LOG(kInfo) << "halt-relocated LUT-RAM " << report.to_string()
                     << " (domain halted " << report.halted.to_string() << ")";
  return report;
}

FunctionRelocationReport RelocationEngine::relocate_function(
    place::Implementation& impl, ClbRect dest_region) {
  const auto& geom = fabric().geometry();
  RELOGIC_CHECK_MSG(geom.full_rect().contains(dest_region),
                    "destination region exceeds the device");

  // Free cell slots in the destination region, row-major.
  std::vector<CellSite> slots;
  for (int r = dest_region.row; r < dest_region.row_end(); ++r) {
    for (int c = dest_region.col; c < dest_region.col_end(); ++c) {
      const ClbCoord clb{r, c};
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        if (!fabric().cell(clb, k).used) slots.push_back(CellSite{clb, k});
      }
    }
  }
  if (static_cast<int>(slots.size()) < impl.cell_count()) {
    throw ResourceError("destination region " + dest_region.to_string() +
                        " lacks free cells for " + impl.name);
  }

  FunctionRelocationReport out;
  for (int i = 0; i < impl.cell_count(); ++i) {
    out.add(relocate_cell(impl, i, slots[static_cast<std::size_t>(i)]));
  }
  impl.region = dest_region;
  return out;
}

RelocationEngine::RouteOptimizationReport
RelocationEngine::optimize_function_routing(place::Implementation& impl) {
  const place::RouteOptions route = avoiding_lut_ram(fabric());

  const fabric::DelayModel& dm = router_->delay_model();
  const fabric::RoutingSkeleton& skel = fabric().skeleton();
  RouteOptimizationReport out;

  // Node delays of the net's tree, refreshed after every reroute: a later
  // sibling's probe may attach to its new branch and is priced from there.
  fabric::TreeIndex index;
  std::vector<fabric::TreeIndex::Delay> delays;
  const auto refresh = [&](NetId net) {
    index.assign(fabric().net(net));
    RELOGIC_CHECK_MSG(index.acyclic(), "cycle in the route tree of net " +
                                           fabric().net(net).name);
    index.delays(skel, dm, delays);
  };
  const auto delay_of = [&](NodeId n) -> std::optional<SimTime> {
    const std::uint32_t i = index.find(n);
    if (i == fabric::TreeIndex::kAbsent || !delays[i].reached) return {};
    return delays[i].max;
  };

  for (const auto& [sig, net] : impl.signal_nets) {
    if (!fabric().net_exists(net)) continue;
    const auto& tree = fabric().net(net);
    if (tree.sources.empty()) continue;

    refresh(net);
    for (const NodeId sink : fabric().net_sinks(net)) {
      ++out.sinks_considered;
      const auto cur = delay_of(sink);
      if (!cur) continue;
      const SimTime current = *cur;
      out.worst_delay_before = std::max(out.worst_delay_before, current);

      // Exact skip: no walk from a source reaches the sink cheaply enough
      // to pay, so the probe below could not succeed (DESIGN.md §12).
      if (dm.route_delay_lower_bound(skel, tree.sources, sink) + kMinRerouteGain >=
          current) {
        out.worst_delay_after = std::max(out.worst_delay_after, current);
        continue;
      }

      // Price a fresh path that may not ride the sink's current branch.
      const auto old_branch = prune_for_removal(fabric(), net, {sink});
      if (old_branch.empty()) {
        out.worst_delay_after = std::max(out.worst_delay_after, current);
        continue;  // branch shared with other sinks: leave it alone
      }
      place::RouteOptions probe = route;
      avoid_branch(old_branch, sink, probe);
      std::vector<NodeId> path;
      try {
        path = router_->find_path(net, sink, probe);
      } catch (const ResourceError&) {
        out.worst_delay_after = std::max(out.worst_delay_after, current);
        continue;  // no alternative: keep the current branch
      }
      // Every tree node is driven, so the probe's attachment point has a
      // delay and the candidate prices a real source-to-sink walk.
      const auto attach = delay_of(path.front());
      RELOGIC_CHECK_MSG(attach.has_value(),
                        "reroute probe attached to an undriven node");
      const SimTime candidate = *attach + dm.path_delay(skel, path);
      if (candidate + kMinRerouteGain >= current) {
        out.worst_delay_after = std::max(out.worst_delay_after, current);
        continue;  // not worth a reconfiguration
      }

      // The probe's search is exactly relocate_route's: switch onto it.
      const auto report = switch_route(net, sink, old_branch, path);
      ++out.sinks_rerouted;
      out.config_time += report.config_time;
      out.frames_written += report.frames_written;
      refresh(net);
      if (const auto now = delay_of(sink))
        out.worst_delay_after = std::max(out.worst_delay_after, *now);
    }
  }
  if (out.sinks_rerouted == 0) out.worst_delay_after = out.worst_delay_before;
  RELOGIC_LOG(kInfo) << "routing optimisation of " << impl.name << ": "
                     << out.sinks_rerouted << "/" << out.sinks_considered
                     << " sinks rerouted, worst delay "
                     << out.worst_delay_before.to_string() << " -> "
                     << out.worst_delay_after.to_string();
  return out;
}

RelocationReport RelocationEngine::relocate_route(NetId net, NodeId sink) {
  place::RouteOptions route = avoiding_lut_ram(fabric());

  // The branch currently serving the sink.
  const auto old_branch = prune_for_removal(fabric(), net, {sink});
  RELOGIC_CHECK_MSG(!old_branch.empty(),
                    "sink has no exclusive branch to relocate");

  // The alternative (replica) path avoids the original branch so the two
  // are truly parallel (Fig. 5).
  avoid_branch(old_branch, sink, route);
  return switch_route(net, sink, old_branch,
                      router_->find_path(net, sink, route));
}

RelocationReport RelocationEngine::switch_route(
    NetId net, NodeId sink, const std::vector<RouteEdge>& old_branch,
    const std::vector<NodeId>& path) {
  RelocationReport report;
  const auto info = fabric().skeleton().info(sink);
  report.from = CellSite{info.tile, info.a};
  report.to = report.from;

  // Establish the replica path first.
  {
    ConfigOp op("duplicate interconnection (replica path)");
    op.add_path(net, path);
    apply(op, report);
  }

  // During paralleling the observable delay is the longer of the two paths
  // (Fig. 6) — the simulator models exactly that. One clock cycle margin:
  wait_time(SimTime::ns(100), report);

  {
    ConfigOp op("disconnect original interconnection");
    for (const auto& e : old_branch) {
      if (fabric().net(net).has_edge(e)) op.remove_edge(net, e);
    }
    apply(op, report);
  }
  return report;
}

}  // namespace relogic::reloc
