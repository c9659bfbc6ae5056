#include "relogic/place/implement.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>

#include "relogic/common/logging.hpp"

namespace relogic::place {

using fabric::NetId;
using fabric::NodeId;
using netlist::kInvalidSig;
using netlist::Producer;
using netlist::SigId;

fabric::NetId Implementation::net_for(SigId sig) const {
  auto it = signal_nets.find(sig);
  RELOGIC_CHECK_MSG(it != signal_nets.end(),
                    name + ": signal has no fabric net");
  return it->second;
}

NodeId Implementation::output_pad(const std::string& pname) const {
  for (const auto& [n, pad] : output_pads) {
    if (n == pname) return pad;
  }
  throw ContractError(name + ": no output pad named " + pname);
}

const CellSite& Implementation::site_of_state(SigId state_sig) const {
  const Producer& p = mapped.producer(state_sig);
  RELOGIC_CHECK_MSG(p.kind == Producer::Kind::kCellXQ,
                    "signal is not a state element output");
  return sites[static_cast<std::size_t>(p.cell)];
}

ClbRect suggest_region(const netlist::MappedNetlist& mapped, ClbCoord origin,
                       const fabric::DeviceGeometry& geom) {
  const int clbs = mapped.clbs_needed(geom.cells_per_clb);
  int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(clbs))));
  // one extra row/col of slack for the relocation procedures and routing
  int h = side + 1;
  int w = (clbs + side - 1) / side + 1;
  h = std::min(h, geom.clb_rows);
  w = std::min(w, geom.clb_cols);
  ClbRect r{origin.row, origin.col, h, w};
  RELOGIC_CHECK_MSG(geom.full_rect().contains(r),
                    "suggested region exceeds the device");
  return r;
}

Implementation Implementer::implement(netlist::MappedNetlist mapped,
                                      const ImplementOptions& opts) {
  const auto& geom = fabric_->geometry();
  RELOGIC_CHECK_MSG(geom.full_rect().contains(opts.region),
                    "implementation region exceeds the device");
  const int capacity = opts.region.area() * geom.cells_per_clb;
  if (mapped.cell_count() > capacity) {
    throw ResourceError("region " + opts.region.to_string() + " holds " +
                        std::to_string(capacity) + " cells; need " +
                        std::to_string(mapped.cell_count()));
  }

  Implementation impl;
  impl.name = mapped.source->name();
  impl.region = opts.region;
  impl.clock_domain = opts.clock_domain;

  // ---- placement: row-major over free cell slots in the region ----------
  std::vector<CellSite> slots;
  for (int r = opts.region.row; r < opts.region.row_end(); ++r) {
    for (int c = opts.region.col; c < opts.region.col_end(); ++c) {
      const ClbCoord clb{r, c};
      for (int k = 0; k < geom.cells_per_clb; ++k) {
        if (fabric_->cell(clb, k).used) continue;
        slots.push_back(CellSite{clb, k});
      }
    }
  }
  if (static_cast<int>(slots.size()) < mapped.cell_count()) {
    throw ResourceError("region " + opts.region.to_string() +
                        " has only " + std::to_string(slots.size()) +
                        " free cells; need " +
                        std::to_string(mapped.cell_count()));
  }
  for (int i = 0; i < mapped.cell_count(); ++i) {
    impl.sites.push_back(slots[static_cast<std::size_t>(i)]);
  }

  // ---- configure cells ----------------------------------------------------
  for (int i = 0; i < mapped.cell_count(); ++i) {
    const auto& mc = mapped.cells[static_cast<std::size_t>(i)];
    const CellSite& site = impl.sites[static_cast<std::size_t>(i)];
    fabric_->set_cell_config(site.clb, site.cell,
                             mc.to_config(opts.clock_domain));
  }

  // ---- collect consumers per signal ---------------------------------------
  std::unordered_map<SigId, std::vector<NodeId>> sinks_of;
  const auto& skel = fabric_->skeleton();
  for (int i = 0; i < mapped.cell_count(); ++i) {
    const auto& mc = mapped.cells[static_cast<std::size_t>(i)];
    const CellSite& site = impl.sites[static_cast<std::size_t>(i)];
    for (int j = 0; j < 4; ++j) {
      if (mc.in[static_cast<std::size_t>(j)] == kInvalidSig) continue;
      sinks_of[mc.in[static_cast<std::size_t>(j)]].push_back(
          skel.in_pin(site.clb, site.cell,
                      static_cast<fabric::CellPort>(j)));
    }
    if (mc.uses_ce()) {
      sinks_of[mc.ce].push_back(
          skel.in_pin(site.clb, site.cell, fabric::CellPort::kCE));
    }
  }

  impl.mapped = std::move(mapped);

  // ---- create nets and route ---------------------------------------------
  auto source_pin = [&](SigId sig) -> NodeId {
    const Producer& p = impl.mapped.producer(sig);
    switch (p.kind) {
      case Producer::Kind::kCellX: {
        const CellSite& s = impl.sites[static_cast<std::size_t>(p.cell)];
        return skel.out_pin(s.clb, s.cell, false);
      }
      case Producer::Kind::kCellXQ: {
        const CellSite& s = impl.sites[static_cast<std::size_t>(p.cell)];
        return skel.out_pin(s.clb, s.cell, true);
      }
      case Producer::Kind::kPrimaryInput:
        return fabric::kInvalidNode;  // handled by pad allocation
    }
    return fabric::kInvalidNode;
  };

  auto net_of = [&](SigId sig) -> NetId {
    auto it = impl.signal_nets.find(sig);
    if (it != impl.signal_nets.end()) return it->second;
    const NetId net =
        fabric_->create_net(impl.name + "." +
                            std::to_string(static_cast<unsigned>(sig)));
    impl.signal_nets.emplace(sig, net);
    const Producer& p = impl.mapped.producer(sig);
    if (p.kind == Producer::Kind::kPrimaryInput) {
      const NodeId pad = allocate_pad(impl.region, net);
      impl.input_pads.emplace_back(sig, pad);
      fabric_->attach_source(net, pad);
    } else {
      fabric_->attach_source(net, source_pin(sig));
    }
    return net;
  };

  for (auto& [sig, pins] : sinks_of) {
    const NetId net = net_of(sig);
    // Route nearest sink first: keeps trees compact.
    std::sort(pins.begin(), pins.end(), [&](NodeId a, NodeId b) {
      return skel.info(a).tile < skel.info(b).tile;
    });
    for (NodeId pin : pins) router_.route_sink(net, pin);
  }

  // ---- primary outputs get pads -------------------------------------------
  for (const auto& port : impl.mapped.source->outputs()) {
    const NetId net = net_of(port.signal);
    const NodeId pad = allocate_pad(impl.region, net);
    impl.output_pads.emplace_back(port.name, pad);
    router_.route_sink(net, pad);
  }

  RELOGIC_LOG(kInfo) << "implemented " << impl.name << " in "
                     << impl.region.to_string() << ": " << impl.cell_count()
                     << " cells, " << impl.signal_nets.size() << " nets";
  return impl;
}

NodeId Implementer::allocate_pad(ClbRect near, NetId net) {
  const auto& geom = fabric_->geometry();
  const auto& skel = fabric_->skeleton();
  const auto& graph = fabric_->graph();
  const ClbCoord center{near.row + near.height / 2, near.col + near.width / 2};

  NodeId best = fabric::kInvalidNode;
  int best_dist = INT32_MAX;
  for (int r = 0; r < geom.clb_rows; ++r) {
    for (int c = 0; c < geom.clb_cols; ++c) {
      const ClbCoord t{r, c};
      if (!geom.is_boundary(t)) continue;
      for (int p = 0; p < geom.pads_per_tile; ++p) {
        const NodeId pad = skel.pad(t, p);
        if (!graph.is_free(pad)) continue;
        const int d = manhattan(t, center);
        if (d < best_dist) {
          best_dist = d;
          best = pad;
        }
      }
    }
  }
  if (best == fabric::kInvalidNode) {
    throw ResourceError("no free IOB pad available");
  }
  (void)net;
  return best;
}

void Implementer::remove(const Implementation& impl) {
  for (const auto& [sig, net] : impl.signal_nets) {
    if (fabric_->net_exists(net)) fabric_->destroy_net(net);
  }
  for (const CellSite& s : impl.sites) {
    fabric_->clear_cell(s.clb, s.cell);
  }
  RELOGIC_LOG(kInfo) << "removed " << impl.name << " from "
                     << impl.region.to_string();
}

}  // namespace relogic::place
