// Implementer: places a mapped netlist into a rectangular region of the
// fabric and routes every signal, producing an Implementation — the
// "function" unit the paper's run-time manager schedules, relocates and
// defragments.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/geometry.hpp"
#include "relogic/fabric/fabric.hpp"
#include "relogic/netlist/mapping.hpp"
#include "relogic/place/router.hpp"

namespace relogic::place {

/// A logic-cell site on the fabric.
struct CellSite {
  ClbCoord clb;
  int cell = 0;

  constexpr auto operator<=>(const CellSite&) const = default;
  std::string to_string() const {
    return clb.to_string() + "." + std::to_string(cell);
  }
};

struct ImplementOptions {
  ClbRect region;
  std::uint8_t clock_domain = 0;
};

/// A placed-and-routed function instance.
struct Implementation {
  std::string name;
  ClbRect region;
  netlist::MappedNetlist mapped;
  /// Site of each mapped cell (parallel to mapped.cells).
  std::vector<CellSite> sites;
  /// Fabric net carrying each netlist signal that needed routing.
  std::unordered_map<netlist::SigId, fabric::NetId> signal_nets;
  /// Primary input -> pad node driving it.
  std::vector<std::pair<netlist::SigId, fabric::NodeId>> input_pads;
  /// Output port name -> pad node carrying it.
  std::vector<std::pair<std::string, fabric::NodeId>> output_pads;
  std::uint8_t clock_domain = 0;

  fabric::NetId net_for(netlist::SigId sig) const;
  fabric::NodeId output_pad(const std::string& name) const;
  const CellSite& site_of_state(netlist::SigId state_sig) const;
  int cell_count() const { return static_cast<int>(sites.size()); }
};

/// Smallest near-square region holding the mapped cells with a safety
/// margin row/column for routing headroom.
ClbRect suggest_region(const netlist::MappedNetlist& mapped, ClbCoord origin,
                       const fabric::DeviceGeometry& geom);

class Implementer {
 public:
  Implementer(fabric::Fabric& fabric, const fabric::DelayModel& dm)
      : fabric_(&fabric), dm_(&dm), router_(fabric, dm) {}

  /// Places and routes `mapped` in opts.region. Throws ResourceError when
  /// the region is too small, not free, or unroutable.
  Implementation implement(netlist::MappedNetlist mapped,
                           const ImplementOptions& opts);

  /// Convenience: map + implement.
  Implementation implement(const netlist::Netlist& nl,
                           const ImplementOptions& opts) {
    return implement(netlist::map_netlist(nl), opts);
  }

  /// Removes an implementation: destroys its nets and clears its cells.
  void remove(const Implementation& impl);

  Router& router() { return router_; }

 private:
  fabric::NodeId allocate_pad(ClbRect near, fabric::NetId net);

  fabric::Fabric* fabric_;
  const fabric::DelayModel* dm_;
  Router router_;
};

}  // namespace relogic::place
