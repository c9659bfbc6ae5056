// quickstart — the smallest end-to-end tour of the relogic API:
//   1. describe a circuit (a 4-bit counter) as a netlist,
//   2. place & route it on a Virtex-style fabric model,
//   3. run it in the event-driven simulator, in lockstep with the golden
//      functional model,
//   4. dynamically relocate one of its logic cells to the other side of
//      the device *while it keeps counting*, and
//   5. show that nothing was disturbed — the paper's headline result.
//
// Build & run:  ./quickstart
#include <cstdio>

#include "relogic/config/controller.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/sim/harness.hpp"

using namespace relogic;

int main() {
  // --- the platform: an XCV50-class device, Boundary-Scan configured ------
  fabric::Fabric fab(fabric::DeviceGeometry::preset(
      fabric::DevicePreset::kXCV50));
  const fabric::DelayModel dm;
  config::BoundaryScanPort jtag;  // 20 MHz TCK, the paper's set-up
  config::ConfigController controller(fab, jtag);

  // --- the live application: a 4-bit counter ------------------------------
  const netlist::Netlist nl =
      netlist::bench::counter(4, netlist::bench::ClockingStyle::kFreeRunning);
  std::printf("circuit '%s': %d gates, %d FFs\n", nl.name().c_str(),
              nl.gate_count(), nl.ff_count());

  place::Implementer implementer(fab, dm);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, ClbCoord{2, 2}, fab.geometry());
  place::Implementation impl = implementer.implement(mapped, opts);
  std::printf("implemented in region %s (%d cells)\n",
              impl.region.to_string().c_str(), impl.cell_count());

  // --- simulate, lockstep against the golden model ------------------------
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});  // 10 MHz user clock
  sim::CircuitHarness harness(sim, nl, impl);
  harness.watch_registered_outputs();

  for (int cycle = 0; cycle < 10; ++cycle) {
    const auto r = harness.step({});  // counter has no inputs
    if (!r.ok()) {
      std::printf("lockstep mismatch!\n");
      return 1;
    }
  }
  std::printf("10 cycles in lockstep, count = %d%d%d%d\n",
              harness.golden().output("q3"), harness.golden().output("q2"),
              harness.golden().output("q1"), harness.golden().output("q0"));

  // --- relocate cell 0 while the counter runs -----------------------------
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);
  const auto report =
      engine.relocate_cell(impl, 0, place::CellSite{ClbCoord{12, 18}, 0});
  std::printf("relocation: %s\n", report.to_string().c_str());

  // --- prove nothing was disturbed ----------------------------------------
  for (int cycle = 0; cycle < 20; ++cycle) {
    const auto r = harness.step({});
    if (!r.ok()) {
      std::printf("lockstep mismatch after relocation!\n");
      return 1;
    }
  }
  std::printf("20 more cycles in lockstep after the move\n");
  std::printf("monitor: %s\n",
              sim.monitor().clean() ? "no glitches, no drive conflicts"
                                    : "VIOLATIONS RECORDED");
  return sim.monitor().clean() ? 0 : 1;
}
