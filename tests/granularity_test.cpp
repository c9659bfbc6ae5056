// Config-plane granularity + port-backend tests.
//
// The write-granularity policy (config/granularity.hpp) and the pluggable
// port backends (config/port.hpp) must change only *timing and write
// accounting*, never structural state. The golden-equivalence suite here
// drives the full relocation engine under every granularity x backend
// combination and asserts byte-identical fabric end state and identical
// relocation reports up to timing/frame counters; the property tests pin
// the dirty-frame diffing invariants (dirty set is a subset of the frame
// set; identical rewrites and self-cancelling ops dirty nothing).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/frame_image.hpp"
#include "relogic/config/granularity.hpp"
#include "relogic/config/port.hpp"
#include "relogic/netlist/benchmarks.hpp"
#include "relogic/place/implement.hpp"
#include "relogic/reloc/cost.hpp"
#include "relogic/reloc/engine.hpp"
#include "relogic/runtime/batcher.hpp"
#include "relogic/runtime/fleet.hpp"
#include "relogic/sched/workload.hpp"
#include "relogic/sim/harness.hpp"

namespace relogic {
namespace {

using config::PortBackend;
using config::WriteGranularity;
using fabric::DeviceGeometry;
using fabric::Fabric;
using fabric::LogicCellConfig;

// ---- enum plumbing ----------------------------------------------------------

TEST(GranularityEnum, ParseRoundTrips) {
  for (const auto g : {WriteGranularity::kColumn, WriteGranularity::kFrame,
                       WriteGranularity::kDirtyFrame}) {
    const auto parsed = config::parse_write_granularity(config::to_string(g));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, g);
  }
  EXPECT_EQ(config::parse_write_granularity("col"), WriteGranularity::kColumn);
  EXPECT_EQ(config::parse_write_granularity("dirty-frame"),
            WriteGranularity::kDirtyFrame);
  EXPECT_FALSE(config::parse_write_granularity("bogus").has_value());
}

TEST(PortBackendEnum, ParseRoundTripsAndFactoryWorks) {
  for (const auto b : {PortBackend::kJtag, PortBackend::kSelectMap8,
                       PortBackend::kIcap32}) {
    const auto parsed = config::parse_port_backend(config::to_string(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
    EXPECT_NE(config::make_port(b), nullptr);
  }
  EXPECT_EQ(config::parse_port_backend("selectmap"), PortBackend::kSelectMap8);
  EXPECT_EQ(config::parse_port_backend("icap"), PortBackend::kIcap32);
  EXPECT_FALSE(config::parse_port_backend("uart").has_value());
}

TEST(PortBackendEnum, BackendsAreStrictlyFasterInWidthOrder) {
  const int bits = DeviceGeometry::xcv200().frame_length_bits();
  const auto jtag = config::make_port(PortBackend::kJtag);
  const auto smap = config::make_port(PortBackend::kSelectMap8);
  const auto icap = config::make_port(PortBackend::kIcap32);
  EXPECT_LT(icap->write_time(48, bits), smap->write_time(48, bits));
  EXPECT_LT(smap->write_time(48, bits), jtag->write_time(48, bits));
  EXPECT_GT(icap->bandwidth_bps(), smap->bandwidth_bps());
  EXPECT_LT(SimTime::zero(), icap->readback_time(1, bits));
  EXPECT_EQ(icap->write_time(0, bits), SimTime::zero());
}

// ---- dirty-frame diffing at the controller ---------------------------------

class DirtyControllerTest : public ::testing::Test {
 protected:
  DeviceGeometry geom_ = DeviceGeometry::tiny(8, 8);
  Fabric fab_{geom_};
  config::BoundaryScanPort port_;
  config::ConfigController ctl_{fab_, port_, WriteGranularity::kDirtyFrame};
};

TEST_F(DirtyControllerTest, IdenticalRewriteSkipsEveryFrame) {
  config::ConfigOp op("cfg");
  op.write_cell({1, 1}, 0, LogicCellConfig::constant(true));

  const auto first = ctl_.apply(op);
  EXPECT_EQ(first.frames_written, geom_.frames_per_cell_config);
  EXPECT_EQ(first.frames_skipped, 0);
  EXPECT_EQ(first.columns_touched, 1);
  EXPECT_GT(first.time, SimTime::zero());

  // Identical rewrite: contents unchanged, nothing written, no port time.
  const auto again = ctl_.apply(op);
  EXPECT_EQ(again.frames_written, 0);
  EXPECT_EQ(again.frames_skipped, geom_.frames_per_cell_config);
  EXPECT_EQ(again.columns_touched, 0);
  EXPECT_EQ(again.time, SimTime::zero());
  EXPECT_EQ(again.effective_actions, 0);
  // The preview agrees with what apply just did.
  EXPECT_EQ(ctl_.preview(op).frames_written, 0);

  EXPECT_EQ(ctl_.totals().frames_skipped, geom_.frames_per_cell_config);
  EXPECT_TRUE(fab_.cell({1, 1}, 0).used);  // structural state unaffected
}

TEST_F(DirtyControllerTest, SelfCancellingOpDirtiesNothing) {
  const auto& g = fab_.skeleton();
  const auto net = fab_.create_net("n");
  const auto src = g.out_pin({2, 2}, 0, false);
  const auto wire = g.single({2, 2}, fabric::Dir::kE, 0);

  // Add then remove the same PIP in one op: the XOR delta nets to zero, so
  // the frame's content is unchanged and kDirtyFrame writes nothing.
  config::ConfigOp op("toggle");
  op.attach_source(net, src)
      .add_edge(net, {src, wire})
      .remove_edge(net, {src, wire})
      .detach_source(net, src);
  const auto r = ctl_.apply(op);
  EXPECT_EQ(r.frames_written, 0);
  EXPECT_GT(r.frames_skipped, 0);
  EXPECT_EQ(r.effective_actions, 4);  // all four actions did apply
  EXPECT_EQ(ctl_.preview(op).frames_written, 0);
  EXPECT_TRUE(fab_.graph().is_free(wire));
}

TEST_F(DirtyControllerTest, ReadbackFramesNeverDirtySkipped) {
  config::ConfigOp op("cfg");
  op.write_cell({1, 1}, 0, LogicCellConfig::constant(true));
  ctl_.apply(op);
  // An identical rewrite writes nothing under kDirtyFrame — but a readback
  // verifying the op must still fetch the whole frame group.
  EXPECT_EQ(ctl_.preview(op).frames_written, 0);
  EXPECT_EQ(ctl_.readback_frames(op), geom_.frames_per_cell_config);
}

TEST_F(DirtyControllerTest, ShadowImageTracksAppliedDeltas) {
  EXPECT_EQ(ctl_.image().tracked_frames(), 0u);
  config::ConfigOp op("cfg");
  op.write_cell({3, 2}, 1, LogicCellConfig::constant(false));
  ctl_.apply(op);
  EXPECT_EQ(ctl_.image().tracked_frames(),
            static_cast<std::size_t>(geom_.frames_per_cell_config));
  // Clearing the cell restores the erased content: digests return to zero.
  config::ConfigOp clear("clear");
  clear.clear_cell({3, 2}, 1);
  ctl_.apply(clear);
  for (const auto& f : ctl_.mapper().cell_frames({3, 2}, 1))
    EXPECT_EQ(ctl_.image().digest(f), 0u);
}

// Random op streams: dirty never writes more frames than kFrame, skipped
// accounting is exact, and both controllers land in the same fabric state.
TEST(DirtyProperty, DirtyWritesSubsetOfFrameWrites) {
  const auto geom = DeviceGeometry::tiny(8, 8);
  config::BoundaryScanPort port;
  Fabric frame_fab(geom), dirty_fab(geom);
  config::ConfigController frame_ctl(frame_fab, port, WriteGranularity::kFrame);
  config::ConfigController dirty_ctl(dirty_fab, port,
                                     WriteGranularity::kDirtyFrame);

  Rng rng(20260730);
  for (int step = 0; step < 200; ++step) {
    config::ConfigOp op("op" + std::to_string(step));
    const int actions = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int a = 0; a < actions; ++a) {
      const ClbCoord clb{static_cast<int>(rng.next_u64() % 8),
                         static_cast<int>(rng.next_u64() % 8)};
      const int cell = static_cast<int>(rng.next_u64() % 4);
      if (rng.next_u64() % 4 == 0) {
        op.clear_cell(clb, cell);
      } else {
        LogicCellConfig cfg;
        cfg.used = true;
        // Small LUT alphabet so identical rewrites actually happen.
        cfg.lut = static_cast<std::uint16_t>(0x1111 *
                                             (1 + rng.next_u64() % 4));
        op.write_cell(clb, cell, cfg);
      }
    }
    const auto rf = frame_ctl.apply(op);
    const auto rd = dirty_ctl.apply(op);
    ASSERT_LE(rd.frames_written, rf.frames_written);
    ASSERT_EQ(rd.frames_written + rd.frames_skipped, rf.frames_written);
    ASSERT_EQ(rd.effective_actions, rf.effective_actions);
    ASSERT_LE(rd.time, rf.time);
  }

  const auto a = frame_fab.capture();
  const auto b = dirty_fab.capture();
  ASSERT_EQ(a.clbs.size(), b.clbs.size());
  for (std::size_t i = 0; i < a.clbs.size(); ++i) EXPECT_EQ(a.clbs[i], b.clbs[i]);
}

// ---- golden equivalence through the relocation engine ----------------------

struct ScenarioResult {
  Fabric::State state;
  std::vector<reloc::RelocationReport> reports;
  int frames_written = 0;
  SimTime config_time = SimTime::zero();
};

ScenarioResult run_relocation_scenario(WriteGranularity gran,
                                       PortBackend backend) {
  Fabric fab(DeviceGeometry::tiny(12, 12));
  const fabric::DelayModel dm;
  const auto port = config::make_port(backend);
  config::ConfigController controller(fab, *port, gran);
  sim::FabricSim sim(fab, dm);
  sim.add_clock(sim::ClockSpec{});
  place::Implementer implementer(fab, dm);
  place::Router router(fab, dm);
  reloc::RelocationEngine engine(controller, router, &sim);

  const auto nl = netlist::bench::b02(netlist::bench::ClockingStyle::kGatedClock);
  const auto mapped = netlist::map_netlist(nl);
  place::ImplementOptions opts;
  opts.region = place::suggest_region(mapped, ClbCoord{2, 2}, fab.geometry());
  auto impl = implementer.implement(mapped, opts);

  sim::CircuitHarness harness(sim, nl, impl);
  Rng rng(7);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(harness.step_random(rng).ok());

  ScenarioResult out;
  for (int i = 0; i < 2 && i < impl.cell_count(); ++i) {
    const place::CellSite dest{ClbCoord{8, 8 + i}, 0};
    const auto rep = engine.relocate_cell(impl, i, dest);
    out.reports.push_back(rep);
    out.frames_written += rep.frames_written;
    out.config_time += rep.config_time;
  }
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(harness.step_random(rng).ok());
  EXPECT_EQ(harness.total_mismatches(), 0);
  out.state = fab.capture();
  return out;
}

TEST(GoldenEquivalence, FabricStateIdenticalAcrossGranularitiesAndBackends) {
  // Reference combo: the paper's regime.
  const ScenarioResult ref =
      run_relocation_scenario(WriteGranularity::kColumn, PortBackend::kJtag);
  ASSERT_FALSE(ref.reports.empty());

  for (const auto gran : {WriteGranularity::kColumn, WriteGranularity::kFrame,
                          WriteGranularity::kDirtyFrame}) {
    for (const auto backend : {PortBackend::kJtag, PortBackend::kSelectMap8,
                               PortBackend::kIcap32}) {
      if (gran == WriteGranularity::kColumn && backend == PortBackend::kJtag)
        continue;
      SCOPED_TRACE(config::to_string(gran) + " x " + config::to_string(backend));
      const ScenarioResult got = run_relocation_scenario(gran, backend);

      // Structural end state: byte-identical.
      ASSERT_EQ(got.state.clbs.size(), ref.state.clbs.size());
      for (std::size_t i = 0; i < ref.state.clbs.size(); ++i)
        ASSERT_EQ(got.state.clbs[i], ref.state.clbs[i]) << "CLB " << i;
      ASSERT_EQ(got.state.net_alive, ref.state.net_alive);
      ASSERT_EQ(got.state.nets.size(), ref.state.nets.size());
      for (std::size_t i = 0; i < ref.state.nets.size(); ++i) {
        EXPECT_EQ(got.state.nets[i].sources, ref.state.nets[i].sources);
        EXPECT_EQ(got.state.nets[i].edges, ref.state.nets[i].edges);
      }

      // Relocation reports: identical up to timing / frame counters.
      ASSERT_EQ(got.reports.size(), ref.reports.size());
      for (std::size_t i = 0; i < ref.reports.size(); ++i) {
        EXPECT_EQ(got.reports[i].from, ref.reports[i].from);
        EXPECT_EQ(got.reports[i].to, ref.reports[i].to);
        EXPECT_EQ(got.reports[i].reg, ref.reports[i].reg);
        EXPECT_EQ(got.reports[i].gated_clock, ref.reports[i].gated_clock);
        EXPECT_EQ(got.reports[i].ops, ref.reports[i].ops);
        EXPECT_EQ(got.reports[i].state_verified, ref.reports[i].state_verified);
      }

      // Narrower granularities never write more frames.
      if (gran != WriteGranularity::kColumn) {
        EXPECT_LE(got.frames_written, ref.frames_written);
      }
    }
  }
}

// ---- cost model -------------------------------------------------------------

TEST(GranularCostModel, CheaperRegimesPriceCheaper) {
  const auto geom = DeviceGeometry::xcv200();
  config::BoundaryScanPort jtag;
  const reloc::RelocationCostModel column(geom, jtag, {},
                                          WriteGranularity::kColumn);
  const reloc::RelocationCostModel frame(geom, jtag, {},
                                         WriteGranularity::kFrame);
  const reloc::RelocationCostModel dirty(geom, jtag, {},
                                         WriteGranularity::kDirtyFrame);
  for (const bool gated : {false, true}) {
    const auto c = column.cell_time(fabric::RegMode::kFF, gated);
    const auto f = frame.cell_time(fabric::RegMode::kFF, gated);
    const auto d = dirty.cell_time(fabric::RegMode::kFF, gated);
    EXPECT_LT(f, c);
    // Default dirty_write_fraction is the measured 1.0 (relocation op
    // streams have no redundant writes), so dirty prices exactly as frame.
    EXPECT_EQ(d, f);
  }
  EXPECT_LT(frame.configure_time(64), column.configure_time(64));
  EXPECT_EQ(column.granularity(), WriteGranularity::kColumn);

  // Workloads with redundant rewrites are modelled by lowering the
  // fraction; pricing then drops below kFrame.
  reloc::CostParams redundant;
  redundant.dirty_write_fraction = 0.5;
  const reloc::RelocationCostModel dirty_half(geom, jtag, redundant,
                                              WriteGranularity::kDirtyFrame);
  EXPECT_LT(dirty_half.cell_time(fabric::RegMode::kFF, true),
            frame.cell_time(fabric::RegMode::kFF, true));
}

// ---- batcher ----------------------------------------------------------------

TEST(BatcherDirty, SkippedFramesAreCounted) {
  const auto geom = DeviceGeometry::tiny(8, 8);
  config::BoundaryScanPort port;
  Fabric fab(geom);
  config::ConfigController ctl(fab, port, WriteGranularity::kDirtyFrame);
  runtime::TransactionBatcher batcher(ctl, runtime::BatchOptions{.max_ops = 2});

  config::ConfigOp op("cfg");
  op.write_cell({1, 1}, 0, LogicCellConfig::constant(true));
  batcher.enqueue(op);
  batcher.enqueue(op);  // identical rewrite merged into the same batch
  batcher.flush();
  // The merged transaction writes the cell's frames once; the repeat
  // contributed nothing (ineffective action, no extra delta).
  EXPECT_EQ(batcher.stats().frames_written, geom.frames_per_cell_config);
  EXPECT_EQ(batcher.stats().unbatched_frames, 2 * geom.frames_per_cell_config);

  // A third identical op arriving after the flush is a pure skip: both the
  // applied transaction and the enqueue-time unbatched estimate (previewed
  // against the now-written fabric) count its frames as dirty-skipped.
  batcher.enqueue(op);
  batcher.flush();
  EXPECT_EQ(batcher.stats().frames_written, geom.frames_per_cell_config);
  EXPECT_EQ(batcher.stats().frames_skipped, geom.frames_per_cell_config);
  EXPECT_EQ(batcher.stats().unbatched_frames_skipped,
            geom.frames_per_cell_config);
}

// ---- fleet: heterogeneous configuration planes ------------------------------

runtime::FleetConfig hetero_fleet() {
  runtime::FleetConfig cfg;
  cfg.devices = 3;
  cfg.rows = cfg.cols = 16;
  cfg.threads = 1;
  cfg.config_plane = {PortBackend::kJtag, WriteGranularity::kColumn};
  cfg.device_config_planes[1] = {PortBackend::kIcap32,
                                 WriteGranularity::kDirtyFrame};
  cfg.device_config_planes[2] = {PortBackend::kSelectMap8,
                                 WriteGranularity::kFrame};
  return cfg;
}

std::vector<sched::TaskArrival> fleet_workload(int n, std::uint64_t seed) {
  sched::WorkloadParams params;
  params.task_count = n;
  params.seed = seed;
  params.max_side = 6;
  return sched::WorkloadGenerator(params).generate();
}

TEST(FleetConfigPlane, PerDevicePlanesResolveAndEchoInJson) {
  runtime::FleetConfig cfg = hetero_fleet();
  EXPECT_EQ(cfg.plane_for(0).port, PortBackend::kJtag);
  EXPECT_EQ(cfg.plane_for(1).port, PortBackend::kIcap32);
  EXPECT_EQ(cfg.plane_for(1).granularity, WriteGranularity::kDirtyFrame);
  EXPECT_EQ(cfg.plane_for(2).granularity, WriteGranularity::kFrame);

  runtime::FleetManager fleet(cfg);
  fleet.submit_all(fleet_workload(40, 11));
  const auto report = fleet.run();
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"port\": \"jtag\""), std::string::npos);
  EXPECT_NE(json.find("\"port\": \"icap32\""), std::string::npos);
  EXPECT_NE(json.find("\"granularity\": \"dirty\""), std::string::npos);
  EXPECT_NE(json.find("\"frame_writes\""), std::string::npos);
  EXPECT_NE(json.find("\"frame_writes_dirty_skipped\""), std::string::npos);
}

TEST(FleetConfigPlane, OverrideForNonexistentDeviceRejected) {
  runtime::FleetConfig cfg = hetero_fleet();
  cfg.device_config_planes[7] = {PortBackend::kJtag, WriteGranularity::kFrame};
  EXPECT_THROW(runtime::FleetManager{cfg}, ContractError);
  cfg.device_config_planes.erase(7);
  cfg.device_config_planes[-1] = {PortBackend::kJtag, WriteGranularity::kFrame};
  EXPECT_THROW(runtime::FleetManager{cfg}, ContractError);
}

TEST(FleetConfigPlane, PlaneForFallsBackToFleetPlane) {
  runtime::FleetConfig cfg;
  cfg.config_plane.port = PortBackend::kSelectMap8;
  EXPECT_EQ(cfg.plane_for(0).port, PortBackend::kSelectMap8);
  // A per-device override wins over the fleet-wide plane.
  cfg.device_config_planes[0] = {PortBackend::kIcap32,
                                 WriteGranularity::kFrame};
  EXPECT_EQ(cfg.plane_for(0).port, PortBackend::kIcap32);
  EXPECT_EQ(cfg.plane_for(1).port, PortBackend::kSelectMap8);
}

TEST(FleetConfigPlane, HeterogeneousRunDeterministicAcrossThreadCounts) {
  runtime::FleetConfig cfg = hetero_fleet();
  runtime::FleetConfig cfg3 = cfg;
  cfg3.threads = 3;

  runtime::FleetManager a(cfg);
  runtime::FleetManager b(cfg3);
  a.submit_all(fleet_workload(60, 23));
  b.submit_all(fleet_workload(60, 23));
  EXPECT_EQ(a.run().to_json(), b.run().to_json());
}

TEST(FleetConfigPlane, DirtyGranularityWritesFewerFramesSameSchedule) {
  runtime::FleetConfig col;
  col.devices = 2;
  col.rows = col.cols = 16;
  col.threads = 1;
  col.config_plane = {PortBackend::kJtag, WriteGranularity::kColumn};
  runtime::FleetConfig dirty = col;
  dirty.config_plane.granularity = WriteGranularity::kDirtyFrame;

  runtime::FleetManager a(col);
  runtime::FleetManager b(dirty);
  a.submit_all(fleet_workload(50, 5));
  b.submit_all(fleet_workload(50, 5));
  const auto ra = a.run();
  const auto rb = b.run();

  // Same workload, same admission: dirty diffing slashes the frames the
  // fleet's configuration replay writes. (Scheduling may differ slightly —
  // cheaper moves change the move-cost gate — so only the write accounting
  // is compared.)
  EXPECT_EQ(ra.admitted, rb.admitted);
  EXPECT_LT(rb.aggregate.counter_value("frame_writes"),
            ra.aggregate.counter_value("frame_writes"));
  // The per-task configure + clear replay sequences give dirty diffing real
  // cancellations to skip at fleet scale (a configure merged with its own
  // clear XORs out to nothing).
  EXPECT_GT(rb.aggregate.counter_value("frame_writes_dirty_skipped"), 0);
}

}  // namespace
}  // namespace relogic
