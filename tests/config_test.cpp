// Unit tests: relogic::config (frame mapping, port timing, controller,
// LUT-RAM column rule, snapshots, bitstream rendering).
#include <gtest/gtest.h>

#include "relogic/config/bitstream.hpp"
#include "relogic/config/controller.hpp"
#include "relogic/config/frame.hpp"
#include "relogic/config/port.hpp"
#include "relogic/config/snapshot.hpp"

namespace relogic::config {
namespace {

using fabric::DeviceGeometry;
using fabric::Fabric;
using fabric::LogicCellConfig;

TEST(FrameMapper, CellFramesLiveInOwnColumnAndSlotGroup) {
  const auto geom = DeviceGeometry::xcv200();
  const FrameMapper mapper(geom);
  for (int cell = 0; cell < 4; ++cell) {
    const auto frames = mapper.cell_frames(ClbCoord{5, 17}, cell);
    ASSERT_EQ(static_cast<int>(frames.size()), geom.frames_per_cell_config);
    for (const auto& f : frames) {
      EXPECT_EQ(f.type, ColumnType::kClb);
      EXPECT_EQ(f.column, 17);
      EXPECT_GE(f.frame, cell * geom.frames_per_cell_config);
      EXPECT_LT(f.frame, (cell + 1) * geom.frames_per_cell_config);
    }
  }
  // Same frames for every row — a frame spans the whole column (the root
  // of the paper's LUT-RAM exclusion rule).
  EXPECT_EQ(mapper.cell_frames(ClbCoord{0, 17}, 2),
            mapper.cell_frames(ClbCoord{27, 17}, 2));
}

TEST(FrameMapper, PipFramesAreRoutingFramesOfSinkColumn) {
  const auto geom = DeviceGeometry::tiny(8, 8);
  Fabric fab(geom);
  const FrameMapper mapper(geom);
  const auto& g = fab.skeleton();
  const fabric::RouteEdge e{g.single({3, 3}, fabric::Dir::kE, 0),
                            g.in_pin({3, 4}, 0, fabric::CellPort::kI0)};
  const auto f = mapper.pip_frame(g, e);
  EXPECT_EQ(f.type, ColumnType::kClb);
  EXPECT_EQ(f.column, 4);  // controlled at the sink tile
  EXPECT_GE(f.frame, mapper.first_routing_frame());
  EXPECT_LT(f.frame, geom.frames_per_clb_column);
  // Deterministic.
  EXPECT_EQ(mapper.pip_frame(g, e), mapper.pip_frame(g, e));
}

TEST(PortTiming, BoundaryScanScalesWithFrames) {
  BoundaryScanPort port;
  const int bits = DeviceGeometry::xcv200().frame_length_bits();
  const auto one = port.write_time(1, bits);
  const auto ten = port.write_time(10, bits);
  EXPECT_GT(ten, one);
  // Serial port: ~1 bit per TCK; 48 frames of 544 bits ≈ 1.3 ms @ 20 MHz.
  const auto col = port.write_time(48, bits);
  EXPECT_GT(col, SimTime::ms(1));
  EXPECT_LT(col, SimTime::ms(2));
  EXPECT_EQ(port.write_time(0, bits), SimTime::zero());
}

TEST(PortTiming, SelectMapMuchFasterThanJtag) {
  BoundaryScanPort jtag;
  SelectMapPort smap;
  const int bits = DeviceGeometry::xcv200().frame_length_bits();
  EXPECT_LT(smap.write_time(48, bits) * 10, jtag.write_time(48, bits));
  EXPECT_GT(smap.bandwidth_bps(), jtag.bandwidth_bps());
}

class ControllerTest : public ::testing::Test {
 protected:
  DeviceGeometry geom_ = DeviceGeometry::tiny(8, 8);
  Fabric fab_{geom_};
  BoundaryScanPort port_;
};

TEST_F(ControllerTest, ColumnGranularWidensToWholeColumns) {
  ConfigController column(fab_, port_);
  ConfigController framed(fab_, port_, WriteGranularity::kFrame);
  ConfigOp op("one cell");
  op.write_cell({2, 3}, 1, LogicCellConfig::constant(true));
  EXPECT_EQ(static_cast<int>(column.frames_of(op).size()),
            geom_.frames_per_clb_column);
  EXPECT_EQ(static_cast<int>(framed.frames_of(op).size()),
            geom_.frames_per_cell_config);
}

TEST_F(ControllerTest, ApplyChargesTimeAndAppliesActions) {
  ConfigController ctl(fab_, port_);
  ConfigOp op("cfg");
  op.write_cell({1, 1}, 0, LogicCellConfig::constant(true));
  const auto r = ctl.apply(op);
  EXPECT_EQ(r.frames_written, geom_.frames_per_clb_column);
  EXPECT_EQ(r.columns_touched, 1);
  EXPECT_GT(r.time, SimTime::zero());
  EXPECT_EQ(r.effective_actions, 1);
  EXPECT_TRUE(fab_.cell({1, 1}, 0).used);

  // Identical rewrite: frames still written, nothing effective.
  const auto r2 = ctl.apply(op);
  EXPECT_EQ(r2.effective_actions, 0);
  EXPECT_EQ(r2.frames_written, geom_.frames_per_clb_column);
  EXPECT_EQ(ctl.totals().ops, 2);
}

TEST_F(ControllerTest, RoutingActionsApply) {
  ConfigController ctl(fab_, port_);
  const auto& g = fab_.skeleton();
  const auto net = fab_.create_net("n");
  const auto src = g.out_pin({2, 2}, 0, false);
  const auto wire = g.single({2, 2}, fabric::Dir::kE, 0);
  const auto sink = g.in_pin({2, 3}, 0, fabric::CellPort::kI0);

  ConfigOp op("route");
  op.attach_source(net, src).add_edge(net, {src, wire}).add_edge(net,
                                                                 {wire, sink});
  const auto r = ctl.apply(op);
  EXPECT_EQ(r.effective_actions, 3);
  EXPECT_NO_THROW(fab_.validate_net(net));

  ConfigOp undo("unroute");
  undo.remove_edge(net, {wire, sink})
      .remove_edge(net, {src, wire})
      .detach_source(net, src);
  ctl.apply(undo);
  EXPECT_TRUE(fab_.graph().is_free(wire));
  EXPECT_TRUE(fab_.graph().is_free(sink));
}

TEST_F(ControllerTest, LutRamColumnRejected) {
  ConfigController ctl(fab_, port_);
  // Place a live LUT-RAM in column 3.
  LogicCellConfig ram;
  ram.used = true;
  ram.lut_mode = fabric::LutMode::kRam;
  fab_.set_cell_config({5, 3}, 2, ram);

  // Any op touching column 3 must now be refused...
  ConfigOp op("touch");
  op.write_cell({1, 3}, 0, LogicCellConfig::constant(true));
  EXPECT_THROW(ctl.apply(op), IllegalOperationError);

  // ...unless it rewrites the RAM cell itself (intentional).
  ConfigOp own("rewrite ram cell");
  own.write_cell({5, 3}, 2, ram);
  EXPECT_NO_THROW(ctl.apply(own));

  // Other columns unaffected.
  ConfigOp other("elsewhere");
  other.write_cell({1, 4}, 0, LogicCellConfig::constant(true));
  EXPECT_NO_THROW(ctl.apply(other));
}

TEST(ControllerScratch, LutRamViolationLeavesNoStaleColumns) {
  // 70 CLB columns: the check's column bitmap spans two words, and the
  // violation in the first word must not leave the second word's marks
  // behind for the next op.
  const auto geom = DeviceGeometry::tiny(4, 70);
  Fabric fab(geom);
  BoundaryScanPort port;
  LogicCellConfig ram;
  ram.used = true;
  ram.lut_mode = fabric::LutMode::kRam;
  fab.set_cell_config({0, 2}, 0, ram);
  fab.set_cell_config({0, 66}, 0, ram);
  ConfigController ctl(fab, port, WriteGranularity::kFrame);

  ConfigOp both("both RAM columns");
  both.write_cell({1, 2}, 1, LogicCellConfig::constant(true))
      .write_cell({1, 66}, 1, LogicCellConfig::constant(true));
  EXPECT_THROW(ctl.apply(both), IllegalOperationError);

  ConfigOp clean("clean column");
  clean.write_cell({1, 10}, 1, LogicCellConfig::constant(true));
  EXPECT_NO_THROW(ctl.apply(clean));
}

TEST_F(ControllerTest, MalformedOpLeavesNoStaleFrameMarks) {
  // The edge's frame is marked before the out-of-bounds cell write throws;
  // later ops must see neither an extra frame nor a pre-counted one.
  ConfigController ctl(fab_, port_, WriteGranularity::kDirtyFrame);
  const auto& g = fab_.skeleton();
  const auto net = fab_.create_net("n");
  const fabric::RouteEdge e{g.out_pin({2, 2}, 0, false),
                            g.single({2, 2}, fabric::Dir::kE, 0)};
  ConfigOp bad("bad");
  bad.add_edge(net, e).write_cell({99, 99}, 0, LogicCellConfig::constant(true));
  EXPECT_THROW(ctl.apply(bad), ContractError);

  ConfigOp cell("cell");
  cell.write_cell({1, 1}, 0, LogicCellConfig::constant(true));
  EXPECT_EQ(static_cast<int>(ctl.frames_of(cell).size()),
            geom_.frames_per_cell_config);

  ConfigOp edge("edge");
  edge.add_edge(net, e);
  const auto r = ctl.apply(edge);
  EXPECT_EQ(r.frames_written, 1);
  EXPECT_EQ(r.frames_skipped, 0);
}

TEST_F(ControllerTest, MalformedRoutingOpChangesNothing) {
  // A routing action on a destroyed net, or an added edge that is not a
  // PIP, is refused by the action walk (and by the kDirtyFrame delta
  // pass), so the cell write ahead of it is never applied and the image
  // stays in step with the fabric, at every granularity; preview refuses
  // it too.
  for (const auto gran : {WriteGranularity::kColumn, WriteGranularity::kFrame,
                          WriteGranularity::kDirtyFrame}) {
    Fabric fab(geom_);
    const auto& g = fab.skeleton();
    const auto gone = fab.create_net("gone");
    fab.destroy_net(gone);
    const auto live = fab.create_net("live");
    ConfigController ctl(fab, port_, gran);
    const auto pin = g.out_pin({2, 2}, 0, false);

    ConfigOp edge("edge on a destroyed net");
    edge.write_cell({1, 1}, 0, LogicCellConfig::constant(true))
        .add_edge(gone, {pin, g.single({2, 2}, fabric::Dir::kE, 0)});
    ConfigOp source("source on a destroyed net");
    source.write_cell({1, 1}, 0, LogicCellConfig::constant(true))
        .attach_source(gone, pin);
    ConfigOp not_pip("edge that is not a PIP");
    not_pip.write_cell({1, 1}, 0, LogicCellConfig::constant(true))
        .attach_source(live, pin)
        .add_edge(live, {pin, g.in_pin({6, 6}, 0, fabric::CellPort::kI0)});
    for (const ConfigOp* op : {&edge, &source, &not_pip}) {
      EXPECT_THROW(ctl.preview(*op), ContractError) << to_string(gran);
      EXPECT_THROW(ctl.apply(*op), ContractError) << to_string(gran);
      EXPECT_FALSE(fab.cell({1, 1}, 0).used) << to_string(gran);
      EXPECT_EQ(ctl.totals().ops, 0);
      EXPECT_NO_THROW(ctl.audit_image()) << to_string(gran);
    }
  }
}

TEST_F(ControllerTest, SnapshotKeeperRestores) {
  SnapshotKeeper keeper(fab_, 2);
  fab_.set_cell_config({0, 0}, 0, LogicCellConfig::constant(true));
  keeper.take("a");
  fab_.set_cell_config({0, 0}, 0, LogicCellConfig::constant(false));
  fab_.set_cell_config({4, 4}, 1, LogicCellConfig::constant(true));
  keeper.take("b");
  fab_.clear_cell({0, 0}, 0);

  EXPECT_TRUE(keeper.restore("a"));
  EXPECT_EQ(fab_.cell({0, 0}, 0).lut, fabric::luts::kConst1);
  EXPECT_FALSE(fab_.cell({4, 4}, 1).used);

  EXPECT_TRUE(keeper.restore("b"));
  EXPECT_TRUE(fab_.cell({4, 4}, 1).used);
  EXPECT_FALSE(keeper.restore("nonexistent"));

  // Retention limit evicts the oldest.
  keeper.take("c");
  keeper.take("d");
  EXPECT_EQ(keeper.retained(), 2u);
  EXPECT_FALSE(keeper.restore("a"));
}

TEST_F(ControllerTest, BitstreamRenderDeterministic) {
  ConfigController ctl(fab_, port_);
  BitstreamWriter writer(ctl);
  ConfigOp op("cfg");
  op.write_cell({1, 1}, 0, LogicCellConfig::constant(true));

  const auto a = writer.render(op);
  const auto b = writer.render(op);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.crc, b.crc);
  EXPECT_GT(a.frame_count, 0);
  // Sync word present at offset 4.
  ASSERT_GE(a.bytes.size(), 8u);
  EXPECT_EQ(a.bytes[4], 0xAA);
  EXPECT_EQ(a.bytes[5], 0x99);

  const auto script = writer.script({op});
  EXPECT_NE(script.find("cfg"), std::string::npos);
  EXPECT_NE(script.find("TOTAL"), std::string::npos);
}

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

// The writer renders/prices from the controller's written set, so its frame
// totals equal the controller's ConfigTotals at every granularity — under
// kDirtyFrame it used to render the full mapped set and over-report.
TEST(Bitstream, WriterTotalsMatchControllerTotalsAtEveryGranularity) {
  for (const auto gran :
       {WriteGranularity::kColumn, WriteGranularity::kFrame,
        WriteGranularity::kDirtyFrame}) {
    SCOPED_TRACE(to_string(gran));
    const auto geom = DeviceGeometry::tiny(8, 8);
    Fabric fab(geom);
    BoundaryScanPort port;
    ConfigController ctl(fab, port, gran);
    BitstreamWriter writer(ctl);

    // A sequence with cross-op dependence: "cfg a again" rewrites the very
    // content "cfg a" establishes, so a sequence-blind writer would price
    // it as dirty; the applied sequence skips it. Plus a self-cancelling op
    // that kDirtyFrame must render as zero frames.
    std::vector<ConfigOp> ops;
    ops.emplace_back("cfg a").write_cell({1, 1}, 0,
                                         LogicCellConfig::constant(true));
    ops.emplace_back("cfg b").write_cell({2, 4}, 1,
                                         LogicCellConfig::constant(false));
    ops.emplace_back("self-cancel")
        .write_cell({3, 6}, 2, LogicCellConfig::constant(true))
        .clear_cell({3, 6}, 2);
    ops.emplace_back("cfg a again")
        .write_cell({1, 1}, 0, LogicCellConfig::constant(true));

    const auto image = writer.render(ops);
    const auto script = writer.script(ops);

    int applied_frames = 0;
    for (const auto& op : ops) applied_frames += ctl.apply(op).frames_written;
    EXPECT_EQ(image.frame_count, ctl.totals().frames_written);
    EXPECT_EQ(image.frame_count, applied_frames);

    if (gran == WriteGranularity::kDirtyFrame) {
      // The self-cancelling op and the identical rewrite each skipped
      // their whole frame group...
      EXPECT_EQ(ctl.totals().frames_skipped, 2 * geom.frames_per_cell_config);
      EXPECT_NE(script.find("clean-skipped"), std::string::npos);
      // ...and re-rendering the now-applied ops writes nothing at all:
      // every rewrite is content-identical.
      EXPECT_EQ(writer.render(ops).frame_count, 0);
    } else {
      EXPECT_EQ(writer.render(ops).frame_count, ctl.totals().frames_written);
    }
  }
}

}  // namespace
}  // namespace relogic::config
