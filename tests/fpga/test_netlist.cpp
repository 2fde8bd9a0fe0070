#include "fpga/netlist.h"

#include <gtest/gtest.h>

namespace paintplace::fpga {
namespace {

Netlist tiny_netlist() {
  Netlist nl("tiny");
  const BlockId in = nl.add_block(BlockKind::kInputPad, "in0");
  const BlockId c0 = nl.add_block(BlockKind::kClb, "c0", 4, 2);
  const BlockId c1 = nl.add_block(BlockKind::kClb, "c1", 3, 3);
  const BlockId out = nl.add_block(BlockKind::kOutputPad, "out0");
  nl.add_net("n0", in, {c0, c1});
  nl.add_net("n1", c0, {c1});
  nl.add_net("n2", c1, {out});
  return nl;
}

TEST(Netlist, BlockAndNetCounts) {
  const Netlist nl = tiny_netlist();
  EXPECT_EQ(nl.num_blocks(), 4);
  EXPECT_EQ(nl.num_nets(), 3);
}

TEST(Netlist, NetsOfBlockTracksBothRoles) {
  const Netlist nl = tiny_netlist();
  EXPECT_EQ(nl.nets_of(0).size(), 1u);  // in0 drives n0
  EXPECT_EQ(nl.nets_of(1).size(), 2u);  // c0: sink of n0, driver of n1
  EXPECT_EQ(nl.nets_of(2).size(), 3u);  // c1: sink n0, sink n1, driver n2
}

// The annealer merges two blocks' nets_of lists, which needs every list
// ascending with each net once, also when add_net is handed duplicate sinks
// or the driver among its sinks.
TEST(Netlist, NetsOfListsAreStrictlyAscending) {
  Netlist nl("asc");
  const BlockId a = nl.add_block(BlockKind::kClb, "a");
  const BlockId b = nl.add_block(BlockKind::kClb, "b");
  const BlockId c = nl.add_block(BlockKind::kClb, "c");
  nl.add_net("n0", a, {b, b, c});
  nl.add_net("n1", b, {a, b, c});
  nl.add_net("n2", c, {a, a});
  EXPECT_EQ(nl.nets_of(a), (std::vector<NetId>{0, 1, 2}));
  EXPECT_EQ(nl.nets_of(b), (std::vector<NetId>{0, 1}));
  EXPECT_EQ(nl.nets_of(c), (std::vector<NetId>{0, 1, 2}));
}

TEST(Netlist, DuplicateSinksMerged) {
  Netlist nl("d");
  const BlockId a = nl.add_block(BlockKind::kClb, "a");
  const BlockId b = nl.add_block(BlockKind::kClb, "b");
  const NetId n = nl.add_net("n", a, {b, b, b});
  EXPECT_EQ(nl.net(n).sinks.size(), 1u);
}

TEST(Netlist, DriverRemovedFromSinks) {
  Netlist nl("d");
  const BlockId a = nl.add_block(BlockKind::kClb, "a");
  const BlockId b = nl.add_block(BlockKind::kClb, "b");
  const NetId n = nl.add_net("n", a, {a, b});
  EXPECT_EQ(nl.net(n).sinks.size(), 1u);
  EXPECT_EQ(nl.net(n).sinks[0], b);
}

TEST(Netlist, SelfLoopOnlyNetRejected) {
  Netlist nl("d");
  const BlockId a = nl.add_block(BlockKind::kClb, "a");
  EXPECT_THROW(nl.add_net("n", a, {a}), CheckError);
}

TEST(Netlist, InvalidIdsRejected) {
  Netlist nl("d");
  const BlockId a = nl.add_block(BlockKind::kClb, "a");
  EXPECT_THROW(nl.add_net("n", 99, {a}), CheckError);
  EXPECT_THROW(nl.add_net("n", a, {99}), CheckError);
  EXPECT_THROW(nl.block(99), CheckError);
  EXPECT_THROW(nl.net(0), CheckError);
}

TEST(Netlist, PinCount) {
  const Netlist nl = tiny_netlist();
  EXPECT_EQ(nl.net(0).pin_count(), 3);
  EXPECT_EQ(nl.net(1).pin_count(), 2);
}

TEST(Netlist, StatsAggregateClbContents) {
  const Netlist nl = tiny_netlist();
  const NetlistStats s = nl.stats();
  EXPECT_EQ(s.num_luts, 7);
  EXPECT_EQ(s.num_ffs, 5);
  EXPECT_EQ(s.num_clbs, 2);
  EXPECT_EQ(s.num_inputs, 1);
  EXPECT_EQ(s.num_outputs, 1);
  EXPECT_EQ(s.num_nets, 3);
}

TEST(Netlist, ValidatePassesOnConnected) { EXPECT_NO_THROW(tiny_netlist().validate()); }

TEST(Netlist, ValidateCatchesDisconnectedBlock) {
  Netlist nl("d");
  nl.add_block(BlockKind::kClb, "orphan");
  const BlockId a = nl.add_block(BlockKind::kClb, "a");
  const BlockId b = nl.add_block(BlockKind::kClb, "b");
  nl.add_net("n", a, {b});
  EXPECT_THROW(nl.validate(), CheckError);
}

TEST(Netlist, IsPackedDetectsPrimitives) {
  EXPECT_TRUE(tiny_netlist().is_packed());
  Netlist flat("f");
  flat.add_block(BlockKind::kLut, "l");
  EXPECT_FALSE(flat.is_packed());
}

TEST(Netlist, TileTypeForPlaceableKinds) {
  EXPECT_EQ(tile_type_for(BlockKind::kClb), TileType::kClb);
  EXPECT_EQ(tile_type_for(BlockKind::kInputPad), TileType::kIo);
  EXPECT_EQ(tile_type_for(BlockKind::kOutputPad), TileType::kIo);
  EXPECT_EQ(tile_type_for(BlockKind::kMem), TileType::kMem);
  EXPECT_EQ(tile_type_for(BlockKind::kMult), TileType::kMult);
  EXPECT_THROW(tile_type_for(BlockKind::kLut), CheckError);
  EXPECT_THROW(tile_type_for(BlockKind::kFf), CheckError);
}

}  // namespace
}  // namespace paintplace::fpga
