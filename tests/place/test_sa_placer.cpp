#include "place/sa_placer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>

#include "data/dataset.h"
#include "fpga/design_suite.h"
#include "fpga/netgen.h"

namespace paintplace::place {
namespace {

using fpga::Arch;
using fpga::DesignSpec;
using fpga::Netlist;

struct Fixture {
  DesignSpec spec;
  Netlist nl;
  Arch arch;

  explicit Fixture(Index luts = 50, Index nets = 120)
      : spec(make_spec(luts, nets)),
        nl(fpga::generate_packed(spec, fpga::NetgenParams{}, 3)),
        arch(Arch::auto_sized({nl.stats().num_clbs,
                               nl.stats().num_inputs + nl.stats().num_outputs,
                               nl.stats().num_mems, nl.stats().num_mults})) {}

  static DesignSpec make_spec(Index luts, Index nets) {
    DesignSpec s;
    s.name = "sa_toy";
    s.num_luts = luts;
    s.num_ffs = luts / 3;
    s.num_nets = nets;
    s.num_inputs = 6;
    s.num_outputs = 5;
    return s;
  }
};

TEST(SaPlacer, ImprovesOverRandomInitial) {
  Fixture f;
  PlacerOptions opt;
  opt.seed = 1;
  SaPlacer placer(f.arch, f.nl, opt);
  const Placement p = placer.place();
  EXPECT_NO_THROW(p.validate());
  EXPECT_LT(placer.report().final_cost, placer.report().initial_cost * 0.9)
      << "annealing should cut HPWL substantially";
}

TEST(SaPlacer, FinalCostMatchesPlacement) {
  Fixture f;
  PlacerOptions opt;
  opt.seed = 2;
  SaPlacer placer(f.arch, f.nl, opt);
  const Placement p = placer.place();
  EXPECT_NEAR(placer.report().final_cost, p.total_cost(), 1e-6);
}

TEST(SaPlacer, DeterministicPerSeed) {
  Fixture f;
  PlacerOptions opt;
  opt.seed = 5;
  SaPlacer p1(f.arch, f.nl, opt);
  SaPlacer p2(f.arch, f.nl, opt);
  const Placement a = p1.place();
  const Placement b = p2.place();
  for (fpga::BlockId id = 0; id < f.nl.num_blocks(); ++id) {
    EXPECT_EQ(a.loc(id), b.loc(id));
  }
}

TEST(SaPlacer, SeedsProduceDifferentPlacements) {
  Fixture f;
  PlacerOptions o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  const Placement a = SaPlacer(f.arch, f.nl, o1).place();
  const Placement b = SaPlacer(f.arch, f.nl, o2).place();
  Index moved = 0;
  for (fpga::BlockId id = 0; id < f.nl.num_blocks(); ++id) {
    if (!(a.loc(id) == b.loc(id))) moved += 1;
  }
  EXPECT_GT(moved, f.nl.num_blocks() / 4);
}

TEST(SaPlacer, GreedyAlgorithmTerminatesAtLocalMin) {
  Fixture f;
  PlacerOptions opt;
  opt.algorithm = PlaceAlgorithm::kGreedy;
  opt.seed = 3;
  SaPlacer placer(f.arch, f.nl, opt);
  const Placement p = placer.place();
  EXPECT_NO_THROW(p.validate());
  EXPECT_LE(placer.report().final_cost, placer.report().initial_cost);
}

TEST(SaPlacer, HigherInnerNumAttemptsMoreMoves) {
  Fixture f;
  PlacerOptions lo, hi;
  lo.inner_num = 0.25;
  hi.inner_num = 2.0;
  lo.seed = hi.seed = 4;
  SaPlacer pl(f.arch, f.nl, lo), ph(f.arch, f.nl, hi);
  pl.place();
  ph.place();
  EXPECT_GT(ph.report().moves_attempted, pl.report().moves_attempted);
}

TEST(SaPlacer, FasterCoolingUsesFewerTemperatures) {
  Fixture f;
  PlacerOptions fast, slow;
  fast.alpha_t = 0.5;
  slow.alpha_t = 0.95;
  fast.seed = slow.seed = 6;
  SaPlacer pf(f.arch, f.nl, fast), ps(f.arch, f.nl, slow);
  pf.place();
  ps.place();
  EXPECT_LT(pf.report().temperature_steps, ps.report().temperature_steps);
}

TEST(SaPlacer, SnapshotCallbackFires) {
  Fixture f;
  PlacerOptions opt;
  opt.seed = 8;
  SaPlacer placer(f.arch, f.nl, opt);
  Index calls = 0;
  Index last_moves = 0;
  placer.set_snapshot(
      [&](const Placement& p, Index moves, double) {
        calls += 1;
        EXPECT_TRUE(p.is_placed());
        EXPECT_GT(moves, last_moves);
        last_moves = moves;
      },
      50);
  placer.place();
  EXPECT_GT(calls, 0);
}

TEST(SaPlacer, RejectsBadOptions) {
  Fixture f;
  PlacerOptions bad;
  bad.alpha_t = 1.5;
  EXPECT_THROW(SaPlacer(f.arch, f.nl, bad), CheckError);
  bad = PlacerOptions{};
  bad.inner_num = 0.0;
  EXPECT_THROW(SaPlacer(f.arch, f.nl, bad), CheckError);
}

TEST(SaPlacer, AlgorithmNames) {
  EXPECT_STREQ(place_algorithm_name(PlaceAlgorithm::kAnnealing), "annealing");
  EXPECT_STREQ(place_algorithm_name(PlaceAlgorithm::kGreedy), "greedy");
}

TEST(SaPlacer, ReportCountsAreConsistent) {
  Fixture f;
  PlacerOptions opt;
  opt.seed = 9;
  SaPlacer placer(f.arch, f.nl, opt);
  placer.place();
  const PlacerReport& r = placer.report();
  EXPECT_GE(r.moves_attempted, r.moves_accepted);
  EXPECT_GT(r.moves_accepted, 0);
  EXPECT_GT(r.temperature_steps, 0);
}

/// 64-bit FNV-1a step over the eight bytes of `v`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over every block's (x, y, sub), in block-id order.
std::uint64_t placement_hash(const Placement& p) {
  std::uint64_t h = kFnvOffset;
  for (fpga::BlockId b = 0; b < p.netlist().num_blocks(); ++b) {
    const GridLoc l = p.loc(b);
    h = fnv1a(h, static_cast<std::uint64_t>(l.x));
    h = fnv1a(h, static_cast<std::uint64_t>(l.y));
    h = fnv1a(h, static_cast<std::uint64_t>(l.sub));
  }
  return h;
}

// Cached .ppds datasets, the explore_sweep candidates and the live
// forecasting snapshots all come from these anneals, so a placer change that
// moves a single accept decision is a format break, not a refactor. The
// design is the end-to-end benchmark's (OR1200 at 4%, netlist seed 1); the
// expected values were recorded while every move still recomputed the cost
// of each touched net before and after the move.
TEST(SaPlacer, AnnealsAreBitStableAcrossSweepOptions) {
  const fpga::Netlist nl = fpga::generate_packed(
      fpga::scale_spec(fpga::design_by_name("OR1200"), 0.04), fpga::NetgenParams{}, 1);
  const fpga::NetlistStats s = nl.stats();
  const Arch arch = Arch::auto_sized(
      {s.num_clbs, s.num_inputs + s.num_outputs, s.num_mems, s.num_mults});
  struct Expected {
    Index attempted, accepted, steps;
    std::uint64_t final_cost_bits, placement;
  };
  const Expected expected[] = {
      {2297, 1407, 45, 0x409bcde83e425af1ull, 0x02a5966f477dd044ull},
      {4866, 3090, 98, 0x409ae88f27bb2fedull, 0xa2881c9fc8a53b0cull},
      {10023, 6445, 205, 0x409ba00d6a161e4dull, 0x1490aa25db3cf468ull},
      {7209, 4468, 47, 0x409ae1e19652bd3aull, 0xd60e61cdb71dc105ull},
      {15632, 9781, 103, 0x409af605a1cac083ull, 0xb5c2b5f1b2b6dac9ull},
      {30205, 18876, 201, 0x409ac83d21ff2e49ull, 0x70a43e074b9fa226ull},
      {13829, 8187, 45, 0x409b3bc96bb98c7eull, 0xcf233dcf88f524a6ull},
      {29348, 17955, 97, 0x409b0185a1cac081ull, 0xa6d4188ff0d4ef4aull},
      {58426, 35925, 197, 0x409a7fa7381d7dbfull, 0x5603eac165eeb684ull},
      {2754, 833, 64, 0x409d9f8c985f06f5ull, 0xc5448b43cfbfa28cull},
      {2712, 904, 64, 0x409c83d652bd3c30ull, 0x06ebcfb5ea8574c9ull},
      {2755, 876, 64, 0x409c08c0d1b71758ull, 0xac086f5867057f28ull},
      {8199, 2258, 64, 0x409abeec083126e9ull, 0xf7c33ffeec6bb469ull},
      {8177, 2272, 64, 0x409b37f318fc5048ull, 0x8093ee0dfbd0508dull},
      {8241, 2355, 64, 0x409de06631f8a092ull, 0x86d6562f54f2944dull},
      {16402, 4410, 64, 0x409be3a8240b7804ull, 0x775757c0fbcc7aceull},
      {16136, 4168, 64, 0x409a7b47fcb923a2ull, 0xb4a3c9bd461ae5c7ull},
      {16103, 4149, 64, 0x409c7f1d2f1a9fbaull, 0x04b96f5eb9887d66ull},
  };
  // Option 4 is the default schedule (annealing, alpha_t 0.9, inner_num 1):
  // its snapshot stream is what live forecasting renders.
  constexpr Index kSnapshotOption = 4;
  constexpr Index kSnapshotEvery = 20;
  constexpr Index kExpectedSnapshots = 489;
  constexpr std::uint64_t kExpectedSnapshotHash = 0xee555e5d3ca70daaull;

  const data::SweepConfig sweep;
  const auto combos =
      static_cast<Index>(sweep.alpha_ts.size() * sweep.inner_nums.size() * sweep.algorithms.size());
  ASSERT_EQ(combos, static_cast<Index>(std::size(expected)));
  for (Index i = 0; i < combos; ++i) {
    SCOPED_TRACE("sweep option " + std::to_string(i));
    const Expected& e = expected[i];
    SaPlacer placer(arch, nl, sweep.options_at(i));
    std::uint64_t snapshot_hash = kFnvOffset;
    Index snapshots = 0;
    if (i == kSnapshotOption) {
      placer.set_snapshot(
          [&](const Placement& p, Index accepted, double) {
            snapshot_hash = fnv1a(snapshot_hash, static_cast<std::uint64_t>(accepted));
            snapshot_hash = fnv1a(snapshot_hash, placement_hash(p));
            snapshots += 1;
          },
          kSnapshotEvery);
    }
    const Placement p = placer.place();
    const PlacerReport& r = placer.report();
    std::uint64_t cost_bits = 0;
    std::memcpy(&cost_bits, &r.final_cost, sizeof cost_bits);
    EXPECT_EQ(r.moves_attempted, e.attempted);
    EXPECT_EQ(r.moves_accepted, e.accepted);
    EXPECT_EQ(r.temperature_steps, e.steps);
    EXPECT_EQ(cost_bits, e.final_cost_bits);
    EXPECT_EQ(placement_hash(p), e.placement);
    if (i == kSnapshotOption) {
      EXPECT_EQ(snapshots, kExpectedSnapshots);
      EXPECT_EQ(snapshot_hash, kExpectedSnapshotHash);
    }
  }
}

}  // namespace
}  // namespace paintplace::place
