#include "img/render.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>

#include "data/dataset.h"
#include "fpga/netgen.h"
#include "place/sa_placer.h"
#include "route/router.h"

namespace paintplace::img {
namespace {

using fpga::Arch;
using fpga::TileType;

struct Scene {
  fpga::Netlist nl;
  Arch arch;
  place::Placement placement;
  route::ChannelGraph graph;
  route::CongestionMap congestion;
  PixelGeometry geom;

  Scene()
      : nl(fpga::generate_packed(make_spec(), fpga::NetgenParams{}, 5)),
        arch(Arch::auto_sized({nl.stats().num_clbs,
                               nl.stats().num_inputs + nl.stats().num_outputs,
                               nl.stats().num_mems, nl.stats().num_mults})),
        placement(make_placement(arch, nl)),
        graph(arch),
        congestion(graph),
        geom(arch, 256) {
    route::PathFinderRouter router(graph);
    router.route(placement, congestion);
  }

  static fpga::DesignSpec make_spec() {
    fpga::DesignSpec s;
    s.name = "render_toy";
    s.num_luts = 40;
    s.num_ffs = 12;
    s.num_nets = 90;
    s.num_inputs = 5;
    s.num_outputs = 4;
    s.num_mems = 1;
    s.num_mults = 1;
    return s;
  }
  static place::Placement make_placement(const Arch& arch, const fpga::Netlist& nl) {
    place::PlacerOptions opt;
    opt.seed = 9;
    place::SaPlacer placer(arch, nl, opt);
    return placer.place();
  }
};

Color pixel(const Image& img, Index x, Index y) {
  return Color{img.at(x, y, 0), img.at(x, y, 1), img.at(x, y, 2)};
}

bool near_color(const Color& a, const Color& b, float tol = 1e-4f) {
  return a.distance_sq(b) < tol;
}

TEST(RenderFloorplan, ChannelAreasWhite) {
  Scene s;
  const Image img = render_floorplan(s.geom);
  // Channel stripe between tiles (0,0) and (1,0): lattice (2,1).
  const PixelRect r = s.geom.lattice_rect(2, 1);
  EXPECT_TRUE(near_color(pixel(img, r.x0, r.y0), scheme::kWhite));
}

TEST(RenderFloorplan, TileColorsFollowTable1) {
  Scene s;
  const Image img = render_floorplan(s.geom);
  for (Index y = 1; y < s.arch.height() - 1; ++y) {
    for (Index x = 1; x < s.arch.width() - 1; ++x) {
      const PixelRect r = s.geom.tile_rect(x, y);
      const Color c = pixel(img, (r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2);
      switch (s.arch.tile_type(x, y)) {
        case TileType::kClb: EXPECT_TRUE(near_color(c, scheme::kLightBlue)); break;
        case TileType::kMem: EXPECT_TRUE(near_color(c, scheme::kLightYellow)); break;
        case TileType::kMult: EXPECT_TRUE(near_color(c, scheme::kPink)); break;
        case TileType::kIo: break;
      }
    }
  }
}

TEST(RenderFloorplan, CornersStayWhite) {
  Scene s;
  const Image img = render_floorplan(s.geom);
  const PixelRect r = s.geom.tile_rect(0, 0);
  EXPECT_TRUE(near_color(pixel(img, (r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2), scheme::kWhite));
}

TEST(RenderPlacement, UsedClbsAreBlack) {
  Scene s;
  const Image img = render_placement(s.placement, s.geom);
  Index black_clbs = 0;
  for (const fpga::Block& b : s.nl.blocks()) {
    if (b.kind != fpga::BlockKind::kClb) continue;
    const fpga::GridLoc l = s.placement.loc(b.id);
    const PixelRect r = s.geom.tile_rect(l.x, l.y);
    if (near_color(pixel(img, (r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2), scheme::kBlack)) {
      black_clbs += 1;
    }
  }
  EXPECT_EQ(black_clbs, s.nl.stats().num_clbs);
}

TEST(RenderPlacement, UnusedClbSpotsStayLightBlue) {
  Scene s;
  const Image img = render_placement(s.placement, s.geom);
  Index unused_checked = 0;
  for (const fpga::GridLoc& slot : s.arch.slots(TileType::kClb)) {
    if (s.placement.block_at(slot) >= 0) continue;
    const PixelRect r = s.geom.tile_rect(slot.x, slot.y);
    EXPECT_TRUE(near_color(pixel(img, (r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2), scheme::kLightBlue));
    unused_checked += 1;
  }
  EXPECT_GT(unused_checked, 0) << "fixture should leave spare CLB spots";
}

TEST(RenderPlacement, IoPortsPartiallyFilled) {
  // Paper: "I/O pads may not be fully filled with black pixels".
  Scene s;
  const Image img = render_placement(s.placement, s.geom);
  // Find a pad tile hosting at least one but not all ports.
  const Index ports = s.arch.params().io_ports_per_pad;
  bool found_partial = false;
  for (const fpga::Block& b : s.nl.blocks()) {
    if (fpga::tile_type_for(b.kind) != TileType::kIo) continue;
    const fpga::GridLoc l = s.placement.loc(b.id);
    Index used_here = 0;
    for (Index sub = 0; sub < ports; ++sub) {
      if (s.placement.block_at(fpga::GridLoc{l.x, l.y, sub}) >= 0) used_here += 1;
    }
    if (used_here == ports) continue;
    const PixelRect pad = s.geom.tile_rect(l.x, l.y);
    Index black = 0, total = 0;
    for (Index y = pad.y0; y < pad.y1; ++y) {
      for (Index x = pad.x0; x < pad.x1; ++x) {
        total += 1;
        if (near_color(pixel(img, x, y), scheme::kBlack)) black += 1;
      }
    }
    if (black > 0 && black < total) {
      found_partial = true;
      break;
    }
  }
  EXPECT_TRUE(found_partial);
}

TEST(RenderConnectivity, NormalizedSingleChannel) {
  Scene s;
  const Image img = render_connectivity(s.placement, s.geom);
  EXPECT_EQ(img.channels(), 1);
  float maxv = 0.0f;
  for (Index i = 0; i < img.num_pixels(); ++i) maxv = std::max(maxv, img.data()[i]);
  EXPECT_FLOAT_EQ(maxv, 1.0f);
  for (Index i = 0; i < img.num_pixels(); ++i) EXPECT_GE(img.data()[i], 0.0f);
}

TEST(RenderConnectivity, DifferentPlacementsGiveDifferentImages) {
  Scene s;
  const Image a = render_connectivity(s.placement, s.geom);
  place::Placement other(s.arch, s.nl);
  Rng rng(1234);
  other.random_init(rng);
  const Image b = render_connectivity(other, s.geom);
  float diff = 0.0f;
  for (Index i = 0; i < a.num_pixels(); ++i) {
    diff += std::fabs(a.data()[i] - b.data()[i]);
  }
  EXPECT_GT(diff, 1.0f);
}

TEST(RenderHeatmap, ChannelsColoredByUtilization) {
  Scene s;
  const Image img = render_route_heatmap(s.placement, s.congestion, s.geom);
  // Every in-plan channel pixel decodes back to its segment utilization.
  Index checked = 0;
  for (route::NodeId n = 0; n < s.graph.num_nodes(); ++n) {
    if (!s.graph.is_channel(n)) continue;
    const PixelRect r = s.geom.lattice_rect(s.graph.lx_of(n), s.graph.ly_of(n));
    const double u = UtilizationColormap::unmap(pixel(img, r.x0, r.y0));
    EXPECT_NEAR(u, std::min(1.0, s.congestion.utilization(n)), 2e-2);
    checked += 1;
  }
  EXPECT_GT(checked, 10);
}

TEST(RenderHeatmap, DiffersFromPlacementOnlyInChannels) {
  // Fig. 2e: img_route - img_place is nonzero only on routing-area pixels.
  Scene s;
  const Image placed = render_placement(s.placement, s.geom);
  const Image heat = render_route_heatmap(s.placement, s.congestion, s.geom);
  const Image mask = channel_mask(s.geom);
  const Image diff = abs_diff(placed, heat);
  for (Index y = 0; y < diff.height(); ++y) {
    for (Index x = 0; x < diff.width(); ++x) {
      // Tiles (not channels, not switchboxes) must be identical.
      bool in_tile = false;
      for (Index ty = 0; ty < s.arch.height() && !in_tile; ++ty) {
        for (Index tx = 0; tx < s.arch.width() && !in_tile; ++tx) {
          if (s.geom.tile_rect(tx, ty).contains(x, y)) in_tile = true;
        }
      }
      if (in_tile) {
        EXPECT_EQ(diff.at(x, y, 0), 0.0f) << x << "," << y;
      }
    }
  }
  (void)mask;
}

TEST(ChannelMask, MarksExactlyChannelCells) {
  Scene s;
  const Image mask = channel_mask(s.geom);
  for (route::NodeId n = 0; n < s.graph.num_nodes(); ++n) {
    const PixelRect r = s.geom.lattice_rect(s.graph.lx_of(n), s.graph.ly_of(n));
    const float expected = s.graph.is_channel(n) ? 1.0f : 0.0f;
    EXPECT_EQ(mask.at(r.x0, r.y0, 0), expected);
  }
}

TEST(DecodeUtilization, RecoversTotalFromRenderedTruth) {
  Scene s;
  const Image heat = render_route_heatmap(s.placement, s.congestion, s.geom);
  const Image mask = channel_mask(s.geom);
  const double decoded_mean = decode_total_utilization(heat, mask);
  // Compare with the true mean utilization over channels (clamped at 1).
  double true_mean = 0.0;
  Index count = 0;
  for (route::NodeId n = 0; n < s.graph.num_nodes(); ++n) {
    if (!s.graph.is_channel(n)) continue;
    true_mean += std::min(1.0, s.congestion.utilization(n));
    count += 1;
  }
  true_mean /= static_cast<double>(count);
  EXPECT_NEAR(decoded_mean, true_mean, 2e-2);
}

/// 64-bit FNV-1a over the dims and the raw float bits of a buffer.
std::uint64_t float_bits_hash(const float* data, std::size_t n, std::initializer_list<Index> dims) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (Index d : dims) mix(static_cast<std::uint64_t>(d), 8);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, data + i, sizeof bits);
    mix(bits, 4);
  }
  return h;
}

std::uint64_t image_hash(const Image& img) {
  return float_bits_hash(img.data(), static_cast<std::size_t>(img.num_pixels() * img.channels()),
                         {img.width(), img.height(), img.channels()});
}

// Cached .ppds datasets and trained checkpoints were produced from these
// exact model inputs, so a rendering change that moves a single bit is a
// format break, not a refactor. The hashes were recorded while every pixel
// write still went through the bounds-checked Image::at.
TEST(RenderStability, InputsAreBitStableAcrossSeededPlacements) {
  Scene s;
  struct Expected {
    std::uint64_t seed, place, connect, input;
  };
  const Expected expected[] = {
      {9, 0xc30f62143bd377f0ull, 0x76f1c3be95f4f85bull, 0x2eef8f168a96cf86ull},
      {21, 0x2d1012d45226f724ull, 0x1737961906d55494ull, 0xaca57ef5e8bf3299ull},
      {42, 0x73c5114579b994b8ull, 0xf17f87f72e786cf2ull, 0xe20bba398b4f5ed5ull},
  };
  const data::DatasetConfig defaults;
  for (const Expected& e : expected) {
    SCOPED_TRACE("placer seed " + std::to_string(e.seed));
    place::PlacerOptions opt;
    opt.seed = e.seed;
    place::SaPlacer placer(s.arch, s.nl, opt);
    const place::Placement placement = placer.place();
    const nn::Tensor x = data::make_input(placement, s.geom, defaults.image_width,
                                          defaults.lambda_connect);
    const std::uint64_t input_hash =
        float_bits_hash(x.data(), static_cast<std::size_t>(x.numel()),
                        {x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
    EXPECT_EQ(image_hash(render_placement(placement, s.geom)), e.place);
    EXPECT_EQ(image_hash(render_connectivity(placement, s.geom)), e.connect);
    EXPECT_EQ(input_hash, e.input);
  }
}

TEST(RenderRoutingResult, DarkensUsedChannels) {
  Scene s;
  const Image img = render_routing_result(s.placement, s.congestion, s.geom);
  Index darkened = 0;
  for (route::NodeId n = 0; n < s.graph.num_nodes(); ++n) {
    if (!s.graph.is_channel(n) || s.congestion.occupancy(n) == 0) continue;
    const PixelRect r = s.geom.lattice_rect(s.graph.lx_of(n), s.graph.ly_of(n));
    const Color c = pixel(img, r.x0, r.y0);
    if (c.r < 0.999f) darkened += 1;
  }
  EXPECT_GT(darkened, 0);
}

}  // namespace
}  // namespace paintplace::img
