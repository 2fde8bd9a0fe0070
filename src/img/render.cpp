#include "img/render.h"

#include <algorithm>
#include <cmath>

#include "route/channel_graph.h"

namespace paintplace::img {
namespace {

using fpga::TileType;
using route::ChannelGraph;
using route::NodeKind;

// The pixel loops below check their rect or line against the image once and
// then write through row pointers; Image::at's per-pixel check dominated
// rendering time.

void fill_rect(Image& image, const PixelRect& r, const Color& c) {
  if (r.x0 >= r.x1 || r.y0 >= r.y1) return;
  PP_CHECK_MSG(image.channels() == 3 && r.x0 >= 0 && r.y0 >= 0 && r.x1 <= image.width() &&
                   r.y1 <= image.height(),
               "rect [" << r.x0 << "," << r.x1 << ")x[" << r.y0 << "," << r.y1 << ") out of "
                        << image.width() << "x" << image.height() << "x" << image.channels());
  for (Index y = r.y0; y < r.y1; ++y) {
    float* p = image.data() + (y * image.width() + r.x0) * 3;
    for (Index x = r.x0; x < r.x1; ++x, p += 3) {
      p[0] = c.r;
      p[1] = c.g;
      p[2] = c.b;
    }
  }
}

Color tile_color(TileType t) {
  switch (t) {
    case TileType::kClb: return scheme::kLightBlue;
    case TileType::kMem: return scheme::kLightYellow;
    case TileType::kMult: return scheme::kPink;
    case TileType::kIo: return scheme::kIoPad;
  }
  return scheme::kWhite;
}

/// Additive Bresenham line on a 1-channel image. Every pixel of the line
/// lies in the bounding box of its endpoints, so checking those suffices.
void accumulate_line(Image& image, Index x0, Index y0, Index x1, Index y1) {
  const PixelRect bounds{0, 0, image.width(), image.height()};
  PP_CHECK_MSG(image.channels() == 1 && bounds.contains(x0, y0) && bounds.contains(x1, y1),
               "line (" << x0 << "," << y0 << ")-(" << x1 << "," << y1 << ") out of "
                        << image.width() << "x" << image.height() << "x" << image.channels());
  float* const data = image.data();
  const Index width = image.width();
  Index dx = std::abs(x1 - x0), dy = -std::abs(y1 - y0);
  const Index sx = x0 < x1 ? 1 : -1, sy = y0 < y1 ? 1 : -1;
  Index err = dx + dy;
  for (;;) {
    data[y0 * width + x0] += 1.0f;
    if (x0 == x1 && y0 == y1) break;
    const Index e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

}  // namespace

Image render_floorplan(const PixelGeometry& geom) {
  const fpga::Arch& arch = geom.arch();
  Image image(geom.canvas_width(), geom.canvas_height(), 3);
  fill_rect(image, PixelRect{0, 0, image.width(), image.height()}, scheme::kWhite);
  for (Index y = 0; y < arch.height(); ++y) {
    for (Index x = 0; x < arch.width(); ++x) {
      if (arch.is_corner(x, y)) continue;  // corners stay out-of-plan white
      fill_rect(image, geom.tile_rect(x, y), tile_color(arch.tile_type(x, y)));
    }
  }
  return image;
}

Image render_placement(const Placement& placement, const PixelGeometry& geom) {
  Image image = render_floorplan(geom);
  const fpga::Netlist& nl = placement.netlist();
  const Index ports = geom.arch().params().io_ports_per_pad;
  for (const fpga::Block& b : nl.blocks()) {
    const fpga::GridLoc loc = placement.loc(b.id);
    switch (fpga::tile_type_for(b.kind)) {
      case TileType::kClb:
        fill_rect(image, geom.tile_rect(loc.x, loc.y), scheme::kBlack);
        break;
      case TileType::kIo:
        fill_rect(image, geom.io_port_rect(loc, ports), scheme::kBlack);
        break;
      case TileType::kMem:
      case TileType::kMult:
        // Hard blocks keep their column colors in Table 1; a thin black
        // border marks occupation so different placements stay visible.
        {
          const PixelRect r = geom.tile_rect(loc.x, loc.y);
          fill_rect(image, PixelRect{r.x0, r.y0, r.x1, r.y0 + 1}, scheme::kBlack);
          fill_rect(image, PixelRect{r.x0, r.y1 - 1, r.x1, r.y1}, scheme::kBlack);
          fill_rect(image, PixelRect{r.x0, r.y0, r.x0 + 1, r.y1}, scheme::kBlack);
          fill_rect(image, PixelRect{r.x1 - 1, r.y0, r.x1, r.y1}, scheme::kBlack);
        }
        break;
    }
  }
  return image;
}

Image render_connectivity(const Placement& placement, const PixelGeometry& geom) {
  Image image(geom.canvas_width(), geom.canvas_height(), 1);
  const fpga::Netlist& nl = placement.netlist();
  for (const fpga::Net& net : nl.nets()) {
    Index dx = 0, dy = 0;
    const fpga::GridLoc d = placement.loc(net.driver);
    geom.tile_center(d.x, d.y, dx, dy);
    for (fpga::BlockId s : net.sinks) {
      const fpga::GridLoc sl = placement.loc(s);
      Index sx = 0, sy = 0;
      geom.tile_center(sl.x, sl.y, sx, sy);
      accumulate_line(image, dx, dy, sx, sy);
    }
  }
  float maxv = 0.0f;
  for (Index i = 0; i < image.num_pixels(); ++i) maxv = std::max(maxv, image.data()[i]);
  if (maxv > 0.0f) {
    for (Index i = 0; i < image.num_pixels(); ++i) image.data()[i] /= maxv;
  }
  return image;
}

Image render_route_heatmap(const Placement& placement, const CongestionMap& congestion,
                           const PixelGeometry& geom) {
  Image image = render_placement(placement, geom);
  const ChannelGraph& graph = congestion.graph();
  for (route::NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (graph.is_channel(n)) {
      const Color c = UtilizationColormap::map(congestion.utilization(n));
      fill_rect(image, geom.lattice_rect(graph.lx_of(n), graph.ly_of(n)), c);
    } else if (graph.kind(n) == NodeKind::kSwitch && graph.is_routable(n)) {
      // Mean of incident channels for a contiguous painted area.
      route::NodeId nbr[4];
      const int deg = graph.neighbors(n, nbr);
      double sum = 0.0;
      int channels = 0;
      for (int i = 0; i < deg; ++i) {
        if (graph.is_channel(nbr[i])) {
          sum += congestion.utilization(nbr[i]);
          channels += 1;
        }
      }
      const Color c =
          UtilizationColormap::map(channels > 0 ? sum / static_cast<double>(channels) : 0.0);
      fill_rect(image, geom.lattice_rect(graph.lx_of(n), graph.ly_of(n)), c);
    }
  }
  return image;
}

Image render_routing_result(const Placement& placement, const CongestionMap& congestion,
                            const PixelGeometry& geom) {
  Image image = render_placement(placement, geom);
  const ChannelGraph& graph = congestion.graph();
  Index max_occ = 1;
  for (route::NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (graph.is_channel(n)) max_occ = std::max(max_occ, congestion.occupancy(n));
  }
  for (route::NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (!graph.is_channel(n) || congestion.occupancy(n) == 0) continue;
    const float shade =
        0.85f * static_cast<float>(congestion.occupancy(n)) / static_cast<float>(max_occ);
    const Color c{1.0f - shade, 1.0f - shade, 1.0f - shade};
    fill_rect(image, geom.lattice_rect(graph.lx_of(n), graph.ly_of(n)), c);
  }
  return image;
}

Image channel_mask(const PixelGeometry& geom) {
  const ChannelGraph graph(geom.arch());
  Image mask(geom.canvas_width(), geom.canvas_height(), 1);
  for (route::NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (!graph.is_channel(n)) continue;
    const PixelRect r = geom.lattice_rect(graph.lx_of(n), graph.ly_of(n));
    for (Index y = r.y0; y < r.y1; ++y) {
      for (Index x = r.x0; x < r.x1; ++x) mask.at(x, y, 0) = 1.0f;
    }
  }
  return mask;
}

double decode_total_utilization(const Image& heatmap, const Image& mask) {
  PP_CHECK_MSG(heatmap.channels() == 3 && mask.channels() == 1, "decode expects RGB + mask");
  PP_CHECK(heatmap.width() == mask.width() && heatmap.height() == mask.height());
  double sum = 0.0;
  Index masked = 0;
  for (Index y = 0; y < heatmap.height(); ++y) {
    for (Index x = 0; x < heatmap.width(); ++x) {
      if (mask.at(x, y, 0) < 0.5f) continue;
      sum += UtilizationColormap::unmap(
          Color{heatmap.at(x, y, 0), heatmap.at(x, y, 1), heatmap.at(x, y, 2)});
      masked += 1;
    }
  }
  if (masked == 0) return 0.0;
  return sum / static_cast<double>(masked);
}

}  // namespace paintplace::img
