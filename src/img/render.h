// Renderers for the four image kinds of the paper's pipeline (Sec. 4.2):
//   img_floor    — the empty floor plan (Fig. 2a)
//   img_place    — floor plan + placed blocks painted black (Fig. 2b)
//   img_connect  — 1-channel net connectivity rendering (Fig. 4)
//   img_route    — heat map: channels colored by routing utilization (Fig. 2d)
// plus the wire-trace rendering of Fig. 2c and the channel-pixel mask used
// by the metrics to decode heat maps back into utilization numbers.
#pragma once

#include "img/color.h"
#include "img/geometry.h"
#include "img/image.h"
#include "place/placement.h"
#include "route/congestion.h"

namespace paintplace::img {

using place::Placement;
using route::CongestionMap;

/// Fig. 2a: floor plan only.
Image render_floorplan(const PixelGeometry& geom);

/// Fig. 2b: floor plan with used CLB/MEM/MULT tiles and used IO ports
/// painted black (Table 1: "Used CLB and IO spots").
Image render_placement(const Placement& placement, const PixelGeometry& geom);

/// Fig. 4: one-channel connectivity image — each net contributes lines from
/// its driver tile center to every sink tile center; intensities accumulate
/// and are normalized to [0,1] by the maximum.
Image render_connectivity(const Placement& placement, const PixelGeometry& geom);

/// Fig. 2d: img_place with every channel pixel colored by the utilization
/// gradient. Switchbox crossings take the mean of their incident channels
/// so the painted routing area is contiguous, as in VPR's display.
Image render_route_heatmap(const Placement& placement, const CongestionMap& congestion,
                           const PixelGeometry& geom);

/// Fig. 2c: wire-trace view — channel cells darken with occupancy.
Image render_routing_result(const Placement& placement, const CongestionMap& congestion,
                            const PixelGeometry& geom);

/// 1-channel mask: 1 on pixels belonging to in-plan channel segments (the
/// pixels whose colors encode utilization), 0 elsewhere.
Image channel_mask(const PixelGeometry& geom);

/// Decodes a heat-map image back to total utilization over the channel
/// mask: sum over masked pixels of colormap^-1(pixel) normalized by the
/// pixel count of one channel cell, i.e. approximately the sum of
/// per-segment utilizations. Robust to off-gradient colors via
/// nearest-point projection.
double decode_total_utilization(const Image& heatmap, const Image& mask);

}  // namespace paintplace::img
