#include "data/dataset.h"

#include "common/parallel.h"
#include "place/rudy.h"

namespace paintplace::data {

place::PlacerOptions SweepConfig::options_at(Index i) const {
  PP_CHECK(!alpha_ts.empty() && !inner_nums.empty() && !algorithms.empty());
  place::PlacerOptions opt;
  opt.seed = base_seed + static_cast<std::uint64_t>(i);
  opt.alpha_t = alpha_ts[static_cast<std::size_t>(i) % alpha_ts.size()];
  opt.inner_num =
      inner_nums[static_cast<std::size_t>(i / static_cast<Index>(alpha_ts.size())) %
                 inner_nums.size()];
  opt.algorithm = algorithms[static_cast<std::size_t>(
                                 i / static_cast<Index>(alpha_ts.size() * inner_nums.size())) %
                             algorithms.size()];
  return opt;
}

nn::Tensor make_input(const place::Placement& placement, const img::PixelGeometry& geom,
                      Index width, double lambda_connect) {
  img::Image place_img = img::render_placement(placement, geom);
  img::Image connect_img = img::render_connectivity(placement, geom);
  place_img = img::resize_bilinear(place_img, width, width);
  connect_img = img::resize_bilinear(connect_img, width, width);

  // Both images are width x width by construction; check that once, then
  // copy through raw pointers (HWC images into the CHW tensor planes).
  PP_CHECK(place_img.width() == width && place_img.height() == width &&
           place_img.channels() == 3 && connect_img.width() == width &&
           connect_img.height() == width && connect_img.channels() == 1);
  nn::Tensor x(nn::Shape{1, 4, width, width});
  const Index plane = width * width;
  const float* const place = place_img.data();
  for (Index c = 0; c < 3; ++c) {
    float* const dst = x.data() + c * plane;
    for (Index i = 0; i < plane; ++i) dst[i] = place[i * 3 + c];
  }
  const float lambda = static_cast<float>(lambda_connect);
  const float* const connect = connect_img.data();
  float* const dst = x.data() + 3 * plane;
  for (Index i = 0; i < plane; ++i) dst[i] = lambda * connect[i];
  return x;
}

nn::Tensor make_input_grayscale(const place::Placement& placement,
                                const img::PixelGeometry& geom, Index width,
                                double lambda_connect) {
  img::Image place_img = img::to_grayscale(img::render_placement(placement, geom));
  img::Image connect_img = img::render_connectivity(placement, geom);
  place_img = img::resize_bilinear(place_img, width, width);
  connect_img = img::resize_bilinear(connect_img, width, width);

  nn::Tensor x(nn::Shape{1, 2, width, width});
  const float lambda = static_cast<float>(lambda_connect);
  for (Index y = 0; y < width; ++y) {
    for (Index xx = 0; xx < width; ++xx) {
      x.at(0, 0, y, xx) = place_img.at(xx, y, 0);
      x.at(0, 1, y, xx) = lambda * connect_img.at(xx, y, 0);
    }
  }
  return x;
}

nn::Tensor make_target(const place::Placement& placement, const route::CongestionMap& congestion,
                       const img::PixelGeometry& geom, Index width) {
  img::Image heat = img::render_route_heatmap(placement, congestion, geom);
  heat = img::resize_bilinear(heat, width, width);
  return heat.to_tensor();
}

Dataset build_dataset(const fpga::Netlist& packed, const fpga::Arch& arch,
                      const DatasetConfig& config) {
  PP_CHECK_MSG(packed.is_packed(), "dataset needs a packed netlist");
  PP_CHECK(config.sweep.num_placements >= 1);
  const img::PixelGeometry geom(arch, config.render_target_width);

  Dataset ds;
  ds.design = packed.name();
  ds.config = config;
  ds.samples.resize(static_cast<std::size_t>(config.sweep.num_placements));

  parallel_for_each(config.sweep.num_placements, [&](Index i) {
    const place::PlacerOptions options = config.sweep.options_at(i);
    place::SaPlacer placer(arch, packed, options);
    const place::Placement placement = placer.place();

    route::ChannelGraph graph(arch);
    route::CongestionMap congestion(graph);
    route::PathFinderRouter router(graph, config.router);
    const route::RouteResult rr = router.route(placement, congestion);

    Sample& s = ds.samples[static_cast<std::size_t>(i)];
    s.input = make_input(placement, geom, config.image_width, config.lambda_connect);
    s.target = make_target(placement, congestion, geom, config.image_width);
    s.meta.design = packed.name();
    s.meta.placer_options = options;
    s.meta.placement_cost = placer.report().final_cost;
    s.meta.true_total_utilization = congestion.total_utilization();
    s.meta.rudy_total = place::RudyMap(placement).total();
    s.meta.route_seconds = rr.wall_seconds;
    s.meta.route_success = rr.success;
    s.meta.route_iterations = rr.iterations;
  });
  return ds;
}

}  // namespace paintplace::data
