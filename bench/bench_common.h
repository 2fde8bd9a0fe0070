// Shared infrastructure for the paper-reproduction benches: the scale
// configuration (CPU-friendly defaults, paper-scale via PAINT_FULL=1), and
// the design -> dataset -> trained-forecaster pipeline every table/figure
// harness uses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/timer.h"
#include "core/forecaster.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "fpga/design_suite.h"

namespace paintplace::bench {

/// Experiment scale. Defaults run the whole bench suite on a laptop-class
/// CPU; PAINT_FULL=1 switches to the paper's parameters (256x256, 200
/// placements/design, 250 epochs — hours to days on CPU). Individual knobs:
/// PAINT_SCALE, PAINT_WIDTH, PAINT_PLACEMENTS, PAINT_EPOCHS, PAINT_BASE.
struct Scale {
  double design_scale = 0.04;  ///< fraction of Table 2 design sizes
  Index image_width = 64;      ///< paper: 256
  Index base_channels = 8;     ///< paper: 64
  Index max_channels = 64;     ///< paper: 512
  Index placements = 20;       ///< #P per design; paper: 200
  Index epochs = 12;           ///< paper: 250
  Index fine_tune_pairs = 10;  ///< paper: 10 (strategy 2)
  Index fine_tune_epochs = 6;
  Index max_train_samples = 72;  ///< cap on leave-one-out training sets
  float lr = 1e-3f;            ///< paper: 2e-4 (restored under PAINT_FULL)
  bool full = false;

  static Scale from_env() {
    Scale s;
    if (const char* v = std::getenv("PAINT_FULL"); v != nullptr && v[0] == '1') {
      s = Scale{1.0, 256, 64, 512, 200, 250, 10, 25, 1400, 2e-4f, true};
    }
    s.design_scale = env_or("PAINT_SCALE", s.design_scale);
    s.image_width = env_or("PAINT_WIDTH", s.image_width);
    s.placements = env_or("PAINT_PLACEMENTS", s.placements);
    s.epochs = env_or("PAINT_EPOCHS", s.epochs);
    s.base_channels = env_or("PAINT_BASE", s.base_channels);
    return s;
  }

  void print(const char* bench_name) const {
    // Progress must reach pipes/tee promptly: these harnesses run minutes.
    std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
    std::printf("== %s ==\n", bench_name);
    std::printf(
        "scale: designs x%.3g, images %lldx%lld, %lld placements/design, %lld epochs%s\n\n",
        design_scale, static_cast<long long>(image_width), static_cast<long long>(image_width),
        static_cast<long long>(placements), static_cast<long long>(epochs),
        full ? " [PAINT_FULL]" : " (paper scale via PAINT_FULL=1)");
  }
};

/// A Table 2 design instantiated at the current scale, with its fabric and
/// routed dataset.
struct DesignWorld {
  std::string name;
  fpga::Netlist netlist;
  fpga::Arch arch;
  data::Dataset dataset;
  double mean_route_seconds = 0.0;
};

inline DesignWorld build_world(const std::string& design_name, const Scale& scale,
                               std::uint64_t seed = 1) {
  const fpga::DesignSpec spec =
      fpga::scale_spec(fpga::design_by_name(design_name), scale.design_scale);
  fpga::Netlist nl = fpga::generate_packed(spec, fpga::NetgenParams{}, seed);
  const fpga::NetlistStats stats = nl.stats();
  fpga::Arch arch = fpga::Arch::auto_sized(
      {stats.num_clbs, stats.num_inputs + stats.num_outputs, stats.num_mems, stats.num_mults});
  data::DatasetConfig cfg;
  cfg.image_width = scale.image_width;
  cfg.sweep.num_placements = scale.placements;
  cfg.sweep.base_seed = seed * 1000 + 1;
  data::Dataset ds = data::build_dataset(nl, arch, cfg);
  double route_total = 0.0;
  for (const data::Sample& s : ds.samples) route_total += s.meta.route_seconds;
  DesignWorld world{design_name, std::move(nl), std::move(arch), std::move(ds), 0.0};
  world.mean_route_seconds = route_total / static_cast<double>(world.dataset.samples.size());
  return world;
}

inline core::Pix2PixConfig model_config(const Scale& scale,
                                        core::SkipMode skips = core::SkipMode::kAll,
                                        bool use_l1 = true, Index in_channels = 4) {
  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = in_channels;
  cfg.generator.image_size = scale.image_width;
  cfg.generator.base_channels = scale.base_channels;
  cfg.generator.max_channels = scale.max_channels;
  cfg.generator.skips = skips;
  cfg.disc_base_channels = scale.base_channels;
  cfg.use_l1 = use_l1;
  cfg.adam.lr = scale.lr;
  return cfg;
}

inline std::vector<const data::Sample*> all_samples(const data::Dataset& ds) {
  std::vector<const data::Sample*> out;
  out.reserve(ds.samples.size());
  for (const data::Sample& s : ds.samples) out.push_back(&s);
  return out;
}

}  // namespace paintplace::bench
