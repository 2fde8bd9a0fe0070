// train_cgan — the training pipeline as a command line tool.
//
// Generates (or loads from a cache) a routed design suite with the synthetic
// FPGA toolchain, trains the cGAN with the mini-batched Trainer, and leaves
// last/best checkpoints that ForecastServer hot-swaps directly. See
// docs/training.md for the full flag reference and recipes.
//
// --smoke is the CI entry point: a seconds-scale end-to-end run that asserts
// the train L1 actually decreased and that the produced checkpoint loads
// into a ForecastServer and serves a prediction.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "common/flags.h"
#include "common/timer.h"
#include "data/dataset_io.h"
#include "data/splits.h"
#include "fpga/design_suite.h"
#include "serve/forecast_server.h"
#include "train/trainer.h"

namespace {

using paintplace::Index;
namespace nn = paintplace::nn;
namespace core = paintplace::core;
namespace data = paintplace::data;
namespace fpga = paintplace::fpga;
namespace serve = paintplace::serve;
namespace train = paintplace::train;

/// Settings no library config holds: the suite, the split and the mode.
struct Options {
  std::vector<std::string> designs = {"diffeq1", "diffeq2"};
  double scale = 0.04;
  double val_fraction = 0.15;
  std::uint64_t seed = 1;
  std::string cache;
  std::string backend;
  std::string fine_tune;
  float fine_tune_lr_scale = 0.5f;
  bool smoke = false;
};

std::vector<std::string> split_csv(std::string_view s) {
  std::vector<std::string> out;
  std::stringstream ss{std::string(s)};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One routed dataset per design, from the cache when possible.
std::vector<data::Dataset> build_suite(const Options& opt, const data::DatasetConfig& data_cfg) {
  std::vector<data::Dataset> suite;
  for (std::size_t d = 0; d < opt.designs.size(); ++d) {
    const std::string& name = opt.designs[d];
    // The generation seed depends on the design's position in --designs, so
    // it must be part of the cache key — otherwise a cached suite could
    // silently differ from what the same flags would generate fresh.
    const std::uint64_t design_seed = opt.seed + static_cast<std::uint64_t>(d);
    std::string cache_path;
    if (!opt.cache.empty()) {
      std::ostringstream key;
      key << name << "_s" << opt.scale << "_w" << data_cfg.image_width << "_p"
          << data_cfg.sweep.num_placements << "_r" << design_seed << ".ppds";
      cache_path = (std::filesystem::path(opt.cache) / key.str()).string();
      if (std::filesystem::exists(cache_path)) {
        std::printf("[data] %s: cached (%s)\n", name.c_str(), cache_path.c_str());
        suite.push_back(data::load_dataset(cache_path));
        continue;
      }
    }
    paintplace::Timer t;
    const fpga::DesignSpec spec = fpga::scale_spec(fpga::design_by_name(name), opt.scale);
    fpga::Netlist nl = fpga::generate_packed(spec, fpga::NetgenParams{}, design_seed);
    const fpga::NetlistStats stats = nl.stats();
    fpga::Arch arch = fpga::Arch::auto_sized(
        {stats.num_clbs, stats.num_inputs + stats.num_outputs, stats.num_mems, stats.num_mults});
    data::DatasetConfig cfg = data_cfg;
    cfg.sweep.base_seed = design_seed * 1000 + 1;
    suite.push_back(data::build_dataset(nl, arch, cfg));
    std::printf("[data] %s: placed+routed %zu samples in %.1fs\n", name.c_str(),
                suite.back().samples.size(), t.seconds());
    if (!cache_path.empty()) {
      std::filesystem::create_directories(opt.cache);
      data::save_dataset(suite.back(), cache_path);
      std::printf("[data] %s: cached to %s\n", name.c_str(), cache_path.c_str());
    }
  }
  return suite;
}

/// Loads a checkpoint into a fresh ForecastServer and serves one request —
/// the "the checkpoint actually deploys" half of the smoke check.
serve::ForecastResult serve_round_trip(const std::string& ckpt, const nn::Tensor& input) {
  auto model = std::make_shared<core::CongestionForecaster>(core::Pix2Pix::peek_config(ckpt));
  model->load(ckpt);
  serve::ServeConfig cfg;
  serve::ForecastServer server(cfg, std::move(model), ckpt);
  return server.submit(input).get();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  core::Pix2PixConfig model_cfg;
  model_cfg.generator.image_size = 64;
  model_cfg.generator.base_channels = 8;
  model_cfg.generator.max_channels = 64;
  model_cfg.adam.lr = 1e-3f;
  data::DatasetConfig data_cfg;
  data_cfg.sweep.num_placements = 20;
  train::TrainerConfig tc;
  tc.checkpoint_dir = "train_out";
  std::string designs_shown;
  for (const std::string& d : opt.designs) designs_shown += (designs_shown.empty() ? "" : ",") + d;

  paintplace::Flags flags("train_cgan", "mini-batched cGAN training over a synthetic design suite");
  flags
      .add(
          "--designs a,b,..",
          [&](std::string_view v) {
            opt.designs = split_csv(v);
            return true;
          },
          designs_shown, "Table 2 design names")
      .add("--scale F", opt.scale, "design size factor")
      .add("--width N", model_cfg.generator.image_size, "image/model resolution, power of two")
      .add("--placements N", data_cfg.sweep.num_placements, "placements per design")
      .add("--epochs N", tc.epochs, "training epochs")
      .add("--batch N", tc.batch_size, "mini-batch size")
      .add("--lr F", model_cfg.adam.lr, "Adam learning rate")
      .add("--base-channels N", model_cfg.generator.base_channels, "first encoder width")
      .add("--max-channels N", model_cfg.generator.max_channels, "channel cap")
      .add(
          "--norm batch|instance",
          [&](std::string_view v) {
            if (v != "batch" && v != "instance") return false;
            model_cfg.generator.norm =
                v == "batch" ? core::NormKind::kBatch : core::NormKind::kInstance;
            return true;
          },
          model_cfg.generator.norm == core::NormKind::kBatch ? "batch" : "instance",
          "normalisation family", "batch or instance")
      .add("--no-dropout", model_cfg.generator.dropout,
           "disable the noise z (deterministic generator)", false)
      .add("--lambda F", model_cfg.lambda_l1, "L1 weight of Eq. 2")
      .add("--val-fraction F", opt.val_fraction, "held-out fraction for validation")
      .add("--seed N", opt.seed, "master seed")
      .add("--out DIR", tc.checkpoint_dir, "checkpoint directory")
      .add("--resume", tc.resume, "continue from DIR's last.ckpt")
      .add("--cache DIR", opt.cache, "dataset cache: reuse routed suites across runs")
      .add("--backend NAME", opt.backend, "compute backend (reference|cpu_opt)")
      .add("--fine-tune CKPT", opt.fine_tune,
           "strategy 2: start from CKPT, optimizers reset\n"
           "(architecture flags are rejected: the width/\n"
           "channel/norm/dropout setup comes from CKPT)")
      .add("--fine-tune-lr-scale F", opt.fine_tune_lr_scale, "learning-rate scale for --fine-tune")
      .add("--smoke", opt.smoke, "tiny CI preset + end-to-end self-checks");
  flags.parse_or_exit(argc, argv);
  if (!opt.fine_tune.empty()) {
    for (const char* arch :
         {"--width", "--base-channels", "--max-channels", "--norm", "--no-dropout"}) {
      if (!flags.given(arch)) continue;
      std::fprintf(stderr,
                   "%s cannot be combined with --fine-tune: the architecture comes from the "
                   "checkpoint\n",
                   arch);
      return 2;
    }
  }
  if (opt.smoke) {
    opt.designs = {"diffeq1"};
    opt.scale = 0.02;
    model_cfg.generator.image_size = 16;
    data_cfg.sweep.num_placements = 16;
    tc.epochs = 2;
    tc.batch_size = 2;
    model_cfg.adam.lr = 2e-3f;
    model_cfg.generator.base_channels = 4;
    model_cfg.generator.max_channels = 8;
    opt.val_fraction = 0.25;
    if (tc.checkpoint_dir == "train_out") tc.checkpoint_dir = "train_out_smoke";
  }
  data_cfg.image_width = model_cfg.generator.image_size;
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);

  try {
    if (!opt.backend.empty()) paintplace::backend::set_active_backend(opt.backend);
    std::printf("== train_cgan ==\nbackend: %s, designs:",
                paintplace::backend::active_backend().name());
    for (const std::string& d : opt.designs) std::printf(" %s", d.c_str());
    std::printf(", width %lld, %lld placements/design, %lld epochs, batch %lld\n\n",
                static_cast<long long>(data_cfg.image_width),
                static_cast<long long>(data_cfg.sweep.num_placements),
                static_cast<long long>(tc.epochs), static_cast<long long>(tc.batch_size));

    // ---- Data: synthetic designs -> SA placements -> routed ground truth.
    const std::vector<data::Dataset> suite = build_suite(opt, data_cfg);
    std::vector<const data::Sample*> all;
    for (const data::Dataset& ds : suite) {
      for (const data::Sample& s : ds.samples) all.push_back(&s);
    }
    auto [train_samples, val_samples] =
        data::train_val_split(all, opt.val_fraction, opt.seed * 7919 + 13);
    std::printf("[data] %zu train / %zu val samples\n\n", train_samples.size(),
                val_samples.size());

    // ---- Model: fresh, or a checkpoint to fine-tune (strategy 2).
    if (!opt.fine_tune.empty()) {
      // Tunable hyperparameters still apply; only the architecture is pinned
      // to the checkpoint (explicit architecture flags were rejected above).
      core::Pix2PixConfig tuned = core::Pix2Pix::peek_config(opt.fine_tune);
      tuned.adam.lr = model_cfg.adam.lr;
      if (flags.given("--lambda")) tuned.lambda_l1 = model_cfg.lambda_l1;
      model_cfg = tuned;
    } else {
      model_cfg.disc_base_channels = model_cfg.generator.base_channels;
      model_cfg.seed = opt.seed;
    }
    core::CongestionForecaster forecaster(model_cfg);
    if (!opt.fine_tune.empty()) {
      forecaster.load(opt.fine_tune);
      const float lr = model_cfg.adam.lr * opt.fine_tune_lr_scale;
      forecaster.model().reset_optimizers(lr);
      std::printf("[model] fine-tuning %s at lr %.2g\n", opt.fine_tune.c_str(),
                  static_cast<double>(lr));
    }

    // ---- Train.
    tc.seed = opt.seed * 31 + 7;
    tc.on_epoch = [](const train::EpochStats& e) {
      std::printf("[epoch %3lld] %4lld steps  d %.4f  g_gan %.4f  g_l1 %.4f",
                  static_cast<long long>(e.epoch), static_cast<long long>(e.steps),
                  e.train.d_loss, e.train.g_gan, e.train.g_l1);
      if (e.has_validation) {
        std::printf("  | val l1 %.4f acc %.3f rank %.3f%s", e.val_l1, e.val_pixel_accuracy,
                    e.val_rank_correlation, e.is_best ? "  *best*" : "");
      }
      std::printf("  (%.1fs: data %.2f, G-fwd %.2f, D %.2f, G-bwd %.2f)\n", e.epoch_seconds,
                  e.data_seconds, e.phases.g_forward_s, e.phases.d_step_s, e.phases.g_step_s);
    };
    train::Trainer trainer(forecaster, tc);
    if (tc.resume && trainer.start_epoch() > 0) {
      std::printf("[resume] continuing at epoch %lld (best val l1 %.4f)\n",
                  static_cast<long long>(trainer.start_epoch()), trainer.best_val_l1());
    }
    const std::vector<train::EpochStats> history = trainer.run(train_samples, val_samples);
    if (history.empty()) {
      std::printf("nothing to do (already trained to epoch %lld)\n",
                  static_cast<long long>(trainer.start_epoch()));
      return 0;
    }

    const std::string best_path =
        (std::filesystem::path(tc.checkpoint_dir) / train::Trainer::kBestCheckpoint).string();
    const std::string last_path =
        (std::filesystem::path(tc.checkpoint_dir) / train::Trainer::kLastCheckpoint).string();
    const std::string deploy = std::filesystem::exists(best_path) ? best_path : last_path;
    std::printf("\ncheckpoints in %s (deployable: %s)\n", tc.checkpoint_dir.c_str(),
                deploy.c_str());

    // ---- Deploy check: the checkpoint must serve through a ForecastServer.
    const nn::Tensor& probe = val_samples.empty() ? train_samples.front()->input
                                                  : val_samples.front()->input;
    const serve::ForecastResult result = serve_round_trip(deploy, probe);
    std::printf("[serve] round trip ok: heat map %s, score %.4f, model v%llu\n",
                result.heatmap.shape().str().c_str(), result.congestion_score,
                static_cast<unsigned long long>(result.model_version));

    if (opt.smoke) {
      const double first = history.front().train.g_l1;
      const double last = history.back().train.g_l1;
      std::printf("[smoke] train L1 %.4f -> %.4f\n", first, last);
      if (!(last < first)) {
        std::fprintf(stderr, "[smoke] FAIL: train L1 did not decrease (%.4f -> %.4f)\n", first,
                     last);
        return 1;
      }
      if (result.heatmap.rank() != 4 || result.heatmap.dim(1) != 3 ||
          !std::isfinite(result.congestion_score)) {
        std::fprintf(stderr, "[smoke] FAIL: served prediction malformed\n");
        return 1;
      }
      std::printf("[smoke] PASS\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_cgan: %s\n", e.what());
    return 1;
  }
  return 0;
}
