#include "core/pix2pix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/rng.h"
#include "nn/serialize.h"
#include "nn/tensor_ops.h"
#include "obs/trace.h"

namespace paintplace::core {
namespace {

using nn::Shape;
using nn::Tensor;

Pix2PixConfig tiny_config(bool use_l1 = true, SkipMode skips = SkipMode::kAll) {
  Pix2PixConfig cfg;
  cfg.generator.in_channels = 2;
  cfg.generator.out_channels = 3;
  cfg.generator.image_size = 16;
  cfg.generator.base_channels = 4;
  cfg.generator.max_channels = 8;
  cfg.generator.skips = skips;
  cfg.generator.dropout = true;
  cfg.disc_base_channels = 4;
  cfg.use_l1 = use_l1;
  cfg.adam.lr = 2e-3f;  // faster convergence at test scale
  cfg.seed = 5;
  return cfg;
}

Tensor random01(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform());
  return t;
}

TEST(Pix2Pix, SignedUnitConversionRoundTrip) {
  const Tensor t01 = random01(Shape{1, 3, 4, 4}, 1);
  const Tensor back = Pix2Pix::to_unit(Pix2Pix::to_signed(t01));
  EXPECT_LT(back.max_abs_diff(t01), 1e-6f);
}

TEST(Pix2Pix, ToUnitClampsOvershoot) {
  Tensor t(Shape{2}, {-1.5f, 1.5f});
  const Tensor u = Pix2Pix::to_unit(t);
  EXPECT_EQ(u[0], 0.0f);
  EXPECT_EQ(u[1], 1.0f);
}

TEST(Pix2Pix, PredictProducesUnitRangeImage) {
  Pix2Pix model(tiny_config());
  const Tensor y = model.predict(random01(Shape{1, 2, 16, 16}, 2));
  EXPECT_EQ(y.shape(), (Shape{1, 3, 16, 16}));
  EXPECT_GE(y.min(), 0.0f);
  EXPECT_LE(y.max(), 1.0f);
}

TEST(Pix2Pix, TrainStepReturnsFiniteLosses) {
  Pix2Pix model(tiny_config());
  const GanLosses losses =
      model.train_step(random01(Shape{1, 2, 16, 16}, 3), random01(Shape{1, 3, 16, 16}, 4));
  EXPECT_TRUE(std::isfinite(losses.d_loss));
  EXPECT_TRUE(std::isfinite(losses.g_gan));
  EXPECT_TRUE(std::isfinite(losses.g_l1));
  EXPECT_GT(losses.d_loss, 0.0);
  EXPECT_GT(losses.g_l1, 0.0);
}

TEST(Pix2Pix, L1DropsWhenOverfittingOnePair) {
  Pix2Pix model(tiny_config());
  const Tensor x = random01(Shape{1, 2, 16, 16}, 5);
  const Tensor t = random01(Shape{1, 3, 16, 16}, 6);
  double first_l1 = 0.0, last_l1 = 0.0;
  for (int step = 0; step < 250; ++step) {
    const GanLosses l = model.train_step(x, t);
    if (step == 0) first_l1 = l.g_l1;
    last_l1 = l.g_l1;
  }
  EXPECT_LT(last_l1, first_l1 * 0.6) << "L1 must shrink when memorizing one pair";
}

TEST(Pix2Pix, WithoutL1FlagSkipsL1Gradient) {
  // Losses still REPORT l1 for logging, but G's update ignores it: after
  // many steps the no-L1 model reconstructs worse than the L1 model.
  const Tensor x = random01(Shape{1, 2, 16, 16}, 7);
  const Tensor t = random01(Shape{1, 3, 16, 16}, 8);
  Pix2Pix with_l1(tiny_config(true));
  Pix2Pix without_l1(tiny_config(false));
  double l1_with = 0.0, l1_without = 0.0;
  for (int step = 0; step < 50; ++step) {
    l1_with = with_l1.train_step(x, t).g_l1;
    l1_without = without_l1.train_step(x, t).g_l1;
  }
  EXPECT_LT(l1_with, l1_without);
}

TEST(Pix2Pix, DeterministicTrainingGivenSeed) {
  Pix2Pix a(tiny_config()), b(tiny_config());
  const Tensor x = random01(Shape{1, 2, 16, 16}, 9);
  const Tensor t = random01(Shape{1, 3, 16, 16}, 10);
  for (int step = 0; step < 3; ++step) {
    const GanLosses la = a.train_step(x, t);
    const GanLosses lb = b.train_step(x, t);
    EXPECT_DOUBLE_EQ(la.d_loss, lb.d_loss);
    EXPECT_DOUBLE_EQ(la.g_gan, lb.g_gan);
    EXPECT_DOUBLE_EQ(la.g_l1, lb.g_l1);
  }
}

TEST(Pix2Pix, TrainStepRejectsMismatchedShapes) {
  Pix2Pix model(tiny_config());
  EXPECT_THROW(model.train_step(random01(Shape{1, 2, 16, 16}, 1), random01(Shape{1, 3, 8, 8}, 2)),
               CheckError);
  EXPECT_THROW(model.train_step(random01(Shape{2, 2, 16, 16}, 1),
                                random01(Shape{1, 3, 16, 16}, 2)),
               CheckError);
  EXPECT_THROW(model.train_step(random01(Shape{1, 3, 16, 16}, 1),
                                random01(Shape{1, 3, 16, 16}, 2)),
               CheckError);
}

TEST(Pix2Pix, BatchedTrainStepReturnsFiniteLosses) {
  Pix2Pix model(tiny_config());
  const GanLosses losses =
      model.train_step(random01(Shape{4, 2, 16, 16}, 3), random01(Shape{4, 3, 16, 16}, 4));
  EXPECT_TRUE(std::isfinite(losses.d_loss));
  EXPECT_TRUE(std::isfinite(losses.g_gan));
  EXPECT_TRUE(std::isfinite(losses.g_l1));
}

TEST(Pix2Pix, BatchStepBitExactVsAccumulatedSteps) {
  // The training pipeline's core equivalence: one batch-B step must produce
  // the exact update of B accumulated single-sample steps. Requires a
  // deterministic generator (no dropout z) and per-sample normalisation
  // (instance norm) — see docs/training.md.
  Pix2PixConfig cfg = tiny_config();
  cfg.generator.norm = NormKind::kInstance;
  cfg.generator.dropout = false;
  const Index B = 4;  // power of two: the 1/B gradient scaling is exact
  Pix2Pix batched(cfg), accumulated(cfg);

  for (int step = 0; step < 3; ++step) {
    const Tensor x = random01(Shape{B, 2, 16, 16}, 100 + static_cast<std::uint64_t>(step));
    const Tensor t = random01(Shape{B, 3, 16, 16}, 200 + static_cast<std::uint64_t>(step));
    std::vector<Tensor> xs, ts;
    std::vector<const Tensor*> xp, tp;
    for (Index n = 0; n < B; ++n) {
      xs.push_back(nn::slice_batch(x, n));
      ts.push_back(nn::slice_batch(t, n));
    }
    for (Index n = 0; n < B; ++n) {
      xp.push_back(&xs[static_cast<std::size_t>(n)]);
      tp.push_back(&ts[static_cast<std::size_t>(n)]);
    }
    const GanLosses lb = batched.train_step(x, t);
    const GanLosses la = accumulated.train_step_accumulated(xp, tp);
    EXPECT_NEAR(lb.d_loss, la.d_loss, 1e-6);
    EXPECT_NEAR(lb.g_gan, la.g_gan, 1e-6);
    EXPECT_NEAR(lb.g_l1, la.g_l1, 1e-6);

    const auto pb_g = batched.generator().parameters();
    const auto pa_g = accumulated.generator().parameters();
    ASSERT_EQ(pb_g.size(), pa_g.size());
    for (std::size_t i = 0; i < pb_g.size(); ++i) {
      ASSERT_EQ(pb_g[i]->value.max_abs_diff(pa_g[i]->value), 0.0f)
          << "step " << step << ": generator " << pb_g[i]->name << " diverged";
    }
    const auto pb_d = batched.discriminator().parameters();
    const auto pa_d = accumulated.discriminator().parameters();
    ASSERT_EQ(pb_d.size(), pa_d.size());
    for (std::size_t i = 0; i < pb_d.size(); ++i) {
      ASSERT_EQ(pb_d[i]->value.max_abs_diff(pa_d[i]->value), 0.0f)
          << "step " << step << ": discriminator " << pb_d[i]->name << " diverged";
    }
  }
}

/// Span name -> number of events of that name in `category`, over a
/// Tracer::dump_json document (one event per line, name before category).
std::map<std::string, int> span_counts(const std::string& json, const std::string& category) {
  static const std::string kName = "{\"name\":\"", kCat = "\",\"cat\":\"";
  std::map<std::string, int> counts;
  for (std::size_t pos = json.find(kName); pos != std::string::npos; pos = json.find(kName, pos)) {
    const std::size_t name_begin = pos + kName.size();
    const std::size_t name_end = json.find(kCat, name_begin);
    const std::size_t cat_begin = name_end + kCat.size();
    const std::size_t cat_end = json.find('"', cat_begin);
    if (json.compare(cat_begin, cat_end - cat_begin, category) == 0) {
      counts[json.substr(name_begin, name_end - name_begin)] += 1;
    }
    pos = cat_end;
  }
  return counts;
}

TEST(Pix2Pix, TrainStepTracesPhasesAndLayerBackwards) {
  // A traced batched step tiles into phase spans and shows one backward span
  // per conv/deconv layer, while the forward layer spans keep their names
  // and counts: one generator forward, and three discriminator forwards
  // (real pair, fake pair, the generator phase's re-run), each with its
  // backward.
  Pix2Pix model(tiny_config());
  const Tensor x = random01(Shape{2, 2, 16, 16}, 3);
  const Tensor t = random01(Shape{2, 3, 16, 16}, 4);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  model.train_step(x, t);
  tracer.disable();
  const std::string json = tracer.dump_json();
  tracer.clear();

  const std::map<std::string, int> phases{
      {"train.g_forward", 1}, {"train.zero_grad", 2},  {"train.d_forward", 3},
      {"train.loss", 4},      {"train.d_backward", 3}, {"train.opt_d", 1},
      {"train.g_backward", 1}, {"train.opt_g", 1}};
  EXPECT_EQ(span_counts(json, "train"), phases);

  std::map<std::string, int> layers;
  for (const auto& [net, runs] : {std::pair<nn::Module*, int>{&model.generator(), 1},
                                  std::pair<nn::Module*, int>{&model.discriminator(), 3}}) {
    for (const nn::Parameter* p : net->parameters()) {
      const std::string suffix = ".weight";
      if (p->name.size() <= suffix.size() ||
          p->name.compare(p->name.size() - suffix.size(), suffix.size(), suffix) != 0) {
        continue;
      }
      const std::string layer = p->name.substr(0, p->name.size() - suffix.size());
      layers[layer + ".weight"] = runs;
      layers[layer + ".backward"] = runs;
    }
  }
  EXPECT_EQ(layers.count("gen.enc0.weight"), 1u);
  EXPECT_EQ(layers.count("disc.out.backward"), 1u);
  EXPECT_EQ(span_counts(json, "layer"), layers);
}

TEST(Pix2Pix, AccumulatedStepRequiresPowerOfTwoBatch) {
  Pix2Pix model(tiny_config());
  const Tensor x = random01(Shape{1, 2, 16, 16}, 5);
  const Tensor t = random01(Shape{1, 3, 16, 16}, 6);
  std::vector<const Tensor*> xp{&x, &x, &x}, tp{&t, &t, &t};
  EXPECT_THROW(model.train_step_accumulated(xp, tp), CheckError);
}

TEST(Pix2Pix, SaveLoadRoundTripsPrediction) {
  Pix2Pix model(tiny_config());
  const Tensor x = random01(Shape{1, 2, 16, 16}, 11);
  const Tensor t = random01(Shape{1, 3, 16, 16}, 12);
  for (int step = 0; step < 5; ++step) model.train_step(x, t);
  const std::string path = ::testing::TempDir() + "/pp_p2p_test.ckpt";
  model.save(path);

  Pix2Pix restored(tiny_config());
  restored.load(path);
  // Same noise stream -> identical outputs.
  model.generator().reseed_noise(42);
  const Tensor y1 = model.predict(x);
  restored.generator().reseed_noise(42);
  const Tensor y2 = restored.predict(x);
  EXPECT_LT(y1.max_abs_diff(y2), 1e-6f);
  std::remove(path.c_str());
}

TEST(Pix2Pix, LoadIncompatibleConfigThrows) {
  Pix2Pix model(tiny_config());
  const std::string path = ::testing::TempDir() + "/pp_p2p_badcfg.ckpt";
  model.save(path);
  Pix2PixConfig other = tiny_config();
  other.generator.base_channels = 8;  // different widths
  Pix2Pix mismatched(other);
  EXPECT_THROW(mismatched.load(path), CheckError);
  std::remove(path.c_str());
}

TEST(Pix2Pix, ConfigEncodeDecodeRoundTrip) {
  Pix2PixConfig cfg = tiny_config(false, SkipMode::kSingle);
  cfg.lambda_l1 = 25.0f;
  cfg.generator.dropout_p = 0.3f;
  const Pix2PixConfig back = Pix2Pix::decode_config(Pix2Pix::encode_config(cfg));
  EXPECT_EQ(back.generator.in_channels, cfg.generator.in_channels);
  EXPECT_EQ(back.generator.image_size, cfg.generator.image_size);
  EXPECT_EQ(back.generator.skips, cfg.generator.skips);
  EXPECT_EQ(back.use_l1, cfg.use_l1);
  EXPECT_FLOAT_EQ(back.lambda_l1, 25.0f);
  EXPECT_FLOAT_EQ(back.generator.dropout_p, 0.3f);
}

TEST(Pix2Pix, LoadFileReconstructsModelFromCheckpointAlone) {
  Pix2Pix model(tiny_config());
  const Tensor x = random01(Shape{1, 2, 16, 16}, 21);
  const Tensor t = random01(Shape{1, 3, 16, 16}, 22);
  for (int step = 0; step < 3; ++step) model.train_step(x, t);
  const std::string path = ::testing::TempDir() + "/pp_p2p_selfdesc.ckpt";
  model.save(path);

  Pix2Pix restored = Pix2Pix::load_file(path);  // no config passed in
  EXPECT_EQ(restored.config().generator.image_size, 16);
  model.generator().reseed_noise(9);
  const Tensor y1 = model.predict(x);
  restored.generator().reseed_noise(9);
  const Tensor y2 = restored.predict(x);
  EXPECT_LT(y1.max_abs_diff(y2), 1e-6f);
  std::remove(path.c_str());
}

TEST(Pix2Pix, LoadFileWithoutConfigRecordThrows) {
  // A raw tensor bundle without the config record is not loadable blind.
  nn::TensorMap map;
  map.emplace("weights", Tensor(Shape{4}));
  const std::string path = ::testing::TempDir() + "/pp_p2p_nocfg.ckpt";
  nn::save_tensors_file(map, path);
  EXPECT_THROW(Pix2Pix::load_file(path), CheckError);
  std::remove(path.c_str());
}

TEST(Pix2Pix, ResetOptimizersChangesNothingUntilStep) {
  Pix2Pix model(tiny_config());
  const Tensor x = random01(Shape{1, 2, 16, 16}, 13);
  model.generator().reseed_noise(1);
  const Tensor before = model.predict(x);
  model.reset_optimizers(1e-5f);
  model.generator().reseed_noise(1);
  const Tensor after = model.predict(x);
  EXPECT_LT(before.max_abs_diff(after), 1e-6f);
}

TEST(Pix2Pix, GanLossesArithmetic) {
  GanLosses a{1.0, 2.0, 3.0};
  const GanLosses b{1.0, 0.0, 1.0};
  a += b;
  a /= 2.0;
  EXPECT_DOUBLE_EQ(a.d_loss, 1.0);
  EXPECT_DOUBLE_EQ(a.g_gan, 1.0);
  EXPECT_DOUBLE_EQ(a.g_l1, 2.0);
}

}  // namespace
}  // namespace paintplace::core
