#include "core/forecaster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "tests/core/test_fixtures.h"

namespace paintplace::core {
namespace {

using testfix::TinyWorld;
using testfix::tiny_model_config;

TEST(Forecaster, TrainReturnsPerEpochHistory) {
  TinyWorld world;
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 2;
  const TrainHistory history = fc.train(world.sample_ptrs(), cfg);
  ASSERT_EQ(history.size(), 2u);
  for (const GanLosses& l : history) {
    EXPECT_GT(l.d_loss, 0.0);
    EXPECT_GT(l.g_l1, 0.0);
  }
}

TEST(Forecaster, TrainingReducesL1) {
  TinyWorld world("tiny", 6);
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 10;
  const TrainHistory history = fc.train(world.sample_ptrs(), cfg);
  EXPECT_LT(history.back().g_l1, history.front().g_l1);
}

TEST(Forecaster, EpochCallbackInvoked) {
  TinyWorld world("tiny", 4);
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 3;
  Index calls = 0;
  cfg.on_epoch = [&](Index epoch, const GanLosses&) {
    EXPECT_EQ(epoch, calls);
    calls += 1;
  };
  fc.train(world.sample_ptrs(), cfg);
  EXPECT_EQ(calls, 3);
}

TEST(Forecaster, PredictShapeMatchesTargets) {
  TinyWorld world("tiny", 4);
  CongestionForecaster fc(tiny_model_config());
  const nn::Tensor y = fc.predict(world.dataset.samples[0].input);
  EXPECT_EQ(y.shape(), world.dataset.samples[0].target.shape());
}

TEST(Forecaster, EvaluateProducesConsistentVectors) {
  TinyWorld world("tiny", 6);
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 2;
  fc.train(world.sample_ptrs(), cfg);
  const EvalResult r = fc.evaluate(world.sample_ptrs(), 3);
  EXPECT_EQ(r.per_sample_accuracy.size(), 6u);
  EXPECT_EQ(r.predicted_scores.size(), 6u);
  EXPECT_EQ(r.true_scores.size(), 6u);
  EXPECT_GE(r.mean_pixel_accuracy, 0.0);
  EXPECT_LE(r.mean_pixel_accuracy, 1.0);
  EXPECT_GE(r.top10, 0.0);
  EXPECT_LE(r.top10, 1.0);
}

TEST(Forecaster, TrainedModelBeatsUntrainedOnAccuracy) {
  TinyWorld world("tiny", 8);
  CongestionForecaster trained(tiny_model_config());
  CongestionForecaster untrained(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 12;
  trained.train(world.sample_ptrs(), cfg);
  const double acc_trained = trained.evaluate(world.sample_ptrs()).mean_pixel_accuracy;
  const double acc_untrained = untrained.evaluate(world.sample_ptrs()).mean_pixel_accuracy;
  EXPECT_GT(acc_trained, acc_untrained + 0.05);
}

TEST(Forecaster, FineTuneImprovesOnNewDesign) {
  // Strategy 2 (Acc.2): fine-tuning on pairs from the unseen design should
  // not hurt and typically helps accuracy on that design.
  TinyWorld train_world("train_design", 8, 16, 3);
  TinyWorld test_world("test_design", 8, 16, 4);
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 8;
  fc.train(train_world.sample_ptrs(), cfg);
  const double acc1 = fc.evaluate(test_world.sample_ptrs()).mean_pixel_accuracy;

  const std::vector<const data::Sample*> test_ptrs = test_world.sample_ptrs();
  const std::vector<const data::Sample*> ft(test_ptrs.begin(), test_ptrs.begin() + 3);
  TrainConfig ft_cfg;
  ft_cfg.epochs = 6;
  fc.fine_tune(ft, ft_cfg);
  const double acc2 = fc.evaluate(test_world.sample_ptrs()).mean_pixel_accuracy;
  EXPECT_GT(acc2, acc1 - 0.05) << "fine-tuning must not collapse accuracy";
}

TEST(Forecaster, CongestionScoreOrdersSyntheticMaps) {
  CongestionForecaster fc(tiny_model_config());
  // Build two fake heat maps: uniformly low vs uniformly high utilization.
  auto make_map = [](double u) {
    const img::Color c = img::UtilizationColormap::map(u);
    nn::Tensor t(nn::Shape{1, 3, 8, 8});
    for (Index y = 0; y < 8; ++y) {
      for (Index x = 0; x < 8; ++x) {
        t.at(0, 0, y, x) = c.r;
        t.at(0, 1, y, x) = c.g;
        t.at(0, 2, y, x) = c.b;
      }
    }
    return t;
  };
  EXPECT_LT(fc.congestion_score(make_map(0.1)), fc.congestion_score(make_map(0.7)));
}

TEST(Forecaster, SaveLoadPreservesEvaluation) {
  TinyWorld world("tiny", 4);
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  cfg.epochs = 2;
  fc.train(world.sample_ptrs(), cfg);
  const std::string path = ::testing::TempDir() + "/pp_forecaster.ckpt";
  fc.save(path);
  CongestionForecaster restored(tiny_model_config());
  restored.load(path);
  fc.model().generator().reseed_noise(5);
  const nn::Tensor y1 = fc.predict(world.dataset.samples[0].input);
  restored.model().generator().reseed_noise(5);
  const nn::Tensor y2 = restored.predict(world.dataset.samples[0].input);
  EXPECT_LT(y1.max_abs_diff(y2), 1e-6f);
  std::remove(path.c_str());
}

TEST(Forecaster, EmptyTrainingSetThrows) {
  CongestionForecaster fc(tiny_model_config());
  TrainConfig cfg;
  EXPECT_THROW(fc.train({}, cfg), CheckError);
}

// Two replicas of one model forward at the same time from two threads, as
// a ReplicaPool's replicas do, sharing the worker pool. Every output must
// carry the bits of a forward run alone: how the pool splits a layer's
// work between concurrent callers may not show in the result.
TEST(ConcurrentForward, TwoModelsMatchALoneForwardBitForBit) {
  Pix2PixConfig cfg = tiny_model_config(/*image_size=*/32);
  cfg.generator.base_channels = 16;
  cfg.generator.max_channels = 128;
  for (const Index batch : {Index{1}, Index{8}}) {
    std::vector<nn::Tensor> inputs;
    Rng rng(static_cast<std::uint64_t>(40 + batch));
    for (int k = 0; k < 2; ++k) {
      nn::Tensor x(nn::Shape{batch, 4, 32, 32});
      for (Index i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform());
      inputs.push_back(std::move(x));
    }
    CongestionForecaster lone(cfg);
    lone.set_deterministic_inference(true);
    std::vector<nn::Tensor> expected;
    for (const nn::Tensor& x : inputs) expected.push_back(lone.predict_batch(x));

    constexpr int kRounds = 6;
    std::atomic<int> ready{0};
    std::vector<int> mismatches(2, 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        CongestionForecaster replica(cfg);
        replica.set_deterministic_inference(true);
        ready += 1;
        while (ready.load() < 2) std::this_thread::yield();
        for (int round = 0; round < kRounds; ++round) {
          // The two threads alternate inputs so each input is forwarded
          // beside the other one.
          const std::size_t k = static_cast<std::size_t>((round + r) % 2);
          const nn::Tensor y = replica.predict_batch(inputs[k]);
          if (y.numel() != expected[k].numel() ||
              std::memcmp(y.data(), expected[k].data(), sizeof(float) * y.numel()) != 0) {
            mismatches[static_cast<std::size_t>(r)] += 1;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches[0], 0) << "batch " << batch;
    EXPECT_EQ(mismatches[1], 0) << "batch " << batch;
  }
}

}  // namespace
}  // namespace paintplace::core
