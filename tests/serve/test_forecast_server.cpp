#include "serve/forecast_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "nn/tensor_ops.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::serve {
namespace {

using namespace std::chrono_literals;

ServeConfig quick_config() {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait = 2ms;
  return cfg;
}

TEST(ForecastServer, ResultMatchesDirectPredict) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  const nn::Tensor x = testfix::random_input(1);
  const ForecastResult r = server.submit(x).get();

  // Reference from an identically-seeded standalone model.
  auto reference = testfix::tiny_model();
  reference->set_deterministic_inference(true);
  const nn::Tensor expected = reference->predict(x);
  EXPECT_EQ(r.heatmap.max_abs_diff(expected), 0.0f);
  EXPECT_DOUBLE_EQ(r.congestion_score, reference->congestion_score(expected));
  EXPECT_EQ(r.model_version, 1u);
  EXPECT_FALSE(r.from_cache);
}

TEST(ForecastServer, DefaultConfigRunsEachSequentialSubmitAsItsOwnBatch) {
  // A closed-loop caller never has a second request pending, so under the
  // default (work-conserving) config every submit dispatches alone, at once.
  ForecastServer server(ServeConfig{}, testfix::tiny_model());
  constexpr std::uint64_t kSubmits = 6;
  for (std::uint64_t i = 0; i < kSubmits; ++i) {
    EXPECT_FALSE(server.submit(testfix::random_input(100 + i)).get().from_cache);
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.batches, kSubmits);
  EXPECT_EQ(stats.model_samples, kSubmits);
  EXPECT_EQ(stats.max_batch, 1u);
}

TEST(ForecastServer, IdenticalPlacementHitsCacheBitIdentically) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  const nn::Tensor x = testfix::random_input(7);
  const ForecastResult first = server.submit(x).get();
  ASSERT_FALSE(first.from_cache);
  const ForecastResult second = server.submit(x).get();
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.heatmap.max_abs_diff(first.heatmap), 0.0f);
  EXPECT_DOUBLE_EQ(second.congestion_score, first.congestion_score);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.model_samples, 1u);  // the model ran exactly once
}

TEST(ForecastServer, DuplicatesInsideOneBatchRunOnce) {
  ServeConfig cfg = quick_config();
  cfg.max_batch = 8;
  cfg.max_wait = 50ms;  // generous window so all submits land in one batch
  ForecastServer server(cfg, testfix::tiny_model());
  const nn::Tensor x = testfix::random_input(1);
  std::vector<std::future<ForecastResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(x));
  std::vector<ForecastResult> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const ForecastResult& r : results) {
    EXPECT_EQ(r.heatmap.max_abs_diff(results[0].heatmap), 0.0f);
  }
  const ServeStats stats = server.stats();
  // One model sample total: the first batch coalesces its duplicates and any
  // straggler batch serves from the cache.
  EXPECT_EQ(stats.model_samples, 1u);
  EXPECT_EQ(stats.requests, 4u);
}

TEST(ForecastServer, CoalescesConcurrentSubmitsIntoBatches) {
  ServeConfig cfg = quick_config();
  cfg.max_batch = 4;
  cfg.max_wait = 20ms;
  ForecastServer server(cfg, testfix::tiny_model());
  constexpr int kClients = 3, kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const nn::Tensor x =
            testfix::random_input(static_cast<std::uint64_t>(c * 1000 + i));
        const ForecastResult r = server.submit(x).get();
        if (r.heatmap.shape() == nn::Shape{1, 3, 16, 16}) ok += 1;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.model_samples, stats.requests - stats.cache_hits - stats.coalesced);
  EXPECT_GE(stats.max_batch, 1u);
  EXPECT_LE(stats.max_batch, 4u);
}

TEST(ForecastServer, ShutdownDrainsPendingRequests) {
  ServeConfig cfg = quick_config();
  cfg.max_batch = 64;     // never fills ...
  cfg.max_wait = 10min;   // ... and never times out: only close() can flush
  auto server = std::make_unique<ForecastServer>(cfg, testfix::tiny_model());
  std::vector<std::future<ForecastResult>> futures;
  for (std::uint64_t i = 0; i < 5; ++i) futures.push_back(server->submit(testfix::random_input(i)));
  server->shutdown();  // must serve all 5 queued requests before returning
  for (auto& f : futures) {
    EXPECT_EQ(f.get().heatmap.shape(), (nn::Shape{1, 3, 16, 16}));
  }
}

TEST(ForecastServer, SubmitAfterShutdownThrows) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  server.shutdown();
  EXPECT_THROW(server.submit(testfix::random_input(1)), CheckError);
}

TEST(ForecastServer, ShutdownIsIdempotentAndRunsOnDestruction) {
  auto server = std::make_unique<ForecastServer>(quick_config(), testfix::tiny_model());
  (void)server->submit(testfix::random_input(1)).get();
  server->shutdown();
  server->shutdown();
  server.reset();  // destructor after explicit shutdown must not hang/throw
}

TEST(ForecastServer, ConcurrentSubmitAndShutdownEitherServesOrRefuses) {
  for (int round = 0; round < 5; ++round) {
    ForecastServer server(quick_config(), testfix::tiny_model());
    std::atomic<int> served{0}, refused{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 6; ++i) {
          try {
            auto f = server.submit(
                testfix::random_input(static_cast<std::uint64_t>(round * 100 + c * 10 + i)));
            f.get();  // accepted submissions must always resolve
            served += 1;
          } catch (const CheckError&) {
            refused += 1;  // raced with shutdown — a clean refusal
          }
        }
      });
    }
    std::this_thread::sleep_for(1ms);
    server.shutdown();
    for (auto& t : clients) t.join();
    EXPECT_EQ(served.load() + refused.load(), 18);
  }
}

TEST(ForecastServer, HotSwapKeepsServingAndBumpsVersion) {
  ServeConfig cfg = quick_config();
  ForecastServer server(cfg, testfix::tiny_model(/*seed=*/9), "base");
  const nn::Tensor x = testfix::random_input(1);
  const ForecastResult before = server.submit(x).get();
  EXPECT_EQ(before.model_version, 1u);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread hammer([&] {
    std::uint64_t i = 100;
    while (!stop) {
      try {
        server.submit(testfix::random_input(i++)).get();
      } catch (...) {
        failures += 1;
      }
    }
  });
  const std::uint64_t v2 = server.publish_model(testfix::tiny_model(/*seed=*/31), "fine-tuned");
  EXPECT_EQ(v2, 2u);
  stop = true;
  hammer.join();
  EXPECT_EQ(failures.load(), 0);  // swap never failed an in-flight request

  // Same input now answered by the new checkpoint (not the stale cache).
  const ForecastResult after = server.submit(x).get();
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_FALSE(after.from_cache);
  EXPECT_GT(after.heatmap.max_abs_diff(before.heatmap), 0.0f);
  const auto hist = server.registry().history();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[1].second, "fine-tuned");
}

TEST(ForecastServer, MultipleWorkersServeCorrectly) {
  ServeConfig cfg = quick_config();
  cfg.workers = 2;
  ForecastServer server(cfg, testfix::tiny_model());
  auto reference = testfix::tiny_model();
  reference->set_deterministic_inference(true);
  std::vector<std::future<ForecastResult>> futures;
  std::vector<nn::Tensor> inputs;
  for (std::uint64_t i = 0; i < 12; ++i) inputs.push_back(testfix::random_input(i));
  for (const nn::Tensor& x : inputs) futures.push_back(server.submit(x));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ForecastResult r = futures[i].get();
    EXPECT_EQ(r.heatmap.max_abs_diff(reference->predict(inputs[i])), 0.0f) << "request " << i;
  }
}

TEST(ForecastServer, RejectsUnsoundConfigurations) {
  ServeConfig stochastic_with_cache = quick_config();
  stochastic_with_cache.deterministic = false;
  EXPECT_THROW(ForecastServer(stochastic_with_cache, testfix::tiny_model()), CheckError);
  stochastic_with_cache.cache_capacity = 0;  // stochastic serving is fine uncached
  EXPECT_NO_THROW(ForecastServer(stochastic_with_cache, testfix::tiny_model()));

  ServeConfig no_workers = quick_config();
  no_workers.workers = 0;
  EXPECT_THROW(ForecastServer(no_workers, testfix::tiny_model()), CheckError);
  EXPECT_THROW(ForecastServer(quick_config(), nullptr), CheckError);
}

TEST(ForecastServer, WrongShapeSubmitFailsFast) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  EXPECT_THROW(server.submit(nn::Tensor(nn::Shape{1, 4, 8, 8})), CheckError);
  EXPECT_THROW(server.submit(nn::Tensor(nn::Shape{2, 4, 16, 16})), CheckError);
  // The failure did not poison the server.
  EXPECT_NO_THROW(server.submit(testfix::random_input(1)).get());
}

}  // namespace
}  // namespace paintplace::serve
