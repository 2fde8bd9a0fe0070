// NetServer under live, pipelined load over loopback: a checkpoint hot swap
// in the middle of a swarm drops, sheds and fails nothing, and an overloaded
// server under 1-in-100 trace sampling still puts every shed request in the
// trace.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::net {
namespace {

using namespace std::chrono_literals;

struct Tally {
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t post_swap = 0;  ///< kOk answers from model version 2 or later

  Tally& operator+=(const Tally& t) {
    received += t.received, ok += t.ok, shed += t.shed, failed += t.failed;
    post_swap += t.post_swap;
    return *this;
  }
};

/// One closed-loop client: keeps up to `depth` forecasts in flight on one
/// connection until `done` holds or `cap` have been sent, then reads every
/// answer still owed.
Tally run_client(std::uint16_t port, int first_seed, std::uint64_t depth, std::uint64_t cap,
                 const std::function<bool(const Tally&)>& done) {
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < 32; ++i) {
    inputs.push_back(serve::testfix::random_input(static_cast<std::uint64_t>(first_seed + i)));
  }
  Client client("127.0.0.1", port);
  Tally tally;
  std::uint64_t sent = 0;
  for (;;) {
    while (!done(tally) && sent < cap && sent - tally.received < depth) {
      client.send_forecast(sent + 1, inputs[sent % inputs.size()]);
      ++sent;
    }
    if (tally.received == sent) return tally;
    const ForecastResponse resp = client.read_forecast_response();
    ++tally.received;
    switch (resp.status) {
      case Status::kOk:
        ++tally.ok;
        if (resp.model_version > 1) ++tally.post_swap;
        break;
      case Status::kShed: ++tally.shed; break;
      case Status::kFailed: ++tally.failed; break;
    }
  }
}

TEST(NetServer, HotSwapUnderPipelinedSwarmDropsNothing) {
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() / "paintplace_test_net_swarm_swap.ckpt";
  serve::testfix::tiny_model(/*seed=*/23)->save(ckpt.string());

  NetServerConfig cfg;
  cfg.pool.replicas = 2;
  cfg.pool.max_replica_depth = 0;
  cfg.pool.max_client_inflight = 0;
  cfg.pool.serve.max_batch = 8;
  cfg.pool.serve.max_wait = 2ms;
  cfg.pool.serve.cache_capacity = 64;
  NetServer server(cfg, [] { return serve::testfix::tiny_model(); });

  // Each client runs until it has carried pre-swap load and seen an answer
  // from the new model; the cap ends the run if the swap never lands.
  constexpr std::uint64_t kBeforeSwap = 32;
  const auto done = [](const Tally& t) { return t.received >= kBeforeSwap && t.post_swap >= 1; };
  std::vector<Tally> tallies(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      tallies[static_cast<std::size_t>(c)] =
          run_client(server.port(), 700 + 7 * c, /*depth=*/4, /*cap=*/4096, done);
    });
  }
  while (server.metrics().requests_completed.load() < kBeforeSwap) {
    std::this_thread::sleep_for(1ms);
  }
  const std::uint64_t version = server.swap_checkpoint(ckpt.string());
  for (auto& th : clients) th.join();
  server.shutdown();
  std::filesystem::remove(ckpt);

  Tally total;
  for (const Tally& t : tallies) total += t;
  EXPECT_EQ(version, 2u);
  EXPECT_GT(total.ok, 0u);
  EXPECT_EQ(total.failed, 0u);
  EXPECT_EQ(total.shed, 0u);
  EXPECT_GE(total.post_swap, 1u);
  EXPECT_EQ(server.metrics().requests_failed.load(), 0u);
  EXPECT_EQ(server.metrics().hot_swaps.load(), 1u);
}

/// Tests that drive the process tracer leave it disabled and cleared, with
/// the sampler off, even when an assertion fails.
class SampledNetServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::instance().sampler().disable();
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

TEST_F(SampledNetServerTest, OverloadUnderSamplingKeepsEveryShedInTheTrace) {
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& head_sampled = registry.counter("obs_trace_sampled_total");
  obs::Counter& retained_error = registry.counter("obs_trace_retained_error_total");
  tracer.clear();
  tracer.enable();
  // Head-sample 1 in 100; the slow threshold is far beyond any loopback
  // request, so only a shed or an error can tail-retain one.
  obs::SamplerConfig sc;
  sc.sample_every = 100;
  sc.slow_threshold_s = 30.0;
  tracer.sampler().configure(sc);
  const std::uint64_t head0 = head_sampled.load();
  const std::uint64_t error0 = retained_error.load();

  // One replica with a depth bound of 1, and batches held open for 20 ms:
  // of each client's 16 pipelined requests, most are shed.
  NetServerConfig cfg;
  cfg.pool.replicas = 1;
  cfg.pool.max_replica_depth = 1;
  cfg.pool.max_client_inflight = 0;
  cfg.pool.serve.max_batch = 64;
  cfg.pool.serve.max_wait = 20ms;
  cfg.pool.serve.cache_capacity = 0;
  NetServer server(cfg, [] { return serve::testfix::tiny_model(); });
  constexpr std::uint64_t kPerClient = 48;
  const auto never = [](const Tally&) { return false; };
  std::vector<Tally> tallies(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      tallies[static_cast<std::size_t>(c)] =
          run_client(server.port(), 800 + 7 * c, /*depth=*/16, kPerClient, never);
    });
  }
  for (auto& th : clients) th.join();
  // The drain joins the writers, whose finish() calls decide the admitted
  // requests' traces.
  server.shutdown();
  const std::uint64_t head = head_sampled.load() - head0;
  const std::uint64_t retained = retained_error.load() - error0;
  const std::string dump = tracer.dump_json();

  Tally total;
  for (const Tally& t : tallies) total += t;
  EXPECT_EQ(total.received, 2 * kPerClient);
  EXPECT_EQ(total.failed, 0u);
  EXPECT_GT(total.ok, 0u);
  ASSERT_GT(total.shed, 0u);
  EXPECT_GT(retained, 0u);
  // A head-sampled shed is recorded live instead of retained, so every shed
  // is in the trace one way or the other.
  EXPECT_GE(retained + head, total.shed);
  EXPECT_NE(dump.find("net.handle_forecast"), std::string::npos);
}

}  // namespace
}  // namespace paintplace::net
