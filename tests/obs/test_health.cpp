// Health-frame tests: PPN1 kHealthRequest/kHealthResponse wire round-trip
// (including chopped-stream reassembly), and the end-to-end probe against a
// live loopback NetServer — identity fields from build_info, SLO status from
// the monitor, and per-replica admission depths.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/build_info.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::net {
namespace {

/// Feeds `bytes` in chunks of `chunk` and drains all completed frames.
std::vector<Frame> reassemble(const std::vector<std::uint8_t>& bytes, std::size_t chunk) {
  FrameReader reader;
  std::vector<Frame> frames;
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    reader.feed(bytes.data() + at, std::min(chunk, bytes.size() - at));
    while (auto f = reader.next()) frames.push_back(std::move(*f));
  }
  EXPECT_EQ(reader.buffered(), 0u);
  return frames;
}

TEST(HealthWire, RequestRoundTrip) {
  const std::vector<Frame> frames = reassemble(encode_health_request(41), 3);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHealthRequest);
  EXPECT_EQ(frames[0].request_id, 41u);
}

TEST(HealthWire, ResponseRoundTripPreservesEveryField) {
  HealthInfo info;
  info.request_id = 77;
  info.uptime_seconds = 123.5;
  info.model_version = 9;
  info.slo_state = 2;
  info.native_kernel = true;
  info.window_p99_s = 0.042;
  info.window_error_rate = 0.015;
  info.latency_burn_rate = 0.168;
  info.error_burn_rate = 1.5;
  info.window_requests = 4096;
  info.watchdog_stalls = 5;
  info.oldest_request_ms = 321.5;
  info.replica_depths = {3, 0, 7};
  info.git_sha = "abc123def456";
  info.compiler = "gcc 12.2.0";
  info.backend = "cpu_opt";

  // Chop the stream into single bytes: reassembly must not care.
  const std::vector<Frame> frames = reassemble(encode_health_response(info), 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHealthResponse);

  const HealthInfo back = decode_health_response(frames[0]);
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_DOUBLE_EQ(back.uptime_seconds, 123.5);
  EXPECT_EQ(back.model_version, 9u);
  EXPECT_EQ(back.slo_state, 2);
  EXPECT_TRUE(back.native_kernel);
  EXPECT_DOUBLE_EQ(back.window_p99_s, 0.042);
  EXPECT_DOUBLE_EQ(back.window_error_rate, 0.015);
  EXPECT_DOUBLE_EQ(back.latency_burn_rate, 0.168);
  EXPECT_DOUBLE_EQ(back.error_burn_rate, 1.5);
  EXPECT_EQ(back.window_requests, 4096u);
  EXPECT_EQ(back.watchdog_stalls, 5u);
  EXPECT_DOUBLE_EQ(back.oldest_request_ms, 321.5);
  EXPECT_EQ(back.replica_depths, (std::vector<std::uint32_t>{3, 0, 7}));
  EXPECT_EQ(back.git_sha, "abc123def456");
  EXPECT_EQ(back.compiler, "gcc 12.2.0");
  EXPECT_EQ(back.backend, "cpu_opt");
}

TEST(HealthWire, TruncatedResponseRejects) {
  HealthInfo info;
  info.request_id = 1;
  info.replica_depths = {1, 2};
  info.git_sha = "deadbeef";
  const std::vector<Frame> frames = reassemble(encode_health_response(info), 8);
  ASSERT_EQ(frames.size(), 1u);
  Frame cut = frames[0];
  cut.payload.resize(cut.payload.size() - 4);
  EXPECT_THROW(decode_health_response(cut), WireError);
}

TEST(NetServerHealth, LiveProbeReportsIdentityAndSlo) {
  NetServerConfig cfg;
  cfg.pool.replicas = 2;
  cfg.pool.serve.max_batch = 4;
  cfg.pool.serve.max_wait = std::chrono::milliseconds(2);
  NetServer server(cfg, [] { return serve::testfix::tiny_model(); });
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());
  // A little traffic first, so the probe reflects a serving process.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.forecast(serve::testfix::random_input(i)).status, Status::kOk);
  }

  // A replica's depth drops when the writer releases the request's slot,
  // just after the reply is sent: poll until the last release has landed.
  HealthInfo health = client.health();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::any_of(health.replica_depths.begin(), health.replica_depths.end(),
                     [](std::uint32_t depth) { return depth != 0; }) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    health = client.health();
  }
  EXPECT_EQ(health.model_version, 1u);
  EXPECT_GE(health.uptime_seconds, 0.0);
  EXPECT_LE(health.slo_state, 2);
  EXPECT_EQ(health.replica_depths.size(), 2u);  // one depth per replica
  for (std::uint32_t depth : health.replica_depths) EXPECT_EQ(depth, 0u);  // idle now

  // Identity fields come from obs::build_info() and the active backend.
  const obs::BuildInfo& build = obs::build_info();
  EXPECT_EQ(health.git_sha, build.git_sha);
  EXPECT_EQ(health.compiler, build.compiler);
  EXPECT_FALSE(health.backend.empty());
  EXPECT_EQ(health.native_kernel, build.native_kernel);
}

}  // namespace
}  // namespace paintplace::net
