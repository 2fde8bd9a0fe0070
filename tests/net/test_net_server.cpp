// End-to-end NetServer tests over real loopback sockets: request/response
// fidelity vs direct prediction, protocol-error handling, the metrics
// endpoint, hot-swap over the wire, concurrent clients, peers that close
// at once, an acceptor that outlives running out of descriptors, and
// drain-on-shutdown semantics.
#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/log.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::net {
namespace {

using namespace std::chrono_literals;

NetServerConfig quick_config(int replicas = 2) {
  NetServerConfig cfg;
  cfg.pool.replicas = replicas;
  cfg.pool.serve.max_batch = 4;
  cfg.pool.serve.max_wait = 2ms;
  return cfg;
}

ModelFactory tiny_factory() {
  return [] { return serve::testfix::tiny_model(); };
}

/// A raw loopback socket connected to `port`, for bytes no Client would
/// send; -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The next frame the server sends on `fd`: nullopt when the connection
/// closes, or the socket's receive timeout passes, before a whole frame.
std::optional<Frame> next_frame(int fd) {
  FrameReader reader;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    reader.feed(buf, static_cast<std::size_t>(n));
    if (auto frame = reader.next()) return frame;
  }
}

/// One forecast over a raw, already connected socket: nullopt when no reply
/// arrives.
std::optional<ForecastResponse> forecast_on(int fd, std::uint64_t request_id,
                                            const nn::Tensor& input) {
  ForecastRequest req;
  req.request_id = request_id;
  req.input = input;
  const std::vector<std::uint8_t> bytes = encode_forecast_request(req);
  if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(bytes.size())) {
    return std::nullopt;
  }
  const std::optional<Frame> frame = next_frame(fd);
  if (!frame) return std::nullopt;
  return decode_forecast_response(*frame);
}

TEST(NetServer, ForecastOverTheWireMatchesDirectPredict) {
  NetServer server(quick_config(), tiny_factory());
  ASSERT_GT(server.port(), 0);  // ephemeral port was bound

  Client client("127.0.0.1", server.port());
  const nn::Tensor x = serve::testfix::random_input(3);
  const ForecastResponse resp = client.forecast(x, /*want_heatmap=*/true);

  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.model_version, 1u);
  EXPECT_FALSE(resp.from_cache);

  auto reference = serve::testfix::tiny_model();
  reference->set_deterministic_inference(true);
  const nn::Tensor expected = reference->predict(x);
  ASSERT_EQ(resp.heatmap.shape(), expected.shape());
  EXPECT_EQ(resp.heatmap.max_abs_diff(expected), 0.0f);
  EXPECT_DOUBLE_EQ(resp.congestion_score, reference->congestion_score(expected));

  // The same placement resubmitted is a bit-identical cache hit.
  const ForecastResponse again = client.forecast(x, /*want_heatmap=*/true);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.heatmap.max_abs_diff(resp.heatmap), 0.0f);
}

TEST(NetServer, ScoreOnlyResponseOmitsHeatmap) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  const nn::Tensor x = serve::testfix::random_input(4);
  const ForecastResponse resp = client.forecast(x);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.heatmap.numel(), 0);  // not requested, not shipped

  // The score still matches a direct deterministic prediction exactly.
  auto reference = serve::testfix::tiny_model();
  reference->set_deterministic_inference(true);
  EXPECT_DOUBLE_EQ(resp.congestion_score,
                   reference->congestion_score(reference->predict(x)));
}

TEST(NetServer, BadInputShapeFailsThatRequestOnly) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());

  const ForecastResponse bad = client.forecast(nn::Tensor(nn::Shape{1, 2, 16, 16}));
  EXPECT_EQ(bad.status, Status::kFailed);
  EXPECT_FALSE(bad.error.empty());

  // The connection survives a failed request; the next one is served.
  const ForecastResponse good = client.forecast(serve::testfix::random_input(5));
  EXPECT_EQ(good.status, Status::kOk);
  EXPECT_EQ(server.metrics().requests_failed.load(), 1u);
}

TEST(NetServer, GarbageBytesGetAnErrorFrameAndClose) {
  NetServer server(quick_config(1), tiny_factory());
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);

  const char garbage[] = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);

  // The server answers with one kError frame, then closes the connection.
  const std::optional<Frame> error_frame = next_frame(fd);
  const bool closed = !next_frame(fd).has_value();
  ::close(fd);
  ASSERT_TRUE(error_frame.has_value());
  EXPECT_EQ(error_frame->type, FrameType::kError);
  EXPECT_NE(decode_text(*error_frame).find("magic"), std::string::npos);
  EXPECT_TRUE(closed);
  EXPECT_EQ(server.metrics().protocol_errors.load(), 1u);
}

TEST(NetServer, ServerFrameTypeFromAClientGetsAnErrorFrameAndClose) {
  NetServer server(quick_config(1), tiny_factory());
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);

  // A well-framed kForecastResponse: a type only the server may send.
  ForecastResponse echoed;
  echoed.request_id = 31;
  const std::vector<std::uint8_t> bytes = encode_forecast_response(echoed);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  const std::optional<Frame> error_frame = next_frame(fd);
  const bool closed = !next_frame(fd).has_value();
  ::close(fd);
  ASSERT_TRUE(error_frame.has_value());
  EXPECT_EQ(error_frame->type, FrameType::kError);
  EXPECT_EQ(error_frame->request_id, 31u);
  EXPECT_NE(decode_text(*error_frame).find("unexpected client frame type 2"), std::string::npos)
      << decode_text(*error_frame);
  EXPECT_TRUE(closed);
  EXPECT_EQ(server.metrics().protocol_errors.load(), 1u);
}

TEST(NetServer, UndecodableForecastPayloadFailsThatRequestOnly) {
  NetServer server(quick_config(1), tiny_factory());
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  // A forecast frame whose header is sound but whose payload claims 1000
  // channels: the tensor's floats run past the payload's end.
  ForecastRequest req;
  req.request_id = 77;
  req.input = serve::testfix::random_input(601);
  std::vector<std::uint8_t> bytes = encode_forecast_request(req);
  const std::uint32_t channels = 1000;
  std::memcpy(bytes.data() + kFrameHeaderBytes, &channels, sizeof(channels));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  const std::optional<Frame> error_frame = next_frame(fd);
  ASSERT_TRUE(error_frame.has_value());
  EXPECT_EQ(error_frame->type, FrameType::kError);
  EXPECT_EQ(error_frame->request_id, 77u);
  EXPECT_FALSE(decode_text(*error_frame).empty());

  // The connection stays open and serves the next, valid request.
  const std::optional<ForecastResponse> good =
      forecast_on(fd, 78, serve::testfix::random_input(602));
  ::close(fd);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->request_id, 78u);
  EXPECT_EQ(good->status, Status::kOk);
  EXPECT_EQ(server.metrics().protocol_errors.load(), 1u);
}

// A TCP health probe or a port scan connects and closes without sending a
// byte. Such a connection's reader can finish before its constructor has
// returned; winding it down must not take the server with it.
TEST(NetServer, ConnectAndCloseClientsLeaveItServing) {
  NetServerConfig cfg = quick_config(1);
  cfg.backlog = 128;  // every connect completes at once, none waits out a SYN retry
  NetServer server(cfg, tiny_factory());
  for (int i = 0; i < 100; ++i) {
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    ::close(fd);
  }

  Client client("127.0.0.1", server.port());
  const nn::Tensor x = serve::testfix::random_input(600);
  const ForecastResponse resp = client.forecast(x, /*want_heatmap=*/true);
  ASSERT_EQ(resp.status, Status::kOk);
  auto reference = serve::testfix::tiny_model();
  reference->set_deterministic_inference(true);
  const nn::Tensor expected = reference->predict(x);
  ASSERT_EQ(resp.heatmap.shape(), expected.shape());
  EXPECT_EQ(std::memcmp(resp.heatmap.data(), expected.data(),
                        sizeof(float) * static_cast<std::size_t>(expected.numel())),
            0);
  EXPECT_EQ(resp.congestion_score, reference->congestion_score(expected));
  server.shutdown();
  EXPECT_EQ(server.metrics().connections_opened.load(), 101u);
  EXPECT_EQ(server.metrics().connections_closed.load(), 101u);
}

TEST(NetServer, MetricsEndpointReflectsTraffic) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  (void)client.forecast(serve::testfix::random_input(6));
  (void)client.forecast(serve::testfix::random_input(6));  // cache hit

  // The completed counter lands just after the response bytes; wait for it
  // so the scrape below sees both requests.
  while (server.metrics().requests_completed.load() < 2) {
    std::this_thread::sleep_for(1ms);
  }
  const std::string text = client.metrics_text();
  EXPECT_NE(text.find("net_requests_completed 2\n"), std::string::npos);
  EXPECT_NE(text.find("net_requests_accepted 2\n"), std::string::npos);
  EXPECT_NE(text.find("pool_model_version 1\n"), std::string::npos);
  EXPECT_NE(text.find("pool_replicas 1\n"), std::string::npos);
  EXPECT_NE(text.find("net_request_latency_seconds_count 2\n"), std::string::npos);
  EXPECT_EQ(server.metrics().metrics_requests.load(), 1u);
}

TEST(NetServer, SwapOverTheWireIsDeniedByDefault) {
  NetServer server(quick_config(1), tiny_factory());
  Client client("127.0.0.1", server.port());
  const SwapResponse resp = client.swap("/does/not/matter.ckpt");
  EXPECT_EQ(resp.status, Status::kFailed);
  EXPECT_NE(resp.error.find("disabled"), std::string::npos);
  EXPECT_EQ(server.metrics().hot_swaps.load(), 0u);
}

TEST(NetServer, SwapOverTheWirePublishesWhenAllowed) {
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() / "paintplace_test_net_swap.ckpt";
  serve::testfix::tiny_model(/*seed=*/21)->save(ckpt.string());

  NetServerConfig cfg = quick_config();
  cfg.allow_swap = true;
  NetServer server(cfg, tiny_factory());
  Client client("127.0.0.1", server.port());

  const SwapResponse resp = client.swap(ckpt.string());
  EXPECT_EQ(resp.status, Status::kOk) << resp.error;
  EXPECT_EQ(resp.new_version, 2u);

  const ForecastResponse after = client.forecast(serve::testfix::random_input(7));
  EXPECT_EQ(after.model_version, 2u);
  std::filesystem::remove(ckpt);
}

TEST(NetServer, SwapRejectsArchitectureMismatch) {
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() / "paintplace_test_net_mismatch.ckpt";
  serve::testfix::tiny_model(/*seed=*/5, /*image_size=*/32)->save(ckpt.string());

  NetServerConfig cfg = quick_config(1);
  cfg.allow_swap = true;
  NetServer server(cfg, tiny_factory());  // serving a 16px model
  Client client("127.0.0.1", server.port());

  const SwapResponse resp = client.swap(ckpt.string());
  EXPECT_EQ(resp.status, Status::kFailed);
  EXPECT_FALSE(resp.error.empty());
  // The pool still serves the original model at the original version.
  EXPECT_EQ(client.forecast(serve::testfix::random_input(8)).model_version, 1u);
  std::filesystem::remove(ckpt);
}

TEST(NetServer, ConcurrentClientsAllGetAnswers) {
  NetServer server(quick_config(2), tiny_factory());
  constexpr int kClients = 3, kPerClient = 6;
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        const ForecastResponse r =
            client.forecast(serve::testfix::random_input(300 + c * kPerClient + i));
        if (r.status == Status::kOk) ok[static_cast<std::size_t>(c)] += 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(ok[static_cast<std::size_t>(c)], kPerClient);
  // A writer counts a request only after its reply is sent, so a client can
  // hold its last reply before the count lands. The drain joins the writers.
  server.shutdown();
  EXPECT_EQ(server.metrics().requests_completed.load(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(server.metrics().shed_total(), 0u);
}

TEST(NetServer, ShutdownDrainsPipelinedRequests) {
  NetServerConfig cfg = quick_config(2);
  cfg.pool.serve.max_wait = 50ms;  // batches stay open: requests are in flight at shutdown
  cfg.pool.serve.max_batch = 64;
  auto server = std::make_unique<NetServer>(cfg, tiny_factory());
  Client client("127.0.0.1", server->port());

  constexpr int kInFlight = 5;
  for (std::uint64_t id = 1; id <= kInFlight; ++id) {
    client.send_forecast(id, serve::testfix::random_input(400 + id));
  }
  // Wait until the reader has admitted all five (sent != accepted: bytes
  // still in the socket buffer at shutdown would simply never be accepted),
  // then shut down with the whole window unresolved.
  while (server->metrics().requests_accepted.load() < kInFlight) {
    std::this_thread::sleep_for(1ms);
  }
  std::thread stopper([&] { server->shutdown(); });
  int answered = 0;
  for (int i = 0; i < kInFlight; ++i) {
    const ForecastResponse r = client.read_forecast_response();
    if (r.status == Status::kOk) ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, kInFlight);
}

TEST(NetServer, OverloadShedsWithTypedReason) {
  NetServerConfig cfg = quick_config(1);
  cfg.pool.max_replica_depth = 1;
  cfg.pool.serve.max_wait = 20ms;  // hold the batch open so depth stays high
  cfg.pool.serve.max_batch = 64;
  NetServer server(cfg, tiny_factory());
  Client client("127.0.0.1", server.port());

  for (std::uint64_t id = 1; id <= 4; ++id) {
    client.send_forecast(id, serve::testfix::random_input(500 + id));
  }
  // A second connection's scrape is answered while the first is shedding.
  Client control("127.0.0.1", server.port());
  EXPECT_FALSE(control.metrics_text().empty());
  int ok = 0, shed = 0;
  for (int i = 0; i < 4; ++i) {
    const ForecastResponse r = client.read_forecast_response();
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kShed) {
      ++shed;
      EXPECT_EQ(r.shed_reason, ShedReason::kReplicaQueueFull);
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, 4);  // nothing failed
  EXPECT_EQ(server.metrics().shed_queue_full.load(), static_cast<std::uint64_t>(shed));
  EXPECT_EQ(server.metrics().requests_failed.load(), 0u);
}

// At the descriptor limit accept() fails with EMFILE. The acceptor must back
// off and retry rather than return, so the connection that waited in the
// backlog meanwhile is served once descriptors are free again.
TEST(NetServer, AcceptorSurvivesRunningOutOfDescriptors) {
  NetServer server(quick_config(1), tiny_factory());

  // Both client sockets exist before the limit drops; connect() needs no
  // new descriptor. The acceptor may already hold one reserved in a blocked
  // accept(), which the first connection takes; the second has to wait.
  int fds[2];
  for (int& fd : fds) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::dup(fds[0]);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);  // no descriptor left to hand out
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  // No early return from here until the limit and the sink are restored.
  std::atomic<int> retries{0};
  obs::Log::instance().reset_rate_limits();
  obs::Log::instance().set_sink([&retries](const std::string& line) {
    if (line.find("accept_retry") != std::string::npos) retries += 1;
  });

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool connected = true;
  for (int fd : fds) {
    connected = connected && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (retries.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ::setrlimit(RLIMIT_NOFILE, &saved);
  obs::Log::instance().set_sink(nullptr);
  EXPECT_TRUE(connected);
  EXPECT_GT(retries.load(), 0) << "no accept() failed while the limit was lowered";

  for (int i = 0; i < 2; ++i) {
    const std::optional<ForecastResponse> resp =
        forecast_on(fds[i], 1, serve::testfix::random_input(500 + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(resp.has_value()) << "connection " << i << " got no answer";
    EXPECT_EQ(resp->status, Status::kOk);
  }
  for (int fd : fds) ::close(fd);
  server.shutdown();
  EXPECT_EQ(server.metrics().connections_opened.load(), 2u);
}

}  // namespace
}  // namespace paintplace::net
