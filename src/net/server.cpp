#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>

#include "backend/backend.h"
#include "core/pix2pix.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace paintplace::net {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// send() the whole buffer, tolerating partial writes. False = peer gone.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// One accepted socket: a reader thread that decodes and dispatches frames,
// and a writer thread that delivers responses in request order. The writer
// is what keeps slow forwards from blocking frame intake — the reader can
// keep admitting (up to the admission caps) while earlier requests compute.
struct NetServer::Connection {
  // One queued response. Immediate entries carry pre-encoded bytes; forecast
  // entries carry the admission whose future the writer resolves.
  struct Outgoing {
    std::vector<std::uint8_t> encoded;  ///< used when !pending
    bool pending = false;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;  ///< stitches the writer's span to the request
    bool want_heatmap = false;
    Admission admission;
    std::chrono::steady_clock::time_point accepted_at;
  };

  NetServer& server;
  int fd;
  std::uint64_t client_id;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Outgoing> outbox;
  bool intake_closed = false;
  std::atomic<bool> dead{false};  ///< peer unreachable; drain without writing

  std::thread reader;
  std::thread writer;
  std::atomic<bool> finished{false};  ///< both threads have returned

  Connection(NetServer& srv, int sock, std::uint64_t id)
      : server(srv), fd(sock), client_id(id) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (server.config_.idle_timeout.count() > 0) {
      // SO_RCVTIMEO turns a silent peer into a recv() timeout in read_loop;
      // no separate reaper thread needed for thread-per-connection.
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          server.config_.idle_timeout);
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(us.count() / 1000000);
      tv.tv_usec = static_cast<suseconds_t>(us.count() % 1000000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    // The writer starts first: a peer that has already closed ends
    // read_loop at once, and the reader then joins `writer`.
    writer = std::thread([this] { write_loop(); });
    reader = std::thread([this] {
      read_loop();
      // Reader is done (EOF, error, or protocol violation): no more entries
      // will arrive; let the writer drain and exit.
      close_intake();
      writer.join();
      ::shutdown(fd, SHUT_RDWR);
      server.metrics_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      finished.store(true, std::memory_order_release);
    });
  }

  ~Connection() {
    if (reader.joinable()) reader.join();
    close_fd(fd);
  }

  /// Half-close from the server side: the reader unblocks with EOF and winds
  /// the connection down through the normal drain path.
  void stop() { ::shutdown(fd, SHUT_RD); }

  void close_intake() {
    std::lock_guard<std::mutex> lock(mu);
    intake_closed = true;
    cv.notify_all();
  }

  void enqueue(Outgoing entry) {
    std::lock_guard<std::mutex> lock(mu);
    outbox.push_back(std::move(entry));
    cv.notify_all();
  }

  void enqueue_encoded(std::vector<std::uint8_t> bytes) {
    Outgoing out;
    out.encoded = std::move(bytes);
    enqueue(std::move(out));
  }

  void read_loop() {
    FrameReader frames(server.config_.max_payload);
    std::vector<std::uint8_t> buf(std::size_t{64} << 10);
    for (;;) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The idle deadline (SO_RCVTIMEO) elapsed with nothing to read.
        server.metrics_.idle_closed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (n <= 0) return;  // EOF or error — peer is done sending
      try {
        obs::Span span("net.frame_decode", "net");
        if (span.active()) span.arg("bytes", static_cast<std::int64_t>(n));
        frames.feed(buf.data(), static_cast<std::size_t>(n));
        while (std::optional<Frame> frame = frames.next()) {
          if (!handle_frame(*frame)) return;
        }
      } catch (const WireError& e) {
        // Framing is unrecoverable: answer with the reason and stop reading.
        server.metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        obs::Log::instance()
            .warn("net", "protocol_error")
            .kv("client", client_id)
            .kv("error", e.what());
        enqueue_encoded(encode_error(0, e.what()));
        return;
      }
    }
  }

  /// Dispatches one well-framed message. False = stop reading (the frame
  /// was a semantic protocol violation).
  bool handle_frame(const Frame& frame) {
    switch (frame.type) {
      case FrameType::kForecastRequest:
        handle_forecast(frame);
        return true;
      case FrameType::kMetricsRequest:
        server.metrics_.metrics_requests.fetch_add(1, std::memory_order_relaxed);
        enqueue_encoded(encode_metrics_response(frame.request_id, server.metrics_text()));
        return true;
      case FrameType::kSwapRequest:
        handle_swap(frame);
        return true;
      case FrameType::kHealthRequest:
        handle_health(frame);
        return true;
      default:
        // Clients must not send server-to-client frame types.
        server.metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        enqueue_encoded(encode_error(
            frame.request_id,
            "unexpected client frame type " + std::to_string(static_cast<int>(frame.type))));
        return false;
    }
  }

  void handle_forecast(const Frame& frame) {
    // Every forecast request gets a process-unique trace id here, at the
    // first point where it exists as a request. The id rides the
    // thread-local TraceContext through submit (pool dispatch, cache
    // lookup), is carried by PendingRequest into the batch worker, and by
    // Outgoing into the writer — every span along the way records it.
    const std::uint64_t trace_id = obs::TraceContext::next_id();
    const obs::ScopedTraceId trace_scope(trace_id);
    // The sampler tracks the request for its whole wire lifetime: begin at
    // id mint, finish either right here (decode error / unservable / shed)
    // or in write_loop once the response is on the wire.
    obs::Sampler& sampler = obs::Tracer::instance().sampler();
    sampler.begin(trace_id);
    const auto started_at = std::chrono::steady_clock::now();

    bool admitted = false;
    obs::RequestOutcome outcome = obs::RequestOutcome::kOk;
    {
      // Inner scope: the request span must close (and reach the sampler's
      // provisional buffer) before finish() decides the request's fate.
      obs::Span span("net.handle_forecast", "net");
      admitted = dispatch_forecast(frame, span, outcome);
    }
    if (!admitted) {
      sampler.finish(
          trace_id,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at).count(),
          outcome);
    }
  }

  /// Decode + admission for one forecast frame. Returns true when the
  /// request was admitted (a pending Outgoing is queued and write_loop owns
  /// its completion); false means an immediate response was enqueued and
  /// `outcome` says how it ended.
  bool dispatch_forecast(const Frame& frame, obs::Span& span, obs::RequestOutcome& outcome) {
    ForecastRequest req;
    try {
      req = decode_forecast_request(frame);
    } catch (const WireError& e) {
      server.metrics_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      enqueue_encoded(encode_error(frame.request_id, e.what()));
      outcome = obs::RequestOutcome::kError;
      return false;
    }

    Outgoing out;
    out.request_id = req.request_id;
    out.trace_id = obs::TraceContext::current();
    out.want_heatmap = req.want_heatmap;
    out.accepted_at = std::chrono::steady_clock::now();
    try {
      out.admission = server.pool_->submit(client_id, req.input);
    } catch (const std::exception& e) {
      // Well-framed but unservable (wrong tensor shape for the model, or
      // intake already closed): a failed response, not a dropped connection.
      ForecastResponse resp;
      resp.request_id = req.request_id;
      resp.status = Status::kFailed;
      resp.error = e.what();
      server.metrics_.requests_failed.fetch_add(1, std::memory_order_relaxed);
      enqueue_encoded(encode_forecast_response(resp));
      outcome = obs::RequestOutcome::kError;
      return false;
    }

    if (!out.admission.admitted()) {
      if (out.admission.shed == ShedReason::kReplicaQueueFull) {
        server.metrics_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
      } else {
        server.metrics_.shed_client_cap.fetch_add(1, std::memory_order_relaxed);
      }
      if (span.active()) span.arg("shed", to_string(out.admission.shed));
      obs::FlightRecorder::record(obs::EventKind::kShed, out.trace_id,
                                  to_string(out.admission.shed),
                                  static_cast<std::int64_t>(client_id), 0);
      ForecastResponse resp;
      resp.request_id = req.request_id;
      resp.status = Status::kShed;
      resp.shed_reason = out.admission.shed;
      enqueue_encoded(encode_forecast_response(resp));
      outcome = obs::RequestOutcome::kShed;
      return false;
    }

    server.metrics_.requests_accepted.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::record(obs::EventKind::kRequest, out.trace_id, "admitted",
                                out.admission.replica,
                                static_cast<std::int64_t>(client_id));
    server.watchdog_->track(out.trace_id, out.admission.replica);
    out.pending = true;
    enqueue(std::move(out));
    return true;
  }

  void handle_health(const Frame& frame) {
    HealthInfo info;
    info.request_id = frame.request_id;
    info.uptime_seconds = obs::process_uptime_seconds();
    info.model_version = server.pool_->stats().model_version;
    const obs::SloMonitor::Status slo = server.slo_monitor_->status();
    info.slo_state = static_cast<std::uint8_t>(slo.state);
    info.window_p99_s = slo.window_p99_s;
    info.window_error_rate = slo.window_error_rate;
    info.latency_burn_rate = slo.latency_burn_rate;
    info.error_burn_rate = slo.error_burn_rate;
    info.window_requests = slo.window_requests;
    info.watchdog_stalls = server.watchdog_->stalls();
    info.oldest_request_ms = server.watchdog_->oldest_request_ms();
    const std::vector<Index> depths = server.pool_->replica_depths();
    info.replica_depths.reserve(depths.size());
    for (Index d : depths) info.replica_depths.push_back(static_cast<std::uint32_t>(d));
    const obs::BuildInfo& build = obs::build_info();
    info.git_sha = build.git_sha;
    info.compiler = build.compiler;
    info.native_kernel = build.native_kernel;
    info.backend = backend::active_backend().name();
    enqueue_encoded(encode_health_response(info));
  }

  void handle_swap(const Frame& frame) {
    SwapResponse resp;
    resp.request_id = frame.request_id;
    if (!server.config_.allow_swap) {
      resp.status = Status::kFailed;
      resp.error = "hot swap over the wire is disabled (start the server with allow_swap)";
    } else {
      try {
        resp.new_version = server.swap_checkpoint(decode_text(frame));
      } catch (const std::exception& e) {
        resp.status = Status::kFailed;
        resp.error = e.what();
      }
    }
    enqueue_encoded(encode_swap_response(resp));
  }

  void write_loop() {
    for (;;) {
      Outgoing out;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !outbox.empty() || intake_closed; });
        if (outbox.empty()) return;  // intake closed and drained
        out = std::move(outbox.front());
        outbox.pop_front();
      }
      if (!out.pending) {
        if (!dead.load(std::memory_order_relaxed) &&
            !send_all(fd, out.encoded.data(), out.encoded.size())) {
          dead.store(true, std::memory_order_relaxed);
        }
        continue;
      }

      // An admitted forecast: resolve, respond, then release the admission
      // slot — the release point is what admission depth meters.
      bool failed = false;
      bool completed = false;
      {
        // Inner scope so the writer's span reaches the sampler before
        // finish() commits or discards the request's trace.
        const obs::ScopedTraceId trace_scope(out.trace_id);
        obs::Span span("net.write_response", "net");
        ForecastResponse resp;
        resp.request_id = out.request_id;
        try {
          const serve::ForecastResult result = out.admission.future.get();
          resp.congestion_score = result.congestion_score;
          resp.model_version = result.model_version;
          resp.from_cache = result.from_cache;
          if (out.want_heatmap) resp.heatmap = result.heatmap;
        } catch (const std::exception& e) {
          resp.status = Status::kFailed;
          resp.error = e.what();
          failed = true;
          server.metrics_.requests_failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (!dead.load(std::memory_order_relaxed)) {
          const std::vector<std::uint8_t> encoded = encode_forecast_response(resp);
          if (send_all(fd, encoded.data(), encoded.size())) {
            server.metrics_.requests_completed.fetch_add(1, std::memory_order_relaxed);
            completed = true;
          } else {
            dead.store(true, std::memory_order_relaxed);
          }
        }
      }
      const double latency_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - out.accepted_at)
              .count();
      // The sampler decides first so the latency histogram can carry the
      // trace id as a bucket exemplar only when that trace actually exists
      // in the dump (head-sampled or tail-retained).
      const bool retained = obs::Tracer::instance().sampler().finish(
          out.trace_id, latency_s,
          failed ? obs::RequestOutcome::kError : obs::RequestOutcome::kOk);
      if (completed) {
        server.metrics_.latency.record(latency_s, retained ? out.trace_id : 0);
      }
      server.watchdog_->complete(out.trace_id);
      out.admission.slot.reset();
    }
  }
};

NetServer::NetServer(const NetServerConfig& config, const ModelFactory& make_model)
    : config_(config), pool_(std::make_unique<ReplicaPool>(config.pool, make_model)) {
  // The pool's replicas have applied ServeConfig::backend by now, so the
  // build_info label reflects what will actually serve.
  obs::register_process_metrics(backend::active_backend().name());
  slo_monitor_ = std::make_unique<obs::SloMonitor>(config_.slo);
  slo_monitor_->start();
  // Constructed unconditionally so the obs_watchdog_* gauges always exist
  // (the health frame reads them); the monitor thread only runs when a
  // stall threshold is configured.
  watchdog_ = std::make_unique<obs::Watchdog>(obs::MetricsRegistry::global());
  watchdog_->configure(config_.watchdog);
  watchdog_->set_depths_fn([this] {
    const std::vector<Index> depths = pool_->replica_depths();
    return std::vector<std::int64_t>(depths.begin(), depths.end());
  });
  watchdog_->start();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PP_CHECK_MSG(listen_fd_ >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  PP_CHECK_MSG(::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) == 1,
               "bad bind address " << config.bind_address);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    PP_CHECK_MSG(false, "bind(" << config.bind_address << ":" << config.port
                                << ") failed: " << err);
  }
  PP_CHECK_MSG(::listen(listen_fd_, config.backlog) == 0,
               "listen() failed: " << std::strerror(errno));

  socklen_t len = sizeof(addr);
  PP_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  port_ = ntohs(addr.sin_port);

  obs::Log::instance()
      .info("net", "listening")
      .kv("bind", config_.bind_address)
      .kv("port", static_cast<std::int64_t>(port_))
      .kv("replicas", pool_->replicas())
      .kv("stall_ms", config_.watchdog.stall_ms);

  acceptor_ = std::thread([this] { accept_loop(); });
  if (config_.metrics_log_period.count() > 0) {
    logger_ = std::thread([this] { log_loop(); });
  }
}

NetServer::~NetServer() { shutdown(); }

void NetServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (shut_down_.load(std::memory_order_relaxed)) return;  // listener shut down
      if (err == EINTR) continue;
      // Short of shutdown the error passes: EMFILE, ENFILE, ENOBUFS and
      // ENOMEM clear as descriptors and memory come free, and ECONNABORTED
      // (like the network errors accept(2) passes through) belongs to one
      // pending connection. Returning would leave the server up but deaf,
      // so back off briefly and retry.
      obs::Log::instance().warn("net", "accept_retry").kv("error", std::strerror(err));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (shut_down_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    metrics_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(connections_mu_);
    reap_finished_connections();
    connections_.push_back(std::make_unique<Connection>(*this, fd, next_client_id_++));
  }
}

void NetServer::reap_finished_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      it = connections_.erase(it);  // ~Connection joins the reader
    } else {
      ++it;
    }
  }
}

void NetServer::log_loop() {
  std::unique_lock<std::mutex> lock(log_mu_);
  while (!shut_down_.load(std::memory_order_relaxed)) {
    if (log_cv_.wait_for(lock, config_.metrics_log_period) == std::cv_status::no_timeout) {
      continue;  // woken for shutdown — loop re-checks the flag
    }
    const PoolStats pool = pool_->stats();
    obs::Log::instance()
        .info("net", "stats")
        .kv("conns",
            metrics_.connections_opened.load() - metrics_.connections_closed.load())
        .kv("accepted", metrics_.requests_accepted.load())
        .kv("completed", metrics_.requests_completed.load())
        .kv("failed", metrics_.requests_failed.load())
        .kv("shed", metrics_.shed_total())
        .kv("p50_ms", metrics_.latency.quantile(0.50) * 1e3)
        .kv("p99_ms", metrics_.latency.quantile(0.99) * 1e3)
        .kv("queue", pool.queue_depth)
        .kv("cache_hits", pool.cache_hits)
        .kv("version", pool.model_version)
        .kv("stalls", watchdog_->stalls());
  }
}

void NetServer::publish_pool_gauges() {
  const PoolStats stats = pool_->stats();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.gauge("pool_replicas", "ForecastServer replicas").set(pool_->replicas());
  registry.gauge("pool_queue_depth", "admitted-but-unanswered requests, all replicas")
      .set(static_cast<double>(stats.queue_depth));
  registry.gauge("pool_max_replica_depth", "deepest single replica right now")
      .set(static_cast<double>(stats.max_replica_depth));
  registry.gauge("pool_model_samples", "samples run through the models, all replicas")
      .set(static_cast<double>(stats.serve.model_samples));
  registry.gauge("pool_model_version", "serving model version")
      .set(static_cast<double>(stats.model_version));
}

std::string NetServer::metrics_text() {
  publish_pool_gauges();
  return obs::MetricsRegistry::global().render_prometheus();
}

std::uint64_t NetServer::swap_checkpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  const core::Pix2PixConfig incoming = core::Pix2Pix::peek_config(path);
  const core::Pix2PixConfig& serving =
      pool_->replica(0).registry().current().model->config();
  PP_CHECK_MSG(incoming.generator.image_size == serving.generator.image_size &&
                   incoming.generator.in_channels == serving.generator.in_channels &&
                   incoming.generator.out_channels == serving.generator.out_channels,
               "checkpoint " << path << " architecture does not match the serving model ("
                             << incoming.generator.image_size << "px "
                             << incoming.generator.in_channels << "->"
                             << incoming.generator.out_channels << " vs "
                             << serving.generator.image_size << "px "
                             << serving.generator.in_channels << "->"
                             << serving.generator.out_channels << ")");
  const std::uint64_t version = pool_->hot_swap(
      [&] {
        auto model = std::make_shared<core::CongestionForecaster>(incoming);
        model->load(path);
        return model;
      },
      path);
  metrics_.hot_swaps.fetch_add(1, std::memory_order_relaxed);
  obs::Log::instance()
      .info("net", "hot_swap")
      .kv("checkpoint", path)
      .kv("version", version);
  obs::FlightRecorder::record(obs::EventKind::kSwap, 0, path.c_str(),
                              static_cast<std::int64_t>(version), 0);
  return version;
}

void NetServer::shutdown() {
  if (shut_down_.exchange(true)) return;

  obs::Log::instance()
      .info("net", "drain")
      .kv("accepted", metrics_.requests_accepted.load())
      .kv("completed", metrics_.requests_completed.load());
  obs::FlightRecorder::record(obs::EventKind::kDrain, 0, "net server drain",
                              static_cast<std::int64_t>(metrics_.requests_accepted.load()),
                              0);

  // 1. Stop intake: shut the listener down (unblocks accept), and close it
  // only once the acceptor has stopped reading the descriptor. Then wake
  // the logger.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  close_fd(listen_fd_);
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    log_cv_.notify_all();
  }
  if (logger_.joinable()) logger_.join();

  // 2. Half-close every connection: readers see EOF, writers drain what was
  // accepted. Destroying the Connection joins its threads.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& conn : connections_) conn->stop();
    connections_.clear();
  }

  // 3. Drain the replicas (everything admitted has already resolved — the
  // writers waited on their futures — so this mostly joins workers). The
  // pool gauges keep their last values for a final exposition.
  publish_pool_gauges();
  pool_->shutdown();

  // 4. One last tick so the final window reflects the drained traffic, then
  // stop the SLO ticker and the watchdog.
  if (slo_monitor_) {
    slo_monitor_->tick();
    slo_monitor_->stop();
  }
  if (watchdog_) watchdog_->stop();
}

}  // namespace paintplace::net
