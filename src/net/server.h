// NetServer — the TCP front door of the forecast service.
//
// One acceptor thread plus two threads per connection (reader and writer)
// in front of a ReplicaPool. The reader decodes PPN1 frames (see wire.h)
// and dispatches: forecast requests go through admission control into the
// sharded replica pool; shed decisions, metrics scrapes and protocol errors
// are answered immediately. The writer delivers responses in request order
// per connection, recording accept-to-written latency into net::Metrics.
//
// Lifecycle: shutdown() stops the acceptor, half-closes every connection
// (readers see EOF, writers drain their pending responses), then drains the
// replica pool — every accepted request is answered before the server
// returns. Hot-swap (swap_checkpoint / an in-band kSwapRequest when
// `allow_swap`) publishes on all replicas without pausing intake.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/metrics.h"
#include "net/replica_pool.h"
#include "net/wire.h"
#include "obs/slo.h"
#include "obs/watchdog.h"

namespace paintplace::net {

struct NetServerConfig {
  /// Address to bind; loopback by default (this is a trusted-network
  /// service — there is no auth on the wire protocol).
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = pick an ephemeral port (see NetServer::port)
  int backlog = 64;
  std::size_t max_payload = kDefaultMaxPayload;
  /// Accept in-band kSwapRequest frames (checkpoint path -> hot swap). Off
  /// by default: a client naming an arbitrary filesystem path is a trusted
  /// operation.
  bool allow_swap = false;
  /// Print a one-line metrics summary this often (0 = never).
  std::chrono::milliseconds metrics_log_period{0};
  /// Close a connection whose socket has been silent this long (0 = never).
  /// Each close increments net_idle_closed and drains through the normal
  /// half-close path, so admitted requests are still answered first.
  std::chrono::milliseconds idle_timeout{0};
  ReplicaPoolConfig pool;
  /// Rolling-window SLO objectives; the monitor runs for the server's
  /// lifetime and feeds the kHealthResponse frame and slo_* gauges.
  obs::SloConfig slo;
  /// Stall watchdog (stall_ms = 0 disables). When active, every admitted
  /// request is aged admission-to-completion; requests past the threshold
  /// file a structured stall report and force-retain their trace.
  obs::WatchdogConfig watchdog;
};

class NetServer {
 public:
  /// Binds, listens, and starts accepting. `make_model` builds one model
  /// instance per replica (and per replica again on each hot swap).
  NetServer(const NetServerConfig& config, const ModelFactory& make_model);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Actual bound port (the ephemeral one when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Hot-swaps a checkpoint across all replicas (the programmatic twin of
  /// the in-band kSwapRequest). Validates that the checkpoint's architecture
  /// matches the serving one. Returns the new model version.
  std::uint64_t swap_checkpoint(const std::string& path);

  /// Stops intake, drains connections and replicas, joins all threads.
  /// Idempotent; also runs on destruction.
  void shutdown();

  Metrics& metrics() { return metrics_; }
  ReplicaPool& pool() { return *pool_; }
  obs::SloMonitor& slo_monitor() { return *slo_monitor_; }
  obs::Watchdog& watchdog() { return *watchdog_; }

 private:
  struct Connection;

  void accept_loop();
  void log_loop();
  void reap_finished_connections();
  /// Sets the pool_* gauges of the global registry from pool().stats().
  void publish_pool_gauges();
  std::string metrics_text();

  NetServerConfig config_;
  std::unique_ptr<ReplicaPool> pool_;
  Metrics metrics_;
  std::unique_ptr<obs::SloMonitor> slo_monitor_;
  std::unique_ptr<obs::Watchdog> watchdog_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> shut_down_{false};
  std::thread acceptor_;
  std::thread logger_;
  std::mutex log_mu_;
  std::condition_variable log_cv_;

  std::mutex connections_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_client_id_ = 1;

  std::mutex swap_mu_;  // serializes hot swaps (in-band and programmatic)
};

}  // namespace paintplace::net
