// paintplace::obs — rolling-window SLO monitor.
//
// Watches the serving objectives — p99 latency and error rate — over a
// sliding window, computed from instruments already in the MetricsRegistry
// (no second recording path on the request flow: the monitor only *reads*,
// on its own cadence). Each tick snapshots the latency histogram's bucket
// counts and the completed/failed/shed counters; the windowed view is the
// delta between the newest snapshot and the one just outside the window, so
// the p99 is a true windowed quantile, not a since-boot cumulative one.
//
// Burn rate is observed/objective: 1.0 means the window is exactly at the
// objective, 2.0 means twice over it. Both rates are exported as gauges —
// slo_latency_burn_rate, slo_error_burn_rate, plus slo_window_p99_seconds,
// slo_window_error_rate and slo_state (0 healthy / 1 warning / 2 breached)
// — and reported in the PPN1 health frame (net/wire.h kHealthResponse).
//
// tick() is public and takes an explicit timestamp so tests can drive the
// window edge deterministically; start() runs it on a background thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics_registry.h"

namespace paintplace::obs {

struct SloConfig {
  double window_s = 60.0;
  double latency_objective_s = 0.250;  ///< windowed p99 budget
  double error_rate_objective = 0.01;  ///< (failed+shed)/total budget
  /// Burn rate above which the state degrades to kWarning (kBreached at 1).
  double warning_burn = 0.5;
  std::chrono::milliseconds tick_period{1000};
  /// Instrument names polled from the registry. Defaults match the net
  /// front-end; point them elsewhere to watch a different request surface.
  std::string latency_histogram = "net_request_latency_seconds";
  std::string completed_counter = "net_requests_completed";
  std::string failed_counter = "net_requests_failed";
  std::string shed_counters[2] = {"net_shed_queue_full", "net_shed_client_cap"};
};

enum class SloState : std::uint8_t { kHealthy = 0, kWarning = 1, kBreached = 2 };

const char* to_string(SloState state);

class SloMonitor {
 public:
  explicit SloMonitor(const SloConfig& config,
                      MetricsRegistry& registry = MetricsRegistry::global());
  ~SloMonitor();

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Starts the background ticker. Idempotent.
  void start();
  /// Stops and joins it. Also runs on destruction.
  void stop();

  /// One snapshot + recompute at an explicit time (seconds on the
  /// monitor's own axis; tests pass synthetic times, ticks pass a steady
  /// clock). Times must be non-decreasing.
  void tick(double now_s);
  /// tick() at the wall (steady) clock.
  void tick();

  struct Status {
    double window_p99_s = 0.0;
    double window_error_rate = 0.0;
    double latency_burn_rate = 0.0;
    double error_burn_rate = 0.0;
    std::uint64_t window_requests = 0;  ///< completed + shed inside the window
    SloState state = SloState::kHealthy;
  };
  Status status() const;

  const SloConfig& config() const { return config_; }

 private:
  struct Snapshot {
    double t = 0.0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
  };

  Snapshot read_instruments(double now_s) const;
  void recompute_locked();

  SloConfig config_;
  MetricsRegistry& registry_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::deque<Snapshot> snaps_;
  Status status_;

  Gauge& window_p99_gauge_;
  Gauge& window_error_rate_gauge_;
  Gauge& latency_burn_gauge_;
  Gauge& error_burn_gauge_;
  Gauge& state_gauge_;

  std::atomic<bool> running_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;  ///< wakes the ticker's wait on stop()
  std::thread ticker_;
};

}  // namespace paintplace::obs
