// Counters and latency histograms for the networked serving front-end.
//
// Since the obs subsystem landed, this is a typed *view* over the
// process-wide obs::MetricsRegistry rather than a private silo: every
// counter below is registered under its exposition name (net_*), so the
// same instruments appear in the registry's Prometheus exposition alongside
// the serving/GEMM/training metrics. Construction binds (and resets) the
// named instruments — counters read "since this server instance started",
// matching the old semantics; run one NetServer per process if you scrape
// exact counts.
//
// Everything is cheap enough to sit on the request path: counters are
// relaxed atomics, and the histogram records into log-spaced atomic buckets
// (record() is one increment, quantiles are computed at read time). The
// metrics frame serves the registry's Prometheus exposition, so these
// appear there under their net_* names.
#pragma once

#include <cstdint>

#include "obs/metrics_registry.h"

namespace paintplace::net {

/// Log-spaced latency histogram, 1µs..~34s (x2 per bucket). The math moved
/// to obs::Histogram verbatim; the alias keeps the net-layer name.
using LatencyHistogram = obs::Histogram;

/// Monotonic counters for the front-end, bound to (and resetting) the named
/// net_* instruments of a MetricsRegistry. The replica pool and server bump
/// these; individual counters are exact, cross-counter skew is bounded by
/// in-flight requests.
class Metrics {
 public:
  explicit Metrics(obs::MetricsRegistry& registry = obs::MetricsRegistry::global());

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  obs::Counter& connections_opened;
  obs::Counter& connections_closed;
  obs::Counter& idle_closed;         ///< closed by the server's idle deadline
  obs::Counter& requests_accepted;   ///< admitted to a replica
  obs::Counter& requests_completed;  ///< response written, any status
  obs::Counter& requests_failed;     ///< completed with kFailed
  obs::Counter& shed_queue_full;
  obs::Counter& shed_client_cap;
  obs::Counter& protocol_errors;
  obs::Counter& metrics_requests;
  obs::Counter& hot_swaps;

  LatencyHistogram& latency;  ///< admission -> response-written, seconds

  std::uint64_t shed_total() const {
    return shed_queue_full.load() + shed_client_cap.load();
  }

  /// Zeroes every instrument (runs at construction: a new server instance
  /// starts its counts fresh even though the registry persists).
  void reset();
};

}  // namespace paintplace::net
