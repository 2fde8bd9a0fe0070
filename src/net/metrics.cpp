#include "net/metrics.h"

#include <cstdio>

namespace paintplace::net {

Metrics::Metrics(obs::MetricsRegistry& registry)
    : connections_opened(registry.counter("net_connections_opened",
                                          "TCP connections accepted")),
      connections_closed(registry.counter("net_connections_closed",
                                          "TCP connections torn down")),
      idle_closed(registry.counter("net_idle_closed",
                                   "connections closed by the idle deadline")),
      requests_accepted(registry.counter("net_requests_accepted",
                                         "forecast requests admitted to a replica")),
      requests_completed(registry.counter("net_requests_completed",
                                          "responses written, any status")),
      requests_failed(registry.counter("net_requests_failed",
                                       "responses written with kFailed")),
      shed_queue_full(registry.counter("net_shed_queue_full",
                                       "requests shed: replica in-flight bound")),
      shed_client_cap(registry.counter("net_shed_client_cap",
                                       "requests shed: per-client fairness cap")),
      protocol_errors(registry.counter("net_protocol_errors",
                                       "malformed or out-of-place frames")),
      metrics_requests(registry.counter("net_metrics_requests",
                                        "kMetricsRequest frames served")),
      hot_swaps(registry.counter("net_hot_swaps", "checkpoint hot swaps published")),
      latency(registry.histogram("net_request_latency_seconds",
                                 "admission to response-written")) {
  reset();
}

void Metrics::reset() {
  connections_opened.store(0);
  connections_closed.store(0);
  idle_closed.store(0);
  requests_accepted.store(0);
  requests_completed.store(0);
  requests_failed.store(0);
  shed_queue_full.store(0);
  shed_client_cap.store(0);
  protocol_errors.store(0);
  metrics_requests.store(0);
  hot_swaps.store(0);
  latency.reset();
}

std::string render_text(const Metrics& m, const PoolGauges& pool) {
  const std::uint64_t n = m.latency.count();
  const double mean_ms = n == 0 ? 0.0 : m.latency.sum() / static_cast<double>(n) * 1e3;
  const double hit_rate = pool.cache_requests == 0
                              ? 0.0
                              : static_cast<double>(pool.cache_hits) /
                                    static_cast<double>(pool.cache_requests);
  char buf[1600];
  std::snprintf(
      buf, sizeof(buf),
      "net_connections_opened %llu\n"
      "net_connections_closed %llu\n"
      "net_idle_closed %llu\n"
      "net_requests_accepted %llu\n"
      "net_requests_completed %llu\n"
      "net_requests_failed %llu\n"
      "net_shed_queue_full %llu\n"
      "net_shed_client_cap %llu\n"
      "net_protocol_errors %llu\n"
      "net_metrics_requests %llu\n"
      "net_hot_swaps %llu\n"
      "net_latency_count %llu\n"
      "net_latency_mean_ms %.3f\n"
      "net_latency_p50_ms %.3f\n"
      "net_latency_p99_ms %.3f\n"
      "pool_replicas %d\n"
      "pool_queue_depth %llu\n"
      "pool_max_replica_depth %llu\n"
      "pool_cache_hit_rate %.4f\n"
      "pool_cache_hits %llu\n"
      "pool_batches %llu\n"
      "pool_model_samples %llu\n"
      "pool_model_version %llu\n",
      static_cast<unsigned long long>(m.connections_opened.load()),
      static_cast<unsigned long long>(m.connections_closed.load()),
      static_cast<unsigned long long>(m.idle_closed.load()),
      static_cast<unsigned long long>(m.requests_accepted.load()),
      static_cast<unsigned long long>(m.requests_completed.load()),
      static_cast<unsigned long long>(m.requests_failed.load()),
      static_cast<unsigned long long>(m.shed_queue_full.load()),
      static_cast<unsigned long long>(m.shed_client_cap.load()),
      static_cast<unsigned long long>(m.protocol_errors.load()),
      static_cast<unsigned long long>(m.metrics_requests.load()),
      static_cast<unsigned long long>(m.hot_swaps.load()),
      static_cast<unsigned long long>(n), mean_ms, m.latency.quantile(0.50) * 1e3,
      m.latency.quantile(0.99) * 1e3, pool.replicas,
      static_cast<unsigned long long>(pool.queue_depth),
      static_cast<unsigned long long>(pool.max_queue_depth), hit_rate,
      static_cast<unsigned long long>(pool.cache_hits),
      static_cast<unsigned long long>(pool.batches),
      static_cast<unsigned long long>(pool.model_samples),
      static_cast<unsigned long long>(pool.model_version));
  return buf;
}

}  // namespace paintplace::net
