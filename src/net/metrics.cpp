#include "net/metrics.h"

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

}  // namespace paintplace::net
