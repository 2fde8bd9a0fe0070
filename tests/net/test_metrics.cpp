// net::Metrics tests: histogram recording and quantiles, counter rollups,
// and the registry exposition the metrics endpoint serves.
#include "net/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace paintplace::net {
namespace {

TEST(LatencyHistogram, EmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.total_seconds(), 0.0);
}

TEST(LatencyHistogram, QuantilesBracketRecordedLatencies) {
  LatencyHistogram h;
  // 99 fast samples around 1ms, one slow outlier around 1s.
  for (int i = 0; i < 99; ++i) h.record(1e-3);
  h.record(1.0);
  EXPECT_EQ(h.count(), 100u);

  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.5e-3);
  EXPECT_LE(p50, 2.5e-3);  // within the 1ms sample's log2 bucket

  const double p99 = h.quantile(0.99);
  EXPECT_LE(p99, 2.5e-3);  // the outlier is beyond the 99th

  const double p100 = h.quantile(1.0);
  EXPECT_GE(p100, 0.5);  // the outlier's bucket
}

TEST(LatencyHistogram, QuantileIsMonotoneInQ) {
  LatencyHistogram h;
  for (int i = 1; i <= 64; ++i) h.record(static_cast<double>(i) * 1e-4);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.record(1e-3);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 4000u);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(0.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Metrics, ShedTotalSumsBothReasons) {
  Metrics m;
  m.shed_queue_full.fetch_add(3);
  m.shed_client_cap.fetch_add(4);
  EXPECT_EQ(m.shed_total(), 7u);
}

TEST(Metrics, PrometheusExposesEveryField) {
  obs::MetricsRegistry registry;
  Metrics m(registry);
  const std::pair<obs::Counter*, const char*> counters[] = {
      {&m.connections_opened, "net_connections_opened"},
      {&m.connections_closed, "net_connections_closed"},
      {&m.idle_closed, "net_idle_closed"},
      {&m.requests_accepted, "net_requests_accepted"},
      {&m.requests_completed, "net_requests_completed"},
      {&m.requests_failed, "net_requests_failed"},
      {&m.shed_queue_full, "net_shed_queue_full"},
      {&m.shed_client_cap, "net_shed_client_cap"},
      {&m.protocol_errors, "net_protocol_errors"},
      {&m.metrics_requests, "net_metrics_requests"},
      {&m.hot_swaps, "net_hot_swaps"},
  };
  std::uint64_t value = 100;
  for (const auto& [counter, name] : counters) counter->store(++value);
  m.latency.record(2e-3);

  const std::string text = registry.render_prometheus();
  value = 100;
  for (const auto& [counter, name] : counters) {
    EXPECT_NE(text.find(std::string(name) + " " + std::to_string(++value) + "\n"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("net_request_latency_seconds_count 1\n"), std::string::npos);
}

}  // namespace
}  // namespace paintplace::net
