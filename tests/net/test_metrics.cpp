// net::Metrics tests: histogram recording and quantiles, counter rollups,
// and the text exposition format the metrics endpoint serves.
#include "net/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
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

TEST(Metrics, RenderTextExposesEveryField) {
  Metrics m;
  m.connections_opened.store(5);
  m.requests_accepted.store(100);
  m.requests_completed.store(90);
  m.shed_queue_full.store(7);
  m.protocol_errors.store(1);
  m.latency.record(2e-3);

  PoolGauges pool;
  pool.replicas = 2;
  pool.queue_depth = 3;
  pool.cache_hits = 40;
  pool.cache_requests = 100;
  pool.model_version = 2;

  const std::string text = render_text(m, pool);
  // One "name value" pair per line, no blank metric names.
  std::istringstream lines(text);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << "unparseable line: " << line;
    ASSERT_GT(space, 0u);
    ++parsed;
  }
  EXPECT_GE(parsed, 10);

  EXPECT_NE(text.find("net_connections_opened 5\n"), std::string::npos);
  EXPECT_NE(text.find("net_requests_accepted 100\n"), std::string::npos);
  EXPECT_NE(text.find("net_requests_completed 90\n"), std::string::npos);
  EXPECT_NE(text.find("net_shed_queue_full 7\n"), std::string::npos);
  EXPECT_NE(text.find("net_protocol_errors 1\n"), std::string::npos);
  EXPECT_NE(text.find("pool_queue_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("pool_model_version 2\n"), std::string::npos);
  EXPECT_NE(text.find("net_latency_p50_ms"), std::string::npos);
  EXPECT_NE(text.find("net_latency_p99_ms"), std::string::npos);
  EXPECT_NE(text.find("pool_cache_hit_rate"), std::string::npos);
}

}  // namespace
}  // namespace paintplace::net
