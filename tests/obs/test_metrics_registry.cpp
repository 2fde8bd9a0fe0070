// obs::MetricsRegistry tests: get-or-create identity, kind safety, histogram
// bucket math against exact percentiles, concurrent registration, and the
// Prometheus text exposition invariants (cumulative monotone buckets,
// le="+Inf" == count).
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.h"

namespace paintplace::obs {
namespace {

TEST(MetricsRegistry, GetOrCreateBindsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests_total", "help text");
  Counter& b = reg.counter("requests_total");
  EXPECT_EQ(&a, &b);
  a.fetch_add(3);
  EXPECT_EQ(b.load(), 3u);

  Histogram& h1 = reg.histogram("latency_seconds");
  Histogram& h2 = reg.histogram("latency_seconds");
  EXPECT_EQ(&h1, &h2);

  Gauge& g1 = reg.gauge("depth");
  Gauge& g2 = reg.gauge("depth");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("a_metric");
  EXPECT_THROW(reg.gauge("a_metric"), CheckError);
  EXPECT_THROW(reg.histogram("a_metric"), CheckError);
  reg.histogram("h_metric");
  EXPECT_THROW(reg.counter("h_metric"), CheckError);
}

TEST(MetricsRegistry, NamesAreSorted) {
  MetricsRegistry reg;
  reg.counter("zebra");
  reg.gauge("aardvark");
  reg.histogram("middle");
  const std::vector<std::string> names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MetricsRegistry, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(Gauge, SetAndRead) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("speed");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, SumIsExactToAMillionth) {
  Histogram h;
  h.record(0.5);
  h.record(0.25);
  h.record(1e-6);
  EXPECT_NEAR(h.sum(), 0.750001, 1e-9);
  EXPECT_EQ(h.count(), 3u);
}

// Every log2 bucket spans a factor of two, so an interpolated quantile can
// sit at most a factor ~2 from the exact percentile of the recorded set.
TEST(Histogram, QuantilesTrackExactPercentilesWithinBucketResolution) {
  Histogram h;
  std::vector<double> values;
  // Geometric sweep across many buckets plus a dense cluster in one bucket.
  for (int i = 0; i < 200; ++i) {
    const double v = 1e-5 * std::pow(1.06, i);  // ~1e-5 .. ~1.1
    values.push_back(v);
    h.record(v);
  }
  for (int i = 0; i < 100; ++i) {
    values.push_back(3e-3);
    h.record(3e-3);
  }
  std::sort(values.begin(), values.end());

  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    const double exact = values[rank];
    const double approx = h.quantile(q);
    EXPECT_GE(approx, exact / 2.2) << "q=" << q;
    EXPECT_LE(approx, exact * 2.2) << "q=" << q;
  }
}

TEST(Histogram, QuantileIsMonotone) {
  Histogram h;
  for (int i = 1; i <= 500; ++i) h.record(static_cast<double>(i) * 1e-4);
  double prev = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(MetricsRegistry, ConcurrentGetOrCreateAndIncrement) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        // Re-lookup on purpose: the get-or-create path itself is under test.
        reg.counter("shared_total").fetch_add(1);
        reg.histogram("shared_seconds").record(1e-3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("shared_total").load(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("shared_seconds").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, PrometheusExpositionFormat) {
  MetricsRegistry reg;
  reg.counter("requests_total", "requests served").fetch_add(7);
  reg.gauge("queue_depth").set(3.0);
  Histogram& h = reg.histogram("latency_seconds", "request latency");
  h.record(1e-3);
  h.record(2e-3);
  h.record(1.0);

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP requests_total requests served\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 3\n"), std::string::npos);

  // Cumulative buckets: counts never decrease with growing le, and the +Inf
  // bucket equals _count.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t prev = 0, inf_count = 0;
  bool saw_inf = false;
  while (std::getline(lines, line)) {
    if (line.rfind("latency_seconds_bucket{le=", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t cum = std::stoull(line.substr(space + 1));
    EXPECT_GE(cum, prev) << line;
    prev = cum;
    if (line.find("le=\"+Inf\"") != std::string::npos) {
      saw_inf = true;
      inf_count = cum;
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_count, 3u);
}

TEST(MetricsRegistry, InfoMetricRendersLabelsAndIsReplaceable) {
  MetricsRegistry reg;
  reg.set_info("build_info", "git_sha=\"abc\",backend=\"cpu\"", "process identity");
  EXPECT_NE(reg.render_prometheus().find("build_info{git_sha=\"abc\",backend=\"cpu\"} 1\n"),
            std::string::npos);

  // Re-registering replaces the labels (identity, not a time series).
  reg.set_info("build_info", "git_sha=\"abc\",backend=\"cpu_opt\"");
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("backend=\"cpu_opt\"} 1\n"), std::string::npos);
  EXPECT_EQ(text.find("backend=\"cpu\"}"), std::string::npos);
}

TEST(MetricsRegistry, CallbackGaugeEvaluatesAtExposition) {
  MetricsRegistry reg;
  double value = 1.5;
  reg.gauge_callback("uptime_seconds", [&value] { return value; });
  EXPECT_NE(reg.render_prometheus().find("uptime_seconds 1.5\n"), std::string::npos);
  value = 2.5;  // no re-registration needed: the callback is live
  EXPECT_NE(reg.render_prometheus().find("uptime_seconds 2.5\n"), std::string::npos);
}

TEST(MetricsRegistry, FindReturnsOnlyMatchingKinds) {
  MetricsRegistry reg;
  reg.counter("c").fetch_add(3);
  reg.histogram("h").record(0.5);

  ASSERT_NE(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_counter("c")->load(), 3u);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);

  // Absent names and kind mismatches both come back null — find never
  // creates (the SloMonitor polls by name before the instruments exist).
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_counter("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("c"), nullptr);
}

TEST(Histogram, QuantileOfRawBucketsMatchesALiveHistogram) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);  // 1ms .. 1s

  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] = h.bucket_count(b);
  }
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(Histogram::quantile_of(buckets, q), h.quantile(q)) << "q=" << q;
  }
  // Empty bucket arrays quantile to zero (a windowed delta with no traffic).
  EXPECT_DOUBLE_EQ(Histogram::quantile_of({}, 0.99), 0.0);
}

}  // namespace
}  // namespace paintplace::obs
