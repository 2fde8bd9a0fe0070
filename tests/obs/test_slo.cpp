// SloMonitor tests, driven through the public tick(double) with synthetic
// timestamps and a private MetricsRegistry: windowed rate and p99
// computation, healthy -> warning -> breached transitions on the error burn
// rate, the window-edge eviction rule (the delta base is the youngest
// snapshot at or past the edge), and the exported slo_* gauges. One test
// runs the background ticker and times its stop().
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/metrics_registry.h"

namespace paintplace::obs {
namespace {

class SloMonitorTest : public ::testing::Test {
 protected:
  SloMonitorTest()
      : latency_(registry_.histogram("t_latency_seconds")),
        completed_(registry_.counter("t_completed")),
        failed_(registry_.counter("t_failed")),
        shed_a_(registry_.counter("t_shed_a")),
        shed_b_(registry_.counter("t_shed_b")) {}

  SloConfig config() const {
    SloConfig cfg;
    cfg.window_s = 60.0;
    cfg.latency_objective_s = 0.100;
    cfg.error_rate_objective = 0.10;
    cfg.warning_burn = 0.5;
    cfg.latency_histogram = "t_latency_seconds";
    cfg.completed_counter = "t_completed";
    cfg.failed_counter = "t_failed";
    cfg.shed_counters[0] = "t_shed_a";
    cfg.shed_counters[1] = "t_shed_b";
    return cfg;
  }

  MetricsRegistry registry_;
  Histogram& latency_;
  Counter& completed_;
  Counter& failed_;
  Counter& shed_a_;
  Counter& shed_b_;
};

TEST_F(SloMonitorTest, WindowedRatesAndStateTransitions) {
  SloMonitor monitor(config(), registry_);

  monitor.tick(0.0);
  EXPECT_EQ(monitor.status().window_requests, 0u);
  EXPECT_EQ(monitor.status().state, SloState::kHealthy);

  // t=10: 100 clean requests at ~10ms. The 10ms samples land in the
  // [8.192ms, 16.384ms) histogram bucket, so the interpolated windowed p99
  // must come back inside it.
  for (int i = 0; i < 100; ++i) latency_.record(0.010);
  completed_.fetch_add(100);
  monitor.tick(10.0);
  {
    const SloMonitor::Status s = monitor.status();
    EXPECT_EQ(s.window_requests, 100u);
    EXPECT_DOUBLE_EQ(s.window_error_rate, 0.0);
    EXPECT_GE(s.window_p99_s, 0.008);
    EXPECT_LE(s.window_p99_s, 0.017);
    EXPECT_NEAR(s.latency_burn_rate, s.window_p99_s / 0.100, 1e-12);
    EXPECT_EQ(s.state, SloState::kHealthy);
  }

  // t=20: 7 failures over 200 completed -> error burn 0.35, still healthy.
  completed_.fetch_add(100);
  failed_.fetch_add(7);
  monitor.tick(20.0);
  EXPECT_EQ(monitor.status().state, SloState::kHealthy);
  EXPECT_NEAR(monitor.status().error_burn_rate, 0.35, 1e-9);

  // t=30: 20 more failures -> 27/200 = 13.5% error rate, burn 1.35 > 1.
  failed_.fetch_add(20);
  monitor.tick(30.0);
  EXPECT_EQ(monitor.status().state, SloState::kBreached);
  EXPECT_NEAR(monitor.status().window_error_rate, 0.135, 1e-9);
  EXPECT_EQ(registry_.gauge("slo_state").value(), 2.0);

  // t=40: traffic recovers (200 more clean) -> 27/400, burn 0.675: warning.
  completed_.fetch_add(200);
  monitor.tick(40.0);
  EXPECT_EQ(monitor.status().state, SloState::kWarning);
  EXPECT_EQ(registry_.gauge("slo_state").value(), 1.0);

  // t=75: the t=0 snapshot is evicted; the delta base becomes t=10 — the
  // youngest snapshot at or past the window edge (75 - 60 = 15). Against
  // that base: 300 completed, 27 failed -> 9% error rate, burn 0.9. All the
  // latency samples predate t=10, so the windowed p99 collapses to 0.
  monitor.tick(75.0);
  {
    const SloMonitor::Status s = monitor.status();
    EXPECT_EQ(s.window_requests, 300u);
    EXPECT_NEAR(s.window_error_rate, 27.0 / 300.0, 1e-9);
    EXPECT_EQ(s.state, SloState::kWarning);
    EXPECT_DOUBLE_EQ(s.window_p99_s, 0.0);
  }

  // t=130: everything before t=70 ages out and no new traffic arrived —
  // rates return to zero and the state recovers.
  monitor.tick(130.0);
  {
    const SloMonitor::Status s = monitor.status();
    EXPECT_EQ(s.window_requests, 0u);
    EXPECT_DOUBLE_EQ(s.window_error_rate, 0.0);
    EXPECT_DOUBLE_EQ(s.window_p99_s, 0.0);
    EXPECT_EQ(s.state, SloState::kHealthy);
    EXPECT_EQ(registry_.gauge("slo_state").value(), 0.0);
  }
}

TEST_F(SloMonitorTest, ShedRequestsCountTowardErrorRate) {
  SloMonitor monitor(config(), registry_);
  monitor.tick(0.0);

  // 90 completed + 10 shed across both shed counters: the window saw 100
  // requests, 10 of them errors by the SLO's definition.
  completed_.fetch_add(90);
  shed_a_.fetch_add(6);
  shed_b_.fetch_add(4);
  monitor.tick(5.0);

  const SloMonitor::Status s = monitor.status();
  EXPECT_EQ(s.window_requests, 100u);
  EXPECT_NEAR(s.window_error_rate, 0.10, 1e-9);
  EXPECT_NEAR(s.error_burn_rate, 1.0, 1e-9);  // exactly at objective
  EXPECT_EQ(s.state, SloState::kWarning);     // breach requires burn > 1
}

TEST_F(SloMonitorTest, MissingInstrumentsReadAsZero) {
  SloConfig cfg = config();
  cfg.latency_histogram = "never_registered";
  cfg.completed_counter = "also_never_registered";
  SloMonitor monitor(cfg, registry_);
  monitor.tick(0.0);
  monitor.tick(1.0);
  EXPECT_EQ(monitor.status().window_requests, 0u);
  EXPECT_EQ(monitor.status().state, SloState::kHealthy);
}

// The background ticker ticks on its own, and stop() wakes it instead of
// waiting out the period: every NetServer::shutdown stops one.
TEST_F(SloMonitorTest, TickerTicksAndStopReturnsWellInsideOnePeriod) {
  using Clock = std::chrono::steady_clock;
  {
    SloConfig cfg = config();
    cfg.tick_period = std::chrono::milliseconds(2);
    SloMonitor monitor(cfg, registry_);
    monitor.start();
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (monitor.status().window_requests == 0 && Clock::now() < deadline) {
      completed_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(monitor.status().window_requests, 0u) << "the ticker never ticked";
    monitor.stop();
  }
  SloConfig cfg = config();
  cfg.tick_period = std::chrono::seconds(10);
  SloMonitor monitor(cfg, registry_);
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // ticker is waiting
  const Clock::time_point t0 = Clock::now();
  monitor.stop();
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
}

}  // namespace
}  // namespace paintplace::obs
