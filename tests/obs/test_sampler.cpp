// Tail-based trace sampler tests: deterministic head decisions (same seed,
// same sequence), retain-on-slow and retain-on-shed/error commits, the
// discard path, head-sampled finish semantics (committed live, no
// retained_error bump), bypass for ids begin() never saw, and the trace-size
// reduction 1-in-100 sampling buys.
#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace paintplace::obs {
namespace {

/// Counter snapshots around a test body; all four decision counters live in
/// the global registry and the test binary shares them across TESTs.
struct CounterDeltas {
  CounterDeltas()
      : sampled(MetricsRegistry::global().counter("obs_trace_sampled_total")),
        retained_slow(MetricsRegistry::global().counter("obs_trace_retained_slow_total")),
        retained_error(MetricsRegistry::global().counter("obs_trace_retained_error_total")),
        discarded(MetricsRegistry::global().counter("obs_trace_discarded_total")) {
    base_sampled = sampled.load();
    base_slow = retained_slow.load();
    base_error = retained_error.load();
    base_discarded = discarded.load();
  }
  std::uint64_t d_sampled() const { return sampled.load() - base_sampled; }
  std::uint64_t d_slow() const { return retained_slow.load() - base_slow; }
  std::uint64_t d_error() const { return retained_error.load() - base_error; }
  std::uint64_t d_discarded() const { return discarded.load() - base_discarded; }

  Counter& sampled;
  Counter& retained_slow;
  Counter& retained_error;
  Counter& discarded;
  std::uint64_t base_sampled, base_slow, base_error, base_discarded;
};

/// Every test drives the process tracer's sampler; this fixture restores
/// the record-everything default afterwards so test_trace keeps passing in
/// the same binary.
class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().disable();
    tracer().clear();
    sampler().disable();
  }
  void TearDown() override {
    sampler().disable();
    tracer().disable();
    tracer().clear();
  }

  static Tracer& tracer() { return Tracer::instance(); }
  static Sampler& sampler() { return Tracer::instance().sampler(); }

  /// Runs one request: begin, record `spans` spans under its trace id, then
  /// finish with the given latency/outcome.
  static void run_request(std::uint64_t id, double latency_s, RequestOutcome outcome,
                          int spans = 1) {
    sampler().begin(id);
    {
      ScopedTraceId scope(id);
      for (int i = 0; i < spans; ++i) {
        Span span("sampler.test.span", "test");
      }
    }
    sampler().finish(id, latency_s, outcome);
  }

  static SamplerConfig config(std::uint64_t every, double slow_s = 10.0) {
    SamplerConfig cfg;
    cfg.sample_every = every;
    cfg.slow_threshold_s = slow_s;
    cfg.seed = 7;
    return cfg;
  }
};

/// The head decision is observable through offer(): false = head-sampled
/// (record live), true = buffered provisionally.
std::vector<bool> head_decisions(Sampler& s, int n, std::uint64_t first_id) {
  std::vector<bool> heads;
  SpanEvent event{};
  std::strncpy(event.name, "probe", sizeof(event.name) - 1);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t id = first_id + static_cast<std::uint64_t>(i);
    s.begin(id);
    event.trace_id = id;
    heads.push_back(!s.offer(event, nullptr));
    s.finish(id, 0.0, RequestOutcome::kOk);  // fast + ok: buffered ones discard
  }
  return heads;
}

TEST_F(SamplerTest, HeadDecisionsAreDeterministicAcrossReset) {
  sampler().configure(config(4));
  const std::vector<bool> first = head_decisions(sampler(), 64, 1000);
  sampler().reset();
  const std::vector<bool> second = head_decisions(sampler(), 64, 5000);
  EXPECT_EQ(first, second);  // same seed + sequence position, ids irrelevant

  int heads = 0;
  for (bool h : first) heads += h ? 1 : 0;
  // 1-in-4 sampling over 64 requests: the deterministic hash keeps the rate
  // near the target (exact shape depends on the hash, not on luck).
  EXPECT_GE(heads, 8);
  EXPECT_LE(heads, 32);
}

TEST_F(SamplerTest, SlowRequestIsAlwaysCommitted) {
  CounterDeltas deltas;
  tracer().enable();
  sampler().configure(config(1U << 30, /*slow_s=*/0.5));  // head-sample ~never

  run_request(1, /*latency_s=*/2.0, RequestOutcome::kOk, /*spans=*/3);
  EXPECT_EQ(deltas.d_slow(), 1u);
  EXPECT_EQ(deltas.d_discarded(), 0u);
  EXPECT_EQ(tracer().recorded(), 3u);  // all three spans committed
  EXPECT_NE(tracer().dump_json().find("sampler.test.span"), std::string::npos);
}

TEST_F(SamplerTest, ShedAndErrorOutcomesAreRetained) {
  CounterDeltas deltas;
  tracer().enable();
  sampler().configure(config(1U << 30));

  run_request(2, 0.001, RequestOutcome::kShed);
  run_request(3, 0.001, RequestOutcome::kError);
  EXPECT_EQ(deltas.d_error(), 2u);
  EXPECT_EQ(tracer().recorded(), 2u);
}

TEST_F(SamplerTest, FastHealthyRequestIsDiscarded) {
  CounterDeltas deltas;
  tracer().enable();
  sampler().configure(config(1U << 30));

  run_request(4, 0.001, RequestOutcome::kOk, /*spans=*/5);
  EXPECT_EQ(deltas.d_discarded(), 1u);
  EXPECT_EQ(tracer().recorded(), 0u);  // nothing committed
  EXPECT_EQ(sampler().pending(), 0u);  // and nothing left buffered
}

TEST_F(SamplerTest, HeadSampledRequestsCommitLiveEvenWhenShed) {
  CounterDeltas deltas;
  tracer().enable();
  sampler().configure(config(1));  // sample_every=1: everything head-sampled

  run_request(5, 0.001, RequestOutcome::kShed);
  // Counted at begin() as head-sampled; finish() must not double-count it
  // as a tail retention — the coverage invariant that
  // SampledNetServerTest asserts is retained_error + head_sampled >= sheds.
  EXPECT_EQ(deltas.d_sampled(), 1u);
  EXPECT_EQ(deltas.d_error(), 0u);
  EXPECT_EQ(tracer().recorded(), 1u);  // recorded live, not via commit
}

TEST_F(SamplerTest, UnknownTraceIdsBypassTheSampler) {
  tracer().enable();
  sampler().configure(config(1U << 30));

  // Id 0 (non-request instrumentation) and an id begin() never saw both
  // record directly even while sampling is active.
  { Span span("sampler.test.free", "test"); }
  {
    ScopedTraceId scope(777777);
    Span span("sampler.test.foreign", "test");
  }
  EXPECT_EQ(tracer().recorded(), 2u);
}

TEST_F(SamplerTest, SamplingShrinksTheTraceAtLeastTenfold) {
  tracer().enable();

  // Full tracing: every request's spans land in the rings.
  for (int i = 0; i < 400; ++i) {
    ScopedTraceId scope(static_cast<std::uint64_t>(10000 + i));
    Span a("sampler.test.outer", "test");
    Span b("sampler.test.inner", "test");
  }
  const std::size_t full_events = tracer().recorded();
  const std::size_t full_bytes = tracer().dump_json().size();
  tracer().clear();

  sampler().configure(config(100));
  CounterDeltas deltas;
  for (int i = 0; i < 400; ++i) {
    run_request(static_cast<std::uint64_t>(20000 + i), 0.001, RequestOutcome::kOk,
                /*spans=*/2);
  }
  const std::size_t sampled_events = tracer().recorded();
  const std::size_t sampled_bytes = tracer().dump_json().size();

  EXPECT_EQ(full_events, 800u);
  EXPECT_GT(sampled_events, 0u);  // the head-sampled steady state survives
  EXPECT_GE(full_events, 10 * sampled_events);
  EXPECT_GE(full_bytes, 10 * sampled_bytes);
  EXPECT_GT(deltas.d_discarded(), 0u);
}

}  // namespace
}  // namespace paintplace::obs
