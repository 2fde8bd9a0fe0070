#include "serve/batch_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/timer.h"
#include "serve/forecast_server.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::serve {
namespace {

using namespace std::chrono_literals;

PendingRequest make_request(std::uint64_t seed) {
  PendingRequest req;
  req.input = testfix::random_input(seed, 4);
  req.key = TensorKey::of(req.input);
  req.enqueued_at = std::chrono::steady_clock::now();
  return req;
}

TEST(BatchQueue, FullBatchFlushesWithoutWaiting) {
  BatchQueue q(/*max_batch=*/4, /*max_wait=*/1h);  // wait "forever" unless full
  for (std::uint64_t i = 0; i < 4; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  Timer t;
  const auto batch = q.pop_batch();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(t.seconds(), 1.0);  // did not sit out the 1h max_wait
}

TEST(BatchQueue, OverfullQueueSplitsIntoMaxBatchChunks) {
  BatchQueue q(4, 1h);
  for (std::uint64_t i = 0; i < 10; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  EXPECT_EQ(q.pop_batch().size(), 4u);
  EXPECT_EQ(q.pop_batch().size(), 4u);
  q.close();  // remaining 2 flush on close instead of max_wait
  EXPECT_EQ(q.pop_batch().size(), 2u);
}

TEST(BatchQueue, MaxWaitFlushesPartialBatch) {
  BatchQueue q(8, 20ms);
  PendingRequest r = make_request(1);
  ASSERT_TRUE(q.push(r));
  Timer t;
  const auto batch = q.pop_batch();
  const double waited = t.seconds();
  EXPECT_EQ(batch.size(), 1u);
  // Flushed by the deadline: waited roughly max_wait, not forever — and did
  // not return instantly with an unfilled batch either.
  EXPECT_LT(waited, 5.0);
}

TEST(BatchQueue, DefaultPolicyDispatchesALoneRequestAtOnce) {
  // ServeConfig's default max_wait is work-conserving: an idle consumer takes
  // a lone request immediately instead of holding the batch open. 500 cycles
  // under the old 2 ms hold would take at least 1 s.
  const ServeConfig defaults;
  BatchQueue q(defaults.max_batch, defaults.max_wait);
  constexpr std::uint64_t kCycles = 500;
  std::vector<PendingRequest> requests;
  for (std::uint64_t i = 0; i < kCycles; ++i) requests.push_back(make_request(i));
  Timer t;
  for (PendingRequest& r : requests) {
    ASSERT_TRUE(q.push(r));
    ASSERT_EQ(q.pop_batch().size(), 1u);
  }
  EXPECT_LT(t.seconds(), 0.5);
}

TEST(BatchQueue, BatchesPreserveFifoOrder) {
  BatchQueue q(3, 1h);
  for (std::uint64_t i = 0; i < 3; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  const auto batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].key, TensorKey::of(testfix::random_input(i, 4)));
  }
}

TEST(BatchQueue, CloseDrainsThenSignalsEmpty) {
  BatchQueue q(4, 1h);
  PendingRequest a = make_request(1), b = make_request(2);
  ASSERT_TRUE(q.push(a));
  ASSERT_TRUE(q.push(b));
  q.close();
  EXPECT_EQ(q.pop_batch().size(), 2u);  // drained despite not being full
  EXPECT_TRUE(q.pop_batch().empty());   // then the shutdown signal
  PendingRequest c = make_request(3);
  EXPECT_FALSE(q.push(c));  // intake refused after close
}

TEST(BatchQueue, PopBlocksUntilPushArrives) {
  BatchQueue q(1, 1h);
  std::vector<PendingRequest> got;
  std::thread consumer([&] { got = q.pop_batch(); });
  std::this_thread::sleep_for(10ms);
  PendingRequest r = make_request(5);
  ASSERT_TRUE(q.push(r));
  consumer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].key, TensorKey::of(testfix::random_input(5, 4)));
}

TEST(BatchQueue, CloseWakesBlockedConsumer) {
  BatchQueue q(4, 1h);
  std::thread consumer([&] { EXPECT_TRUE(q.pop_batch().empty()); });
  std::this_thread::sleep_for(10ms);
  q.close();
  consumer.join();
}

TEST(BatchQueue, TwoConsumersSplitTheWorkWithoutLoss) {
  BatchQueue q(2, 5ms);
  constexpr int kRequests = 40;
  std::atomic<int> served{0};
  auto consume = [&] {
    for (;;) {
      const auto batch = q.pop_batch();
      if (batch.empty()) return;
      served += static_cast<int>(batch.size());
    }
  };
  std::thread c1(consume), c2(consume);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  while (q.pending() > 0) std::this_thread::sleep_for(1ms);
  q.close();
  c1.join();
  c2.join();
  EXPECT_EQ(served.load(), kRequests);
}

}  // namespace
}  // namespace paintplace::serve
