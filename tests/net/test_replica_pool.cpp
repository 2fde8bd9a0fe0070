// ReplicaPool tests: content-hash shard stickiness (cache locality across
// replicas), the one content key shared by shard and cache, both
// admission-control shed paths with slot release, lockstep hot-swap, and
// drain-on-shutdown semantics.
#include "net/replica_pool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <vector>

#include "common/check.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::net {
namespace {

using namespace std::chrono_literals;

ReplicaPoolConfig quick_config(int replicas = 2) {
  ReplicaPoolConfig cfg;
  cfg.replicas = replicas;
  cfg.serve.max_batch = 4;
  cfg.serve.max_wait = 2ms;
  return cfg;
}

ModelFactory tiny_factory() {
  return [] { return serve::testfix::tiny_model(); };
}

TEST(ReplicaPool, ShardingIsStickyAndCachesSurviveScaleOut) {
  ReplicaPool pool(quick_config(3), tiny_factory());
  const nn::Tensor x = serve::testfix::random_input(5);
  const int home = pool.replica_of(serve::TensorKey::of(x));
  EXPECT_EQ(pool.replica_of(serve::TensorKey::of(x)), home);  // stable

  Admission first = pool.submit(/*client_id=*/1, x);
  ASSERT_TRUE(first.admitted());
  EXPECT_EQ(first.replica, home);
  EXPECT_FALSE(first.future.get().from_cache);
  first.slot.reset();

  // Same placement, different client: same replica, and its cache answers.
  Admission second = pool.submit(/*client_id=*/2, x);
  ASSERT_TRUE(second.admitted());
  EXPECT_EQ(second.replica, home);
  EXPECT_TRUE(second.future.get().from_cache);
  second.slot.reset();

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_requests, 2u);
}

// The pool hashes a request once and hands the key to the replica: the
// result is cached under the key TensorKey::of gives, on the shard it picks.
TEST(ReplicaPool, SubmittedRequestIsCachedUnderItsContentKey) {
  ReplicaPool pool(quick_config(2), tiny_factory());
  const nn::Tensor x = serve::testfix::random_input(11);
  const serve::TensorKey key = serve::TensorKey::of(x);
  Admission adm = pool.submit(/*client_id=*/1, x);
  ASSERT_TRUE(adm.admitted());
  EXPECT_EQ(adm.replica, pool.replica_of(key));
  const serve::ForecastResult result = adm.future.get();
  adm.slot.reset();

  const std::optional<serve::ForecastResult> cached = pool.replica(adm.replica).cache().get(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->congestion_score, result.congestion_score);
  EXPECT_EQ(cached->heatmap.max_abs_diff(result.heatmap), 0.0f);
}

TEST(ReplicaPool, DistinctPlacementsSpreadAcrossReplicas) {
  ReplicaPool pool(quick_config(2), tiny_factory());
  std::vector<int> hits(2, 0);
  for (std::uint64_t s = 0; s < 32; ++s) {
    const nn::Tensor x = serve::testfix::random_input(100 + s);
    hits[static_cast<std::size_t>(pool.replica_of(serve::TensorKey::of(x)))] += 1;
  }
  // A content hash will not be perfectly balanced over 32 draws, but both
  // replicas must see real traffic.
  EXPECT_GT(hits[0], 0);
  EXPECT_GT(hits[1], 0);
}

TEST(ReplicaPool, ReplicaDepthBoundShedsAndSlotReleaseReadmits) {
  ReplicaPoolConfig cfg = quick_config(1);
  cfg.max_replica_depth = 1;
  ReplicaPool pool(cfg, tiny_factory());

  Admission held = pool.submit(1, serve::testfix::random_input(1));
  ASSERT_TRUE(held.admitted());

  Admission over = pool.submit(1, serve::testfix::random_input(2));
  EXPECT_FALSE(over.admitted());
  EXPECT_EQ(over.shed, ShedReason::kReplicaQueueFull);
  EXPECT_EQ(pool.stats().queue_depth, 1u);

  held.future.get();
  held.slot.reset();  // response delivered — the slot frees the depth
  EXPECT_EQ(pool.stats().queue_depth, 0u);

  Admission after = pool.submit(1, serve::testfix::random_input(2));
  EXPECT_TRUE(after.admitted());
  after.future.get();
}

TEST(ReplicaPool, ClientCapShedsOnlyTheGreedyClient) {
  ReplicaPoolConfig cfg = quick_config(2);
  cfg.max_client_inflight = 1;
  ReplicaPool pool(cfg, tiny_factory());

  Admission held = pool.submit(/*client_id=*/7, serve::testfix::random_input(1));
  ASSERT_TRUE(held.admitted());

  Admission greedy = pool.submit(/*client_id=*/7, serve::testfix::random_input(2));
  EXPECT_FALSE(greedy.admitted());
  EXPECT_EQ(greedy.shed, ShedReason::kClientCapExceeded);

  // A different client is unaffected by client 7's cap.
  Admission other = pool.submit(/*client_id=*/8, serve::testfix::random_input(2));
  EXPECT_TRUE(other.admitted());

  held.future.get();
  held.slot.reset();
  other.future.get();
  other.slot.reset();

  Admission again = pool.submit(/*client_id=*/7, serve::testfix::random_input(3));
  EXPECT_TRUE(again.admitted());
  again.future.get();
}

TEST(ReplicaPool, HotSwapAdvancesAllReplicasInLockstep) {
  ReplicaPool pool(quick_config(2), tiny_factory());
  const nn::Tensor x = serve::testfix::random_input(9);

  Admission before = pool.submit(1, x);
  ASSERT_TRUE(before.admitted());
  EXPECT_EQ(before.future.get().model_version, 1u);
  before.slot.reset();

  EXPECT_EQ(pool.hot_swap(tiny_factory(), "swap-test"), 2u);
  EXPECT_EQ(pool.stats().model_version, 2u);

  // The old version's cache entry must not serve the new version.
  Admission after = pool.submit(1, x);
  ASSERT_TRUE(after.admitted());
  const serve::ForecastResult r = after.future.get();
  EXPECT_EQ(r.model_version, 2u);
  EXPECT_FALSE(r.from_cache);
  after.slot.reset();
}

TEST(ReplicaPool, ShutdownDrainsAdmittedRequests) {
  ReplicaPool pool(quick_config(2), tiny_factory());
  std::vector<Admission> admitted;
  for (std::uint64_t s = 0; s < 8; ++s) {
    Admission a = pool.submit(s % 3, serve::testfix::random_input(200 + s));
    ASSERT_TRUE(a.admitted());
    admitted.push_back(std::move(a));
  }
  pool.shutdown();
  for (Admission& a : admitted) {
    const serve::ForecastResult r = a.future.get();  // resolves, never dropped
    EXPECT_GT(r.heatmap.numel(), 0);
    a.slot.reset();
  }
  EXPECT_THROW(pool.submit(1, serve::testfix::random_input(1)), CheckError);
}

TEST(ReplicaPool, BadInputShapeIsACallerErrorNotLoad) {
  ReplicaPool pool(quick_config(1), tiny_factory());
  nn::Tensor wrong(nn::Shape{1, 2, 16, 16});  // channel count mismatch
  EXPECT_THROW(pool.submit(1, wrong), CheckError);
  EXPECT_EQ(pool.stats().queue_depth, 0u);  // nothing leaked by the throw
}

}  // namespace
}  // namespace paintplace::net
