#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace paintplace {
namespace {

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  const Index n = 10007;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for(n, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) hits[static_cast<std::size_t>(i)] += 1;
  });
  for (Index i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(Parallel, EmptyAndSingleRanges) {
  int calls = 0;
  parallel_for(0, [&](Index, Index) { calls += 1; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](Index b, Index e) {
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1);
    calls += 1;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, ComputesCorrectSum) {
  const Index n = 100000;
  std::atomic<long long> total{0};
  parallel_for(n, [&](Index b, Index e) {
    long long local = 0;
    for (Index i = b; i < e; ++i) local += i;
    total += local;
  });
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(1000,
                   [](Index b, Index) {
                     if (b == 0) throw std::runtime_error("worker failure");
                   }),
      std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> count{0};
  parallel_for(100, [&](Index b, Index e) { count += static_cast<int>(e - b); });
  EXPECT_EQ(count.load(), 100);
}

TEST(Parallel, NestedCallsRunSerially) {
  std::atomic<int> inner_total{0};
  parallel_for(4, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) {
      // Nested call must not deadlock; it runs inline.
      parallel_for(10, [&](Index ib, Index ie) { inner_total += static_cast<int>(ie - ib); });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(Parallel, ForEachVisitsAll) {
  const Index n = 5000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for_each(n, [&](Index i) { hits[static_cast<std::size_t>(i)] += 1; });
  for (Index i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(Parallel, WorkerCountIsPositive) { EXPECT_GE(parallel_workers(), 1); }

// Two top-level callers compute at the same time: caller A's ranges wait
// until caller B's body has run. A pool that hosts one job at a time
// queues B behind A, so A's wait times out.
TEST(Parallel, ConcurrentCallersRunAtOnce) {
  std::mutex mu;
  std::condition_variable cv;
  bool a_started = false;
  bool b_ran = false;
  std::atomic<bool> a_saw_b{true};
  std::thread a([&] {
    parallel_for(4, [&](Index, Index) {
      std::unique_lock<std::mutex> lock(mu);
      a_started = true;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(5), [&] { return b_ran; })) a_saw_b = false;
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return a_started; });
  }
  parallel_for(4, [&](Index, Index) {
    std::lock_guard<std::mutex> lock(mu);
    b_ran = true;
    cv.notify_all();
  });
  a.join();
  EXPECT_TRUE(a_saw_b.load()) << "caller B ran only after caller A's job finished";
}

// Several callers hammer the pool with jobs of varied size: each job visits
// each of its indices exactly once, and a job's exception reaches its own
// caller and no other.
TEST(Parallel, ConcurrentCallersCoverTheirRanges) {
  constexpr int kThreads = 4;
  constexpr int kJobs = 300;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &errors] {
      std::string& err = errors[static_cast<std::size_t>(t)];
      for (int j = 0; j < kJobs && err.empty(); ++j) {
        const Index n = 1 + (t * 37 + j * 13) % 101;
        const bool throws = j % 7 == t;
        const std::string tag = std::to_string(t) + "/" + std::to_string(j);
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        try {
          parallel_for(n, [&](Index b, Index e) {
            for (Index i = b; i < e; ++i) hits[static_cast<std::size_t>(i)] += 1;
            // The last range usually runs on a pool worker, not the caller.
            if (throws && e == n) throw std::runtime_error(tag);
          });
          if (throws) err = "job " + tag + " threw but its caller saw nothing";
        } catch (const std::runtime_error& e) {
          if (e.what() != tag) err = "job " + tag + " caught " + e.what();
        }
        for (Index i = 0; i < n && err.empty(); ++i) {
          const int h = hits[static_cast<std::size_t>(i)].load();
          if (h != 1) {
            err = "job " + tag + " index " + std::to_string(i) + " ran " + std::to_string(h) +
                  " times";
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[static_cast<std::size_t>(t)], "");
}

}  // namespace
}  // namespace paintplace
