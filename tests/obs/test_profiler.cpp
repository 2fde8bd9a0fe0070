// Span-stack profiler tests: deterministic folded-stack aggregation driven
// by sample_once(), multi-threaded stack attribution, whole-stack snapshots
// under concurrent push/pop, collapsed-stack export format, and the
// disabled-by-default contract (spans never touch the
// profiler while the profile bit is clear).
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace paintplace::obs {
namespace {

/// Sets the profile bit without start()'s background sampler thread, so
/// tests control exactly how many samples are taken via sample_once().
class ProfileBitScope {
 public:
  ProfileBitScope() {
    detail::g_span_mask.fetch_or(detail::kSpanMaskProfile, std::memory_order_relaxed);
  }
  ~ProfileBitScope() {
    detail::g_span_mask.fetch_and(
        static_cast<std::uint8_t>(~detail::kSpanMaskProfile), std::memory_order_relaxed);
  }
};

std::uint64_t count_of(const Profiler& prof, const std::string& stack) {
  for (const auto& [key, count] : prof.top_k(64)) {
    if (key == stack) return count;
  }
  return 0;
}

TEST(Profiler, FoldsNestedSpansDeterministically) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfileBitScope bit;

  Span outer("prof.outer", "test");
  {
    Span inner("prof.inner", "test");
    for (int i = 0; i < 5; ++i) prof.sample_once();
  }
  prof.sample_once();  // inner popped: only the outer frame remains

  EXPECT_EQ(count_of(prof, "prof.outer;prof.inner"), 5u);
  EXPECT_EQ(count_of(prof, "prof.outer"), 1u);
  EXPECT_EQ(prof.samples(), 6u);
  prof.clear();
}

TEST(Profiler, AttributesStacksPerThread) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfileBitScope bit;

  // Two workers park with distinct nested stacks; the main thread samples a
  // fixed number of times while both are provably inside their spans.
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  auto worker = [&](const char* leaf) {
    Span outer("prof.worker", "test");
    Span inner(leaf, "test");
    std::unique_lock<std::mutex> lock(mu);
    parked += 1;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  std::thread a(worker, "prof.leaf_a");
  std::thread b(worker, "prof.leaf_b");
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 2; });
  }
  constexpr int kSamples = 7;
  for (int i = 0; i < kSamples; ++i) prof.sample_once();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();

  EXPECT_EQ(count_of(prof, "prof.worker;prof.leaf_a"), kSamples);
  EXPECT_EQ(count_of(prof, "prof.worker;prof.leaf_b"), kSamples);
  prof.clear();
}

TEST(Profiler, CollapsedExportIsOneStackPerLine) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfileBitScope bit;

  Span outer("prof.export", "test");
  prof.sample_once();
  prof.sample_once();

  const std::string collapsed = prof.collapsed();
  std::istringstream lines(collapsed);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    ASSERT_NE(line.find(' '), std::string::npos) << "line without count: " << line;
    if (line == "prof.export 2") found = true;
  }
  EXPECT_TRUE(found) << collapsed;
  prof.clear();
}

TEST(Profiler, ConcurrentSamplingSeesOnlyWholeStacks) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfileBitScope bit;

  // The worker pushes and pops without a lock while this thread samples;
  // leaves of different lengths make a torn name or a mixed-up frame show
  // as a stack outside the expected set.
  std::atomic<bool> done{false};
  std::thread worker([&done] {
    for (int i = 0; i < 20000; ++i) {
      Span outer("conc.outer", "test");
      Span mid("conc.mid", "test");
      Span leaf(i % 2 == 0 ? "conc.leaf" : "conc.a_much_longer_leaf_name", "test");
    }
    done.store(true);
  });
  while (!done.load()) prof.sample_once();
  worker.join();

  const std::set<std::string> expected = {
      "conc.outer", "conc.outer;conc.mid", "conc.outer;conc.mid;conc.leaf",
      "conc.outer;conc.mid;conc.a_much_longer_leaf_name"};
  for (const auto& [stack, count] : prof.top_k(64)) {
    EXPECT_EQ(expected.count(stack), 1u) << "torn stack: " << stack;
  }
  prof.clear();
}

TEST(Profiler, DisabledSpansNeverReachTheAggregate) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ASSERT_FALSE(prof.enabled());

  Span span("prof.should_not_appear", "test");
  prof.sample_once();
  EXPECT_EQ(prof.samples(), 0u);
  prof.clear();
}

}  // namespace
}  // namespace paintplace::obs
