// obs tracing tests: disabled-span inertness, span nesting by time
// containment, trace-id propagation across threads, worker-pool spans,
// ring-buffer wraparound, and chrome-trace JSON validity (the dump is parsed
// back with a small stand-alone JSON parser rather than substring checks
// alone).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "nn/gemm.h"

namespace paintplace::obs {
namespace {

// ---- Minimal JSON parser (validity + event extraction) ----------------------
//
// Just enough of RFC 8259 to verify the dump is well-formed JSON: objects,
// arrays, strings with escapes, numbers, true/false/null. Parse failure
// means chrome://tracing would reject the file.

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  bool parse_document() {
    skip_ws();
    if (!parse_value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool parse_value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }

  bool parse_object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char esc = s_[pos_ + 1];
        if (esc == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          pos_ += 6;
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' && esc != 'n' &&
            esc != 'r' && esc != 't') {
          return false;
        }
        pos_ += 2;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      ++pos_;
    }
    return false;
  }

  bool parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > begin;
  }

  bool parse_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool valid_json(const std::string& text) { return JsonCursor(text).parse_document(); }

/// ts/dur of the first event whose name matches, pulled from the dump (the
/// tracer emits one event per line, so line-scanning is reliable).
bool find_event(const std::string& dump, const std::string& name, std::uint64_t* ts,
                std::uint64_t* dur) {
  const std::string needle = "{\"name\":\"" + name + "\"";
  const std::size_t at = dump.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t ts_at = dump.find("\"ts\":", at);
  if (ts_at == std::string::npos) return false;
  unsigned long long ts_v = 0, dur_v = 0;
  if (std::sscanf(dump.c_str() + ts_at, "\"ts\":%llu,\"dur\":%llu", &ts_v, &dur_v) != 2) {
    return false;
  }
  *ts = ts_v;
  *dur = dur_v;
  return true;
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// The tracer is a process singleton; every test runs inside this guard so
/// enabled state and recorded events never leak between tests.
struct TracerGuard {
  TracerGuard() {
    Tracer::instance().clear();
    Tracer::instance().enable();
  }
  ~TracerGuard() {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

void spin_for_us(std::uint64_t us) {
  const std::uint64_t start = Tracer::instance().now_us();
  while (Tracer::instance().now_us() - start < us) {
  }
}

// ---- Tests ------------------------------------------------------------------

TEST(Trace, DisabledSpanIsInertAndRecordsNothing) {
  Tracer::instance().disable();
  Tracer::instance().clear();
  {
    Span span("should.not.exist", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", std::int64_t{1});  // no-op, must not crash
  }
  EXPECT_EQ(Tracer::instance().recorded(), 0u);
}

TEST(Trace, SpanRecordsNameCategoryAndArgs) {
  TracerGuard guard;
  {
    Span span("unit.example", "test");
    EXPECT_TRUE(span.active());
    span.arg("count", std::int64_t{42});
    span.arg("ratio", 0.5);
    span.arg("mode", "fast");
  }
  EXPECT_EQ(Tracer::instance().recorded(), 1u);
  const std::string dump = Tracer::instance().dump_json();
  EXPECT_TRUE(valid_json(dump)) << dump;
  EXPECT_NE(dump.find("\"name\":\"unit.example\""), std::string::npos);
  EXPECT_NE(dump.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(dump.find("\"count\":42"), std::string::npos);
  EXPECT_NE(dump.find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(dump.find("\"mode\":\"fast\""), std::string::npos);
}

TEST(Trace, NestedSpansAreContainedInTime) {
  TracerGuard guard;
  {
    Span outer("unit.outer", "test");
    spin_for_us(200);
    {
      Span inner("unit.inner", "test");
      spin_for_us(200);
    }
    spin_for_us(200);
  }
  const std::string dump = Tracer::instance().dump_json();
  ASSERT_TRUE(valid_json(dump)) << dump;
  std::uint64_t outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  ASSERT_TRUE(find_event(dump, "unit.outer", &outer_ts, &outer_dur)) << dump;
  ASSERT_TRUE(find_event(dump, "unit.inner", &inner_ts, &inner_dur)) << dump;
  // chrome://tracing nests by time containment: the inner interval must sit
  // strictly inside the outer one.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  EXPECT_GE(inner_dur, 150u);
  EXPECT_GE(outer_dur, inner_dur);
}

TEST(Trace, TraceIdPropagatesAcrossThreads) {
  TracerGuard guard;
  const std::uint64_t id = TraceContext::next_id();
  {
    const ScopedTraceId scope(id);
    Span span("unit.reader", "test");
  }
  std::thread worker([id] {
    // A worker thread (batch worker, writer) adopts the request's id.
    const ScopedTraceId scope(id);
    Span span("unit.worker", "test");
  });
  worker.join();
  {
    Span span("unit.untraced", "test");  // no ScopedTraceId: no trace arg
  }
  const std::string dump = Tracer::instance().dump_json();
  ASSERT_TRUE(valid_json(dump)) << dump;
  const std::string tag = "\"trace\":" + std::to_string(id);
  EXPECT_EQ(count_occurrences(dump, tag), 2u) << dump;
  const std::size_t untraced = dump.find("\"name\":\"unit.untraced\"");
  ASSERT_NE(untraced, std::string::npos);
  const std::size_t line_end = dump.find('\n', untraced);
  EXPECT_EQ(dump.substr(untraced, line_end - untraced).find("\"trace\":"), std::string::npos);
}

TEST(Trace, ScopedTraceIdRestoresThePreviousId) {
  const std::uint64_t outer_id = TraceContext::next_id();
  const std::uint64_t inner_id = TraceContext::next_id();
  const std::uint64_t before = TraceContext::current();
  {
    const ScopedTraceId outer(outer_id);
    EXPECT_EQ(TraceContext::current(), outer_id);
    {
      const ScopedTraceId inner(inner_id);
      EXPECT_EQ(TraceContext::current(), inner_id);
    }
    EXPECT_EQ(TraceContext::current(), outer_id);
  }
  EXPECT_EQ(TraceContext::current(), before);
}

TEST(Trace, NextIdIsUniqueAndNeverZero) {
  std::uint64_t prev = TraceContext::next_id();
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = TraceContext::next_id();
    EXPECT_NE(id, 0u);
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(Trace, RingWrapsAroundKeepingTheNewestEvents) {
  TracerGuard guard;
  constexpr std::size_t kOverflow = 123;
  // One dedicated thread so every event lands in a single ring.
  std::thread writer([] {
    for (std::size_t i = 0; i < Tracer::kRingCapacity + kOverflow; ++i) {
      Span span("unit.wrap", "test");
    }
  });
  writer.join();
  EXPECT_EQ(Tracer::instance().recorded(), Tracer::kRingCapacity);
  EXPECT_EQ(Tracer::instance().dropped(), kOverflow);
  // The dump must still be valid JSON at full-ring size.
  const std::string dump = Tracer::instance().dump_json();
  EXPECT_TRUE(valid_json(dump));
  EXPECT_EQ(count_occurrences(dump, "\"name\":\"unit.wrap\""), Tracer::kRingCapacity);
}

TEST(Trace, WorkerPoolThreadsTraceIntoTheirOwnRows) {
  constexpr Index kItems = 64;
  // Start the pool before the tracer exists: its threads then end after
  // static destruction began, and must still be able to release their
  // per-thread trace state (ASan catches a use-after-free here).
  parallel_for_each(kItems, [](Index) {});
  TracerGuard guard;
  parallel_for_each(kItems, [](Index) { Span span("unit.pool_item", "test"); });
  EXPECT_EQ(Tracer::instance().recorded(), static_cast<std::size_t>(kItems));
  const std::string dump = Tracer::instance().dump_json();
  EXPECT_TRUE(valid_json(dump));
  EXPECT_EQ(count_occurrences(dump, "\"name\":\"unit.pool_item\""),
            static_cast<std::size_t>(kItems));
}

TEST(Trace, ClearDropsEverything) {
  TracerGuard guard;
  { Span span("unit.cleared", "test"); }
  ASSERT_GE(Tracer::instance().recorded(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().recorded(), 0u);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
  const std::string dump = Tracer::instance().dump_json();
  EXPECT_TRUE(valid_json(dump)) << dump;
  EXPECT_EQ(dump.find("\"name\""), std::string::npos);
}

TEST(Trace, EmptyDumpIsValidJson) {
  Tracer::instance().disable();
  Tracer::instance().clear();
  EXPECT_TRUE(valid_json(Tracer::instance().dump_json()));
}

TEST(Trace, StringArgsAreJsonEscaped) {
  TracerGuard guard;
  {
    Span span("unit.escape", "test");
    span.arg("tricky", "a\"b\\c\nd\te");
  }
  const std::string dump = Tracer::instance().dump_json();
  EXPECT_TRUE(valid_json(dump)) << dump;
  EXPECT_NE(dump.find("a\\\"b\\\\c\\nd\\te"), std::string::npos) << dump;
}

TEST(Trace, FlopsDeriveAGflopPerSecondArg) {
  TracerGuard guard;
  {
    Span span("unit.flops", "test");
    span.flops(1e6);
    spin_for_us(100);
  }
  const std::string dump = Tracer::instance().dump_json();
  ASSERT_TRUE(valid_json(dump)) << dump;
  EXPECT_NE(dump.find("\"gflop_per_s\":"), std::string::npos) << dump;
}

TEST(Trace, GemmCallEmitsShapeAnnotatedSpan) {
  TracerGuard guard;
  const Index M = 8, N = 8, K = 8;
  std::vector<float> A(static_cast<std::size_t>(M * K), 0.5f);
  std::vector<float> B(static_cast<std::size_t>(K * N), 0.25f);
  std::vector<float> C(static_cast<std::size_t>(M * N), 0.0f);
  nn::sgemm(M, N, K, 1.0f, A.data(), B.data(), 0.0f, C.data());
  const std::string dump = Tracer::instance().dump_json();
  ASSERT_TRUE(valid_json(dump)) << dump;
  const std::size_t at = dump.find("\"name\":\"gemm.sgemm\"");
  ASSERT_NE(at, std::string::npos) << dump;
  const std::string line = dump.substr(at, dump.find('\n', at) - at);
  EXPECT_NE(line.find("\"M\":8"), std::string::npos) << line;
  EXPECT_NE(line.find("\"N\":8"), std::string::npos) << line;
  EXPECT_NE(line.find("\"K\":8"), std::string::npos) << line;
  EXPECT_NE(line.find("\"backend\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"gflop_per_s\":"), std::string::npos) << line;
}

TEST(Trace, LongNamesAreTruncatedNotOverflowed) {
  TracerGuard guard;
  const std::string long_name(200, 'x');
  { Span span(long_name, "test"); }
  const std::string dump = Tracer::instance().dump_json();
  EXPECT_TRUE(valid_json(dump)) << dump;
  EXPECT_NE(dump.find(std::string(47, 'x')), std::string::npos);
  EXPECT_EQ(dump.find(std::string(48, 'x')), std::string::npos);
}

}  // namespace
}  // namespace paintplace::obs
