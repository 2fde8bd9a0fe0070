// paintplace::obs — structured tracing with chrome://tracing export.
//
// The request path is instrumented with RAII Spans (frame decode, pool
// dispatch, batch coalescing, the model forward, every backend GEMM call).
// Tracing is compiled in but sampling-gated: when the tracer is disabled —
// the default — a Span construction is one relaxed atomic load and nothing
// else, cheap enough to leave in the hottest loops (bench_micro's
// disabled-span guard asserts the cost stays under its overhead budget).
//
// When enabled, completed spans land in fixed-size per-thread ring buffers
// held in the thread's obs slot (thread_slot.h; no allocation, no shared
// lock on the record path beyond the ring's own uncontended mutex; the
// oldest events are overwritten on wraparound).
// Tracer::dump_json() walks every ring and writes a Chrome Trace Event
// Format file — load it at chrome://tracing or https://ui.perfetto.dev.
// Spans nest per thread by time containment; a request that hops threads
// (reader -> batch worker -> writer) is stitched by its trace id, which
// propagates through the thread-local TraceContext and is recorded as the
// "trace" arg on every span it touches.
//
// Enable via the PAINTPLACE_TRACE=path.json environment variable or
// forecast_serve --trace (dump on Tracer::dump_configured(), which
// forecast_serve calls on drain), or Tracer::instance().enable() in code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace paintplace::obs {

namespace detail {
/// The one word every Span construction reads: bit 0 = tracing enabled
/// (Tracer), bit 1 = profiling enabled (Profiler), bit 2 = flight recorder
/// enabled (crash forensics). Bits 1 and 2 both put spans on the one live
/// span stack. Folding every feature into a single relaxed atomic load keeps
/// the disabled-path cost of a Span identical to the tracing-only design —
/// bench_micro's disabled-span guard covers it.
inline constexpr std::uint8_t kSpanMaskTrace = 0x1;
inline constexpr std::uint8_t kSpanMaskProfile = 0x2;
inline constexpr std::uint8_t kSpanMaskForensics = 0x4;
extern std::atomic<std::uint8_t> g_span_mask;
}  // namespace detail

class Sampler;

/// One key/value annotation on a span. Keys are static strings (the call
/// sites own them); string values are truncated to fit the inline buffer.
struct TraceArg {
  enum class Kind : std::uint8_t { kInt, kDouble, kString };
  const char* key = "";
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  char s[24] = {0};
};

/// A completed span, as stored in the ring buffer. Fixed-size so recording
/// is a memcpy-scale operation.
struct SpanEvent {
  static constexpr int kMaxArgs = 6;
  char name[48] = {0};
  char category[16] = {0};
  std::uint64_t start_us = 0;  ///< microseconds since tracer epoch
  std::uint64_t dur_us = 0;
  std::uint64_t trace_id = 0;  ///< 0 = not tied to a request
  int num_args = 0;
  TraceArg args[kMaxArgs];
};

class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 8192;  ///< events per thread

  /// Process-wide tracer, never destroyed (threads may trace during static
  /// destruction). First call reads PAINTPLACE_TRACE: when set, the tracer
  /// starts enabled and remembers the value as the dump path — and
  /// PAINTPLACE_TRACE_SAMPLE / PAINTPLACE_TRACE_SLOW_MS, which configure
  /// the tail sampler (see sampler.h).
  static Tracer& instance();

  bool enabled() const {
    return (detail::g_span_mask.load(std::memory_order_relaxed) &
            detail::kSpanMaskTrace) != 0;
  }
  void enable() {
    detail::g_span_mask.fetch_or(detail::kSpanMaskTrace, std::memory_order_relaxed);
  }
  void disable() {
    detail::g_span_mask.fetch_and(
        static_cast<std::uint8_t>(~detail::kSpanMaskTrace), std::memory_order_relaxed);
  }

  /// The tail-based sampling policy (inactive by default: every recorded
  /// span lands in its ring). See sampler.h for the begin/offer/finish
  /// protocol the request front-end drives.
  Sampler& sampler() { return *sampler_; }

  /// Sets (and overrides) the dump path and enables tracing — the
  /// programmatic twin of PAINTPLACE_TRACE.
  void configure(const std::string& dump_path);
  const std::string& configured_path() const { return dump_path_; }
  /// Writes dump_json() to the configured path, if any. Returns true when a
  /// file was written. Idempotent — safe to call from several drain paths.
  bool dump_configured();

  /// Appends one completed event to the calling thread's ring.
  void record(const SpanEvent& event);

  /// Chrome Trace Event Format JSON of every ring's events.
  std::string dump_json() const;
  bool dump_json(const std::string& path) const;

  /// Drops all recorded events (tests).
  void clear();

  /// Events overwritten by ring wraparound since the last clear().
  std::uint64_t dropped() const;
  /// Events currently held across all rings.
  std::size_t recorded() const;

 private:
  Tracer();
  ~Tracer();  // defined in trace.cpp (Sampler is incomplete here)

  std::unique_ptr<Sampler> sampler_;
  mutable std::mutex path_mu_;
  std::string dump_path_;
  std::chrono::steady_clock::time_point epoch_;

 public:
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
};

/// Thread-local request correlation. The net reader assigns an id per
/// request frame; the batch worker adopts it around each request's share of
/// a batch; every Span snapshots the current id at construction.
class TraceContext {
 public:
  static std::uint64_t current();
  static std::uint64_t next_id();  ///< process-unique, never 0
};

/// RAII adoption of a trace id (restores the previous one on destruction).
class ScopedTraceId {
 public:
  explicit ScopedTraceId(std::uint64_t id);
  ~ScopedTraceId();

  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: times from construction to destruction and records into the
/// tracer's ring. When every obs feature is off at construction the span is
/// inert — one relaxed atomic load, then no clock reads, no string copies,
/// no recording. With the profiler or the flight recorder on, the span also
/// sits on its thread's live span stack (thread_slot.h) for its lifetime.
class Span {
 public:
  explicit Span(const char* name, const char* category = "app");
  /// Dynamic span names (per-layer instrumentation). The string is copied
  /// (truncated to the inline buffer) only when tracing is enabled.
  Span(const std::string& name, const char* category);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, std::int64_t value);
  void arg(const char* key, double value);
  void arg(const char* key, const char* value);

  /// Declares the span's floating-point work; on close a "gflop_per_s" arg
  /// is derived from it and the measured duration (the kernel roofline).
  void flops(double total_flops) { flops_ = total_flops; }

  bool active() const { return active_; }

 private:
  void start(const char* name, const char* category, std::uint8_t mask);
  /// The next free arg (key and kind set), or nullptr when inactive or full.
  TraceArg* next_arg(const char* key, TraceArg::Kind kind);

  bool active_ = false;   ///< tracing: record into the ring on destruction
  bool stacked_ = false;  ///< pushed onto the thread's live span stack
  double flops_ = 0.0;
  SpanEvent event_;
};

}  // namespace paintplace::obs
