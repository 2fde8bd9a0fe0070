// paintplace::obs — span-stack sampling profiler.
//
// A statistical profiler that reuses the tracing instrumentation instead of
// signals or frame pointers: while profiling is on, every live Span pushes
// its name onto its thread's live span stack (the same stack the crash
// post-mortem dumps — see thread_slot.h) and pops it at destruction, and a
// sampler thread periodically walks each thread's stack and folds it into
// `root;child;grandchild -> count` aggregates. Because the
// spans are the semantic units of the serving path (frame decode, pool
// dispatch, batch run, per-layer forwards, per-GEMM kernels), the folded
// stacks read like a flame graph of the *request pipeline*, not of libc
// internals — and the whole thing works on any platform the tracer does.
//
// Cost model matches Span tracing: when the profiler is off (the default) a
// Span construction still costs exactly one relaxed atomic load — the same
// load tracing uses, one combined flags word (see obs::detail::g_span_mask
// in trace.h) — and bench_micro's disabled-span guard covers both. When on, a
// push copies the name into the thread's slot and a pop is one store; the
// sampler never locks the stack, it retries a torn snapshot instead.
//
// Export: collapsed() emits standard collapsed-stack text, one
// "a;b;c count" per line — feed it to inferno/flamegraph.pl or paste into
// speedscope.app — and top_k() powers the plain-text table that
// `forecast_serve --profile` prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace paintplace::obs {

class Profiler {
 public:
  static Profiler& instance();

  bool enabled() const;

  /// Starts the background sampler at the given period and turns on the
  /// span push/pop hook. Idempotent while running.
  void start(std::chrono::microseconds period = std::chrono::milliseconds(2));
  /// Turns the hook off and joins the sampler thread. Aggregates survive
  /// until clear() so they can be exported after the run.
  void stop();

  /// One sweep over every thread's live stack (the sampler thread's body;
  /// public so tests and benches can sample deterministically).
  void sample_once();

  void clear();

  /// Folded-stack samples collected (sum over aggregate counts).
  std::uint64_t samples() const;

  /// Collapsed-stack text: "root;child;leaf count\n" per distinct stack.
  std::string collapsed() const;
  bool write_collapsed(const std::string& path) const;

  /// The k hottest folded stacks, by sample count descending.
  std::vector<std::pair<std::string, std::uint64_t>> top_k(std::size_t k) const;

 private:
  Profiler() = default;

  mutable std::mutex agg_mu_;
  std::map<std::string, std::uint64_t> aggregate_;
  std::uint64_t samples_ = 0;

  std::atomic<bool> running_{false};
  std::thread sampler_;
};

}  // namespace paintplace::obs
