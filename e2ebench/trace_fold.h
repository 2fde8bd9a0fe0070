// Per-layer time from the program's own spans: the traced run enables
// obs::Tracer, and every chunk of the run is dumped (Tracer::dump_json),
// folded into per-span-name totals and self time, and cleared before any
// per-thread ring can wrap.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness.h"

namespace e2e {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double child_us = 0.0;  ///< covered by direct child spans on the same thread
  double samples = 0.0;   ///< sum of the "batch" arg (1 when absent)
  double self_us() const { return total_us - child_us; }
};

struct GemmTotals {
  std::uint64_t count = 0;
  double us = 0.0;
  double flops = 0.0;
  /// Bytes of the A operand of sgemm/sgemm_at calls, which is the layer
  /// weight in every forward and data-gradient GEMM — computed from M and K,
  /// not measured.
  double weight_bytes = 0.0;
};

class TraceFold {
 public:
  /// Folds one Chrome-trace document as written by obs::Tracer::dump_json.
  void add(const std::string& json);

  /// Totals of span `name` (all zero when it never ran).
  SpanTotals span(const std::string& name) const;
  /// Totals over gemm.<variant> spans, or over every GEMM when empty.
  GemmTotals gemm(const std::string& variant = "") const;

 private:
  std::map<std::string, SpanTotals> spans_;
  std::map<std::string, GemmTotals> gemms_;
};

/// Traced stretch of a run. start() clears the rings and enables tracing;
/// flush() folds and clears what was recorded so far — call it where no span
/// is open, at op boundaries. The first chunk is also written as a Chrome
/// trace to `chrome_path`.
class TraceSession {
 public:
  explicit TraceSession(std::string chrome_path) : chrome_path_(std::move(chrome_path)) {}
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void start();
  void flush();
  /// Final flush, then tracing off.
  void stop();

  const TraceFold& fold() const { return fold_; }
  /// Events lost to ring wraparound over the whole session (must be 0).
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::string chrome_path_;
  bool written_ = false;
  bool running_ = false;
  TraceFold fold_;
  std::uint64_t dropped_ = 0;
};

/// Waits out the few microseconds a server thread may still need to close
/// its spans after the caller got its answer, so a flush sees whole chunks.
void settle_spans();

/// The per-layer metrics every workload reports from its traced stretch of
/// `traced_ops` ops. The workload, which knows what its op waits on, works
/// out the other two: obs.trace_overhead_frac, how much slower the traced
/// stretch ran than the untraced one before it, and trace.residual_frac, the
/// share of op time no layer span accounts for.
void report_layers(Report& rep, const TraceSession& trace, const PackWindow& pack,
                   std::size_t traced_ops, double overhead_frac, double residual_frac);

}  // namespace e2e
