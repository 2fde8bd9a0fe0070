#include "nn/gemm.h"

#include "backend/backend.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace paintplace::nn {

// The wrappers own the argument validation so every backend can assume a
// well-formed call; the math itself lives in src/backend/. They are also
// the single choke point every conv/deconv GEMM passes through — for either
// backend — so the kernel-level observability lives here: a span per call
// annotated with M/N/K and the achieved GFLOP/s (the profile doubles as a
// roofline), plus process-wide call/FLOP counters.

namespace {

struct GemmMetrics {
  obs::Counter& calls = obs::MetricsRegistry::global().counter(
      "gemm_calls_total", "GEMM kernel invocations (all variants)");
  obs::Counter& flops = obs::MetricsRegistry::global().counter(
      "gemm_flops_total", "floating-point operations issued to GEMM kernels");
};

GemmMetrics& gemm_metrics() {
  static GemmMetrics m;
  return m;
}

double gemm_flops(Index M, Index N, Index K) {
  return 2.0 * static_cast<double>(M) * static_cast<double>(N) * static_cast<double>(K);
}

void annotate(obs::Span& span, Index M, Index N, Index K) {
  if (!span.active()) return;
  span.arg("M", static_cast<std::int64_t>(M));
  span.arg("N", static_cast<std::int64_t>(N));
  span.arg("K", static_cast<std::int64_t>(K));
  span.arg("backend", backend::active_backend().name());
  span.flops(gemm_flops(M, N, K));
}

void count(Index M, Index N, Index K) {
  GemmMetrics& m = gemm_metrics();
  m.calls.fetch_add(1);
  m.flops.fetch_add(static_cast<std::uint64_t>(gemm_flops(M, N, K)));
}

}  // namespace

void sgemm(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
           float* C) {
  PP_CHECK(M >= 0 && N >= 0 && K >= 0);
  obs::Span span("gemm.sgemm", "gemm");
  annotate(span, M, N, K);
  count(M, N, K);
  backend::active_backend().sgemm(M, N, K, alpha, A, B, beta, C);
}

void sgemm_at(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
              float* C) {
  PP_CHECK(M >= 0 && N >= 0 && K >= 0);
  obs::Span span("gemm.sgemm_at", "gemm");
  annotate(span, M, N, K);
  count(M, N, K);
  backend::active_backend().sgemm_at(M, N, K, alpha, A, B, beta, C);
}

void sgemm_bt(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
              float* C) {
  PP_CHECK(M >= 0 && N >= 0 && K >= 0);
  obs::Span span("gemm.sgemm_bt", "gemm");
  annotate(span, M, N, K);
  count(M, N, K);
  backend::active_backend().sgemm_bt(M, N, K, alpha, A, B, beta, C);
}

// The _ex wrappers keep the plain span names: a fused call is the same
// logical GEMM to the trace consumers (CI asserts on gemm.* spans with
// M/N/K/backend args), it just does more per byte of C traffic.

void sgemm_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
              float* C, const backend::GemmArgs& args) {
  PP_CHECK(M >= 0 && N >= 0 && K >= 0);
  obs::Span span("gemm.sgemm", "gemm");
  annotate(span, M, N, K);
  count(M, N, K);
  backend::active_backend().sgemm_ex(M, N, K, alpha, A, B, beta, C, args);
}

void sgemm_at_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                 float beta, float* C, const backend::GemmArgs& args) {
  PP_CHECK(M >= 0 && N >= 0 && K >= 0);
  obs::Span span("gemm.sgemm_at", "gemm");
  annotate(span, M, N, K);
  count(M, N, K);
  backend::active_backend().sgemm_at_ex(M, N, K, alpha, A, B, beta, C, args);
}

}  // namespace paintplace::nn
