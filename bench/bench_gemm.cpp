// Per-backend GEMM sweep over the U-Net's real layer shapes.
//
// For every generator-layer GEMM (encoder convs and decoder deconvs, batch 1
// and 4) this times each registered compute backend, reports GFLOP/s, checks
// cpu_opt against reference at 1e-4 relative tolerance on the same operands,
// and prints the aggregate speedup — first single-threaded (the acceptance
// number: cpu_opt >= 3x reference), then on the full pool when the host has
// more than one core.
//
// The GEMV-shaped layers (N <= 4 at batch 1) stream their weights once per
// call and are bound by read bandwidth, not FMAs: for those the sweep also
// prints the warm call's weight GB/s next to a measured single-pass read of
// a buffer the same size, on the same workers.
//
// Model scale defaults to the serving-scale config that e2ebench and
// bench_micro's disabled-span guard run (32x32 inputs, base 32, at most 256
// channels); override with PAINT_GEMM_WIDTH / PAINT_GEMM_BASE (PAINT_FULL=1
// gives the paper's 256x256/base-64 model — minutes, not seconds, on the
// reference backend).
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "backend/pack_cache.h"
#include "bench/bench_json.h"
#include "bench/gemm_shapes.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"

using namespace paintplace;
using bench::GemmShape;

namespace {

std::vector<float> random_vec(Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Largest |a-b| / max(1, |b|) over the two buffers.
float max_rel_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float rel = std::fabs(a[i] - b[i]) / std::max(1.0f, std::fabs(b[i]));
    worst = std::max(worst, rel);
  }
  return worst;
}

/// Read bandwidth (GB/s) of one pass over a `bytes`-sized buffer, split over
/// the pool like a GEMM's rows. Passes repeat back to back, so the buffer is
/// as cache-resident as a warm weight pack of the same size.
double read_gb_s(std::size_t bytes, double min_seconds = 0.05) {
  const std::vector<std::uint64_t> buf(bytes / sizeof(std::uint64_t), 0x9e3779b97f4a7c15ull);
  const Index words = static_cast<Index>(buf.size());
  std::atomic<std::uint64_t> sink{0};
  const auto pass = [&] {
    parallel_for(words, [&](Index b, Index e) {
      // Four independent XOR chains: the loop is load-bound, not latency-bound.
      std::uint64_t x0 = 0, x1 = 0, x2 = 0, x3 = 0;
      Index i = b;
      for (; i + 4 <= e; i += 4) {
        x0 ^= buf[static_cast<std::size_t>(i)];
        x1 ^= buf[static_cast<std::size_t>(i + 1)];
        x2 ^= buf[static_cast<std::size_t>(i + 2)];
        x3 ^= buf[static_cast<std::size_t>(i + 3)];
      }
      for (; i < e; ++i) x0 ^= buf[static_cast<std::size_t>(i)];
      sink.fetch_xor(x0 ^ x1 ^ x2 ^ x3, std::memory_order_relaxed);
    });
  };
  pass();
  Index reps = 0;
  Timer t;
  do {
    pass();
    reps += 1;
  } while (t.seconds() < min_seconds);
  return static_cast<double>(words) * sizeof(std::uint64_t) * static_cast<double>(reps) /
         t.seconds() / 1e9;
}

struct SweepTotals {
  double ref_flops = 0.0, ref_secs = 0.0;
  double opt_flops = 0.0, opt_secs = 0.0;
  double warm_secs = 0.0;
  bool cache_bits_mismatch = false;

  float worst_rel = 0.0f;

  double speedup() const { return (ref_secs / ref_flops) * (opt_flops / opt_secs); }
  /// Steady-state gain of the packed-weight cache over the plain kernel.
  double warm_speedup() const { return opt_secs / warm_secs; }
};

void run_sweep(const core::GeneratorConfig& gen, Index batch, SweepTotals& totals,
               bench::BenchReport* report, int workers) {
  const backend::ComputeBackend* ref = backend::find_backend("reference");
  const backend::ComputeBackend* opt = backend::find_backend("cpu_opt");
  std::printf("batch %lld:\n", static_cast<long long>(batch));
  std::printf("  %-12s %6s %8s %7s   %10s %10s %10s %10s %9s %10s\n", "layer", "M", "N", "K",
              "ref GF/s", "opt GF/s", "cold GF/s", "warm GF/s", "speedup", "rel diff");
  for (const GemmShape& s : bench::unet_gemm_shapes(gen, batch)) {
    // sgemm reads A as MxK; sgemm_at reads A stored KxM — same element count.
    const auto A = random_vec(s.M * s.K, 11 + s.M);
    const auto B = random_vec(s.K * s.N, 23 + s.N);
    std::vector<float> c_ref(static_cast<std::size_t>(s.M * s.N), 0.0f);
    std::vector<float> c_opt(c_ref.size(), 0.0f);
    std::vector<float> c_cold(c_ref.size(), 0.0f);
    std::vector<float> c_warm(c_ref.size(), 0.0f);

    const double ref_gfs = bench::time_gemm(*ref, s, A.data(), B.data(), c_ref.data());
    const double opt_gfs = bench::time_gemm(*opt, s, A.data(), B.data(), c_opt.data());
    // Cold pays the weight-panel pack on every call (first forward after
    // load/swap); warm runs against the populated cache (serving steady
    // state). Both must reproduce the uncached result bit-for-bit.
    const double cold_gfs =
        bench::time_gemm_cached(*opt, s, A.data(), B.data(), c_cold.data(), /*cold=*/true);
    const double warm_gfs =
        bench::time_gemm_cached(*opt, s, A.data(), B.data(), c_warm.data(), /*cold=*/false);
    backend::PackedWeightCache::instance().invalidate(A.data());
    const float rel = max_rel_diff(c_opt, c_ref);
    const std::size_t c_bytes = c_ref.size() * sizeof(float);
    const bool cache_ok = std::memcmp(c_cold.data(), c_opt.data(), c_bytes) == 0 &&
                          std::memcmp(c_warm.data(), c_opt.data(), c_bytes) == 0;

    totals.ref_flops += s.flops();
    totals.ref_secs += s.flops() / (ref_gfs * 1e9);
    totals.opt_flops += s.flops();
    totals.opt_secs += s.flops() / (opt_gfs * 1e9);
    totals.warm_secs += s.flops() / (warm_gfs * 1e9);
    totals.worst_rel = std::max(totals.worst_rel, rel);
    totals.cache_bits_mismatch |= !cache_ok;

    std::printf("  %-12s %6lld %8lld %7lld   %10.2f %10.2f %10.2f %10.2f %8.2fx %10.2e%s%s\n",
                s.label.c_str(), static_cast<long long>(s.M), static_cast<long long>(s.N),
                static_cast<long long>(s.K), ref_gfs, opt_gfs, cold_gfs, warm_gfs,
                opt_gfs / ref_gfs, rel, rel > 1e-4f ? "  MISMATCH" : "",
                cache_ok ? "" : "  CACHE-BITS");
    std::vector<bench::JsonField> fields = {
        bench::jstr("layer", s.label), bench::jint("batch", batch),
        bench::jint("workers", workers), bench::jint("M", s.M),
        bench::jint("N", s.N), bench::jint("K", s.K),
        bench::jnum("ref_gflop_s", ref_gfs), bench::jnum("opt_gflop_s", opt_gfs),
        bench::jnum("opt_cold_gflop_s", cold_gfs), bench::jnum("opt_warm_gflop_s", warm_gfs),
        bench::jnum("speedup", opt_gfs / ref_gfs), bench::jnum("rel_diff", rel)};
    if (s.N <= 4) {
      // Bandwidth-bound: one warm call reads the M*K-float weight pack once.
      const double weight_bytes = 4.0 * static_cast<double>(s.M) * static_cast<double>(s.K);
      const double weight_gbs = weight_bytes * warm_gfs / s.flops();
      const double read_gbs = read_gb_s(static_cast<std::size_t>(weight_bytes));
      std::printf("  %-12s weights %.2f GB/s warm of %.2f GB/s single-pass read (%.0f%%)\n", "",
                  weight_gbs, read_gbs, 100.0 * weight_gbs / read_gbs);
      fields.push_back(bench::jnum("weight_gb_s", weight_gbs));
      fields.push_back(bench::jnum("read_gb_s", read_gbs));
    }
    if (report != nullptr) report->sample(std::move(fields));
  }
}

SweepTotals sweep_over(const core::GeneratorConfig& gen, const char* heading,
                       bench::BenchReport* report, int workers) {
  std::printf("%s\n", heading);
  SweepTotals totals;
  for (Index batch : {Index{1}, Index{4}}) run_sweep(gen, batch, totals, report, workers);
  std::printf(
      "  aggregate: reference %.2f GF/s, cpu_opt %.2f GF/s — %.2fx; warm cache %.2f GF/s "
      "(%.2fx over plain opt); worst rel diff %.2e\n\n",
      totals.ref_flops / totals.ref_secs / 1e9, totals.opt_flops / totals.opt_secs / 1e9,
      totals.speedup(), totals.opt_flops / totals.warm_secs / 1e9, totals.warm_speedup(),
      totals.worst_rel);
  return totals;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);

  core::GeneratorConfig gen;
  gen.in_channels = 4;
  if (const char* v = std::getenv("PAINT_FULL"); v != nullptr && v[0] == '1') {
    gen.image_size = 256;
    gen.base_channels = 64;
    gen.max_channels = 512;
  } else {
    gen.image_size = 32;
    gen.base_channels = 32;
    gen.max_channels = 256;
  }
  gen.image_size = env_or<Index>("PAINT_GEMM_WIDTH", gen.image_size);
  gen.base_channels = env_or<Index>("PAINT_GEMM_BASE", gen.base_channels);
  gen.max_channels = std::max(gen.max_channels, gen.base_channels);

  std::printf("== paintplace::backend GEMM sweep (U-Net layer shapes) ==\n");
  std::printf("model: image %lldx%lld, channels %lld..%lld; hardware workers %d\n\n",
              static_cast<long long>(gen.image_size), static_cast<long long>(gen.image_size),
              static_cast<long long>(gen.base_channels), static_cast<long long>(gen.max_channels),
              parallel_workers());

  bench::BenchReport report("gemm");
  report.meta(bench::jint("image_size", gen.image_size));
  report.meta(bench::jint("base_channels", gen.base_channels));
  report.meta(bench::jint("max_channels", gen.max_channels));
  report.meta(bench::jint("hardware_workers", parallel_workers()));

  const int hw_workers = parallel_workers();
  set_parallel_workers(1);
  const SweepTotals st = sweep_over(
      gen, "-- single-threaded (acceptance: cpu_opt >= 3x reference) --", &report, 1);

  SweepTotals mt = st;
  if (hw_workers > 1) {
    set_parallel_workers(0);  // restore the hardware default
    char heading[64];
    std::snprintf(heading, sizeof(heading), "-- %d workers --", hw_workers);
    mt = sweep_over(gen, heading, &report, hw_workers);
  }
  set_parallel_workers(0);

  // Exit non-zero on a correctness mismatch or a speedup collapse so the CI
  // sweep step actually gates kernel regressions instead of just logging
  // them. The hard perf floor sits below the 3x acceptance number to keep
  // noisy shared runners from flaking; override with PAINT_GEMM_FLOOR.
  const double hard_floor = env_or("PAINT_GEMM_FLOOR", 2.0);
  const float worst_rel = std::max(st.worst_rel, mt.worst_rel);

  report.meta(bench::jnum("single_thread_speedup", st.speedup()));
  report.meta(bench::jnum("threaded_speedup", mt.speedup()));
  report.meta(bench::jnum("warm_cache_speedup", mt.warm_speedup()));
  report.write();

  std::printf("single-thread aggregate speedup: %.2fx (acceptance: 3x, hard floor: %.1fx)%s\n",
              st.speedup(), hard_floor, st.speedup() >= 3.0 ? "" : "  BELOW ACCEPTANCE");
  if (hw_workers > 1) std::printf("threaded aggregate speedup: %.2fx\n", mt.speedup());
  if (worst_rel > 1e-4f) {
    std::printf("FAIL: cpu_opt diverges from reference (worst rel diff %.2e > 1e-4)\n", worst_rel);
    return 1;
  }
  if (st.cache_bits_mismatch || mt.cache_bits_mismatch) {
    std::printf("FAIL: cached weight packs changed result bits vs the uncached kernel\n");
    return 1;
  }
  if (st.speedup() < hard_floor) {
    std::printf("FAIL: single-thread speedup %.2fx below hard floor %.1fx\n", st.speedup(),
                hard_floor);
    return 1;
  }
  return 0;
}
