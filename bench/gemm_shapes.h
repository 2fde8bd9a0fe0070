// The GEMM shapes a U-Net forward pass actually runs, derived from a
// GeneratorConfig exactly the way the layers lower themselves:
//
//   * Conv2d (encoder):           sgemm   M=Cout, N=batch*Ho*Wo, K=Cin*k*k
//   * ConvTranspose2d (decoder):  sgemm_at M=Cout*k*k, N=batch*H*W, K=Cin
//
// bench_gemm's per-backend sweep times each of them.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "backend/pack_cache.h"
#include "common/timer.h"
#include "core/unet.h"

namespace paintplace::bench {

struct GemmShape {
  std::string label;  ///< e.g. "enc3 conv" / "dec2 deconv"
  enum class Kind { kGemm, kGemmAT } kind = Kind::kGemm;
  Index M = 0, N = 0, K = 0;

  double flops() const { return 2.0 * static_cast<double>(M) * static_cast<double>(N) * K; }
};

/// Every generator-layer GEMM of one forward pass at the given batch size,
/// encoder first, in execution order.
inline std::vector<GemmShape> unet_gemm_shapes(const core::GeneratorConfig& g, Index batch) {
  g.validate();
  const Index d = g.depth();
  const Index kk = 4 * 4;  // the U-Net's fixed 4x4 kernels
  std::vector<GemmShape> shapes;
  for (Index i = 0; i < d; ++i) {
    const Index cin = i == 0 ? g.in_channels : g.channels_at(i - 1);
    const Index cout = g.channels_at(i);
    const Index out_sp = g.image_size >> (i + 1);
    shapes.push_back({"enc" + std::to_string(i) + " conv", GemmShape::Kind::kGemm, cout,
                      batch * out_sp * out_sp, cin * kk});
  }
  for (Index i = d - 1; i >= 0; --i) {
    // Mirrors UNetGenerator's decoder wiring with the paper's all-skip mode.
    const Index cin = i == d - 1 ? g.channels_at(d - 1) : g.channels_at(i) * 2;
    const Index cout = i == 0 ? g.out_channels : g.channels_at(i - 1);
    const Index in_sp = g.image_size >> (i + 1);
    shapes.push_back({"dec" + std::to_string(i) + " deconv", GemmShape::Kind::kGemmAT, cout * kk,
                      batch * in_sp * in_sp, cin});
  }
  return shapes;
}

/// One timed run of `shape` on `be`: repeats until ~min_seconds of wall time
/// and returns GFLOP/s. Operands are caller-provided so backends time the
/// same bits.
inline double time_gemm(const backend::ComputeBackend& be, const GemmShape& shape, const float* A,
                        const float* B, float* C, double min_seconds = 0.15) {
  Index reps = 0;
  Timer t;
  do {
    if (shape.kind == GemmShape::Kind::kGemm) {
      be.sgemm(shape.M, shape.N, shape.K, 1.0f, A, B, 0.0f, C);
    } else {
      be.sgemm_at(shape.M, shape.N, shape.K, 1.0f, A, B, 0.0f, C);
    }
    reps += 1;
  } while (t.seconds() < min_seconds);
  return shape.flops() * static_cast<double>(reps) / t.seconds() / 1e9;
}

/// Times the extended call with GemmArgs::cache_weights set, the path a
/// serving forward takes. `cold` invalidates and re-keys before every rep so
/// each call pays the panel pack (a model's first forward after load /
/// hot-swap / fine-tune); warm primes the cache once and then times pure
/// hits (the steady state). Versions are fabricated locally — the bench
/// fakes the nn layer's weight identity.
inline double time_gemm_cached(const backend::ComputeBackend& be, const GemmShape& shape,
                               const float* A, const float* B, float* C, bool cold,
                               double min_seconds = 0.15) {
  static std::uint64_t version = std::uint64_t{1} << 62;
  backend::GemmArgs args;
  args.cache_weights = true;
  args.weight_version = ++version;
  const auto call = [&] {
    if (shape.kind == GemmShape::Kind::kGemm) {
      be.sgemm_ex(shape.M, shape.N, shape.K, 1.0f, A, B, 0.0f, C, args);
    } else {
      be.sgemm_at_ex(shape.M, shape.N, shape.K, 1.0f, A, B, 0.0f, C, args);
    }
  };
  if (!cold) call();  // prime: every timed rep below is a cache hit
  Index reps = 0;
  Timer t;
  do {
    if (cold) {
      backend::PackedWeightCache::instance().invalidate(A);
      args.weight_version = ++version;
    }
    call();
    reps += 1;
  } while (t.seconds() < min_seconds);
  return shape.flops() * static_cast<double>(reps) / t.seconds() / 1e9;
}

}  // namespace paintplace::bench
