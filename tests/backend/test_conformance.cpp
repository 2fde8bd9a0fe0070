// Backend conformance suite: the gate every compute backend must pass.
//
// A seeded, deterministic fuzz sweep over ~200 odd shapes (1..7, micro-tile
// +/-1, K-panel and task-tile boundaries +/-1), alpha/beta combinations, and
// every epilogue kind, run for every sgemm variant on every registered
// backend. Three contracts are enforced:
//
//   1. Cross-backend accuracy: each backend's sgemm*_ex agrees with the
//      reference oracle (reference sgemm* + apply_epilogue) to 1e-4 relative
//      tolerance. Different blocking regroups the K reduction, so bit
//      equality is not guaranteed across backends — a bound is.
//   2. Fusion bit-exactness: on the SAME backend, sgemm*_ex(..., epilogue)
//      must be bit-identical to the plain sgemm* followed by an
//      apply_epilogue pass. This is the epilogue contract from backend.h —
//      fused epilogues may not change a single bit.
//   3. Cache bit-exactness: with GemmArgs::cache_weights set, results must
//      be bit-identical to the uncached call — first (packing) call and
//      warm (cached) call alike.
//   4. Column independence: a column of C depends only on its own column of
//      op(B), never on how many columns the call has. cpu_opt sends N <= 4
//      down a separate small-N path (no B packing), so an N = 1..4 call must
//      reproduce, bit for bit, the matching columns of an N = 17 call that
//      runs the packed micro-kernel. Batch-1 and batched forwards only agree
//      exactly because of this.
//
// A future backend (int8/bf16 with an f32 interface, a SIMD rewrite) gets
// all of this for free by registering itself: the suite iterates
// backend_names().
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "backend/pack_cache.h"
#include "common/rng.h"

namespace paintplace::backend {
namespace {

enum class Variant { kSgemm, kSgemmAt, kSgemmBt };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kSgemm: return "sgemm";
    case Variant::kSgemmAt: return "sgemm_at";
    case Variant::kSgemmBt: return "sgemm_bt";
  }
  return "?";
}

struct FuzzCase {
  Index M, N, K;
  float alpha, beta;
  Epilogue::Act act;
  float slope;
  bool bias;
};

/// Deterministic case list: dimensions straddle every tiling boundary of the
/// cpu_opt kernel (MR=6, NR=16, KC=256, 96x512 task tiles) plus the 1..7
/// degenerates; alpha leans on 1.0 and beta on 0.0 (the conv lowering's hot
/// combination) without excluding the rest.
std::vector<FuzzCase> fuzz_cases() {
  const Index dims[] = {1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 63, 64, 65, 95, 96, 97, 255, 256, 257};
  const float alphas[] = {1.0f, 1.0f, 1.0f, -1.5f, 0.5f, 0.0f};
  const float betas[] = {0.0f, 0.0f, 0.0f, 1.0f, -2.0f, 0.5f};
  const Epilogue::Act acts[] = {Epilogue::Act::kNone, Epilogue::Act::kReLU,
                                Epilogue::Act::kLeakyReLU, Epilogue::Act::kTanh};
  Rng rng(20240807);
  auto pick = [&](auto& pool) { return pool[rng.engine()() % std::size(pool)]; };
  std::vector<FuzzCase> cases;
  cases.reserve(200);
  while (cases.size() < 200) {
    FuzzCase c;
    c.M = pick(dims);
    c.N = pick(dims);
    c.K = pick(dims);
    // Keep the sweep fast: at most one task-tile-scale dimension per case.
    if (c.M * c.N * c.K > (Index{1} << 22)) continue;
    c.alpha = pick(alphas);
    c.beta = pick(betas);
    c.act = pick(acts);
    c.slope = c.act == Epilogue::Act::kLeakyReLU ? 0.2f : 0.0f;
    c.bias = (rng.engine()() % 2) == 0;
    cases.push_back(c);
  }
  return cases;
}

std::vector<float> random_vec(Index n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void dispatch(const ComputeBackend& be, Variant v, const FuzzCase& c, const float* A,
              const float* B, float* C, const GemmArgs* args) {
  switch (v) {
    case Variant::kSgemm:
      if (args != nullptr) {
        be.sgemm_ex(c.M, c.N, c.K, c.alpha, A, B, c.beta, C, *args);
      } else {
        be.sgemm(c.M, c.N, c.K, c.alpha, A, B, c.beta, C);
      }
      return;
    case Variant::kSgemmAt:
      if (args != nullptr) {
        be.sgemm_at_ex(c.M, c.N, c.K, c.alpha, A, B, c.beta, C, *args);
      } else {
        be.sgemm_at(c.M, c.N, c.K, c.alpha, A, B, c.beta, C);
      }
      return;
    case Variant::kSgemmBt:
      if (args != nullptr) {
        be.sgemm_bt_ex(c.M, c.N, c.K, c.alpha, A, B, c.beta, C, *args);
      } else {
        be.sgemm_bt(c.M, c.N, c.K, c.alpha, A, B, c.beta, C);
      }
      return;
  }
}

Index a_count(Variant, const FuzzCase& c) { return c.M * c.K; }
Index b_count(Variant, const FuzzCase& c) { return c.K * c.N; }

std::string case_str(const FuzzCase& c, Variant v) {
  std::ostringstream os;
  os << variant_name(v) << " M=" << c.M << " N=" << c.N << " K=" << c.K << " alpha=" << c.alpha
     << " beta=" << c.beta << " act=" << static_cast<int>(c.act) << " bias=" << c.bias;
  return os.str();
}

/// Process-unique versions for the cache keys the sweep fabricates, far above
/// anything nn::next_weight_version hands out during the test binary's
/// lifetime (top bit set).
std::uint64_t test_version() {
  static std::uint64_t v = (1ull << 63);
  return ++v;
}

class ConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void TearDownTestSuite() { PackedWeightCache::instance().clear(); }
};

TEST_P(ConformanceTest, FuzzSweepMatchesOracleAndFusionIsBitExact) {
  const ComputeBackend& be = *find_backend(GetParam());
  const ComputeBackend& oracle = *find_backend("reference");
  Rng rng(1234);
  for (const FuzzCase& c : fuzz_cases()) {
    for (Variant v : {Variant::kSgemm, Variant::kSgemmAt, Variant::kSgemmBt}) {
      SCOPED_TRACE(GetParam() + ": " + case_str(c, v));
      const auto A = random_vec(a_count(v, c), rng);
      const auto B = random_vec(b_count(v, c), rng);
      const auto bias = random_vec(c.M, rng);
      const auto C0 = random_vec(c.M * c.N, rng);

      GemmArgs args;
      args.epilogue.act = c.act;
      args.epilogue.slope = c.slope;
      args.epilogue.bias = c.bias ? bias.data() : nullptr;

      // Contract 1: tolerance-bounded agreement with the reference oracle.
      auto c_oracle = C0;
      dispatch(oracle, v, c, A.data(), B.data(), c_oracle.data(), nullptr);
      apply_epilogue(c.M, c.N, c_oracle.data(), args.epilogue);

      auto c_fused = C0;
      dispatch(be, v, c, A.data(), B.data(), c_fused.data(), &args);
      for (std::size_t i = 0; i < c_fused.size(); ++i) {
        const float tol = 1e-4f * std::max(1.0f, std::fabs(c_oracle[i]));
        ASSERT_NEAR(c_fused[i], c_oracle[i], tol) << "element " << i;
      }

      // Contract 2: fused epilogue == plain kernel + apply_epilogue, on the
      // same backend, to the bit.
      auto c_unfused = C0;
      dispatch(be, v, c, A.data(), B.data(), c_unfused.data(), nullptr);
      apply_epilogue(c.M, c.N, c_unfused.data(), args.epilogue);
      ASSERT_EQ(0, std::memcmp(c_fused.data(), c_unfused.data(),
                               c_fused.size() * sizeof(float)))
          << "fused epilogue changed bits vs two-pass lowering";

      // Contract 3: cached weight packs change nothing — cold (packing)
      // call and warm (cached) call both bit-match the uncached result.
      GemmArgs cached = args;
      cached.cache_weights = true;
      cached.weight_version = test_version();
      auto c_cold = C0;
      dispatch(be, v, c, A.data(), B.data(), c_cold.data(), &cached);
      auto c_warm = C0;
      dispatch(be, v, c, A.data(), B.data(), c_warm.data(), &cached);
      ASSERT_EQ(0, std::memcmp(c_cold.data(), c_fused.data(), c_cold.size() * sizeof(float)))
          << "cold cached call changed bits vs uncached";
      ASSERT_EQ(0, std::memcmp(c_warm.data(), c_fused.data(), c_warm.size() * sizeof(float)))
          << "warm cached call changed bits vs uncached";
    }
  }
}

TEST_P(ConformanceTest, NarrowCallsMatchWideColumnsBitForBit) {
  const ComputeBackend& be = *find_backend(GetParam());
  constexpr Index kWide = 17;
  // M straddles the micro-tile height MR = 6 (and spans several row tiles at
  // 200); K straddles the K panel KC = 256.
  const Index ms[] = {1, 5, 6, 7, 13, 200};
  const Index ks[] = {1, 7, 255, 256, 257};
  // The conv lowering's alpha = 1, beta = 0, then inexact products on both
  // sides of the first panel's alpha*acc + beta*C and of later panels'
  // C + alpha*acc.
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {-1.5f, 0.0f}, {-1.5f, 0.37f}};
  const Epilogue::Act acts[] = {Epilogue::Act::kNone, Epilogue::Act::kReLU,
                                Epilogue::Act::kLeakyReLU, Epilogue::Act::kTanh};
  Rng rng(99);
  for (Variant v : {Variant::kSgemm, Variant::kSgemmAt, Variant::kSgemmBt}) {
    for (Index M : ms) {
      for (Index K : ks) {
        const auto A = random_vec(M * K, rng);
        const auto B_wide = random_vec(K * kWide, rng);
        const auto C0_wide = random_vec(M * kWide, rng);
        const auto bias = random_vec(M, rng);
        for (Index N = 1; N <= 4; ++N) {
          // The first N columns of op(B) and C0, laid out for an N-column call.
          std::vector<float> B;
          if (v == Variant::kSgemmBt) {
            // op(B) = B^T with B stored N x K: the wide B's first N rows.
            B.assign(B_wide.begin(), B_wide.begin() + K * N);
          } else {
            B.resize(static_cast<std::size_t>(K * N));
            for (Index k = 0; k < K; ++k) {
              for (Index j = 0; j < N; ++j) {
                B[static_cast<std::size_t>(k * N + j)] =
                    B_wide[static_cast<std::size_t>(k * kWide + j)];
              }
            }
          }
          std::vector<float> C0(static_cast<std::size_t>(M * N));
          for (Index i = 0; i < M; ++i) {
            for (Index j = 0; j < N; ++j) {
              C0[static_cast<std::size_t>(i * N + j)] =
                  C0_wide[static_cast<std::size_t>(i * kWide + j)];
            }
          }
          for (const auto& [alpha, beta] : scales) {
            for (Epilogue::Act act : acts) {
              for (bool with_bias : {false, true}) {
                const FuzzCase wide{M, kWide, K, alpha, beta, act, 0.2f, with_bias};
                const FuzzCase narrow{M, N, K, alpha, beta, act, 0.2f, with_bias};
                SCOPED_TRACE(GetParam() + ": " + case_str(narrow, v));
                GemmArgs args;
                args.epilogue.act = act;
                args.epilogue.slope = 0.2f;
                args.epilogue.bias = with_bias ? bias.data() : nullptr;

                auto c_wide = C0_wide;
                dispatch(be, v, wide, A.data(), B_wide.data(), c_wide.data(), &args);

                GemmArgs cached = args;
                cached.cache_weights = true;
                cached.weight_version = test_version();
                for (const GemmArgs* call : {&args, &cached, &cached}) {
                  auto c = C0;
                  dispatch(be, v, narrow, A.data(), B.data(), c.data(), call);
                  for (Index i = 0; i < M; ++i) {
                    for (Index j = 0; j < N; ++j) {
                      const float got = c[static_cast<std::size_t>(i * N + j)];
                      const float want = c_wide[static_cast<std::size_t>(i * kWide + j)];
                      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof got))
                          << "C(" << i << "," << j << ") = " << got << ", wide call gave " << want
                          << (call->cache_weights ? " (cached)" : " (uncached)");
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(ConformanceTest, ExtendedCallsHandleDegenerateDims) {
  const ComputeBackend& be = *find_backend(GetParam());
  GemmArgs args;
  args.epilogue.act = Epilogue::Act::kReLU;
  EXPECT_NO_THROW(be.sgemm_ex(0, 0, 0, 1.0f, nullptr, nullptr, 0.0f, nullptr, args));
  // K=0 with an epilogue still applies the epilogue to the scaled C.
  std::vector<float> C = {-1.0f, 2.0f, -3.0f, 4.0f};
  std::vector<float> bias = {1.0f, -10.0f};
  args.epilogue.bias = bias.data();
  be.sgemm_ex(2, 2, 0, 1.0f, nullptr, nullptr, 1.0f, C.data(), args);
  EXPECT_FLOAT_EQ(C[0], 0.0f);  // relu(-1 + 1)
  EXPECT_FLOAT_EQ(C[1], 3.0f);  // relu(2 + 1)
  EXPECT_FLOAT_EQ(C[2], 0.0f);  // relu(-3 - 10)
  EXPECT_FLOAT_EQ(C[3], 0.0f);  // relu(4 - 10)
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ConformanceTest, ::testing::ValuesIn(backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace paintplace::backend
