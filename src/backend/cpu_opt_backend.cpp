// "cpu_opt" backend: BLIS-style packed, register-blocked GEMM with pack-once
// weight caching and fused epilogues.
//
// All three variants run through one blocked GEMM parameterised on the
// pack routine for op(A) and a strided view of op(B) (OpB) — each operand
// layout gets a specialised packer with contiguous reads (the old generic
// accessor lambdas gathered sgemm_bt's B with stride-K loads), and the hot
// macro/micro-kernel is shared.
//
// Tiling (all compile-time constants):
//   * The C plane is cut into kRowTile x kColTile task tiles; tasks are
//     independent and fan out over common/parallel. Each C element belongs
//     to exactly one task and its K loop runs in one fixed order, so results
//     are bit-identical for every thread count.
//   * Inside a task, K is blocked by kKC. Per K panel the task packs its
//     A block into MR-row strips (k-major) and its B block into NR-column
//     strips, zero-padded to full strips, into the thread's Workspace —
//     steady state does no heap allocation.
//   * The micro-kernel accumulates an MR x NR tile of C in registers over
//     the whole K panel: MR*NR independent FMA chains that vectorise across
//     the NR lanes. Lane position never feeds back into the arithmetic, so
//     a column's values do not depend on where in the matrix it sits — this
//     is what keeps batched conv lowering bit-exact vs per-sample (a sample's
//     columns land at different offsets in the wide batched GEMM).
//
// Pack-once weight caching (sgemm*_ex with GemmArgs::cache_weights): the
// whole of op(A) is packed once into a panel-major strip image — panel k0
// starts at total_strips*MR*k0, strip s within it at s*MR*kc — and stored in
// the process-wide PackedWeightCache keyed on (pointer, version, variant,
// M, K). Row tiles start at multiples of kRowTile (a multiple of MR), so a
// tile just indexes strips from i0/MR; the cached bytes are exactly what
// per-tile packing would produce, which keeps cached and uncached runs
// bit-identical. Packing then disappears from the steady-state forward pass
// entirely (the big win at N == one sample's columns, where pack time was a
// fixed tax per call).
//
// Fused epilogue (GemmArgs::epilogue): bias-add + activation are applied in
// the C-writeback of the *last* K panel, per element, in exactly the order
// apply_epilogue defines — so sgemm_ex(..., ep) is bit-identical to
// sgemm(...) followed by apply_epilogue(...), and the activation never costs
// a second pass over C.
//
// Small-N path (N <= kSmallN = 4): the batch-1 bottleneck layers are GEMVs
// bound by streaming their weights, and the micro-kernel would pad their N
// columns out to NR = 16. They instead run the same A strips (cached image
// or per-tile pack) against op(B) read in place — no B pack — with one
// vector per (strip, column) holding the strip's MR rows, accumulated from
// 0.0 over each K panel in ascending k exactly like the micro-kernel, and
// written through the same write_back. A column's bits therefore never
// depend on N or on which path ran (the conformance suite checks N = 1..4
// against an N = 17 call). Its row tiles shrink so that every pool worker
// gets one; tiling never changes a C element's arithmetic.
//
// Build note: CMake compiles this file with -march=native when available
// (PAINTPLACE_NATIVE_KERNEL, default ON) so the micro-kernel vectorises to
// the widest FMA the build host has; everything here is plain C++ and also
// compiles (slower) without it.
#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>

#include "backend/backend.h"
#include "backend/pack_cache.h"
#include "backend/workspace.h"
#include "common/parallel.h"

namespace paintplace::backend {
namespace {

constexpr Index MR = 6;   ///< micro-kernel rows (accumulator rows)
constexpr Index NR = 16;  ///< micro-kernel columns (one or two SIMD vectors)
constexpr Index kKC = 256;       ///< K panel — packed strips stay L1/L2 resident
constexpr Index kRowTile = 96;   ///< task tile rows (multiple of MR)
constexpr Index kColTile = 512;  ///< task tile columns (multiple of NR)
constexpr Index kSmallN = 4;     ///< N at or below this takes the small-N path

static_assert(kRowTile % MR == 0 && kColTile % NR == 0);
static_assert(kSmallN < NR);

// PackedWeightCache key variants owned by this backend (backend id 0).
enum : int { kVariantANormal = 0, kVariantATrans = 1 };

// ---- operand packers --------------------------------------------------------
// All A packers produce the same layout: MR-row strips, k-major within a
// strip (d[k*MR + r]), rows zero-padded to a full strip. Likewise B packers:
// NR-column strips, k-major (d[k*NR + c]), columns zero-padded. Only the
// gather order differs, chosen per storage layout for contiguous reads.

/// op(A) rows [0,mt) x [0,kc) where A is row-major with row stride `lda`
/// (sgemm / sgemm_bt): row r is contiguous in k.
void pack_a_rows(const float* __restrict A, Index lda, Index mt, Index kc,
                 float* __restrict dst) {
  const Index strips = (mt + MR - 1) / MR;
  for (Index s = 0; s < strips; ++s) {
    const Index i0 = s * MR;
    const Index rows = std::min(MR, mt - i0);
    float* __restrict d = dst + s * MR * kc;
    for (Index r = 0; r < rows; ++r) {
      const float* __restrict src = A + (i0 + r) * lda;
      for (Index k = 0; k < kc; ++k) d[k * MR + r] = src[k];
    }
    for (Index r = rows; r < MR; ++r) {
      for (Index k = 0; k < kc; ++k) d[k * MR + r] = 0.0f;
    }
  }
}

/// op(A) = A^T where A is stored (K x M) row-major with row stride `lda`
/// (sgemm_at): row k of A is contiguous in i, so gather k-outer.
void pack_a_trans(const float* __restrict A, Index lda, Index mt, Index kc,
                  float* __restrict dst) {
  const Index strips = (mt + MR - 1) / MR;
  for (Index s = 0; s < strips; ++s) {
    const Index i0 = s * MR;
    const Index rows = std::min(MR, mt - i0);
    float* __restrict d = dst + s * MR * kc;
    if (rows == MR) {
      for (Index k = 0; k < kc; ++k) {
        const float* __restrict src = A + k * lda + i0;
        for (Index r = 0; r < MR; ++r) d[k * MR + r] = src[r];
      }
    } else {
      for (Index k = 0; k < kc; ++k) {
        const float* __restrict src = A + k * lda + i0;
        for (Index r = 0; r < rows; ++r) d[k * MR + r] = src[r];
        for (Index r = rows; r < MR; ++r) d[k * MR + r] = 0.0f;
      }
    }
  }
}

/// op(B) rows [0,kc) x columns [0,nt) where B is row-major with row stride
/// `ldb` (sgemm / sgemm_at): row k is contiguous in j — reads and writes
/// both stream.
void pack_b_rows(const float* __restrict B, Index ldb, Index nt, Index kc,
                 float* __restrict dst) {
  const Index strips = (nt + NR - 1) / NR;
  for (Index s = 0; s < strips; ++s) {
    const Index j0 = s * NR;
    const Index cols = std::min(NR, nt - j0);
    float* __restrict d = dst + s * NR * kc;
    if (cols == NR) {
      for (Index k = 0; k < kc; ++k) {
        std::memcpy(d + k * NR, B + k * ldb + j0, sizeof(float) * NR);
      }
    } else {
      for (Index k = 0; k < kc; ++k) {
        const float* __restrict src = B + k * ldb + j0;
        for (Index c = 0; c < cols; ++c) d[k * NR + c] = src[c];
        for (Index c = cols; c < NR; ++c) d[k * NR + c] = 0.0f;
      }
    }
  }
}

/// op(B) = B^T where B is stored (N x K) row-major with row stride `ldb`
/// (sgemm_bt): column j of op(B) is row j of B, contiguous in k — gather
/// c-outer so every read streams (the generic accessor used to load with
/// stride K here, the backward pass's sore spot).
void pack_b_trans(const float* __restrict B, Index ldb, Index nt, Index kc,
                  float* __restrict dst) {
  const Index strips = (nt + NR - 1) / NR;
  for (Index s = 0; s < strips; ++s) {
    const Index j0 = s * NR;
    const Index cols = std::min(NR, nt - j0);
    float* __restrict d = dst + s * NR * kc;
    for (Index c = 0; c < cols; ++c) {
      const float* __restrict src = B + (j0 + c) * ldb;
      for (Index k = 0; k < kc; ++k) d[k * NR + c] = src[k];
    }
    for (Index c = cols; c < NR; ++c) {
      for (Index k = 0; k < kc; ++k) d[k * NR + c] = 0.0f;
    }
  }
}

/// op(B) read in place: element (k, j) sits at data[k * ldk + j * ldj]. Row-major
/// B (sgemm / sgemm_at) has ldj == 1; sgemm_bt's transposed B has ldk == 1.
struct OpB {
  const float* data = nullptr;
  Index ldk = 0, ldj = 0;
};

/// Packs op(B) rows [k0,k0+kc) x columns [j0,j0+nt) with the packer that
/// reads its storage layout contiguously. (When ldk == ldj == 1 the matrix is
/// a single row or column and both packers read the same elements.)
void pack_b(const OpB& b, Index j0, Index nt, Index k0, Index kc, float* __restrict dst) {
  if (b.ldj == 1) {
    pack_b_rows(b.data + k0 * b.ldk + j0, b.ldk, nt, kc, dst);
  } else {
    pack_b_trans(b.data + j0 * b.ldj + k0, b.ldj, nt, kc, dst);
  }
}

/// Packs ALL of op(A) (M x K) into the panel-major strip image the cached
/// path reads: panel k0 at strips*MR*k0, strip s within it at s*MR*kc.
/// `pack_tile(i0, mt, k0, kc, dst)` is the same per-tile packer the uncached
/// path uses, so the bytes are identical to per-tile packing.
template <class PackTileA>
void pack_a_full(Index M, Index K, PackTileA pack_tile, float* dst) {
  const Index strips = (M + MR - 1) / MR;
  parallel_for_each(strips, [&](Index s) {
    const Index i0 = s * MR;
    const Index mt = std::min(MR, M - i0);
    for (Index k0 = 0; k0 < K; k0 += kKC) {
      const Index kc = std::min(kKC, K - k0);
      pack_tile(i0, mt, k0, kc, dst + strips * MR * k0 + s * MR * kc);
    }
  });
}

/// acc(MR x NR) = sum_k a_strip(:,k) * b_strip(k,:).
#if defined(__GNUC__) || defined(__clang__)
// The accumulators are spelled as explicit vector-extension registers: a
// plain scalar loop here gets outer-loop-vectorised by GCC with every
// accumulator spilled to the stack, which is ~40x slower than keeping the
// 12 row-vectors live across the K loop. vector_size(32) lowers to two SSE
// ops per update when AVX is off, so the file stays portable; -Wpsabi only
// warns about the ABI of a function that is always inlined away.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
typedef float vf __attribute__((vector_size(32), aligned(4)));

inline vf load8(const float* p) {
  vf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void micro_kernel(Index kc, const float* __restrict a, const float* __restrict b,
                         float* __restrict acc) {
  static_assert(MR == 6 && NR == 16, "micro_kernel is unrolled for 6x16 tiles");
  vf c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
  for (Index k = 0; k < kc; ++k) {
    const float* __restrict ak = a + k * MR;
    const vf b0 = load8(b + k * NR);
    const vf b1 = load8(b + k * NR + 8);
    c00 += ak[0] * b0; c01 += ak[0] * b1;
    c10 += ak[1] * b0; c11 += ak[1] * b1;
    c20 += ak[2] * b0; c21 += ak[2] * b1;
    c30 += ak[3] * b0; c31 += ak[3] * b1;
    c40 += ak[4] * b0; c41 += ak[4] * b1;
    c50 += ak[5] * b0; c51 += ak[5] * b1;
  }
  const vf rows[MR][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}, {c40, c41}, {c50, c51}};
  for (Index r = 0; r < MR; ++r) {
    __builtin_memcpy(acc + r * NR, &rows[r][0], sizeof(vf));
    __builtin_memcpy(acc + r * NR + 8, &rows[r][1], sizeof(vf));
  }
}

/// Small-N kernel: S consecutive MR-row strips (`a`, strip stride MR*kc)
/// against the NC columns of op(B) read in place (element (k,c) at
/// b[k*ldk + c*ldj]). One vector per (strip, column) holds rows 0..MR-1 in
/// lanes 0..MR-1 and runs the micro-kernel's exact chain: from 0.0, one
/// `+= a*b` per k, k ascending. Strip s's accumulators land in
/// acc + s*MR*NR in micro-kernel layout, ready for write_back.
///
/// The 8-lane load at k*MR also picks up the first two rows of k+1 in lanes
/// 6..7 (computed, never stored); the last k loads only MR floats, so no read
/// leaves the strip.
template <int NC, int S>
inline void small_n_kernel(Index kc, const float* __restrict a, const float* __restrict b,
                           Index ldk, Index ldj, float* __restrict acc) {
  static_assert(4 <= MR && MR <= 8, "one vf holds a strip's rows; load8 overreads < MR floats");
  vf c[S][NC] = {};
  auto step = [&](Index k, auto load_strip) {
    float bk[NC];
#pragma GCC unroll 4
    for (int j = 0; j < NC; ++j) bk[j] = b[k * ldk + j * ldj];
#pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
      const vf av = load_strip(a + s * MR * kc + k * MR);
#pragma GCC unroll 4
      for (int j = 0; j < NC; ++j) c[s][j] += av * bk[j];
    }
  };
  for (Index k = 0; k + 1 < kc; ++k) step(k, [](const float* p) { return load8(p); });
  step(kc - 1, [](const float* p) {
    vf v{};
    __builtin_memcpy(&v, p, sizeof(float) * MR);
    return v;
  });
  for (int s = 0; s < S; ++s) {
    for (int j = 0; j < NC; ++j) {
      float lanes[8];
      __builtin_memcpy(lanes, &c[s][j], sizeof lanes);
      for (Index r = 0; r < MR; ++r) acc[s * MR * NR + r * NR + j] = lanes[r];
    }
  }
}
#pragma GCC diagnostic pop
#else
inline void micro_kernel(Index kc, const float* __restrict a, const float* __restrict b,
                         float* __restrict acc) {
  for (Index i = 0; i < MR * NR; ++i) acc[i] = 0.0f;
  for (Index k = 0; k < kc; ++k) {
    const float* __restrict ak = a + k * MR;
    const float* __restrict bk = b + k * NR;
    for (Index r = 0; r < MR; ++r) {
      const float av = ak[r];
      for (Index c = 0; c < NR; ++c) acc[r * NR + c] += av * bk[c];
    }
  }
}

template <int NC, int S>
inline void small_n_kernel(Index kc, const float* __restrict a, const float* __restrict b,
                           Index ldk, Index ldj, float* __restrict acc) {
  for (int s = 0; s < S; ++s) {
    float* __restrict as = acc + s * MR * NR;
    for (Index r = 0; r < MR; ++r) {
      for (int j = 0; j < NC; ++j) as[r * NR + j] = 0.0f;
    }
    for (Index k = 0; k < kc; ++k) {
      const float* __restrict ak = a + s * MR * kc + k * MR;
      for (Index r = 0; r < MR; ++r) {
        for (int j = 0; j < NC; ++j) as[r * NR + j] += ak[r] * b[k * ldk + j * ldj];
      }
    }
  }
}
#endif

/// C := beta * C (beta == 0 overwrites, so garbage/NaN inputs are erased).
void scale_c(Index M, Index N, float beta, float* C) {
  if (beta == 1.0f) return;
  parallel_for(M, [&](Index ib, Index ie) {
    for (Index i = ib; i < ie; ++i) {
      float* c = C + i * N;
      if (beta == 0.0f) {
        std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(N));
      } else {
        for (Index j = 0; j < N; ++j) c[j] *= beta;
      }
    }
  });
}

/// Forces a value to float storage precision: inhibits the compiler from
/// contracting the multiply that produced it into an FMA with a following
/// add (-ffp-contract=fast fuses across statements). The fused epilogue
/// needs this where the bias add directly follows the alpha scale: the
/// unfused lowering stores that product to C (rounding it) before the
/// epilogue pass reads it back, and the fused path must match those bits.
inline float force_rounded(float v) {
#if defined(__x86_64__) || defined(__i386__)
  __asm__("" : "+x"(v));
#elif defined(__aarch64__)
  __asm__("" : "+w"(v));
#elif defined(__GNUC__) || defined(__clang__)
  __asm__("" : "+m"(v));
#endif
  return v;
}

/// a*b + c with the multiply fused exactly when the hardware has an FMA.
/// Left to -ffp-contract=fast, `alpha*x + beta*c` may fuse either product,
/// and `c + alpha*x` may or may not fuse, depending on the code write_back
/// is inlined into; spelling the FMA out keeps the blocked and small-N paths
/// (and the fused and unfused epilogues) on the same bits in every context.
inline float madd(float a, float b, float c) {
#ifdef __FP_FAST_FMAF
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

/// Writes one micro-tile strip of accumulators into C. `ep` is non-null only
/// on the last K panel: the per-element operation order (accumulate, += bias,
/// activation) matches apply_epilogue exactly, which is what keeps fused
/// results bit-identical to the unfused two-pass lowering.
inline void write_back(Index rows, Index cols, Index i, Index j, Index N, float alpha, float beta,
                       bool first_panel, const float* __restrict acc, float* __restrict C,
                       const Epilogue* ep) {
  for (Index r = 0; r < rows; ++r) {
    float* __restrict c = C + (i + r) * N + j;
    const float* __restrict av = acc + r * NR;
    if (ep == nullptr) {
      if (first_panel) {
        if (beta == 0.0f) {
          for (Index cc = 0; cc < cols; ++cc) c[cc] = alpha * av[cc];
        } else {
          for (Index cc = 0; cc < cols; ++cc) c[cc] = madd(alpha, av[cc], beta * c[cc]);
        }
      } else {
        for (Index cc = 0; cc < cols; ++cc) c[cc] = madd(alpha, av[cc], c[cc]);
      }
    } else {
      const bool has_bias = ep->bias != nullptr;
      const float b = has_bias ? ep->bias[i + r] : 0.0f;
      const Epilogue::Act act = ep->act;
      const float slope = ep->slope;
      for (Index cc = 0; cc < cols; ++cc) {
        float t;
        if (first_panel && beta == 0.0f) {
          t = alpha * av[cc];
          // A bare product followed by the bias add is the one spot the
          // compiler could fuse into an FMA; everywhere else the accumulate
          // already ends in an addition.
          if (has_bias) t = force_rounded(t);
        } else if (first_panel) {
          t = madd(alpha, av[cc], beta * c[cc]);
        } else {
          t = madd(alpha, av[cc], c[cc]);
        }
        if (has_bias) t += b;
        c[cc] = apply_act(t, act, slope);
      }
    }
  }
}

/// A full-matrix cached pack of op(A), in the pack_a_full layout.
struct CachedA {
  const float* data = nullptr;
  Index strips = 0;  ///< total M strips == (M + MR - 1) / MR
};

/// The A strips a task reads for panel [k0, k0+kc): its strips of the cached
/// image, or else its own per-tile pack into `apack`. Tiles start at strip
/// boundaries, so a tile's strips sit at global strip indices i0/MR.. in the
/// panel-major cached image.
template <class PackA>
const float* a_panel(const CachedA* cached, PackA& pack_a_tile, Index i0, Index mt, Index k0,
                     Index kc, float* apack) {
  if (cached != nullptr) return cached->data + cached->strips * MR * k0 + (i0 / MR) * MR * kc;
  pack_a_tile(i0, mt, k0, kc, apack);
  return apack;
}

/// N <= kSmallN: no B pack — op(B) is read in place — and no NR-wide padding
/// of the N columns. Rows are cut into strip-aligned tiles small enough that
/// every pool worker gets one; each C element still sees exactly the blocked
/// path's arithmetic (same strips, same per-panel chain, same write_back).
template <int NC, class PackA>
void small_n_gemm(Index M, Index K, float alpha, float beta, float* __restrict C,
                  PackA pack_a_tile, const OpB& b, const Epilogue* ep, const CachedA* cached) {
  // About eight independent FMA chains in flight per k step.
  constexpr int S = NC == 1 ? 8 : NC == 2 ? 4 : 2;
  const Index strips = (M + MR - 1) / MR;
  const Index workers = parallel_workers();
  const Index tile_strips = std::min(kRowTile / MR, (strips + workers - 1) / workers);
  const Index tiles = (strips + tile_strips - 1) / tile_strips;
  parallel_for_each(tiles, [&](Index tile) {
    const Index s0 = tile * tile_strips;
    const Index ns = std::min(tile_strips, strips - s0);
    const Index i0 = s0 * MR;
    const Index mt = std::min(ns * MR, M - i0);

    WorkspaceScope ws;
    float* apack = cached == nullptr ? ws.alloc(static_cast<std::size_t>(ns * MR * kKC)) : nullptr;
    alignas(64) float acc[S * MR * NR];

    for (Index k0 = 0; k0 < K; k0 += kKC) {
      const Index kc = std::min(kKC, K - k0);
      const bool first_panel = (k0 == 0);
      const Epilogue* panel_ep = (k0 + kc == K) ? ep : nullptr;
      const float* atile = a_panel(cached, pack_a_tile, i0, mt, k0, kc, apack);
      const float* bk = b.data + k0 * b.ldk;
      auto run_strips = [&](Index s, auto group) {
        constexpr int G = decltype(group)::value;
        small_n_kernel<NC, G>(kc, atile + s * MR * kc, bk, b.ldk, b.ldj, acc);
        for (int g = 0; g < G; ++g) {
          const Index i = i0 + (s + g) * MR;
          write_back(std::min(MR, M - i), NC, i, 0, NC, alpha, beta, first_panel,
                     acc + g * MR * NR, C, panel_ep);
        }
      };
      Index s = 0;
      for (; s + S <= ns; s += S) run_strips(s, std::integral_constant<int, S>{});
      for (; s < ns; ++s) run_strips(s, std::integral_constant<int, 1>{});
    }
  });
}

template <class PackA>
void blocked_gemm(Index M, Index N, Index K, float alpha, float beta, float* __restrict C,
                  PackA pack_a_tile, const OpB& b, const Epilogue* ep, const CachedA* cached) {
  if (M == 0 || N == 0) return;
  if (K == 0 || alpha == 0.0f) {
    scale_c(M, N, beta, C);
    if (ep != nullptr) apply_epilogue(M, N, C, *ep);
    return;
  }
  static_assert(kSmallN == 4, "the switch below covers N = 1..kSmallN");
  switch (N) {
    case 1: return small_n_gemm<1>(M, K, alpha, beta, C, pack_a_tile, b, ep, cached);
    case 2: return small_n_gemm<2>(M, K, alpha, beta, C, pack_a_tile, b, ep, cached);
    case 3: return small_n_gemm<3>(M, K, alpha, beta, C, pack_a_tile, b, ep, cached);
    case 4: return small_n_gemm<4>(M, K, alpha, beta, C, pack_a_tile, b, ep, cached);
    default: break;
  }
  const Index row_tiles = (M + kRowTile - 1) / kRowTile;
  const Index col_tiles = (N + kColTile - 1) / kColTile;
  parallel_for_each(row_tiles * col_tiles, [&](Index tile) {
    const Index i0 = (tile / col_tiles) * kRowTile;
    const Index mt = std::min(kRowTile, M - i0);
    const Index j0 = (tile % col_tiles) * kColTile;
    const Index nt = std::min(kColTile, N - j0);
    const Index m_strips = (mt + MR - 1) / MR;
    const Index n_strips = (nt + NR - 1) / NR;

    WorkspaceScope ws;
    float* apack =
        cached == nullptr ? ws.alloc(static_cast<std::size_t>(m_strips * MR * kKC)) : nullptr;
    float* bpack = ws.alloc(static_cast<std::size_t>(n_strips * NR * kKC));
    alignas(64) float acc[MR * NR];

    for (Index k0 = 0; k0 < K; k0 += kKC) {
      const Index kc = std::min(kKC, K - k0);
      const bool first_panel = (k0 == 0);
      const Epilogue* panel_ep = (k0 + kc == K) ? ep : nullptr;
      const float* atile = a_panel(cached, pack_a_tile, i0, mt, k0, kc, apack);
      pack_b(b, j0, nt, k0, kc, bpack);
      for (Index sn = 0; sn < n_strips; ++sn) {
        const Index j = j0 + sn * NR;
        const Index cols = std::min(NR, j0 + nt - j);
        for (Index sm = 0; sm < m_strips; ++sm) {
          const Index i = i0 + sm * MR;
          const Index rows = std::min(MR, i0 + mt - i);
          micro_kernel(kc, atile + sm * MR * kc, bpack + sn * NR * kc, acc);
          write_back(rows, cols, i, j, N, alpha, beta, first_panel, acc, C, panel_ep);
        }
      }
    }
  });
}

class CpuOptBackend final : public ComputeBackend {
 public:
  const char* name() const override { return "cpu_opt"; }

  void sgemm(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
             float* C) const override {
    run(M, N, K, alpha, A, B, beta, C, nullptr);
  }

  void sgemm_at(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
                float* C) const override {
    run_at(M, N, K, alpha, A, B, beta, C, nullptr);
  }

  void sgemm_bt(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
                float* C) const override {
    run_bt(M, N, K, alpha, A, B, beta, C, nullptr);
  }

  void sgemm_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
                float* C, const GemmArgs& args) const override {
    run(M, N, K, alpha, A, B, beta, C, &args);
  }

  void sgemm_at_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                   float beta, float* C, const GemmArgs& args) const override {
    run_at(M, N, K, alpha, A, B, beta, C, &args);
  }

  void sgemm_bt_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                   float beta, float* C, const GemmArgs& args) const override {
    run_bt(M, N, K, alpha, A, B, beta, C, &args);
  }

 private:
  template <class PackA>
  static void dispatch(Index M, Index N, Index K, float alpha, const float* A, const OpB& b,
                       float beta, float* C, PackA packA, const GemmArgs* args, int variant) {
    const Epilogue* ep =
        (args != nullptr && args->epilogue.enabled()) ? &args->epilogue : nullptr;
    if (args != nullptr && args->cache_weights && M > 0 && K > 0 && alpha != 0.0f) {
      const Index strips = (M + MR - 1) / MR;
      const PackedWeightCache::Key key{A, args->weight_version, variant, M, K};
      // The shared_ptr pins the pack for this call even if the entry is
      // evicted or invalidated mid-GEMM.
      std::shared_ptr<const PackedWeights> pinned = PackedWeightCache::instance().get_or_pack(
          key, A, M * K, static_cast<std::size_t>(strips * MR * K),
          [&](float* dst) { pack_a_full(M, K, packA, dst); });
      const CachedA cached{pinned->data.data(), strips};
      blocked_gemm(M, N, K, alpha, beta, C, packA, b, ep, &cached);
      return;
    }
    blocked_gemm(M, N, K, alpha, beta, C, packA, b, ep, nullptr);
  }

  static void run(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                  float beta, float* C, const GemmArgs* args) {
    dispatch(
        M, N, K, alpha, A, OpB{B, N, 1}, beta, C,
        [A, K](Index i0, Index mt, Index k0, Index kc, float* d) {
          pack_a_rows(A + i0 * K + k0, K, mt, kc, d);
        },
        args, kVariantANormal);
  }

  static void run_at(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                     float beta, float* C, const GemmArgs* args) {
    // A stored KxM: op(A)(i,k) = A[k*M + i].
    dispatch(
        M, N, K, alpha, A, OpB{B, N, 1}, beta, C,
        [A, M](Index i0, Index mt, Index k0, Index kc, float* d) {
          pack_a_trans(A + k0 * M + i0, M, mt, kc, d);
        },
        args, kVariantATrans);
  }

  static void run_bt(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                     float beta, float* C, const GemmArgs* args) {
    // B stored NxK: op(B)(k,j) = B[j*K + k].
    dispatch(
        M, N, K, alpha, A, OpB{B, 1, K}, beta, C,
        [A, K](Index i0, Index mt, Index k0, Index kc, float* d) {
          pack_a_rows(A + i0 * K + k0, K, mt, kc, d);
        },
        args, kVariantANormal);
  }
};

}  // namespace

std::unique_ptr<ComputeBackend> make_cpu_opt_backend() {
  return std::make_unique<CpuOptBackend>();
}

}  // namespace paintplace::backend
