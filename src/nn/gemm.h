// Single-precision GEMM for the convolution kernels.
//
// C (MxN) = alpha * op(A) * op(B) + beta * C, row-major, with optional
// transposition of either operand. These free functions validate arguments
// and dispatch to the process-wide active ComputeBackend (see
// backend/backend.h): "reference" is the original cache-blocked triple loop,
// "cpu_opt" a packed register-blocked micro-kernel; both parallelise over
// C tiles via the process thread pool. Select with PAINTPLACE_BACKEND or
// backend::set_active_backend().
#pragma once

#include "backend/backend.h"
#include "common/check.h"

namespace paintplace::nn {

/// C = alpha * A(MxK) * B(KxN) + beta * C(MxN); all row-major, no aliasing.
void sgemm(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
           float* C);

/// C = alpha * A^T * B + beta * C, where A is (KxM) row-major.
void sgemm_at(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
              float* C);

/// C = alpha * A * B^T + beta * C, where B is (NxK) row-major.
void sgemm_bt(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
              float* C);

// Extended variants: same math plus a backend::GemmArgs carrying a fused
// bias/activation epilogue and the packed-weight-cache hints for the A
// operand. Conv/deconv forwards call these so weight packing happens once
// per (weights, shape) and activations never cost a second pass over C.
// Same spans and counters as the plain wrappers.
void sgemm_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B, float beta,
              float* C, const backend::GemmArgs& args);
void sgemm_at_ex(Index M, Index N, Index K, float alpha, const float* A, const float* B,
                 float beta, float* C, const backend::GemmArgs& args);

}  // namespace paintplace::nn
