#include "nn/conv_transpose2d.h"

#include <cstring>

#include "backend/workspace.h"
#include "common/parallel.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "obs/trace.h"

namespace paintplace::nn {

// Transposed convolution is the adjoint of a strided convolution: if conv
// with geometry g maps an image of size (out_h, out_w) down to (in_h, in_w),
// then this layer maps (in_h, in_w) up to (out_h, out_w) by running the
// conv's backward-data pass as its forward (col2im scatter) and the conv's
// forward as its backward.

ConvTranspose2d::ConvTranspose2d(std::string name, Index in_channels, Index out_channels,
                                 Index kernel, Index stride, Index pad, Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(name + ".weight", Shape{in_channels, out_channels, kernel, kernel}),
      bias_(name + ".bias", Shape{bias ? out_channels : 0}),
      backward_span_(name + ".backward") {
  PP_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && pad >= 0);
  init_normal(weight_.value, rng);
}

ConvGeom ConvTranspose2d::geom_for_output(Index out_h, Index out_w) const {
  return ConvGeom{out_channels_, out_h, out_w, kernel_, stride_, pad_};
}

Tensor ConvTranspose2d::forward(const Tensor& input) {
  PP_CHECK_MSG(input.rank() == 4 && input.dim(1) == in_channels_,
               "ConvTranspose2d " << weight_.name << ": bad input " << input.shape().str()
                                  << ", expected (N," << in_channels_ << ",H,W)");
  if (training_) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();  // inference: no backward, skip the activation copy
  }
  const Index N = input.dim(0), H = input.dim(2), W = input.dim(3);
  // Per-layer span, as in Conv2d::forward; GEMM child spans nest inside.
  obs::Span span(weight_.name, "layer");
  if (span.active()) {
    span.arg("N", N);
    span.arg("HxW", H * W);
    span.arg("Cin", in_channels_);
    span.arg("Cout", out_channels_);
  }
  const Index Ho = out_height(H), Wo = out_width(W);
  PP_CHECK_MSG(Ho > 0 && Wo > 0, "ConvTranspose2d output would be empty");
  const ConvGeom g = geom_for_output(Ho, Wo);
  PP_CHECK(g.out_height() == H && g.out_width() == W);

  Tensor output(Shape{N, out_channels_, Ho, Wo});
  const Index plane = H * W;
  // The GEMM's weight panels are cached across eval forwards (the GEMM
  // result is the col matrix that col2im scatter-adds, so bias/activation
  // cannot ride the GEMM epilogue here — they fuse after col2im below).
  backend::GemmArgs gemm_args;
  gemm_args.cache_weights = !training_;
  gemm_args.weight_version = weight_.version;
  // Scratch comes from the thread's workspace arena (see Conv2d::forward).
  backend::WorkspaceScope ws;
  if (N == 1) {
    float* col = ws.alloc(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    // col(Cout*k*k, H*W) = weight^T(Cout*k*k, Cin) * x(Cin, H*W)
    sgemm_at_ex(g.col_rows(), plane, in_channels_, 1.0f, weight_.value.data(), input.data(), 0.0f,
                col, gemm_args);
    col2im(g, col, output.data());
  } else {
    // Batched lowering (see Conv2d::forward): pack the batch into one
    // (Cin, N*H*W) matrix, run a single wide GEMM, and scatter each
    // sample's columns through col2im. Bit-exact vs the per-sample path.
    const Index total_cols = N * plane;
    float* packed = ws.alloc(static_cast<std::size_t>(in_channels_ * total_cols));
    parallel_for_each(N * in_channels_, [&](Index row) {
      const Index n = row / in_channels_, c = row % in_channels_;
      std::memcpy(packed + c * total_cols + n * plane,
                  input.data() + (n * in_channels_ + c) * plane,
                  sizeof(float) * static_cast<std::size_t>(plane));
    });
    float* col = ws.alloc(static_cast<std::size_t>(g.col_rows() * total_cols));
    sgemm_at_ex(g.col_rows(), total_cols, in_channels_, 1.0f, weight_.value.data(), packed, 0.0f,
                col, gemm_args);
    for (Index n = 0; n < N; ++n) {
      col2im(g, col + n * plane, output.data() + n * out_channels_ * Ho * Wo, total_cols);
    }
  }
  // Bias (always) and the declared activation (eval only) in one pass over
  // the scattered output — per sample, per-channel bias on the
  // (Cout, Ho*Wo) plane matrix. Replaces the old bias loop plus a separate
  // full-tensor activation module traversal.
  backend::Epilogue ep;
  ep.bias = has_bias_ ? bias_.value.data() : nullptr;
  if (!training_ && fused_act_ != backend::Epilogue::Act::kNone) {
    ep.act = fused_act_;
    ep.slope = fused_slope_;
  }
  if (ep.enabled()) {
    const Index out_plane = Ho * Wo;
    for (Index n = 0; n < N; ++n) {
      backend::apply_epilogue(out_channels_, out_plane,
                              output.data() + n * out_channels_ * out_plane, ep);
    }
  }
  return output;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  PP_CHECK_MSG(!cached_input_.empty(), "ConvTranspose2d backward before forward");
  const Tensor& input = cached_input_;
  const Index N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const Index Ho = out_height(H), Wo = out_width(W);
  PP_CHECK_MSG(grad_output.rank() == 4 && grad_output.dim(0) == N &&
                   grad_output.dim(1) == out_channels_ && grad_output.dim(2) == Ho &&
                   grad_output.dim(3) == Wo,
               "ConvTranspose2d backward: bad grad shape " << grad_output.shape().str());
  const ConvGeom g = geom_for_output(Ho, Wo);
  // One span per layer backward; its GEMMs nest inside as child spans.
  obs::Span span(backward_span_, "layer");

  Tensor grad_input(input.shape());
  backend::WorkspaceScope ws;
  const Index rows = g.col_rows();
  const Index plane = H * W;  // == g.col_cols()
  if (N == 1) {
    const float* go = grad_output.data();
    float* dcol = ws.alloc(static_cast<std::size_t>(rows * plane));
    im2col(g, go, dcol);
    // dx(Cin, H*W) = weight(Cin, Cout*k*k) * dcol
    sgemm(in_channels_, plane, rows, 1.0f, weight_.value.data(), dcol, 0.0f, grad_input.data());
    // dW(Cin, Cout*k*k) += x(Cin, H*W) * dcol^T
    sgemm_bt(in_channels_, rows, plane, 1.0f, input.data(), dcol, 1.0f, weight_.grad.data());
  } else {
    // Batched data gradient (see Conv2d::backward): unfold every sample's
    // grad_output into one wide (Cout*k*k, N*H*W) matrix and run a single
    // GEMM. Column-widening keeps per-sample results bit-exact.
    const Index total_cols = N * plane;
    float* dcol_wide = ws.alloc(static_cast<std::size_t>(rows * total_cols));
    for (Index n = 0; n < N; ++n) {
      im2col(g, grad_output.data() + n * out_channels_ * Ho * Wo, dcol_wide + n * plane,
             total_cols);
    }
    float* dx_wide = ws.alloc(static_cast<std::size_t>(in_channels_ * total_cols));
    sgemm(in_channels_, total_cols, rows, 1.0f, weight_.value.data(), dcol_wide, 0.0f, dx_wide);
    // Scatter (Cin, N*H*W) back to NCHW.
    parallel_for_each(N * in_channels_, [&](Index row) {
      const Index n = row / in_channels_, c = row % in_channels_;
      std::memcpy(grad_input.data() + (n * in_channels_ + c) * plane,
                  dx_wide + c * total_cols + n * plane,
                  sizeof(float) * static_cast<std::size_t>(plane));
    });
    // dW reduces over the batch: keep per-sample GEMMs in batch order so the
    // accumulation is bit-identical to B sequential single-sample backwards
    // (the second unfold pays one extra im2col; the GEMMs dominate).
    float* dcol = ws.alloc(static_cast<std::size_t>(rows * plane));
    for (Index n = 0; n < N; ++n) {
      im2col(g, grad_output.data() + n * out_channels_ * Ho * Wo, dcol);
      sgemm_bt(in_channels_, rows, plane, 1.0f, input.data() + n * in_channels_ * plane, dcol,
               1.0f, weight_.grad.data());
    }
  }
  if (has_bias_) {
    const Index plane = Ho * Wo;
    for (Index n = 0; n < N; ++n) {
      for (Index c = 0; c < out_channels_; ++c) {
        const float* go = grad_output.data() + (n * out_channels_ + c) * plane;
        double s = 0.0;
        for (Index i = 0; i < plane; ++i) s += static_cast<double>(go[i]);
        bias_.grad[c] += static_cast<float>(s);
      }
    }
  }
  return grad_input;
}

void ConvTranspose2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace paintplace::nn
