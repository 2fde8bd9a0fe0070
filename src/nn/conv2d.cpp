#include "nn/conv2d.h"

#include <cstring>

#include "backend/workspace.h"
#include "common/parallel.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "obs/trace.h"

namespace paintplace::nn {

Conv2d::Conv2d(std::string name, Index in_channels, Index out_channels, Index kernel, Index stride,
               Index pad, Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_(name + ".weight", Shape{out_channels, in_channels, kernel, kernel}),
      bias_(name + ".bias", Shape{bias ? out_channels : 0}),
      backward_span_(name + ".backward") {
  PP_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 && pad >= 0);
  init_normal(weight_.value, rng);
}

ConvGeom Conv2d::geom_for(Index h, Index w) const {
  return ConvGeom{in_channels_, h, w, kernel_, stride_, pad_};
}

Tensor Conv2d::forward(const Tensor& input) {
  PP_CHECK_MSG(input.rank() == 4 && input.dim(1) == in_channels_,
               "Conv2d " << weight_.name << ": bad input " << input.shape().str()
                         << ", expected (N," << in_channels_ << ",H,W)");
  if (training_) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();  // inference: no backward, skip the activation copy
  }
  const Index N = input.dim(0), H = input.dim(2), W = input.dim(3);
  // Per-layer span named after the parameter ("g.enc3.weight" -> that level
  // of the U-Net). The GEMMs it issues nest inside as child spans.
  obs::Span span(weight_.name, "layer");
  if (span.active()) {
    span.arg("N", N);
    span.arg("HxW", H * W);
    span.arg("Cin", in_channels_);
    span.arg("Cout", out_channels_);
  }
  const ConvGeom g = geom_for(H, W);
  const Index Ho = g.out_height(), Wo = g.out_width();
  Tensor output(Shape{N, out_channels_, Ho, Wo});
  const Index plane_cols = g.col_cols();
  // Bias (always) and the declared activation (eval only — backward needs
  // the pre-activation tensor) ride the GEMM's fused epilogue: the bias is
  // per output channel, i.e. per row of the (Cout, cols) GEMM result, for
  // the single-sample and the batched lowering alike. Weight panels are
  // cached across eval forwards; in training the optimizer rewrites the
  // weights every step, so packing once per call is all a cache could do.
  backend::GemmArgs gemm_args;
  gemm_args.epilogue.bias = has_bias_ ? bias_.value.data() : nullptr;
  if (!training_ && fused_act_ != backend::Epilogue::Act::kNone) {
    gemm_args.epilogue.act = fused_act_;
    gemm_args.epilogue.slope = fused_slope_;
  }
  gemm_args.cache_weights = !training_;
  gemm_args.weight_version = weight_.version;
  // im2col matrices and batched staging live in the thread's workspace arena:
  // steady-state forwards (the serving loop) reuse the same blocks instead of
  // paying a malloc + page-fault storm per pass.
  backend::WorkspaceScope ws;
  if (N == 1) {
    float* col = ws.alloc(static_cast<std::size_t>(g.col_rows() * plane_cols));
    im2col(g, input.data(), col);
    // out(Cout, Ho*Wo) = weight(Cout, Cin*k*k) * col
    sgemm_ex(out_channels_, plane_cols, g.col_rows(), 1.0f, weight_.value.data(), col, 0.0f,
             output.data(), gemm_args);
  } else {
    // Batched lowering: unfold every sample into one wide col matrix and run
    // a single GEMM. On the channel-fat, spatially-tiny inner U-Net levels a
    // per-sample GEMM degenerates to a handful of columns (no SIMD width, a
    // store-to-load accumulation chain per element); widening the column
    // dimension by N restores throughput. Column order is per-element
    // identical to the per-sample GEMM, so results stay bit-exact.
    const Index total_cols = N * plane_cols;
    float* col = ws.alloc(static_cast<std::size_t>(g.col_rows() * total_cols));
    // Serial over samples: im2col itself fans out over C*k*k rows, which is
    // far finer-grained than N and keeps every worker busy at small batches.
    for (Index n = 0; n < N; ++n) {
      im2col(g, input.data() + n * in_channels_ * H * W, col + n * plane_cols, total_cols);
    }
    float* out_cn = ws.alloc(static_cast<std::size_t>(out_channels_ * total_cols));
    sgemm_ex(out_channels_, total_cols, g.col_rows(), 1.0f, weight_.value.data(), col, 0.0f,
             out_cn, gemm_args);
    // Scatter (Cout, N*Ho*Wo) back to NCHW.
    parallel_for_each(N * out_channels_, [&](Index row) {
      const Index n = row / out_channels_, c = row % out_channels_;
      std::memcpy(output.data() + (n * out_channels_ + c) * plane_cols,
                  out_cn + c * total_cols + n * plane_cols,
                  sizeof(float) * static_cast<std::size_t>(plane_cols));
    });
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  PP_CHECK_MSG(!cached_input_.empty(), "Conv2d backward before forward");
  const Tensor& input = cached_input_;
  const Index N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const ConvGeom g = geom_for(H, W);
  const Index Ho = g.out_height(), Wo = g.out_width();
  PP_CHECK_MSG(grad_output.rank() == 4 && grad_output.dim(0) == N &&
                   grad_output.dim(1) == out_channels_ && grad_output.dim(2) == Ho &&
                   grad_output.dim(3) == Wo,
               "Conv2d backward: bad grad shape " << grad_output.shape().str());
  // One span per layer backward; its GEMMs nest inside as child spans.
  obs::Span span(backward_span_, "layer");

  Tensor grad_input(input.shape());
  backend::WorkspaceScope ws;
  const Index rows = g.col_rows(), cols = g.col_cols();
  const std::size_t col_floats = static_cast<std::size_t>(rows * cols);
  if (N == 1) {
    const float* go = grad_output.data();
    float* col = ws.alloc(col_floats);
    float* dcol = ws.alloc(col_floats);
    // dW += go(Cout, Ho*Wo) * col^T
    im2col(g, input.data(), col);
    sgemm_bt(out_channels_, rows, cols, 1.0f, go, col, 1.0f, weight_.grad.data());
    // dcol = W^T(Cin*k*k, Cout) * go
    sgemm_at(rows, cols, out_channels_, 1.0f, weight_.value.data(), go, 0.0f, dcol);
    col2im(g, dcol, grad_input.data());
  } else {
    // Batched lowering of the data gradient (the adjoint of the forward's
    // batched lowering): pack the batch's grad_output into one wide
    // (Cout, N*Ho*Wo) matrix and run a single GEMM. Widening the column
    // dimension leaves every output element's reduction untouched, so each
    // sample's gradient is bit-identical to the per-sample GEMM it replaces.
    const Index total_cols = N * cols;
    float* go_wide = ws.alloc(static_cast<std::size_t>(out_channels_ * total_cols));
    parallel_for_each(N * out_channels_, [&](Index row) {
      const Index n = row / out_channels_, c = row % out_channels_;
      std::memcpy(go_wide + c * total_cols + n * cols,
                  grad_output.data() + (n * out_channels_ + c) * cols,
                  sizeof(float) * static_cast<std::size_t>(cols));
    });
    // dcol_wide = W^T(Cin*k*k, Cout) * go_wide
    float* dcol_wide = ws.alloc(static_cast<std::size_t>(rows * total_cols));
    sgemm_at(rows, total_cols, out_channels_, 1.0f, weight_.value.data(), go_wide, 0.0f,
             dcol_wide);
    for (Index n = 0; n < N; ++n) {
      col2im(g, dcol_wide + n * cols, grad_input.data() + n * in_channels_ * H * W, total_cols);
    }
    // dW is a reduction over the batch: widening K would regroup the
    // floating-point accumulation, so keep the per-sample GEMMs in batch
    // order — bit-identical to accumulating B single-sample backwards.
    float* col = ws.alloc(col_floats);
    for (Index n = 0; n < N; ++n) {
      im2col(g, input.data() + n * in_channels_ * H * W, col);
      sgemm_bt(out_channels_, rows, cols, 1.0f, grad_output.data() + n * out_channels_ * cols, col,
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

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace paintplace::nn
