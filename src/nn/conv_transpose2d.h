// Transposed 2-D convolution (a.k.a. deconvolution) for the U-Net decoder.
// With kernel 4, stride 2, pad 1 it exactly doubles the spatial extent.
#pragma once

#include "backend/backend.h"
#include "common/rng.h"
#include "nn/im2col.h"
#include "nn/module.h"

namespace paintplace::nn {

class ConvTranspose2d : public Module {
 public:
  /// Weight shape: (in_channels, out_channels, kernel, kernel) — PyTorch layout.
  ConvTranspose2d(std::string name, Index in_channels, Index out_channels, Index kernel,
                  Index stride, Index pad, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Declares the activation that directly consumes this layer's output, so
  /// eval-mode forwards apply bias + activation in one fused pass after the
  /// col2im scatter (the GEMM result here is the col matrix, not the output,
  /// so unlike Conv2d the activation cannot ride the GEMM epilogue — but it
  /// shares the bias traversal instead of costing its own). The owning
  /// network must skip its separate activation module in eval mode.
  void set_fused_activation(backend::Epilogue::Act act, float slope = 0.0f) {
    fused_act_ = act;
    fused_slope_ = slope;
  }

  Index out_height(Index in_h) const { return (in_h - 1) * stride_ - 2 * pad_ + kernel_; }
  Index out_width(Index in_w) const { return (in_w - 1) * stride_ - 2 * pad_ + kernel_; }

 private:
  /// Geometry of the *equivalent forward conv* that maps output -> input.
  ConvGeom geom_for_output(Index out_h, Index out_w) const;

  Index in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  backend::Epilogue::Act fused_act_ = backend::Epilogue::Act::kNone;
  float fused_slope_ = 0.0f;
  Parameter weight_;
  Parameter bias_;
  std::string backward_span_;  ///< "<name>.backward", built once for the trace
  Tensor cached_input_;
};

}  // namespace paintplace::nn
