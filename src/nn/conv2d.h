// 2-D convolution (NCHW), the encoder/discriminator workhorse.
// pix2pix uses kernel 4, stride 2, pad 1 throughout; the layer is general.
#pragma once

#include "backend/backend.h"
#include "common/rng.h"
#include "nn/im2col.h"
#include "nn/module.h"

namespace paintplace::nn {

class Conv2d : public Module {
 public:
  /// Weight shape: (out_channels, in_channels, kernel, kernel).
  Conv2d(std::string name, Index in_channels, Index out_channels, Index kernel, Index stride,
         Index pad, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Declares that this conv's output feeds directly into `act` (and nothing
  /// else), letting eval-mode forwards fuse the activation into the GEMM
  /// epilogue. The owning network must then skip its separate activation
  /// module in eval mode — see UNetGenerator. Training forwards ignore the
  /// fusion (backward needs the pre-activation tensor).
  void set_fused_activation(backend::Epilogue::Act act, float slope = 0.0f) {
    fused_act_ = act;
    fused_slope_ = slope;
  }

  Index in_channels() const { return in_channels_; }
  Index out_channels() const { return out_channels_; }
  Parameter& weight() { return weight_; }

 private:
  ConvGeom geom_for(Index h, Index w) const;

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
