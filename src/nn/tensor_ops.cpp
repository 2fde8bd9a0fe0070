#include "nn/tensor_ops.h"

#include <cstring>

#include "common/parallel.h"

namespace paintplace::nn {
namespace {

// Channel-row copies fan out over the pool once the tensor reaches the
// elementwise grain, where memory bandwidth, not dispatch, dominates. Skip
// connections at the outer U-Net levels move multi-megabyte activations
// through these ops every forward pass; tiny test tensors stay serial.
void copy_rows(Index rows, Index total, const std::function<void(Index)>& row_fn) {
  if (total < kParallelGrain) {
    for (Index r = 0; r < rows; ++r) row_fn(r);
  } else {
    parallel_for_each(rows, row_fn);
  }
}

}  // namespace

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  PP_CHECK_MSG(a.rank() == 4 && b.rank() == 4, "concat_channels needs NCHW tensors");
  PP_CHECK_MSG(a.dim(0) == b.dim(0) && a.dim(2) == b.dim(2) && a.dim(3) == b.dim(3),
               "concat_channels mismatch " << a.shape().str() << " vs " << b.shape().str());
  const Index N = a.dim(0), Ca = a.dim(1), Cb = b.dim(1), H = a.dim(2), W = a.dim(3);
  const Index plane = H * W;
  Tensor out(Shape{N, Ca + Cb, H, W});
  copy_rows(N, out.numel(), [&](Index n) {
    std::memcpy(out.data() + (n * (Ca + Cb)) * plane, a.data() + n * Ca * plane,
                sizeof(float) * static_cast<std::size_t>(Ca * plane));
    std::memcpy(out.data() + (n * (Ca + Cb) + Ca) * plane, b.data() + n * Cb * plane,
                sizeof(float) * static_cast<std::size_t>(Cb * plane));
  });
  return out;
}

std::pair<Tensor, Tensor> split_channels(const Tensor& grad, Index channels_a) {
  PP_CHECK_MSG(grad.rank() == 4, "split_channels needs NCHW tensor");
  const Index N = grad.dim(0), C = grad.dim(1), H = grad.dim(2), W = grad.dim(3);
  PP_CHECK_MSG(channels_a > 0 && channels_a < C, "split point out of range");
  const Index Cb = C - channels_a;
  const Index plane = H * W;
  Tensor a(Shape{N, channels_a, H, W});
  Tensor b(Shape{N, Cb, H, W});
  copy_rows(N, grad.numel(), [&](Index n) {
    std::memcpy(a.data() + n * channels_a * plane, grad.data() + (n * C) * plane,
                sizeof(float) * static_cast<std::size_t>(channels_a * plane));
    std::memcpy(b.data() + n * Cb * plane, grad.data() + (n * C + channels_a) * plane,
                sizeof(float) * static_cast<std::size_t>(Cb * plane));
  });
  return {std::move(a), std::move(b)};
}

Tensor stack_batch(const std::vector<const Tensor*>& samples) {
  PP_CHECK_MSG(!samples.empty(), "stack_batch on empty sample list");
  const Tensor& first = *samples.front();
  PP_CHECK_MSG(first.rank() == 4 && first.dim(0) == 1,
               "stack_batch expects (1,C,H,W) samples, got " << first.shape().str());
  const Index C = first.dim(1), H = first.dim(2), W = first.dim(3);
  const Index sample_numel = C * H * W;
  const Index N = static_cast<Index>(samples.size());
  for (Index n = 0; n < N; ++n) {
    const Tensor& s = *samples[static_cast<std::size_t>(n)];
    PP_CHECK_MSG(s.shape() == first.shape(), "stack_batch sample " << n << " shape "
                                                                   << s.shape().str()
                                                                   << " != " << first.shape().str());
  }
  Tensor out(Shape{N, C, H, W});
  copy_rows(N, out.numel(), [&](Index n) {
    std::memcpy(out.data() + n * sample_numel, samples[static_cast<std::size_t>(n)]->data(),
                sizeof(float) * static_cast<std::size_t>(sample_numel));
  });
  return out;
}

Tensor slice_batch(const Tensor& batch, Index n) {
  PP_CHECK_MSG(batch.rank() == 4, "slice_batch needs an NCHW tensor");
  const Index N = batch.dim(0), C = batch.dim(1), H = batch.dim(2), W = batch.dim(3);
  PP_CHECK_MSG(n >= 0 && n < N, "slice_batch index " << n << " out of batch " << N);
  const Index sample_numel = C * H * W;
  Tensor out(Shape{1, C, H, W});
  std::memcpy(out.data(), batch.data() + n * sample_numel,
              sizeof(float) * static_cast<std::size_t>(sample_numel));
  return out;
}

}  // namespace paintplace::nn
